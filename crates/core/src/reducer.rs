//! The Reducer — online feature selection (§4.4, Fig 7).
//!
//! The 16-bit full-context hash indexes this direct-mapped table; each
//! entry holds the number of *active* attributes (a prefix of
//! [`Attr::ORDER`](crate::Attr::ORDER)) used to form the partial-context
//! hash that indexes the CST, plus a small saturating overload counter:
//!
//! * **overload** (+1): the routed CST entry had too many competing
//!   prefetch candidates — many full contexts alias one reduced context, so
//!   the entry *activates* the first inactive attribute, splitting the
//!   context;
//! * **underload** (−1): the routed CST entry keeps being cold-allocated —
//!   contexts are spread over too many unique states, so the entry
//!   *deactivates* an attribute, merging contexts.

use crate::attrs::{Attr, FullHash};

#[derive(Clone, Copy, Debug)]
struct Entry {
    tag: u8,
    active: u8,
    pressure: i8,
    valid: bool,
}

/// Direct-mapped feature-selection table.
#[derive(Clone, Debug)]
pub struct Reducer {
    entries: Vec<Entry>,
    mask: usize,
    initial_active: u8,
    overload_threshold: i8,
    underload_threshold: i8,
    frozen: bool,
    activations: u64,
    deactivations: u64,
}

impl Reducer {
    /// A reducer with `entries` slots (power of two), starting every
    /// context at `initial_active` attributes.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `initial_active` is out
    /// of range.
    pub fn new(
        entries: usize,
        initial_active: u8,
        overload_threshold: i8,
        underload_threshold: i8,
        frozen: bool,
    ) -> Self {
        assert!(
            entries.is_power_of_two(),
            "reducer size must be a power of two"
        );
        assert!((1..=Attr::COUNT as u8).contains(&initial_active));
        assert!(overload_threshold > 0 && underload_threshold < 0);
        Reducer {
            entries: vec![
                Entry {
                    tag: 0,
                    active: initial_active,
                    pressure: 0,
                    valid: false
                };
                entries
            ],
            mask: entries - 1,
            initial_active,
            overload_threshold,
            underload_threshold,
            frozen,
            activations: 0,
            deactivations: 0,
        }
    }

    /// Look up the active-attribute count for a full-context hash,
    /// (re)allocating the entry on tag mismatch.
    pub fn active_count(&mut self, full: FullHash) -> u8 {
        let idx = full.reducer_index() & self.mask;
        let tag = full.reducer_tag();
        let initial = self.initial_active;
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            *e = Entry {
                tag,
                active: initial,
                pressure: 0,
                valid: true,
            };
        }
        e.active
    }

    /// Report that the CST entry routed through `full` was **overloaded**
    /// (candidate churn: more predictions competing than link slots).
    pub fn report_overload(&mut self, full: FullHash) {
        if self.frozen {
            return;
        }
        let threshold = self.overload_threshold;
        let idx = full.reducer_index() & self.mask;
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != full.reducer_tag() {
            return;
        }
        e.pressure = e.pressure.saturating_add(1);
        if e.pressure >= threshold && (e.active as usize) < Attr::COUNT {
            e.active += 1;
            e.pressure = 0;
            self.activations += 1;
        }
    }

    /// Report that the CST lookup routed through `full` **cold-allocated**
    /// (contexts spread too thin).
    pub fn report_underload(&mut self, full: FullHash) {
        if self.frozen {
            return;
        }
        let threshold = self.underload_threshold;
        let idx = full.reducer_index() & self.mask;
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != full.reducer_tag() {
            return;
        }
        e.pressure = e.pressure.saturating_sub(1);
        if e.pressure <= threshold && e.active > 1 {
            e.active -= 1;
            e.pressure = 0;
            self.deactivations += 1;
        }
    }

    /// Total attribute activations performed (diagnostics).
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Total attribute deactivations performed (diagnostics).
    pub fn deactivations(&self) -> u64 {
        self.deactivations
    }

    /// Distribution of active counts over valid entries (diagnostics):
    /// `dist[k]` = entries with `k` active attributes.
    pub fn active_histogram(&self) -> [u64; Attr::COUNT + 1] {
        let mut h = [0u64; Attr::COUNT + 1];
        for e in &self.entries {
            if e.valid {
                h[e.active as usize] += 1;
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(v: u16) -> FullHash {
        FullHash(v)
    }

    fn reducer() -> Reducer {
        Reducer::new(16, 4, 3, -8, false)
    }

    #[test]
    fn starts_at_initial_active() {
        let mut r = reducer();
        assert_eq!(r.active_count(full(5)), 4);
    }

    #[test]
    fn overload_activates_after_threshold() {
        let mut r = reducer();
        let f = full(5);
        r.active_count(f);
        r.report_overload(f);
        r.report_overload(f);
        assert_eq!(r.active_count(f), 4, "below threshold: unchanged");
        r.report_overload(f);
        assert_eq!(
            r.active_count(f),
            5,
            "threshold reached: one more attribute"
        );
        assert_eq!(r.activations(), 1);
    }

    #[test]
    fn underload_deactivates_after_threshold() {
        let mut r = reducer();
        let f = full(9);
        r.active_count(f);
        for _ in 0..8 {
            r.report_underload(f);
        }
        assert_eq!(r.active_count(f), 3);
        assert_eq!(r.deactivations(), 1);
    }

    #[test]
    fn active_count_saturates_at_bounds() {
        let mut r = Reducer::new(16, 8, 1, -1, false);
        let f = full(1);
        r.active_count(f);
        r.report_overload(f);
        assert_eq!(r.active_count(f), 8, "cannot exceed the attribute count");
        let mut r = Reducer::new(16, 1, 1, -1, false);
        r.active_count(f);
        r.report_underload(f);
        assert_eq!(r.active_count(f), 1, "at least one attribute stays active");
    }

    #[test]
    fn tag_conflict_reallocates() {
        let mut r = reducer();
        // Same index (lower bits), different tag (upper 2 bits).
        let a = full(0x0005);
        let b = full(0x4005);
        r.active_count(a);
        for _ in 0..3 {
            r.report_overload(a);
        }
        assert_eq!(r.active_count(a), 5);
        // b evicts a; a comes back at the initial count.
        assert_eq!(r.active_count(b), 4);
        assert_eq!(r.active_count(a), 4);
    }

    #[test]
    fn frozen_reducer_never_adapts() {
        let mut r = Reducer::new(16, 4, 1, -1, true);
        let f = full(2);
        r.active_count(f);
        r.report_overload(f);
        r.report_overload(f);
        assert_eq!(r.active_count(f), 4);
        r.report_underload(f);
        assert_eq!(r.active_count(f), 4);
    }

    #[test]
    fn pressure_reports_on_stale_entries_are_ignored() {
        let mut r = reducer();
        let a = full(0x0007);
        let b = full(0x4007);
        r.active_count(a);
        r.active_count(b); // evicts a
        for _ in 0..5 {
            r.report_overload(a); // stale handle: no effect
        }
        assert_eq!(r.active_count(b), 4);
        assert_eq!(r.activations(), 0);
    }

    #[test]
    fn histogram_counts_valid_entries() {
        let mut r = reducer();
        r.active_count(full(0));
        r.active_count(full(1));
        let h = r.active_histogram();
        assert_eq!(h[4], 2);
        assert_eq!(h.iter().sum::<u64>(), 2);
    }
}
