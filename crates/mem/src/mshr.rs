//! Miss-status holding registers.
//!
//! Each cache level owns an [`MshrFile`] tracking its outstanding fills.
//! Entries are retired lazily when the current cycle passes their fill time.
//! Capacity pressure is what throttles prefetching (§4.2 of the paper) and
//! bounds memory-level parallelism in the core model.

use semloc_trace::{Addr, Cycle};

/// Whether an outstanding fill was initiated by a demand or a prefetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrKind {
    /// Demand load/store miss.
    Demand,
    /// Prefetch fill.
    Prefetch,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    block: u64,
    /// Cycle from which the entry occupies a register. Demand misses
    /// occupy from allocation; a prefetch whose long-latency leg is carried
    /// by the next level only occupies this file for its final transfer
    /// window.
    start: Cycle,
    fill_at: Cycle,
    kind: MshrKind,
}

impl Entry {
    fn active_at(&self, now: Cycle) -> bool {
        self.start <= now && self.fill_at > now
    }
}

/// A fixed-capacity file of outstanding misses for one cache level.
///
/// ```rust
/// use semloc_mem::{MshrFile, MshrKind};
///
/// let mut mshrs = MshrFile::new(4, 64);
/// assert!(mshrs.try_allocate(0x1000, 322, MshrKind::Demand, 0));
/// // A second access to the same line merges instead of allocating.
/// assert_eq!(mshrs.lookup(0x1020, 10).map(|(fill, _)| fill), Some(322));
/// assert_eq!(mshrs.free(10), 3);
/// assert_eq!(mshrs.free(400), 4); // retired after the fill
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    line_shift: u32,
}

impl MshrFile {
    /// An MSHR file with `capacity` entries for a cache with `line_bytes`
    /// lines.
    pub fn new(capacity: u32, line_bytes: u64) -> Self {
        MshrFile {
            entries: Vec::with_capacity(capacity as usize),
            capacity: capacity as usize,
            line_shift: line_bytes.trailing_zeros(),
        }
    }

    #[inline]
    fn block(&self, addr: Addr) -> u64 {
        addr >> self.line_shift
    }

    /// Drop entries whose fill completed at or before `now`.
    pub fn retire(&mut self, now: Cycle) {
        self.entries.retain(|e| e.fill_at > now);
    }

    /// Free slots at cycle `now` (entries whose occupancy window has not
    /// started yet do not count).
    pub fn free(&mut self, now: Cycle) -> u32 {
        self.retire(now);
        let active = self.entries.iter().filter(|e| e.active_at(now)).count();
        self.capacity.saturating_sub(active) as u32
    }

    /// Outstanding entry for `addr`'s line, if any (after retiring).
    pub fn lookup(&mut self, addr: Addr, now: Cycle) -> Option<(Cycle, MshrKind)> {
        self.retire(now);
        let b = self.block(addr);
        self.entries
            .iter()
            .find(|e| e.block == b)
            .map(|e| (e.fill_at, e.kind))
    }

    /// Try to allocate an entry occupying a register from `now` until
    /// `fill_at`; returns `false` when full.
    pub fn try_allocate(&mut self, addr: Addr, fill_at: Cycle, kind: MshrKind, now: Cycle) -> bool {
        self.try_allocate_window(addr, now, fill_at, kind, now)
    }

    /// Try to allocate an entry that only occupies a register during
    /// `[start, fill_at]` — the final-transfer leg of a fill whose
    /// long-latency portion is tracked by the next level's MSHRs (used by
    /// prefetches that ride the L2's registers to DRAM).
    pub fn try_allocate_window(
        &mut self,
        addr: Addr,
        start: Cycle,
        fill_at: Cycle,
        kind: MshrKind,
        now: Cycle,
    ) -> bool {
        self.retire(now);
        // Capacity is checked at the window start: how many existing
        // entries will still be active when this one becomes active?
        let active_then = self
            .entries
            .iter()
            .filter(|e| e.start <= start && e.fill_at > start)
            .count();
        if active_then >= self.capacity {
            return false;
        }
        self.entries.push(Entry {
            block: self.block(addr),
            start,
            fill_at,
            kind,
        });
        true
    }

    /// Earliest completion among outstanding entries (for modeling the stall
    /// a demand miss suffers when the file is full).
    pub fn earliest_fill(&self) -> Option<Cycle> {
        self.entries.iter().map(|e| e.fill_at).min()
    }

    /// Free slots counting *reservations* by demand misses (every demand
    /// entry not yet filled, regardless of its occupancy window). A demand
    /// miss must not overtake an earlier stalled demand, so demand
    /// backpressure uses this rather than [`MshrFile::free`].
    pub fn free_for_demand(&mut self, now: Cycle) -> u32 {
        self.retire(now);
        let reserved = self
            .entries
            .iter()
            .filter(|e| e.kind == MshrKind::Demand)
            .count();
        self.capacity.saturating_sub(reserved) as u32
    }

    /// Earliest completion among outstanding *demand* entries.
    pub fn earliest_demand_fill(&self) -> Option<Cycle> {
        self.entries
            .iter()
            .filter(|e| e.kind == MshrKind::Demand)
            .map(|e| e.fill_at)
            .min()
    }

    /// Number of outstanding entries (without retiring), for tests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full_then_reject() {
        let mut m = MshrFile::new(2, 64);
        assert!(m.try_allocate(0x000, 100, MshrKind::Demand, 0));
        assert!(m.try_allocate(0x040, 100, MshrKind::Demand, 0));
        assert!(!m.try_allocate(0x080, 100, MshrKind::Demand, 0));
        assert_eq!(m.free(0), 0);
    }

    #[test]
    fn retire_frees_slots() {
        let mut m = MshrFile::new(1, 64);
        assert!(m.try_allocate(0x000, 10, MshrKind::Prefetch, 0));
        assert!(!m.try_allocate(0x040, 20, MshrKind::Demand, 5));
        assert!(m.try_allocate(0x040, 20, MshrKind::Demand, 10));
    }

    #[test]
    fn lookup_matches_same_line_only() {
        let mut m = MshrFile::new(4, 64);
        m.try_allocate(0x1000, 50, MshrKind::Prefetch, 0);
        assert_eq!(m.lookup(0x103f, 0), Some((50, MshrKind::Prefetch)));
        assert_eq!(m.lookup(0x1040, 0), None);
    }

    #[test]
    fn earliest_fill_tracks_minimum() {
        let mut m = MshrFile::new(4, 64);
        m.try_allocate(0x000, 30, MshrKind::Demand, 0);
        m.try_allocate(0x040, 10, MshrKind::Demand, 0);
        assert_eq!(m.earliest_fill(), Some(10));
    }
}
