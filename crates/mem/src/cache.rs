//! A set-associative, write-back, write-allocate cache array with true-LRU
//! replacement.
//!
//! The array stores only metadata (tags and flags); simulated programs never
//! store data. Each line remembers whether it was brought in by a prefetch
//! and whether a demand access has touched it since the fill, which drives
//! the Fig 9 access classification and the "prefetch never hit" statistic.

use crate::config::CacheConfig;
use semloc_trace::{Addr, Cycle};

// (Line metadata is stored structure-of-arrays directly in `Cache`; see
// the field docs there.)

/// Outcome of a cache lookup-and-update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// Present and filled: data available `latency` cycles after the access.
    Hit {
        /// The line was originally brought in by a prefetch and this is the
        /// first demand touch.
        first_touch_of_prefetch: bool,
    },
    /// Present but still in flight (fill outstanding): data available at
    /// `ready_at`.
    InFlight {
        /// Fill-completion cycle of the outstanding request.
        ready_at: Cycle,
        /// The outstanding request is a prefetch.
        prefetch: bool,
    },
    /// Not present.
    Miss,
}

/// What was evicted when a new line was inserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// A valid line was displaced.
    pub valid: bool,
    /// The displaced line was dirty (write-back generated).
    pub dirty: bool,
    /// The displaced line was prefetched and never touched by a demand.
    pub useless_prefetch: bool,
}

/// A set-associative cache array.
///
/// ```rust
/// use semloc_mem::{Cache, CacheConfig, LookupResult};
///
/// let mut l1 = Cache::new(CacheConfig::l1d());
/// assert_eq!(l1.lookup_demand(0x1000, 0, false), LookupResult::Miss);
/// l1.fill(0x1000, 22, false, false);
/// assert!(matches!(l1.lookup_demand(0x1000, 30, false), LookupResult::Hit { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line metadata in parallel arrays, set-major: set `s`, way `w` lives
    /// at index `s * ways + w` of each array. Splitting by field keeps the
    /// tags of a whole set inside one hardware cache line (an 8-way probe
    /// touches 64 contiguous tag bytes instead of striding over ~400 bytes
    /// of interleaved metadata) and exposes flat lanes to the
    /// `semloc_accel` tag-probe and victim-scan kernels.
    tags: Box<[u64]>,
    valid: Box<[bool]>,
    dirty: Box<[bool]>,
    /// Brought in by a prefetch (cleared once a demand access touches it).
    prefetched: Box<[bool]>,
    /// A demand access has touched the line since the fill.
    touched: Box<[bool]>,
    /// LRU timestamps (larger = more recent).
    lru: Box<[u64]>,
    /// Cycle at which each fill completes; before it the line is in flight.
    ready_at: Box<[Cycle]>,
    ways: usize,
    set_mask: u64,
    line_shift: u32,
    tick: u64,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        let line_shift = cfg.line_bytes.trailing_zeros();
        let n = sets as usize * ways;
        Cache {
            tags: vec![0; n].into_boxed_slice(),
            valid: vec![false; n].into_boxed_slice(),
            dirty: vec![false; n].into_boxed_slice(),
            prefetched: vec![false; n].into_boxed_slice(),
            touched: vec![false; n].into_boxed_slice(),
            lru: vec![0; n].into_boxed_slice(),
            ready_at: vec![0; n].into_boxed_slice(),
            ways,
            set_mask: sets - 1,
            line_shift,
            cfg,
            tick: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn index(&self, addr: Addr) -> (usize, u64) {
        let block = addr >> self.line_shift;
        (
            (block & self.set_mask) as usize,
            block >> self.set_mask.count_ones(),
        )
    }

    /// First way of `set` holding a valid line tagged `tag` (the same
    /// first-match the interleaved scan produced), as a flat line index.
    #[inline]
    fn find_line(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let r = base..base + self.ways;
        semloc_accel::find_valid_tag(&self.tags[r.clone()], &self.valid[r], tag).map(|w| base + w)
    }

    /// Look up `addr` at cycle `now` as a demand access, updating LRU and
    /// touch/prefetch flags.
    #[inline]
    pub fn lookup_demand(&mut self, addr: Addr, now: Cycle, is_write: bool) -> LookupResult {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        if let Some(i) = self.find_line(set, tag) {
            self.lru[i] = tick;
            if is_write {
                self.dirty[i] = true;
            }
            if self.ready_at[i] > now {
                return LookupResult::InFlight {
                    ready_at: self.ready_at[i],
                    prefetch: self.prefetched[i],
                };
            }
            let first = self.prefetched[i] && !self.touched[i];
            self.touched[i] = true;
            self.prefetched[i] = false;
            return LookupResult::Hit {
                first_touch_of_prefetch: first,
            };
        }
        LookupResult::Miss
    }

    /// Look up `addr` without modifying any state (for prefetch filtering
    /// and tests).
    #[inline]
    pub fn probe(&self, addr: Addr, now: Cycle) -> LookupResult {
        let (set, tag) = self.index(addr);
        if let Some(i) = self.find_line(set, tag) {
            if self.ready_at[i] > now {
                return LookupResult::InFlight {
                    ready_at: self.ready_at[i],
                    prefetch: self.prefetched[i],
                };
            }
            return LookupResult::Hit {
                first_touch_of_prefetch: self.prefetched[i] && !self.touched[i],
            };
        }
        LookupResult::Miss
    }

    /// Insert the line containing `addr`, becoming ready at `ready_at`.
    /// Returns what was evicted.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "associativity is validated > 0 at construction"
    )]
    pub fn fill(&mut self, addr: Addr, ready_at: Cycle, prefetched: bool, dirty: bool) -> Eviction {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        // Refill of a line already present (e.g. prefetch raced a demand):
        // just refresh, never duplicate tags within a set.
        if let Some(i) = self.find_line(set, tag) {
            self.lru[i] = tick;
            self.dirty[i] |= dirty;
            self.ready_at[i] = self.ready_at[i].min(ready_at);
            if !prefetched {
                // A demand fill claims the line: it must no longer count as
                // an untouched prefetch (Fig 9 classes / `useless_prefetch`),
                // even if a prefetched fill for it is still in flight.
                self.prefetched[i] = false;
                self.touched[i] = true;
            }
            return Eviction {
                valid: false,
                dirty: false,
                useless_prefetch: false,
            };
        }
        let base = set * self.ways;
        let r = base..base + self.ways;
        // First-minimum of `if valid { lru + 1 } else { 0 }`, exactly the
        // `min_by_key` the interleaved scan used.
        let victim = base
            + semloc_accel::victim_way(&self.valid[r.clone()], &self.lru[r])
                .expect("cache set has at least one way");
        let ev = Eviction {
            valid: self.valid[victim],
            dirty: self.valid[victim] && self.dirty[victim],
            useless_prefetch: self.valid[victim]
                && self.prefetched[victim]
                && !self.touched[victim],
        };
        self.tags[victim] = tag;
        self.valid[victim] = true;
        self.dirty[victim] = dirty;
        self.prefetched[victim] = prefetched;
        self.touched[victim] = false;
        self.lru[victim] = tick;
        self.ready_at[victim] = ready_at;
        ev
    }

    /// Count valid lines that were prefetched and never demand-touched
    /// (the residual "prefetch never hit" population at end of run).
    pub fn count_untouched_prefetches(&self) -> u64 {
        (0..self.tags.len())
            .filter(|&i| self.valid[i] && self.prefetched[i] && !self.touched[i])
            .count() as u64
    }

    /// Number of valid lines (occupancy), for tests.
    pub fn valid_lines(&self) -> u64 {
        self.valid.iter().filter(|&&v| v).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup_demand(0x1000, 0, false), LookupResult::Miss);
        c.fill(0x1000, 10, false, false);
        // Before the fill completes: in flight.
        assert_eq!(
            c.lookup_demand(0x1000, 5, false),
            LookupResult::InFlight {
                ready_at: 10,
                prefetch: false
            }
        );
        // After: hit.
        assert_eq!(
            c.lookup_demand(0x1000, 11, false),
            LookupResult::Hit {
                first_touch_of_prefetch: false
            }
        );
    }

    #[test]
    fn prefetched_line_first_touch_is_flagged_once() {
        let mut c = tiny();
        c.fill(0x2000, 0, true, false);
        assert_eq!(
            c.lookup_demand(0x2000, 1, false),
            LookupResult::Hit {
                first_touch_of_prefetch: true
            }
        );
        assert_eq!(
            c.lookup_demand(0x2000, 2, false),
            LookupResult::Hit {
                first_touch_of_prefetch: false
            }
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (4 sets, 64B lines -> set = block % 4).
        let a = 0x0000; // set 0
        let b = 0x0100; // set 0
        let d = 0x0200; // set 0
        c.fill(a, 0, false, false);
        c.fill(b, 0, false, false);
        c.lookup_demand(a, 1, false); // a now MRU
        let ev = c.fill(d, 2, false, false);
        assert!(ev.valid);
        // b should have been the victim: a still hits.
        assert!(matches!(
            c.lookup_demand(a, 3, false),
            LookupResult::Hit { .. }
        ));
        assert_eq!(c.lookup_demand(b, 3, false), LookupResult::Miss);
    }

    #[test]
    fn eviction_reports_useless_prefetch() {
        let mut c = tiny();
        c.fill(0x0000, 0, true, false); // prefetch, never touched
        c.fill(0x0100, 0, false, false);
        let ev = c.fill(0x0200, 0, false, false); // evicts the prefetch (LRU)
        assert!(ev.useless_prefetch);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.fill(0x0000, 0, false, false);
        c.lookup_demand(0x0000, 1, true); // dirty it
        c.fill(0x0100, 0, false, false);
        let ev = c.fill(0x0200, 0, false, false);
        assert!(ev.valid && ev.dirty);
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut c = tiny();
        c.fill(0x0000, 0, false, false);
        c.fill(0x0000, 0, true, false);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn demand_refill_of_prefetched_line_clears_prefetch_class() {
        // Regression: a demand fill racing a prefetched in-flight line used
        // to leave `prefetched`/`touched` untouched, so the line kept
        // counting as an untouched prefetch.
        let mut c = tiny();
        c.fill(0x1000, 50, true, false); // prefetch, in flight until 50
        c.fill(0x1000, 40, false, false); // demand fill for the same line
        assert_eq!(
            c.count_untouched_prefetches(),
            0,
            "demand fill claims the line"
        );
        // The next demand hit is an ordinary hit, not a prefetch first touch.
        assert_eq!(
            c.lookup_demand(0x1000, 60, false),
            LookupResult::Hit {
                first_touch_of_prefetch: false
            }
        );
        // Evicting it must not report a useless prefetch.
        let ev1 = c.fill(0x1100, 100, false, false);
        let ev2 = c.fill(0x1200, 100, false, false);
        assert!(!ev1.useless_prefetch && !ev2.useless_prefetch);
    }

    #[test]
    fn prefetch_refill_of_demand_line_keeps_demand_class() {
        let mut c = tiny();
        c.fill(0x2000, 0, false, false); // demand-owned line
        c.fill(0x2000, 10, true, false); // late prefetch refill
        assert_eq!(c.count_untouched_prefetches(), 0);
        assert_eq!(
            c.lookup_demand(0x2000, 20, false),
            LookupResult::Hit {
                first_touch_of_prefetch: false
            }
        );
    }

    #[test]
    fn untouched_prefetch_census() {
        let mut c = tiny();
        c.fill(0x0000, 0, true, false);
        c.fill(0x0040, 0, true, false);
        c.lookup_demand(0x0040, 1, false);
        assert_eq!(c.count_untouched_prefetches(), 1);
    }
}
