//! `Cache` against an independent reference: the original nested-`Vec`
//! cache array, one `Vec<Line>` per set with interleaved line metadata.
//! The production cache keeps the same metadata structure-of-arrays and
//! probes it with the `semloc_accel` kernels; every lookup outcome and
//! every eviction must match the reference value for value.

use semloc_mem::cache::Eviction;
use semloc_mem::{Cache, CacheConfig, LookupResult};
use semloc_trace::{Addr, Cycle};

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
    touched: bool,
    lru: u64,
    ready_at: Cycle,
}

/// Set-associative, write-back, true-LRU cache over nested sets.
struct NestedCache {
    sets: Vec<Vec<Line>>,
    set_mask: u64,
    line_shift: u32,
    tick: u64,
}

impl NestedCache {
    fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        NestedCache {
            sets: vec![vec![Line::default(); cfg.ways as usize]; sets as usize],
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tick: 0,
        }
    }

    fn index(&self, addr: Addr) -> (usize, u64) {
        let block = addr >> self.line_shift;
        (
            (block & self.set_mask) as usize,
            block >> self.set_mask.count_ones(),
        )
    }

    fn lookup_demand(&mut self, addr: Addr, now: Cycle, is_write: bool) -> LookupResult {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        for line in &mut self.sets[set] {
            if line.valid && line.tag == tag {
                line.lru = tick;
                if is_write {
                    line.dirty = true;
                }
                if line.ready_at > now {
                    return LookupResult::InFlight {
                        ready_at: line.ready_at,
                        prefetch: line.prefetched,
                    };
                }
                let first = line.prefetched && !line.touched;
                line.touched = true;
                line.prefetched = false;
                return LookupResult::Hit {
                    first_touch_of_prefetch: first,
                };
            }
        }
        LookupResult::Miss
    }

    fn fill(&mut self, addr: Addr, ready_at: Cycle, prefetched: bool, dirty: bool) -> Eviction {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        let ways = &mut self.sets[set];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= dirty;
            line.ready_at = line.ready_at.min(ready_at);
            if !prefetched {
                line.prefetched = false;
                line.touched = true;
            }
            return Eviction {
                valid: false,
                dirty: false,
                useless_prefetch: false,
            };
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("cache set has at least one way");
        let ev = Eviction {
            valid: victim.valid,
            dirty: victim.valid && victim.dirty,
            useless_prefetch: victim.valid && victim.prefetched && !victim.touched,
        };
        *victim = Line {
            tag,
            valid: true,
            dirty,
            prefetched,
            touched: false,
            lru: tick,
            ready_at,
        };
        ev
    }
}

/// Outcomes the random stream must reach, so a silent change to the
/// generator cannot leave a field unchecked.
#[derive(Debug, Default)]
struct Seen {
    in_flight_prefetch: u64,
    first_touch_hits: u64,
    dirty_evictions: u64,
    useless_prefetch_evictions: u64,
}

/// Drive both caches with one cycle per operation over addresses spanning
/// twice the capacity, for eight operations per line. A quarter of the
/// operations are fills landing 0-255 cycles ahead, so lookups also meet
/// lines still in flight and refills of lines already present.
fn check_against_reference(cfg: CacheConfig) {
    let lines = cfg.size_bytes / cfg.line_bytes;
    let mut nested = NestedCache::new(&cfg);
    let mut flat = Cache::new(cfg.clone());
    let mut seen = Seen::default();
    let mut state = 0x1234_u64;
    for now in 0..8 * lines {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let addr = ((state >> 16) % (2 * lines)) * cfg.line_bytes;
        let flag = (state >> 2) & 1 == 1;
        let write = (state >> 3) & 7 == 0;
        if state & 3 == 0 {
            let ready_at = now + ((state >> 8) & 255);
            let want = nested.fill(addr, ready_at, flag, write);
            let got = flat.fill(addr, ready_at, flag, write);
            assert_eq!(got, want, "fill of {addr:#x} at cycle {now}");
            seen.dirty_evictions += u64::from(want.dirty);
            seen.useless_prefetch_evictions += u64::from(want.useless_prefetch);
        } else {
            let want = nested.lookup_demand(addr, now, write);
            let got = flat.lookup_demand(addr, now, write);
            assert_eq!(got, want, "lookup of {addr:#x} at cycle {now}");
            match want {
                LookupResult::InFlight { prefetch: true, .. } => seen.in_flight_prefetch += 1,
                LookupResult::Hit {
                    first_touch_of_prefetch: true,
                } => seen.first_touch_hits += 1,
                _ => {}
            }
        }
    }
    assert!(
        seen.in_flight_prefetch > 0
            && seen.first_touch_hits > 0
            && seen.dirty_evictions > 0
            && seen.useless_prefetch_evictions > 0,
        "the stream missed an outcome: {seen:?}"
    );
}

#[test]
fn flat_cache_matches_nested_reference_on_l1d() {
    check_against_reference(CacheConfig::l1d());
}

#[test]
fn flat_cache_matches_nested_reference_on_l2() {
    check_against_reference(CacheConfig::l2());
}
