//! Simulated virtual address space with pluggable placement policies.
//!
//! The paper's central experiment contrasts *naive, pointer-based* layouts
//! with *spatially optimized* ones (§7.5, Fig 14), and its motivating Fig 1
//! shows a linked list whose nodes "quickly lose consecutive order in
//! memory". To reproduce both regimes, every workload allocation goes
//! through an [`AddressSpace`] configured with a [`Placement`] policy:
//!
//! * [`Placement::Bump`] — sequential carving, maximal spatial locality
//!   (models arrays and arena allocation);
//! * [`Placement::Scatter`] — allocations of each size class are handed out
//!   in random order from shuffled slabs (models a churned heap where
//!   consecutive `malloc`s land far apart);
//! * [`Placement::Pools`] — size-class pools filled sequentially but
//!   interleaved across classes (models a real `malloc` under moderate
//!   churn: locality within a type, interleaving between types).
//!
//! Addresses are only *names* — no data is stored — but allocations never
//! overlap, which property tests verify.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

use crate::Addr;

/// Base of the simulated heap. Chosen to look like a typical x86-64 heap
/// address and to keep workload addresses clear of the (synthetic) code
/// addresses used for PCs.
pub const HEAP_BASE: Addr = 0x0000_5555_0000_0000;

/// Size of the slab carved per size class when a scatter/pool bag runs dry.
///
/// 4 KiB mirrors page-local slab allocators: scattered allocations are
/// spatially unordered *within* a slab but stay page-local, which is the
/// regime the paper's 1-byte block deltas (±4 kB at 32-byte granularity,
/// §5/§7.3) are designed for.
const SLAB_BYTES: u64 = 1 << 12;

/// Placement policy for [`AddressSpace`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Placement {
    /// Sequential bump allocation: consecutive `alloc` calls return
    /// consecutive addresses. Maximal spatial locality.
    #[default]
    Bump,
    /// Slot-scattering: each size class pre-carves slabs and hands out slots
    /// in random order, so consecutive allocations are spatially unrelated.
    Scatter,
    /// Size-class pools: each class bumps within its own slab, giving
    /// locality within a class but interleaving between classes.
    Pools,
}

/// A simulated virtual-address allocator.
///
/// Deterministic for a given `(seed, policy)` pair, so replaying a workload
/// with the same seed reproduces the identical address stream.
#[derive(Debug)]
pub struct AddressSpace {
    policy: Placement,
    rng: StdRng,
    brk: Addr,
    /// Free slots per size class (Scatter). Keyed by size class; a BTreeMap
    /// keeps any future iteration deterministic — the randomized part of
    /// scatter placement lives in the seeded shuffle, not the map.
    bags: BTreeMap<u64, Vec<Addr>>,
    /// Bump cursor and slab end per size class (Pools).
    pools: BTreeMap<u64, (Addr, Addr)>,
}

impl AddressSpace {
    /// Create an address space with the given RNG seed and placement policy.
    pub fn new(seed: u64, policy: Placement) -> Self {
        AddressSpace {
            policy,
            rng: StdRng::seed_from_u64(seed ^ 0x5ee1_0c8a_11e5_7a11),
            brk: HEAP_BASE,
            bags: BTreeMap::new(),
            pools: BTreeMap::new(),
        }
    }

    /// The placement policy in use.
    pub fn placement(&self) -> &Placement {
        &self.policy
    }

    /// Allocate `size` bytes (8-byte aligned). Returns the base address.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn alloc(&mut self, size: u64) -> Addr {
        assert!(size > 0, "zero-sized allocation");
        let class = size_class(size);
        match self.policy {
            Placement::Bump => self.bump(class),
            Placement::Scatter => self.scatter(class),
            Placement::Pools => self.pool(class),
        }
    }

    /// Allocate a contiguous array of `count` elements of `elem_size` bytes,
    /// always placed sequentially regardless of policy (arrays are contiguous
    /// in any layout; only *object* placement differs between layouts).
    pub fn alloc_array(&mut self, elem_size: u64, count: u64) -> Addr {
        assert!(elem_size > 0 && count > 0, "zero-sized array allocation");
        let bytes = elem_size * count;
        self.bump(round_up(bytes, 8))
    }

    fn bump(&mut self, bytes: u64) -> Addr {
        let a = self.brk;
        self.brk += bytes;
        a
    }

    #[expect(
        clippy::expect_used,
        reason = "the refill above banked `slots >= 1` addresses"
    )]
    fn scatter(&mut self, class: u64) -> Addr {
        let bag = self.bags.entry(class).or_default();
        if bag.is_empty() {
            let slots = (SLAB_BYTES / class).max(1);
            let base = self.brk;
            self.brk += slots * class;
            bag.extend((0..slots).map(|i| base + i * class));
            bag.shuffle(&mut self.rng);
        }
        bag.pop().expect("slab refill produced at least one slot")
    }

    fn pool(&mut self, class: u64) -> Addr {
        let (cursor, end) = match self.pools.get(&class) {
            Some(&(c, e)) if c + class <= e => (c, e),
            _ => {
                let base = self.brk;
                self.brk += SLAB_BYTES.max(class);
                (base, base + SLAB_BYTES.max(class))
            }
        };
        self.pools.insert(class, (cursor + class, end));
        cursor
    }
}

/// Round `size` up to its allocation size class (8-byte aligned, power of
/// two up to 4 KiB, then 4 KiB multiples) — mirrors a slab malloc.
fn size_class(size: u64) -> u64 {
    if size <= 8 {
        8
    } else if size <= 4096 {
        size.next_power_of_two()
    } else {
        round_up(size, 4096)
    }
}

fn round_up(v: u64, to: u64) -> u64 {
    v.div_ceil(to) * to
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_is_sequential() {
        let mut s = AddressSpace::new(1, Placement::Bump);
        let a = s.alloc(32);
        let b = s.alloc(32);
        assert_eq!(b, a + 32);
    }

    #[test]
    fn scatter_is_not_sequential_but_disjoint() {
        let mut s = AddressSpace::new(1, Placement::Scatter);
        let addrs: Vec<Addr> = (0..256).map(|_| s.alloc(32)).collect();
        let sequential = addrs.windows(2).filter(|w| w[1] == w[0] + 32).count();
        // A shuffled bag leaves almost no consecutive pairs.
        assert!(
            sequential < 32,
            "scatter produced {sequential} sequential pairs"
        );
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[1] - w[0] >= 32),
            "overlapping slots"
        );
    }

    #[test]
    fn pools_keep_classes_contiguous() {
        let mut s = AddressSpace::new(1, Placement::Pools);
        let a1 = s.alloc(32);
        let _b = s.alloc(64);
        let a2 = s.alloc(32);
        assert_eq!(a2, a1 + 32, "same-class allocations should be adjacent");
    }

    #[test]
    fn arrays_are_contiguous_under_any_policy() {
        for policy in [Placement::Bump, Placement::Scatter, Placement::Pools] {
            let mut s = AddressSpace::new(7, policy);
            let base = s.alloc_array(8, 100);
            let next = s.alloc_array(8, 1);
            assert!(next >= base + 800);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = AddressSpace::new(42, Placement::Scatter);
        let mut b = AddressSpace::new(42, Placement::Scatter);
        for _ in 0..100 {
            assert_eq!(a.alloc(24), b.alloc(24));
        }
    }

    #[test]
    fn size_classes() {
        assert_eq!(size_class(1), 8);
        assert_eq!(size_class(9), 16);
        assert_eq!(size_class(24), 32);
        assert_eq!(size_class(4096), 4096);
        assert_eq!(size_class(5000), 8192);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_alloc_panics() {
        AddressSpace::new(0, Placement::Bump).alloc(0);
    }
}
