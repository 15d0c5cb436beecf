//! Context attributes and the two-level hashing scheme (Table 1, Fig 7).
//!
//! Every demand access carries an [`AccessContext`]; each [`Attr`] extracts
//! one 64-bit *feature value* from it. The full attribute vector is hashed
//! to 16 bits to index the Reducer; the subset of **active** attributes is
//! re-hashed to 19 bits to index the context-states table.
//!
//! Attribute activation follows a fixed priority order (the "list of
//! attributes" of §4.4, where overload "activates the first inactive
//! attribute in the list"), so an active set is fully described by a prefix
//! length — which is also what lets a Reducer entry fit in a byte of
//! hardware state.

use semloc_trace::AccessContext;

/// One context attribute (a row of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Attr {
    /// Instruction pointer of the memory access.
    Ip,
    /// Object type id (compiler hint).
    TypeId,
    /// Link offset within the object (compiler hint).
    LinkOffset,
    /// Form of reference — `.`, `->`, `*`, index (compiler hint).
    RefForm,
    /// Global branch history.
    BranchHistory,
    /// Values of the access's source registers (e.g. the base pointer or a
    /// searched key).
    RegValues,
    /// The most recently loaded data value.
    LastLoaded,
    /// History of recent memory accesses ("must be used sparingly" — hence
    /// last in the activation order).
    AddrHistory,
}

impl Attr {
    /// Activation priority order: cheap, low-overfit attributes first;
    /// aggressive, localizing ones last.
    pub const ORDER: [Attr; 8] = [
        Attr::Ip,
        Attr::TypeId,
        Attr::LinkOffset,
        Attr::RefForm,
        Attr::BranchHistory,
        Attr::RegValues,
        Attr::LastLoaded,
        Attr::AddrHistory,
    ];

    /// Number of attributes.
    pub const COUNT: usize = Self::ORDER.len();

    /// Extract this attribute's 64-bit feature value from an access
    /// context. `block_shift` sets the address granularity for
    /// address-valued features.
    pub fn feature(self, ctx: &AccessContext, block_shift: u32) -> u64 {
        match self {
            Attr::Ip => ctx.pc,
            Attr::TypeId => ctx.hints.map_or(u64::MAX, |h| h.type_id as u64),
            Attr::LinkOffset => ctx.hints.map_or(u64::MAX, |h| h.link_offset as u64),
            Attr::RefForm => ctx.hints.map_or(u64::MAX, |h| h.ref_form.code() as u64),
            Attr::BranchHistory => ctx.branch_history as u64,
            Attr::RegValues => mix(ctx.reg1).wrapping_add(mix(ctx.reg2).rotate_left(17)),
            Attr::LastLoaded => ctx.last_loaded,
            Attr::AddrHistory => {
                let a = ctx.recent_addrs[0] >> block_shift;
                let b = ctx.recent_addrs[1] >> block_shift;
                mix(a).wrapping_add(mix(b).rotate_left(23))
            }
        }
    }
}

/// All hashes of one access's attribute vector, extracted in a single pass.
///
/// [`FullHash::of`] and [`ContextKey::of`] each walk the attribute list and
/// re-extract every feature; the prefetcher hot path needs the full hash
/// *and* one prefix key per access, and the reducer may ask for any of the
/// 8 prefix lengths. `FeatureVec` folds one feature-extraction pass into
/// both hash chains at once: the per-position inner mix
/// `mix(feature ⊕ salt)` is shared between the chains, so after 8 features
/// and 16 outer mixes every prefix key and the full hash are available in
/// O(1). All values are bit-identical to the two-pass reference
/// implementations (see the equivalence tests below).
#[derive(Clone, Copy, Debug)]
pub struct FeatureVec {
    /// Per-position inner mixes `mix(feature_i ⊕ salt_i)` — the term both
    /// hash chains consume at position `i`.
    mixed: [u64; Attr::COUNT],
    full: FullHash,
}

impl FeatureVec {
    /// Extract every attribute of `ctx` once; the full-vector chain folds
    /// eagerly (always needed), prefix keys fold on demand from the stored
    /// inner mixes.
    #[inline]
    pub fn extract(ctx: &AccessContext, block_shift: u32) -> Self {
        // The 8 independent inner mixes `mix(feature_i ⊕ salt_i)` go
        // through one `mix8` batch; only the full-chain fold is serial.
        // `mix8`'s lanes are exactly `Attr::COUNT` wide.
        const { assert!(Attr::COUNT == 8) };
        let mut mixed = [0u64; Attr::COUNT];
        for (i, attr) in Attr::ORDER.into_iter().enumerate() {
            mixed[i] = attr
                .feature(ctx, block_shift)
                .wrapping_add((i as u64).wrapping_mul(SALT));
        }
        semloc_accel::mix8(&mut mixed);
        let mut full_acc = FULL_SEED;
        for &m in &mixed {
            full_acc = mix(full_acc ^ m);
        }
        FeatureVec {
            mixed,
            full: FullHash(squeeze(full_acc) as u16),
        }
    }

    /// The 16-bit full-vector hash (equals [`FullHash::of`]).
    #[inline]
    pub fn full_hash(&self) -> FullHash {
        self.full
    }

    /// The 19-bit hash of the first `active` attributes (equals
    /// [`ContextKey::of`]); `active` is clamped to `1..=8` the same way.
    #[inline]
    pub fn key(&self, active: usize) -> ContextKey {
        let active = active.clamp(1, Attr::COUNT);
        let mut acc = KEY_SEED;
        for &m in &self.mixed[..active] {
            acc = mix(acc ^ m);
        }
        ContextKey((squeeze(acc) & KEY_MASK) as u32)
    }

    /// The stored per-position inner mixes (for the feature-set layer,
    /// which re-folds prefixes of alternative attribute selections).
    #[inline]
    pub(crate) fn mixed(&self) -> &[u64; Attr::COUNT] {
        &self.mixed
    }
}

/// The 16-bit hash of the *full* attribute vector (Reducer index + tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FullHash(pub u16);

impl FullHash {
    /// Hash the full attribute vector of `ctx`.
    ///
    /// Reference implementation; the hot path uses [`FeatureVec`], which
    /// must stay bit-identical to this.
    pub fn of(ctx: &AccessContext, block_shift: u32) -> Self {
        let mut acc = FULL_SEED;
        for (i, attr) in Attr::ORDER.into_iter().enumerate() {
            acc = fold(acc, i as u64, attr.feature(ctx, block_shift));
        }
        FullHash(squeeze(acc) as u16)
    }

    /// Reducer index (lower 14 bits — Fig 7).
    #[inline]
    pub fn reducer_index(self) -> usize {
        (self.0 & 0x3fff) as usize
    }

    /// Reducer tag (remaining 2 bits — Fig 7).
    #[inline]
    pub fn reducer_tag(self) -> u8 {
        (self.0 >> 14) as u8
    }
}

/// The 19-bit hash of the *active-prefix* attribute vector: the final CST
/// index/tag pair (Fig 7: 19 bits, 8 of which serve as tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ContextKey(pub u32);

impl ContextKey {
    /// Hash the first `active` attributes (in [`Attr::ORDER`]) of `ctx`.
    ///
    /// Reference implementation; the hot path uses [`FeatureVec`], which
    /// must stay bit-identical to this.
    pub fn of(ctx: &AccessContext, active: usize, block_shift: u32) -> Self {
        let active = active.clamp(1, Attr::COUNT);
        let mut acc = KEY_SEED;
        for (i, attr) in Attr::ORDER.into_iter().take(active).enumerate() {
            acc = fold(acc, i as u64, attr.feature(ctx, block_shift));
        }
        ContextKey((squeeze(acc) & KEY_MASK) as u32)
    }

    /// CST index under a table of `entries` (power of two) entries.
    #[inline]
    pub fn cst_index(self, entries: usize) -> usize {
        debug_assert!(entries.is_power_of_two());
        (self.0 as usize) & (entries - 1)
    }

    /// CST tag (8 bits above the 11-bit index of the default 2K-entry
    /// table).
    #[inline]
    pub fn cst_tag(self) -> u8 {
        (self.0 >> 11) as u8
    }
}

/// Chain seed of the full-vector hash.
pub(crate) const FULL_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Chain seed of the active-prefix hash.
pub(crate) const KEY_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// Per-position salt multiplier of the inner mix.
pub(crate) const SALT: u64 = 0x2545_f491_4f6c_dd1d;
/// 19-bit ContextKey mask.
pub(crate) const KEY_MASK: u64 = 0x7ffff;

/// SplitMix64 finalizer — a cheap, well-distributed 64-bit mixer.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[inline]
pub(crate) fn fold(acc: u64, salt: u64, v: u64) -> u64 {
    mix(acc ^ mix(v.wrapping_add(salt.wrapping_mul(SALT))))
}

#[inline]
pub(crate) fn squeeze(v: u64) -> u64 {
    v ^ (v >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_trace::{AccessContext, SemanticHints};

    fn ctx(pc: u64, addr: u64) -> AccessContext {
        AccessContext::bare(0, pc, addr, false)
    }

    #[test]
    fn order_contains_each_attribute_once() {
        let set: std::collections::BTreeSet<_> = Attr::ORDER.iter().collect();
        assert_eq!(set.len(), Attr::COUNT);
    }

    #[test]
    fn hints_distinguish_contexts() {
        let mut a = ctx(0x400, 0x1000);
        let mut b = ctx(0x400, 0x1000);
        a.hints = Some(SemanticHints::link(1, 8));
        b.hints = Some(SemanticHints::link(2, 8));
        // With the hint attributes in the active prefix the keys differ.
        assert_ne!(ContextKey::of(&a, 4, 5), ContextKey::of(&b, 4, 5));
        // With only the IP active they collapse to the same context.
        assert_eq!(ContextKey::of(&a, 1, 5), ContextKey::of(&b, 1, 5));
    }

    #[test]
    fn register_values_only_matter_when_active() {
        let mut a = ctx(0x400, 0x1000);
        let mut b = ctx(0x400, 0x1000);
        a.reg1 = 0xAAAA;
        b.reg1 = 0xBBBB;
        assert_eq!(ContextKey::of(&a, 5, 5), ContextKey::of(&b, 5, 5));
        assert_ne!(ContextKey::of(&a, 6, 5), ContextKey::of(&b, 6, 5));
    }

    #[test]
    fn full_hash_fields_partition_16_bits() {
        let h = FullHash(0xffff);
        assert_eq!(h.reducer_index(), 0x3fff);
        assert_eq!(h.reducer_tag(), 0b11);
    }

    #[test]
    fn context_key_fields_partition_19_bits() {
        let k = ContextKey(0x7ffff);
        assert_eq!(k.cst_index(2048), 2047);
        assert_eq!(k.cst_tag(), 0xff);
    }

    #[test]
    fn keys_are_deterministic() {
        let mut a = ctx(0x400, 0x1000);
        a.branch_history = 0x55;
        a.reg1 = 7;
        assert_eq!(ContextKey::of(&a, 8, 5), ContextKey::of(&a, 8, 5));
        assert_eq!(FullHash::of(&a, 5), FullHash::of(&a, 5));
    }

    #[test]
    fn missing_hints_hash_differently_from_zero_hints() {
        let mut with = ctx(0x400, 0x1000);
        with.hints = Some(SemanticHints::default());
        let without = ctx(0x400, 0x1000);
        assert_ne!(ContextKey::of(&with, 4, 5), ContextKey::of(&without, 4, 5));
    }

    #[test]
    fn active_prefix_is_clamped() {
        let a = ctx(0x400, 0x1000);
        assert_eq!(ContextKey::of(&a, 0, 5), ContextKey::of(&a, 1, 5));
        assert_eq!(ContextKey::of(&a, 99, 5), ContextKey::of(&a, 8, 5));
    }

    /// A deterministic stream of contexts exercising every attribute,
    /// including presence/absence of semantic hints.
    fn varied_contexts(n: usize) -> Vec<AccessContext> {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|i| {
                let mut c = ctx(next() & 0xffff_ffff, next());
                c.seq = i as u64;
                c.is_write = next() % 2 == 0;
                c.branch_history = next() as u16;
                c.recent_addrs = [next(), next(), next(), next()];
                c.reg1 = next();
                c.reg2 = next();
                c.last_loaded = next();
                if next() % 3 == 0 {
                    c.hints = Some(SemanticHints::link(
                        (next() % 64) as u16,
                        (next() % 256) as u16,
                    ));
                }
                c
            })
            .collect()
    }

    #[test]
    fn feature_vec_full_hash_matches_reference() {
        for c in varied_contexts(500) {
            for shift in [5u32, 6] {
                assert_eq!(
                    FeatureVec::extract(&c, shift).full_hash(),
                    FullHash::of(&c, shift)
                );
            }
        }
    }

    #[test]
    fn feature_vec_keys_match_reference_at_every_prefix() {
        for c in varied_contexts(500) {
            let fv = FeatureVec::extract(&c, 6);
            for active in 0..=(Attr::COUNT + 1) {
                assert_eq!(
                    fv.key(active),
                    ContextKey::of(&c, active, 6),
                    "prefix {active} diverged"
                );
            }
        }
    }
}
