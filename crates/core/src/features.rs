//! Configurable feature extraction — the first trait axis of the pipeline.
//!
//! The paper hard-wires its context to the full Table-1 attribute vector;
//! Pythia (arXiv 2109.12021) shows the *choice* of program features is
//! itself a first-order design axis. [`FeatureSet`] makes that choice a
//! config value: a closed enum of feature selections, each hashing through
//! the same two-level chain as [`FeatureVec`] (inner SplitMix64 per
//! position, serial fold for the full hash and every active prefix), so
//! the Reducer/CST indexing contract is identical across sets.
//!
//! [`FeatureSet::FullTable1`] — the default — delegates to [`FeatureVec`]
//! and is **bit-identical** to the pre-refactor pipeline (the golden
//! digest pins this). The alternative sets fold the same chains over
//! shorter or different feature lists:
//!
//! * [`FeatureSet::PcOnly`] — the classic PC-indexed baseline;
//! * [`FeatureSet::PcDeltas`] — PC plus the last two block deltas, the
//!   signature most table prefetchers (GHB/BO) condition on;
//! * [`FeatureSet::PythiaProgram`] — Pythia's published best pair of
//!   program features (PC+delta, sequence of last deltas) plus page
//!   offset.
//!
//! Every extractor also has a two-pass *reference* path
//! ([`FeatureSet::full_hash_ref`] / [`FeatureSet::key_ref`]) that the
//! differential oracle in `crates/spec` mirrors, keeping the
//! optimized-vs-naive diffing honest across the trait boundary.

use semloc_trace::AccessContext;

use crate::attrs::{
    fold, mix, squeeze, Attr, ContextKey, FeatureVec, FullHash, FULL_SEED, KEY_MASK, KEY_SEED, SALT,
};

/// One feature a custom set can draw: either a Table-1 attribute or a
/// derived spatio-temporal feature Pythia-style sets use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Feat {
    /// A Table-1 context attribute.
    Attr(Attr),
    /// Block delta between this access and the most recent one.
    BlockDelta1,
    /// Block delta between the two most recent accesses.
    BlockDelta2,
    /// Offset of the accessed block within its 4 KiB page (64 blocks at
    /// the default 64 B block).
    PageOffset,
}

impl Feat {
    fn feature(self, ctx: &AccessContext, block_shift: u32) -> u64 {
        match self {
            Feat::Attr(a) => a.feature(ctx, block_shift),
            Feat::BlockDelta1 => {
                (ctx.addr >> block_shift).wrapping_sub(ctx.recent_addrs[0] >> block_shift)
            }
            Feat::BlockDelta2 => (ctx.recent_addrs[0] >> block_shift)
                .wrapping_sub(ctx.recent_addrs[1] >> block_shift),
            Feat::PageOffset => (ctx.addr >> block_shift) & 63,
        }
    }
}

/// Extracts a feature vector from an [`AccessContext`] and exposes the two
/// hashes the pipeline consumes: the full-vector Reducer hash and the
/// active-prefix CST key.
///
/// Implemented by [`FeatureSet`]; a trait (rather than enum-only methods)
/// so the spec oracle and tests can abstract over extraction the same way
/// the prefetcher does.
pub trait FeatureExtractor {
    /// Short label for leaderboards and cell names.
    fn name(&self) -> &'static str;

    /// Number of features in this set (= maximum active-prefix length).
    fn attr_count(&self) -> usize;

    /// Extract every feature of `ctx` once.
    fn extract(&self, ctx: &AccessContext, block_shift: u32) -> ExtractedFeatures;
}

/// The closed set of feature selections a pipeline can be configured with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FeatureSet {
    /// Instruction pointer only.
    PcOnly,
    /// PC plus the last two block deltas.
    PcDeltas,
    /// The paper's full Table-1 attribute vector — the default, bit-
    /// identical to the pre-refactor pipeline.
    #[default]
    FullTable1,
    /// Pythia-like program features: PC, two block deltas, page offset.
    PythiaProgram,
}

/// Feature lists of the custom (non-Table-1) sets, in activation order.
const PC_ONLY: &[Feat] = &[Feat::Attr(Attr::Ip)];
const PC_DELTAS: &[Feat] = &[Feat::Attr(Attr::Ip), Feat::BlockDelta1, Feat::BlockDelta2];
const PYTHIA_PROGRAM: &[Feat] = &[
    Feat::Attr(Attr::Ip),
    Feat::BlockDelta1,
    Feat::BlockDelta2,
    Feat::PageOffset,
];

impl FeatureSet {
    /// Feature list of the custom sets. `FullTable1` has no `Feat` list —
    /// every caller branches to the [`FeatureVec`]/[`FullHash::of`] path
    /// first — so it maps to the empty slice (which would hash every
    /// context identically and trip the equivalence tests immediately if a
    /// future caller forgot the branch).
    fn feats(self) -> &'static [Feat] {
        match self {
            FeatureSet::PcOnly => PC_ONLY,
            FeatureSet::PcDeltas => PC_DELTAS,
            FeatureSet::FullTable1 => &[],
            FeatureSet::PythiaProgram => PYTHIA_PROGRAM,
        }
    }

    /// Two-pass reference full hash (the spec-oracle path). For
    /// [`FeatureSet::FullTable1`] this is exactly [`FullHash::of`].
    pub fn full_hash_ref(self, ctx: &AccessContext, block_shift: u32) -> FullHash {
        if self == FeatureSet::FullTable1 {
            return FullHash::of(ctx, block_shift);
        }
        let mut acc = FULL_SEED;
        for (i, f) in self.feats().iter().enumerate() {
            acc = fold(acc, i as u64, f.feature(ctx, block_shift));
        }
        FullHash(squeeze(acc) as u16)
    }

    /// Two-pass reference prefix key (the spec-oracle path). For
    /// [`FeatureSet::FullTable1`] this is exactly [`ContextKey::of`].
    pub fn key_ref(self, ctx: &AccessContext, active: usize, block_shift: u32) -> ContextKey {
        if self == FeatureSet::FullTable1 {
            return ContextKey::of(ctx, active, block_shift);
        }
        let feats = self.feats();
        let active = active.clamp(1, feats.len());
        let mut acc = KEY_SEED;
        for (i, f) in feats.iter().take(active).enumerate() {
            acc = fold(acc, i as u64, f.feature(ctx, block_shift));
        }
        ContextKey((squeeze(acc) & KEY_MASK) as u32)
    }
}

impl FeatureExtractor for FeatureSet {
    fn name(&self) -> &'static str {
        match self {
            FeatureSet::PcOnly => "pc",
            FeatureSet::PcDeltas => "pc+deltas",
            FeatureSet::FullTable1 => "table1",
            FeatureSet::PythiaProgram => "pythia-prog",
        }
    }

    fn attr_count(&self) -> usize {
        match self {
            FeatureSet::FullTable1 => Attr::COUNT,
            other => other.feats().len(),
        }
    }

    fn extract(&self, ctx: &AccessContext, block_shift: u32) -> ExtractedFeatures {
        if *self == FeatureSet::FullTable1 {
            // The hot default keeps the batched single-pass extractor.
            let fv = FeatureVec::extract(ctx, block_shift);
            return ExtractedFeatures {
                mixed: *fv.mixed(),
                len: Attr::COUNT as u8,
                full: fv.full_hash(),
            };
        }
        let feats = self.feats();
        let mut mixed = [0u64; Attr::COUNT];
        let mut full_acc = FULL_SEED;
        for (i, f) in feats.iter().enumerate() {
            let m = mix(f
                .feature(ctx, block_shift)
                .wrapping_add((i as u64).wrapping_mul(SALT)));
            mixed[i] = m;
            full_acc = mix(full_acc ^ m);
        }
        ExtractedFeatures {
            mixed,
            len: feats.len() as u8,
            full: FullHash(squeeze(full_acc) as u16),
        }
    }
}

/// One access's extracted features: the stored inner mixes (for on-demand
/// prefix keys) and the eagerly folded full hash. The single-pass analogue
/// of [`FeatureVec`], generalized to sets shorter than Table 1.
#[derive(Clone, Copy, Debug)]
pub struct ExtractedFeatures {
    mixed: [u64; Attr::COUNT],
    len: u8,
    full: FullHash,
}

impl ExtractedFeatures {
    /// The 16-bit full-vector hash (Reducer index + tag).
    #[inline]
    pub fn full_hash(&self) -> FullHash {
        self.full
    }

    /// The 19-bit hash of the first `active` features, clamped to
    /// `1..=len` exactly like [`FeatureVec::key`] clamps to the Table-1
    /// width.
    #[inline]
    pub fn key(&self, active: usize) -> ContextKey {
        let active = active.clamp(1, self.len as usize);
        let mut acc = KEY_SEED;
        for &m in &self.mixed[..active] {
            acc = mix(acc ^ m);
        }
        ContextKey((squeeze(acc) & KEY_MASK) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_trace::SemanticHints;

    /// A deterministic stream of contexts exercising every feature source.
    fn varied_contexts(n: usize) -> Vec<AccessContext> {
        let mut state = 0xfeed_face_cafe_beefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|i| {
                let mut c = AccessContext::bare(i as u64, next() & 0xffff_ffff, next(), false);
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

    const ALL: [FeatureSet; 4] = [
        FeatureSet::PcOnly,
        FeatureSet::PcDeltas,
        FeatureSet::FullTable1,
        FeatureSet::PythiaProgram,
    ];

    #[test]
    fn full_table1_is_bit_identical_to_feature_vec() {
        for c in varied_contexts(300) {
            for shift in [5u32, 6] {
                let fv = FeatureVec::extract(&c, shift);
                let ef = FeatureSet::FullTable1.extract(&c, shift);
                assert_eq!(ef.full_hash(), fv.full_hash());
                for active in 0..=(Attr::COUNT + 1) {
                    assert_eq!(ef.key(active), fv.key(active), "prefix {active}");
                }
            }
        }
    }

    #[test]
    fn single_pass_matches_two_pass_reference_for_every_set() {
        for c in varied_contexts(300) {
            for set in ALL {
                let ef = set.extract(&c, 6);
                assert_eq!(ef.full_hash(), set.full_hash_ref(&c, 6), "{}", set.name());
                for active in 0..=(set.attr_count() + 1) {
                    assert_eq!(
                        ef.key(active),
                        set.key_ref(&c, active, 6),
                        "{} prefix {active}",
                        set.name()
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_clamp_respects_each_sets_width() {
        let c = &varied_contexts(1)[0];
        for set in ALL {
            let ef = set.extract(c, 6);
            assert_eq!(ef.key(0), ef.key(1), "{} clamps low", set.name());
            assert_eq!(
                ef.key(set.attr_count()),
                ef.key(99),
                "{} clamps high",
                set.name()
            );
        }
    }

    #[test]
    fn pc_only_ignores_everything_but_the_pc() {
        let mut a = AccessContext::bare(0, 0x400, 0x1000, false);
        let mut b = AccessContext::bare(0, 0x400, 0x9999, true);
        a.reg1 = 1;
        b.reg1 = 2;
        b.branch_history = 0xffff;
        let set = FeatureSet::PcOnly;
        assert_eq!(
            set.extract(&a, 6).full_hash(),
            set.extract(&b, 6).full_hash()
        );
        b.pc = 0x404;
        assert_ne!(
            set.extract(&a, 6).full_hash(),
            set.extract(&b, 6).full_hash()
        );
    }

    #[test]
    fn delta_sets_distinguish_stride_patterns_at_the_same_pc() {
        // Same PC, different stride history: PcOnly collapses them,
        // PcDeltas and PythiaProgram must not.
        let mut a = AccessContext::bare(0, 0x400, 0x4000, false);
        a.recent_addrs = [0x3fc0, 0x3f80, 0, 0];
        let mut b = AccessContext::bare(0, 0x400, 0x4000, false);
        b.recent_addrs = [0x3f80, 0x3f00, 0, 0];
        assert_eq!(
            FeatureSet::PcOnly.extract(&a, 6).full_hash(),
            FeatureSet::PcOnly.extract(&b, 6).full_hash()
        );
        for set in [FeatureSet::PcDeltas, FeatureSet::PythiaProgram] {
            assert_ne!(
                set.extract(&a, 6).full_hash(),
                set.extract(&b, 6).full_hash(),
                "{}",
                set.name()
            );
        }
    }

    #[test]
    fn page_offset_only_matters_to_pythia_program() {
        // Two accesses with identical PC and deltas but different page
        // offsets: only the page-offset-bearing set separates them.
        let mut a = AccessContext::bare(0, 0x400, 0x10_0000, false);
        a.recent_addrs = [0x10_0000 - 0x40, 0x10_0000 - 0x80, 0, 0];
        let mut b = AccessContext::bare(0, 0x400, 0x10_0400, false);
        b.recent_addrs = [0x10_0400 - 0x40, 0x10_0400 - 0x80, 0, 0];
        assert_eq!(
            FeatureSet::PcDeltas.extract(&a, 6).full_hash(),
            FeatureSet::PcDeltas.extract(&b, 6).full_hash()
        );
        assert_ne!(
            FeatureSet::PythiaProgram.extract(&a, 6).full_hash(),
            FeatureSet::PythiaProgram.extract(&b, 6).full_hash()
        );
    }
}
