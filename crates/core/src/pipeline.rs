//! Pipeline composition — the config surface the policy tournament sweeps.
//!
//! A [`PipelineConfig`] names one point in the design space the trait
//! layers open up: a feature selection ([`FeatureSet`]), a reward shape
//! ([`RewardShape`]) and a CST geometry. [`PipelineConfig::default`]
//! composes exactly the paper's pipeline — the golden digest pins that
//! composition bit-identical to the pre-refactor prefetcher.

use semloc_bandit::RewardShape;

use crate::config::ContextConfig;
use crate::features::{FeatureExtractor, FeatureSet};
use crate::prefetcher::ContextPrefetcher;

/// One composition of the configurable pipeline axes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineConfig {
    /// Which features form the context.
    pub features: FeatureSet,
    /// Reward shape over hit depth.
    pub reward: RewardShape,
    /// CST entries override; `None` keeps the Table-2 geometry (2K
    /// entries, reducer at 8×).
    pub cst_entries: Option<usize>,
}

impl PipelineConfig {
    /// Human-readable cell name, e.g. `table1+bell+cst2048`.
    pub fn label(&self) -> String {
        let base = ContextConfig::default();
        let entries = self.cst_entries.unwrap_or(base.cst_entries);
        format!(
            "{}+{}+cst{}",
            self.features.name(),
            self.reward.label(),
            entries
        )
    }

    /// Apply this composition onto a base configuration (geometry via
    /// [`ContextConfig::with_cst_entries`], so the reducer keeps its 8×
    /// ratio).
    pub fn apply(&self, mut base: ContextConfig) -> ContextConfig {
        base.features = self.features;
        base.reward = self.reward.clone();
        match self.cst_entries {
            Some(entries) => base.with_cst_entries(entries),
            None => base,
        }
    }

    /// Build a prefetcher from this composition over the default base
    /// config.
    pub fn build(&self) -> ContextPrefetcher {
        ContextPrefetcher::new(self.apply(ContextConfig::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_bandit::GaussianPenaltyReward;

    #[test]
    fn default_composition_is_the_paper_pipeline() {
        let composed = PipelineConfig::default().apply(ContextConfig::default());
        let plain = ContextConfig::default();
        // The two configs must be indistinguishable — the golden digest
        // then pins the composed pipeline to the pre-refactor behavior.
        assert_eq!(format!("{composed:?}"), format!("{plain:?}"));
    }

    #[test]
    fn label_names_every_axis() {
        assert_eq!(PipelineConfig::default().label(), "table1+bell+cst2048");
        let cell = PipelineConfig {
            features: FeatureSet::PcDeltas,
            reward: GaussianPenaltyReward::snippet_default().into(),
            cst_entries: Some(4096),
        };
        assert_eq!(cell.label(), "pc+deltas+gauss-pen+cst4096");
    }

    #[test]
    fn geometry_override_keeps_the_reducer_ratio() {
        let cell = PipelineConfig {
            cst_entries: Some(1024),
            ..PipelineConfig::default()
        };
        let cfg = cell.apply(ContextConfig::default());
        assert_eq!(cfg.cst_entries, 1024);
        assert_eq!(cfg.reducer_entries, 8 * 1024);
    }

    #[test]
    fn build_produces_a_validated_prefetcher() {
        let pf = PipelineConfig {
            features: FeatureSet::PcOnly,
            ..PipelineConfig::default()
        }
        .build();
        assert_eq!(pf.config().features, FeatureSet::PcOnly);
    }
}
