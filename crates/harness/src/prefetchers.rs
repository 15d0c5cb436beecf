//! The prefetcher lineup of the paper's evaluation (§7).

use semloc_baselines::{
    GhbFlavor, GhbPrefetcher, MarkovPrefetcher, NextLinePrefetcher, SmsPrefetcher, StridePrefetcher,
};
use semloc_context::{ContextConfig, ContextPrefetcher};
use semloc_mem::{NoPrefetch, Prefetcher};

/// A buildable prefetcher configuration.
#[derive(Clone, Debug)]
pub enum PrefetcherKind {
    /// No prefetching (the speedup baseline).
    None,
    /// Per-PC stride prefetcher.
    Stride,
    /// GHB global delta-correlation.
    GhbGdc,
    /// GHB per-PC delta-correlation.
    GhbPcdc,
    /// GHB global address-correlation (Markov-style).
    GhbGac,
    /// Spatial memory streaming.
    Sms,
    /// Markov address correlation.
    Markov,
    /// Next-line.
    NextLine,
    /// The paper's context-based prefetcher with the given configuration.
    Context(ContextConfig),
}

impl PrefetcherKind {
    /// The paper's headline comparison set, in Fig 12 bar order:
    /// GHB G/DC, GHB PC/DC, SMS, context.
    pub fn paper_lineup() -> Vec<PrefetcherKind> {
        vec![
            PrefetcherKind::GhbGdc,
            PrefetcherKind::GhbPcdc,
            PrefetcherKind::Sms,
            PrefetcherKind::Context(ContextConfig::default()),
        ]
    }

    /// The default context prefetcher: the paper's single bell reward
    /// centered on the ~30-access average target distance. (§4.3 notes the
    /// one function "accommodates diverse workloads with varying degrees of
    /// success"; [`calibrated_context`](crate::calibrated_context) derives
    /// the per-workload variant, evaluated as an extension in the ablation
    /// experiment.)
    pub fn context() -> Self {
        PrefetcherKind::Context(ContextConfig::default())
    }

    /// Display name, matching each prefetcher's `Prefetcher::name`.
    pub fn label(&self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::Stride => "stride",
            PrefetcherKind::GhbGdc => "ghb-g/dc",
            PrefetcherKind::GhbPcdc => "ghb-pc/dc",
            PrefetcherKind::GhbGac => "ghb-g/ac",
            PrefetcherKind::Sms => "sms",
            PrefetcherKind::Markov => "markov",
            PrefetcherKind::NextLine => "next-line",
            PrefetcherKind::Context(_) => "context",
        }
    }

    /// Instantiate the prefetcher.
    pub fn build(&self) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherKind::None => Box::new(NoPrefetch),
            PrefetcherKind::Stride => Box::new(StridePrefetcher::paper_default()),
            PrefetcherKind::GhbGdc => Box::new(GhbPrefetcher::paper_default(GhbFlavor::GlobalDc)),
            PrefetcherKind::GhbPcdc => Box::new(GhbPrefetcher::paper_default(GhbFlavor::PcDc)),
            PrefetcherKind::GhbGac => Box::new(GhbPrefetcher::paper_default(GhbFlavor::GlobalAc)),
            PrefetcherKind::Sms => Box::new(SmsPrefetcher::paper_default()),
            PrefetcherKind::Markov => Box::new(MarkovPrefetcher::paper_default()),
            PrefetcherKind::NextLine => Box::new(NextLinePrefetcher::default()),
            PrefetcherKind::Context(cfg) => Box::new(ContextPrefetcher::new(cfg.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_built_names() {
        for kind in [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::GhbGdc,
            PrefetcherKind::GhbPcdc,
            PrefetcherKind::GhbGac,
            PrefetcherKind::Sms,
            PrefetcherKind::Markov,
            PrefetcherKind::NextLine,
            PrefetcherKind::context(),
        ] {
            assert_eq!(kind.label(), kind.build().name());
        }
    }

    #[test]
    fn storage_budgets_are_comparable() {
        // §7: "The storage size of all prefetchers was scaled to that used
        // by the context-based prefetcher."
        let budget = PrefetcherKind::context().build().storage_bytes() as f64;
        for kind in [
            PrefetcherKind::Stride,
            PrefetcherKind::GhbGdc,
            PrefetcherKind::Sms,
            PrefetcherKind::Markov,
        ] {
            let b = kind.build().storage_bytes() as f64;
            assert!(
                (0.3..=1.3).contains(&(b / budget)),
                "{} budget {}B vs context {}B",
                kind.label(),
                b,
                budget
            );
        }
    }

    #[test]
    fn paper_lineup_ends_with_context() {
        let lineup = PrefetcherKind::paper_lineup();
        assert_eq!(lineup.len(), 4);
        assert_eq!(lineup.last().unwrap().label(), "context");
    }
}
