//! The four benchmark workloads and the inputs each one generates from
//! `--seed`.

use std::sync::Arc;

use semloc_harness::{PrefetcherKind, TraceStore};
use semloc_trace::BLOCK_LEN;
use semloc_workloads::graph500::Graph500;
use semloc_workloads::ssca2::Ssca2;
use semloc_workloads::ukernels::{
    ArrayTraversal, Bst, HashTest, ListSort, ListTraversal, MapTest, SscaLds,
};
use semloc_workloads::{
    kernel_by_name, spec_suite, CapturedTrace, Composer, KernelBox, ReplayKernel,
};

/// Instructions per single-core cell (the production matrix budget).
pub const BUDGET: u64 = 400_000;

/// Scale of the multi-core schedules, as in `bench_interfere`.
const MC_SCALE: u64 = 1_600_000;

/// Seed of the multi-core schedule composer. Fixed, not derived from
/// `--seed`: the composer picks which kernel runs in each phase and for
/// how long, which moves host cost per instruction by more than the
/// metrics' bounds from one seed to the next.
const COMPOSER_SEED: u64 = 42;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SpecMatrix,
    LdsContext,
    SpecBaseline,
    McSharedL2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SpecMatrix,
        Workload::LdsContext,
        Workload::SpecBaseline,
        Workload::McSharedL2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecMatrix => "spec-matrix",
            Workload::LdsContext => "lds-context",
            Workload::SpecBaseline => "spec-baseline",
            Workload::McSharedL2 => "mc-shared-l2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `--seed` changes this workload's inputs. The SPEC proxies
    /// keep their own fixed seeds, so the two SPEC workloads do not.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::LdsContext | Workload::McSharedL2)
    }

    /// Host seconds of one pass (set-up included) on a quiet 2-vCPU Xeon
    /// host. It turns `--seconds` into a pass count that does not depend on
    /// how fast the code under test is, so two commits compared with the
    /// same `--seconds` both take each op's best of the same number of passes.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::SpecMatrix => 2.4,
            Workload::LdsContext => 0.9,
            Workload::SpecBaseline => 0.8,
            Workload::McSharedL2 => 1.4,
        }
    }

    /// The digest a pass must reproduce, where one is pinned: at the
    /// production scale, for `--seed 0` or any seed of an unseeded workload.
    pub fn expected_digest(self, seed: u64, scale: Scale) -> Option<u64> {
        (scale == Scale::PRODUCTION && (seed == 0 || !self.seeded())).then(|| self.pinned_digest())
    }

    /// The digest of every simulated statistic of one pass at `--seed 0`
    /// and the production scale.
    fn pinned_digest(self) -> u64 {
        match self {
            Workload::SpecMatrix => 0xf038_ff2a_e2d3_0285,
            Workload::LdsContext => 0x72ab_acef_96e9_f517,
            Workload::SpecBaseline => 0x990a_9c59_20f4_038c,
            Workload::McSharedL2 => 0x9449_1268_85a9_7ba1,
        }
    }
}

/// How big one pass is; the production scale unless a test shrinks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Instructions per single-core cell.
    pub budget: u64,
    /// Instructions per timed single-core op (a slice of one cell).
    pub slice: u64,
    /// Schedule scale of the multi-core scenarios.
    pub mc: u64,
}

impl Scale {
    /// 64 decoded blocks per op: ~25 ops per cell, so even the 16-cell
    /// workload has hundreds of ops per pass beyond any percentile it reports.
    pub const PRODUCTION: Scale = Scale {
        budget: BUDGET,
        slice: 64 * BLOCK_LEN as u64,
        mc: MC_SCALE,
    };
}

/// The prefetcher columns of a single-core workload, `none` first as in
/// the evaluation matrix. Empty for the multi-core workload.
pub fn lineup(w: Workload) -> Vec<PrefetcherKind> {
    let mut v = vec![PrefetcherKind::None];
    match w {
        Workload::SpecMatrix => v.extend([
            PrefetcherKind::Stride,
            PrefetcherKind::GhbGdc,
            PrefetcherKind::GhbPcdc,
            PrefetcherKind::Sms,
            PrefetcherKind::context(),
        ]),
        Workload::LdsContext => v.push(PrefetcherKind::context()),
        Workload::SpecBaseline => v.push(PrefetcherKind::Stride),
        Workload::McSharedL2 => v.clear(),
    }
    v
}

/// The pointer-heavy µkernels of the paper, each reseeded `default ^ seed`.
fn lds_kernels(seed: u64) -> Vec<KernelBox> {
    let list = ListTraversal::default();
    let listsort = ListSort::default();
    let ssca = SscaLds::default();
    let bst = Bst::default();
    let hash = HashTest::default();
    let map = MapTest::default();
    let g500 = Graph500::linked();
    let ssca2 = Ssca2::linked();
    vec![
        Box::new(ListTraversal {
            seed: list.seed ^ seed,
            ..list
        }),
        Box::new(ListSort {
            seed: listsort.seed ^ seed,
            ..listsort
        }),
        Box::new(SscaLds {
            seed: ssca.seed ^ seed,
            ..ssca
        }),
        Box::new(Bst {
            seed: bst.seed ^ seed,
            ..bst
        }),
        Box::new(HashTest {
            seed: hash.seed ^ seed,
            ..hash
        }),
        Box::new(MapTest {
            seed: map.seed ^ seed,
            ..map
        }),
        Box::new(Graph500 {
            seed: g500.seed ^ seed,
            ..g500
        }),
        Box::new(Ssca2 {
            seed: ssca2.seed ^ seed,
            ..ssca2
        }),
    ]
}

/// The kernels of a single-core workload, or the registry kernels the
/// multi-core scenarios are built from (the schedule menu mcf, lbm,
/// hashtest, then list and array), each with its capture budget.
pub fn primed_kernels(w: Workload, seed: u64, scale: Scale) -> Vec<(KernelBox, u64)> {
    let at = |ks: Vec<KernelBox>, b: u64| ks.into_iter().map(|k| (k, b)).collect();
    match w {
        Workload::SpecMatrix | Workload::SpecBaseline => at(spec_suite(), scale.budget),
        Workload::LdsContext => at(lds_kernels(seed), scale.budget),
        Workload::McSharedL2 => {
            let menu: Vec<KernelBox> = vec![
                kernel_by_name("mcf").expect("registered SPEC proxy"),
                kernel_by_name("lbm").expect("registered SPEC proxy"),
                Box::new(HashTest {
                    seed: HashTest::default().seed ^ seed,
                    ..HashTest::default()
                }),
            ];
            let cores: Vec<KernelBox> = vec![
                Box::new(ListTraversal {
                    seed: ListTraversal::default().seed ^ seed,
                    ..ListTraversal::default()
                }),
                Box::new(ArrayTraversal {
                    seed: ArrayTraversal::default().seed ^ seed,
                    ..ArrayTraversal::default()
                }),
            ];
            let mut v: Vec<(KernelBox, u64)> = at(menu, scale.mc / 2);
            v.extend(at(cores, scale.mc / 4));
            v
        }
    }
}

/// One multi-core run: the (stream, prefetcher) of every core.
pub type McScenario = Vec<(ReplayKernel, PrefetcherKind)>;

/// Both multi-core scenarios over streams already primed in `store` (see
/// [`primed_kernels`]); composing the two phase-shift schedules and
/// capturing them is part of the set-up.
pub fn mc_scenarios(
    store: &TraceStore,
    primed: &[(KernelBox, u64)],
    scale: Scale,
) -> Vec<McScenario> {
    let replays: Vec<ReplayKernel> = primed
        .iter()
        .map(|(k, b)| store.replay(k.as_ref(), *b))
        .collect();
    let menu: Vec<Arc<CapturedTrace>> = replays[..3].iter().map(|r| r.trace().clone()).collect();
    let (list, array) = (replays[3].clone(), replays[4].clone());
    let m = scale.mc;
    let sched_a = Composer::new(COMPOSER_SEED).phase_shift("perf-sched-a", &menu, 4, m / 8, m / 3);
    let sched_b =
        Composer::new(COMPOSER_SEED ^ 0x4c).phase_shift("perf-sched-b", &menu, 3, m / 8, m / 4);
    let sched_a = store.replay(&sched_a, 0);
    let sched_b = store.replay(&sched_b, 0);
    vec![
        vec![
            (sched_a.clone(), PrefetcherKind::context()),
            (array.clone(), PrefetcherKind::Stride),
        ],
        vec![
            (sched_a, PrefetcherKind::context()),
            (sched_b, PrefetcherKind::GhbGdc),
            (list, PrefetcherKind::Sms),
            (array, PrefetcherKind::Stride),
        ],
    ]
}

/// Metric-name form of a prefetcher label (`ghb-g/dc` → `ghb-gdc`).
pub fn pf_key(label: &str) -> String {
    label.replace('/', "")
}

/// Every prefetcher label a per-layer host-time metric is reported for.
pub const PF_LABELS: [&str; 6] = ["none", "stride", "ghb-g/dc", "ghb-pc/dc", "sms", "context"];

/// The labels that issue prefetches: accuracy and coverage are reported
/// for these only, since both always read 0 for `none`.
pub const PREFETCHING_LABELS: [&str; 5] = ["stride", "ghb-g/dc", "ghb-pc/dc", "sms", "context"];
