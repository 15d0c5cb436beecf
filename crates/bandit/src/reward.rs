//! Reward shaping for delayed prefetch feedback (§4.3 and Fig 5).
//!
//! A prediction's *hit depth* is the number of demand memory accesses
//! between issuing the prediction and the demand that hit it. Useful
//! prefetches land inside the effective prefetch window — early enough to
//! hide the L1 miss penalty, late enough not to be evicted first. The
//! paper's reward is **bell-shaped over the window with negative edges**:
//! repetitions at useful distances are promoted; relations that drift
//! outside the window are demoted; predictions that expire unhit receive a
//! negative reward.
//!
//! Beyond the paper's bell, this module carries the alternative shapes the
//! policy tournament sweeps: a gaussian bell with a *multiplicative*
//! out-of-window penalty (after the gem5 `context_based_prefetcher`
//! variant) and Pythia-style discrete reward levels. [`RewardShape`] is the
//! closed, config-storable sum of all of them.

/// Maps a hit depth (in demand memory accesses) to a score delta.
pub trait RewardFunction {
    /// Reward for a prediction hit `depth` accesses after issue.
    fn reward(&self, depth: u32) -> i32;

    /// Reward for a prediction that expired without being hit.
    fn expiry(&self) -> i32;

    /// The window `[lo, hi]` of depths considered timely (positive reward).
    fn window(&self) -> (u32, u32);

    /// The smallest depth `S` with `reward(d) == reward(S)` for every
    /// `d >= S` — i.e. where the shaping has flattened into its constant
    /// tail. Lets [`RewardLut`] tabulate the function exactly.
    fn stable_depth(&self) -> u32;
}

/// An exact table of a [`RewardFunction`]: `reward(d)` for every depth up
/// to [`RewardFunction::stable_depth`], with deeper lookups clamped onto
/// the (constant) tail entry. Bit-identical to evaluating the function —
/// the bell's two `exp()` calls per prefetch-queue hit become one clamped
/// load, and batched lookups can go through `semloc_accel::gather_i32` on
/// the raw [`RewardLut::table`].
#[derive(Clone, Debug, PartialEq)]
pub struct RewardLut {
    table: Vec<i32>,
    expiry: i32,
}

impl RewardLut {
    /// Tabulate `f` exactly.
    pub fn new(f: &dyn RewardFunction) -> Self {
        let table: Vec<i32> = (0..=f.stable_depth()).map(|d| f.reward(d)).collect();
        RewardLut {
            table,
            expiry: f.expiry(),
        }
    }

    /// `f.reward(depth)`, for any depth.
    #[inline]
    pub fn reward(&self, depth: u32) -> i32 {
        self.table[(depth as usize).min(self.table.len() - 1)]
    }

    /// `f.expiry()`.
    #[inline]
    pub fn expiry(&self) -> i32 {
        self.expiry
    }

    /// The raw table for batched gathers: `table()[min(d, len-1)]` is the
    /// reward at depth `d` (exactly `semloc_accel::gather_i32` semantics).
    #[inline]
    pub fn table(&self) -> &[i32] {
        &self.table
    }
}

/// The paper's bell-shaped reward (Fig 5).
///
/// Inside the window the reward is a quadratic bell peaking at the target
/// prefetch distance and degrading gracefully toward the window edges; just
/// outside the window it dips negative (demoting relations that shifted out
/// of usefulness) and decays toward zero far away.
/// ```rust
/// use semloc_bandit::{BellReward, RewardFunction};
///
/// let bell = BellReward::paper_default();
/// assert_eq!(bell.window(), (18, 50));
/// assert_eq!(bell.reward(34), 16);            // peak at the center
/// assert!(bell.reward(60) < 0);               // too early: demoted
/// assert!(bell.reward(10) >= 0);              // late: partial merge credit
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BellReward {
    lo: u32,
    hi: u32,
    peak: i32,
    edge_penalty: i32,
    expiry_penalty: i32,
}

impl BellReward {
    /// A bell over `[lo, hi]` with the given peak reward, edge penalty and
    /// expiry penalty.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`, or `peak <= 0`, or penalties are positive.
    pub fn new(lo: u32, hi: u32, peak: i32, edge_penalty: i32, expiry_penalty: i32) -> Self {
        assert!(lo < hi, "window must be non-empty");
        assert!(peak > 0, "peak reward must be positive");
        assert!(
            edge_penalty <= 0 && expiry_penalty <= 0,
            "penalties must be non-positive"
        );
        BellReward {
            lo,
            hi,
            peak,
            edge_penalty,
            expiry_penalty,
        }
    }

    /// The paper's configuration: positive window 18–50 accesses (§7.1),
    /// centered on the ~30-access average target distance (§4.3).
    pub fn paper_default() -> Self {
        BellReward::new(18, 50, 16, -8, -4)
    }

    /// The peak reward at the window center.
    pub fn peak(&self) -> i32 {
        self.peak
    }

    /// The (non-positive) penalty applied just past the early edge.
    pub fn edge_penalty(&self) -> i32 {
        self.edge_penalty
    }

    /// Build a bell for a measured target prefetch distance, per §4.3:
    /// `distance = L1 miss penalty × IPC × Prob(mem op)`. The window spans
    /// 0.6×–1.67× the target, mirroring the paper's 18–50 around ~30.
    pub fn for_target_distance(target: f64) -> Self {
        let target = target.clamp(4.0, 512.0);
        let lo = (target * 0.6).round() as u32;
        let hi = (target * 5.0 / 3.0).round() as u32;
        BellReward::new(lo.max(1), hi.max(lo.max(1) + 2), 16, -8, -4)
    }
}

impl RewardFunction for BellReward {
    fn reward(&self, depth: u32) -> i32 {
        let (lo, hi) = (self.lo as f64, self.hi as f64);
        let d = depth as f64;
        let center = (lo + hi) / 2.0;
        let sigma = (hi - lo) / 2.0;
        if depth <= self.hi {
            // Gaussian bell peaking at the window center. Its late-side
            // tail stays (mildly) positive: a prediction hit only a few
            // accesses after issue still shortens the demand's wait by
            // merging into the in-flight fill, so near-window-late
            // repetitions deserve partial credit rather than demotion.
            let x = (d - center) / sigma;
            ((self.peak as f64) * (-x * x).exp()).round() as i32
        } else {
            // Early side: negative edge decaying toward zero away from the
            // window — data fetched too early risks eviction before use,
            // and pairs whose relation drifted out of the window are
            // demoted (§4.3).
            let dist = d - hi;
            let decay = (-dist / 16.0).exp();
            ((self.edge_penalty as f64) * decay).round() as i32
        }
    }

    fn expiry(&self) -> i32 {
        self.expiry_penalty
    }

    fn window(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }

    fn stable_depth(&self) -> u32 {
        // Past `hi` the penalty magnitude decays strictly toward zero, so
        // the first depth whose rounded value is 0 starts the constant
        // tail. The walk is short: even an extreme penalty needs only
        // ~16·ln(2·|edge|) extra depths to round to zero.
        let mut d = self.hi + 1;
        while self.reward(d) != 0 {
            d += 1;
        }
        d
    }
}

/// A flat step reward (ablation A2): full peak anywhere inside the window,
/// constant penalty outside. Removes the paper's graceful degradation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepReward {
    lo: u32,
    hi: u32,
    peak: i32,
    penalty: i32,
}

impl StepReward {
    /// A step over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `peak <= 0` or `penalty > 0`.
    pub fn new(lo: u32, hi: u32, peak: i32, penalty: i32) -> Self {
        assert!(lo < hi && peak > 0 && penalty <= 0);
        StepReward {
            lo,
            hi,
            peak,
            penalty,
        }
    }

    /// Step analogue of [`BellReward::paper_default`].
    pub fn paper_default() -> Self {
        StepReward::new(18, 50, 16, -8)
    }
}

impl RewardFunction for StepReward {
    fn reward(&self, depth: u32) -> i32 {
        if depth >= self.lo && depth <= self.hi {
            self.peak
        } else {
            self.penalty
        }
    }

    fn expiry(&self) -> i32 {
        self.penalty / 2
    }

    fn window(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }

    fn stable_depth(&self) -> u32 {
        // Constant `penalty` everywhere past the window's upper edge.
        self.hi + 1
    }
}

impl StepReward {
    /// The flat in-window reward.
    pub fn peak(&self) -> i32 {
        self.peak
    }

    /// The flat out-of-window penalty.
    pub fn penalty(&self) -> i32 {
        self.penalty
    }
}

/// A gaussian bell with a **multiplicative** out-of-window penalty, after
/// the gem5 `context_based_prefetcher` variant: inside `center ± 2σ` the
/// reward is `round(scale · exp(−(d−center)² / 2σ²))`; outside it the same
/// gaussian magnitude is *negated and amplified* by `penalty_factor`, so a
/// hit just past the window is punished hard while a far-off hit (tiny
/// gaussian) fades to zero on its own.
///
/// Parameters are integers (golden-digest determinism); the
/// gaussian is evaluated in `f64` and rounded exactly like [`BellReward`],
/// so the [`RewardLut`] tabulation stays bit-exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaussianPenaltyReward {
    center: u32,
    sigma: u32,
    scale: i32,
    penalty_factor: i32,
    expiry_penalty: i32,
}

impl GaussianPenaltyReward {
    /// A gaussian-with-penalty shape centered on `center` with width
    /// `sigma`, peak `scale`, out-of-window amplification `penalty_factor`
    /// and expiry penalty `expiry_penalty`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma == 0`, `scale <= 0`, `penalty_factor < 0`, or
    /// `expiry_penalty > 0`.
    pub fn new(
        center: u32,
        sigma: u32,
        scale: i32,
        penalty_factor: i32,
        expiry_penalty: i32,
    ) -> Self {
        assert!(sigma >= 1, "gaussian width must be positive");
        assert!(scale > 0, "peak scale must be positive");
        assert!(penalty_factor >= 0, "penalty factor must be non-negative");
        assert!(expiry_penalty <= 0, "expiry penalty must be non-positive");
        GaussianPenaltyReward {
            center,
            sigma,
            scale,
            penalty_factor,
            expiry_penalty,
        }
    }

    /// The reference-variant parameters (center 30, σ 10) mapped onto this
    /// simulator's i8 score rails: the source uses scale 100 / factor 20,
    /// which would pin every score at the ±127 saturation rails and erase
    /// the ranking the CST replaces by; 16 / 4 keeps the identical shape at
    /// the paper bell's dynamic range.
    pub fn snippet_default() -> Self {
        GaussianPenaltyReward::new(30, 10, 16, 4, -4)
    }

    /// The gaussian center (peak depth).
    pub fn center(&self) -> u32 {
        self.center
    }

    /// The gaussian width σ.
    pub fn sigma(&self) -> u32 {
        self.sigma
    }

    /// The peak scale.
    pub fn scale(&self) -> i32 {
        self.scale
    }

    /// The out-of-window amplification factor.
    pub fn penalty_factor(&self) -> i32 {
        self.penalty_factor
    }

    /// The raw gaussian magnitude at `depth` (before the window sign).
    fn gaussian(&self, depth: u32) -> i32 {
        let d = depth as f64;
        let center = self.center as f64;
        let sigma = self.sigma as f64;
        let x = d - center;
        ((self.scale as f64) * (-(x * x) / (2.0 * sigma * sigma)).exp()).round() as i32
    }
}

impl RewardFunction for GaussianPenaltyReward {
    fn reward(&self, depth: u32) -> i32 {
        let (lo, hi) = self.window();
        let g = self.gaussian(depth);
        if depth < lo || depth > hi {
            -g * self.penalty_factor
        } else {
            g
        }
    }

    fn expiry(&self) -> i32 {
        self.expiry_penalty
    }

    fn window(&self) -> (u32, u32) {
        let lo = self.center.saturating_sub(2 * self.sigma).max(1);
        (lo, self.center + 2 * self.sigma)
    }

    fn stable_depth(&self) -> u32 {
        // Past `hi` the reward is −penalty_factor·gaussian, and the
        // gaussian magnitude decays strictly toward zero, so the walk
        // terminates at the first depth that rounds to 0 (≈ center +
        // σ·√(2·ln(2·scale·factor)) — a few σ past the window).
        let (_, hi) = self.window();
        let mut d = hi + 1;
        while self.reward(d) != 0 {
            d += 1;
        }
        d
    }
}

/// Pythia-style **discrete reward levels** (arXiv 2109.12021, Table 4):
/// instead of a continuous shape over depth, every feedback event maps to
/// one of four levels — accurate-and-timely, accurate-but-late, too-early
/// (out the far side of the window), and never-hit (expiry). Pythia's
/// published magnitudes (+20/+12/−8/−14) are scaled onto this simulator's
/// i8 score rails, preserving their ordering and sign structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PythiaLevelReward {
    lo: u32,
    hi: u32,
    timely: i32,
    late: i32,
    early: i32,
    expiry_penalty: i32,
}

impl PythiaLevelReward {
    /// Discrete levels over the window `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`, `timely > late > 0`, and the early/expiry
    /// levels are non-positive with expiry at least as harsh as early.
    pub fn new(lo: u32, hi: u32, timely: i32, late: i32, early: i32, expiry_penalty: i32) -> Self {
        assert!(lo < hi, "window must be non-empty");
        assert!(
            timely > late && late > 0,
            "levels must rank timely > late > 0"
        );
        assert!(
            early <= 0 && expiry_penalty <= early,
            "early/expiry levels must be non-positive, expiry the harshest"
        );
        PythiaLevelReward {
            lo,
            hi,
            timely,
            late,
            early,
            expiry_penalty,
        }
    }

    /// Pythia's level structure over the paper's 18–50 window, scaled from
    /// +20/+12/−8/−14 onto the bell's peak-16 dynamic range.
    pub fn pythia_default() -> Self {
        PythiaLevelReward::new(18, 50, 16, 10, -6, -12)
    }

    /// The accurate-and-timely level.
    pub fn timely(&self) -> i32 {
        self.timely
    }

    /// The accurate-but-late level.
    pub fn late(&self) -> i32 {
        self.late
    }

    /// The too-early level.
    pub fn early(&self) -> i32 {
        self.early
    }
}

impl RewardFunction for PythiaLevelReward {
    fn reward(&self, depth: u32) -> i32 {
        if depth < self.lo {
            self.late
        } else if depth <= self.hi {
            self.timely
        } else {
            self.early
        }
    }

    fn expiry(&self) -> i32 {
        self.expiry_penalty
    }

    fn window(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }

    fn stable_depth(&self) -> u32 {
        // Constant `early` level everywhere past the window.
        self.hi + 1
    }
}

/// The closed sum of every reward shape a pipeline can be configured with.
///
/// This is what `ContextConfig` stores: a concrete, cloneable, comparable
/// value (no trait objects in config structs), delegating
/// [`RewardFunction`] to the selected shape. [`RewardShape::default`] is
/// the paper bell — the composition the golden digest pins.
#[derive(Clone, Debug, PartialEq)]
pub enum RewardShape {
    /// The paper's bell (Fig 5) — the default.
    PaperBell(BellReward),
    /// Flat step (ablation A2).
    Step(StepReward),
    /// Gaussian bell with multiplicative out-of-window penalty.
    GaussianPenalty(GaussianPenaltyReward),
    /// Pythia-style discrete levels.
    PythiaLevel(PythiaLevelReward),
}

impl Default for RewardShape {
    fn default() -> Self {
        RewardShape::PaperBell(BellReward::paper_default())
    }
}

impl RewardShape {
    /// Short label for leaderboards and cell names.
    pub fn label(&self) -> &'static str {
        match self {
            RewardShape::PaperBell(_) => "bell",
            RewardShape::Step(_) => "step",
            RewardShape::GaussianPenalty(_) => "gauss-pen",
            RewardShape::PythiaLevel(_) => "pythia-lvl",
        }
    }
}

impl RewardFunction for RewardShape {
    fn reward(&self, depth: u32) -> i32 {
        match self {
            RewardShape::PaperBell(r) => r.reward(depth),
            RewardShape::Step(r) => r.reward(depth),
            RewardShape::GaussianPenalty(r) => r.reward(depth),
            RewardShape::PythiaLevel(r) => r.reward(depth),
        }
    }

    fn expiry(&self) -> i32 {
        match self {
            RewardShape::PaperBell(r) => r.expiry(),
            RewardShape::Step(r) => r.expiry(),
            RewardShape::GaussianPenalty(r) => r.expiry(),
            RewardShape::PythiaLevel(r) => r.expiry(),
        }
    }

    fn window(&self) -> (u32, u32) {
        match self {
            RewardShape::PaperBell(r) => r.window(),
            RewardShape::Step(r) => r.window(),
            RewardShape::GaussianPenalty(r) => r.window(),
            RewardShape::PythiaLevel(r) => r.window(),
        }
    }

    fn stable_depth(&self) -> u32 {
        match self {
            RewardShape::PaperBell(r) => r.stable_depth(),
            RewardShape::Step(r) => r.stable_depth(),
            RewardShape::GaussianPenalty(r) => r.stable_depth(),
            RewardShape::PythiaLevel(r) => r.stable_depth(),
        }
    }
}

impl From<BellReward> for RewardShape {
    fn from(r: BellReward) -> Self {
        RewardShape::PaperBell(r)
    }
}

impl From<StepReward> for RewardShape {
    fn from(r: StepReward) -> Self {
        RewardShape::Step(r)
    }
}

impl From<GaussianPenaltyReward> for RewardShape {
    fn from(r: GaussianPenaltyReward) -> Self {
        RewardShape::GaussianPenalty(r)
    }
}

impl From<PythiaLevelReward> for RewardShape {
    fn from(r: PythiaLevelReward) -> Self {
        RewardShape::PythiaLevel(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_peaks_at_center_and_degrades_toward_edges() {
        let b = BellReward::paper_default();
        assert_eq!(b.reward(34), 16);
        assert!(b.reward(18) < b.reward(34) / 2);
        assert!(b.reward(50) < b.reward(34) / 2);
        assert!(b.reward(30) > b.reward(20));
        assert!(b.reward(30) > b.reward(48));
    }

    #[test]
    fn late_side_keeps_partial_merge_credit() {
        // A hit only a few accesses after issue still shortened the
        // demand's wait (it merged into the in-flight fill), so the late
        // tail is small-but-positive, never punitive.
        let b = BellReward::paper_default();
        assert!(b.reward(10) >= 0);
        assert!(b.reward(10) < b.reward(30));
        assert!(b.reward(2) <= b.reward(12));
    }

    #[test]
    fn early_side_is_negative_and_decays() {
        let b = BellReward::paper_default();
        assert!(b.reward(51) < 0);
        assert!(
            b.reward(51) <= b.reward(120),
            "penalty decays with distance"
        );
        assert!(b.expiry() < 0);
    }

    #[test]
    fn bell_is_monotone_up_then_down() {
        let b = BellReward::paper_default();
        let vals: Vec<i32> = (2..=50).map(|d| b.reward(d)).collect();
        let peak_pos = vals
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .unwrap();
        assert!(vals[..=peak_pos].windows(2).all(|w| w[0] <= w[1]));
        assert!(vals[peak_pos..].windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn target_distance_scales_window() {
        let b = BellReward::for_target_distance(30.0);
        assert_eq!(b.window(), (18, 50));
        let fast = BellReward::for_target_distance(12.0);
        assert_eq!(fast.window(), (7, 20));
        // Degenerate targets still yield a valid window.
        let tiny = BellReward::for_target_distance(0.0);
        let (lo, hi) = tiny.window();
        assert!(lo < hi);
    }

    #[test]
    fn step_is_flat() {
        let s = StepReward::paper_default();
        assert_eq!(s.reward(18), s.reward(34));
        assert_eq!(s.reward(0), s.reward(200));
        assert!(s.reward(0) < 0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn empty_window_rejected() {
        BellReward::new(10, 10, 1, 0, 0);
    }

    #[test]
    fn lut_is_exact_for_every_depth() {
        for bell in [
            BellReward::paper_default(),
            BellReward::for_target_distance(12.0),
            BellReward::for_target_distance(512.0),
            BellReward::new(1, 127, 16, 0, -4), // flat-edge ablation shape
        ] {
            let lut = RewardLut::new(&bell);
            for d in 0..4096u32 {
                assert_eq!(lut.reward(d), bell.reward(d), "bell depth {d}");
            }
            assert_eq!(lut.expiry(), bell.expiry());
        }
        let step = StepReward::paper_default();
        let lut = RewardLut::new(&step);
        for d in 0..4096u32 {
            assert_eq!(lut.reward(d), step.reward(d), "step depth {d}");
        }
        assert_eq!(lut.expiry(), step.expiry());
    }

    #[test]
    fn lut_table_tail_is_the_stable_value() {
        let bell = BellReward::paper_default();
        let lut = RewardLut::new(&bell);
        let last = *lut.table().last().unwrap();
        assert_eq!(last, 0, "bell decays to zero");
        assert_eq!(lut.table().len() as u32, bell.stable_depth() + 1);
        assert_eq!(lut.table()[34], 16, "peak preserved");
    }

    #[test]
    fn gaussian_penalty_flips_sign_outside_the_window() {
        let g = GaussianPenaltyReward::snippet_default();
        let (lo, hi) = g.window();
        assert_eq!((lo, hi), (10, 50));
        assert_eq!(g.reward(30), 16, "peak at center");
        assert!(g.reward(lo) > 0 && g.reward(hi) > 0, "in-window positive");
        // Just outside the window the *same* gaussian magnitude comes back
        // negated and amplified — the multiplicative penalty.
        assert!(g.reward(hi + 1) < 0);
        assert_eq!(g.reward(hi + 1), -4 * g_magnitude(&g, hi + 1));
        assert!(g.reward(lo - 1) < 0, "early side is punished too");
        // Far away the gaussian itself fades, so the penalty self-limits.
        assert_eq!(g.reward(200), 0);
        assert!(g.expiry() < 0);
    }

    fn g_magnitude(g: &GaussianPenaltyReward, depth: u32) -> i32 {
        let d = depth as f64 - g.center() as f64;
        let s = g.sigma() as f64;
        ((g.scale() as f64) * (-(d * d) / (2.0 * s * s)).exp()).round() as i32
    }

    #[test]
    fn gaussian_penalty_stable_depth_terminates_past_the_window() {
        let g = GaussianPenaltyReward::snippet_default();
        let stable = g.stable_depth();
        assert!(stable > g.window().1);
        assert_eq!(g.reward(stable), 0);
        assert_ne!(g.reward(stable - 1), 0);
        // A narrow, tall shape still terminates.
        let sharp = GaussianPenaltyReward::new(8, 1, 100, 20, -1);
        assert_eq!(sharp.reward(sharp.stable_depth()), 0);
    }

    #[test]
    fn pythia_levels_are_discrete_and_ranked() {
        let p = PythiaLevelReward::pythia_default();
        assert_eq!(p.window(), (18, 50));
        // One level per region, constant within it.
        assert_eq!(p.reward(18), p.reward(50));
        assert_eq!(p.reward(1), p.reward(17));
        assert_eq!(p.reward(51), p.reward(500));
        // Pythia's ordering: timely > late > 0 > early > expiry.
        assert!(p.reward(30) > p.reward(5));
        assert!(p.reward(5) > 0);
        assert!(p.reward(60) < 0);
        assert!(p.expiry() < p.reward(60));
        assert_eq!(p.stable_depth(), 51);
    }

    #[test]
    fn lut_is_exact_for_every_reward_shape() {
        let shapes: [RewardShape; 4] = [
            RewardShape::default(),
            StepReward::paper_default().into(),
            GaussianPenaltyReward::snippet_default().into(),
            PythiaLevelReward::pythia_default().into(),
        ];
        for shape in &shapes {
            let lut = RewardLut::new(shape);
            for d in 0..4096u32 {
                assert_eq!(
                    lut.reward(d),
                    shape.reward(d),
                    "{} depth {d}",
                    shape.label()
                );
            }
            assert_eq!(lut.expiry(), shape.expiry());
        }
    }

    #[test]
    fn default_shape_is_the_paper_bell() {
        let shape = RewardShape::default();
        let bell = BellReward::paper_default();
        assert_eq!(shape.window(), bell.window());
        assert_eq!(shape.expiry(), bell.expiry());
        assert_eq!(shape.stable_depth(), bell.stable_depth());
        for d in 0..256u32 {
            assert_eq!(shape.reward(d), bell.reward(d));
        }
        assert_eq!(shape.label(), "bell");
    }
}
