//! Prefetcher-side statistics: hit-depth CDFs (Fig 8) and learning
//! convergence counters (§7.1).

use semloc_trace::{snap_err, SnapReader, SnapWriter, Snapshot};

/// Histogram of prediction hit depths, cumulable into the Fig 8 CDF.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HitDepthCdf {
    buckets: Vec<u64>,
    total: u64,
}

impl Default for HitDepthCdf {
    fn default() -> Self {
        Self::new(128)
    }
}

impl HitDepthCdf {
    /// A histogram covering depths `0..=max_depth` (deeper hits clamp to
    /// the last bucket).
    pub fn new(max_depth: u32) -> Self {
        HitDepthCdf {
            buckets: vec![0; max_depth as usize + 1],
            total: 0,
        }
    }

    /// Record one hit at `depth`.
    pub fn record(&mut self, depth: u32) {
        let i = (depth as usize).min(self.buckets.len() - 1);
        self.buckets[i] += 1;
        self.total += 1;
    }

    /// Total hits recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of hits at depth ≤ `depth` (the CDF value Fig 8 plots).
    pub fn cdf_at(&self, depth: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let upto: u64 = self.buckets.iter().take(depth as usize + 1).sum();
        upto as f64 / self.total as f64
    }

    /// The full CDF as `(depth, fraction)` points.
    pub fn points(&self) -> Vec<(u32, f64)> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .map(|(d, &c)| {
                acc += c;
                (
                    d as u32,
                    if self.total == 0 {
                        0.0
                    } else {
                        acc as f64 / self.total as f64
                    },
                )
            })
            .collect()
    }

    /// Fraction of hits inside `[lo, hi]` (the timely share of §7.1).
    pub fn fraction_in_window(&self, lo: u32, hi: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let s: u64 = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(d, _)| d as u32 >= lo && d as u32 <= hi)
            .map(|(_, &c)| c)
            .sum();
        s as f64 / self.total as f64
    }
}

/// Learning/convergence counters for the context prefetcher.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Real prefetches dispatched to the memory system.
    pub real_issued: u64,
    /// Deliberate shadow prefetches (exploration).
    pub shadow_issued: u64,
    /// Real requests rejected by the memory system and demoted to shadow.
    pub demoted: u64,
    /// Prediction entries hit by a demand (real + shadow).
    pub hits: u64,
    /// Prediction entries expired un-hit.
    pub expired: u64,
    /// Hits inside the reward window.
    pub timely_hits: u64,
    /// Hits below the window (issued too late to help).
    pub late_hits: u64,
    /// Hits above the window (issued too early).
    pub early_hits: u64,
    /// Candidate associations collected into the CST.
    pub collected: u64,
    /// Candidate deltas that did not fit the 1-byte encoding and were
    /// dropped (§7.3's fine-grained-stride/range limitation, made visible).
    pub delta_overflow: u64,
    /// Hit-depth distribution (Fig 8), over real and shadow predictions.
    pub depth_cdf: HitDepthCdf,
}

impl ContextStats {
    /// Fraction of resolved predictions (hit or expired) that were hits.
    pub fn prediction_accuracy(&self) -> f64 {
        let resolved = self.hits + self.expired;
        if resolved == 0 {
            0.0
        } else {
            self.hits as f64 / resolved as f64
        }
    }
}

impl Snapshot for ContextStats {
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            real_issued,
            shadow_issued,
            demoted,
            hits,
            expired,
            timely_hits,
            late_hits,
            early_hits,
            collected,
            delta_overflow,
            depth_cdf: HitDepthCdf { buckets, total },
        } = self;
        w.section(*b"CSTS", 1);
        w.put_u64(*real_issued);
        w.put_u64(*shadow_issued);
        w.put_u64(*demoted);
        w.put_u64(*hits);
        w.put_u64(*expired);
        w.put_u64(*timely_hits);
        w.put_u64(*late_hits);
        w.put_u64(*early_hits);
        w.put_u64(*collected);
        w.put_u64(*delta_overflow);
        w.put_u64(*total);
        w.put_len(buckets.len());
        for &b in buckets {
            w.put_u64(b);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> std::io::Result<()> {
        let Self {
            real_issued,
            shadow_issued,
            demoted,
            hits,
            expired,
            timely_hits,
            late_hits,
            early_hits,
            collected,
            delta_overflow,
            depth_cdf: HitDepthCdf { buckets, total },
        } = self;
        r.section(*b"CSTS", 1)?;
        *real_issued = r.get_u64()?;
        *shadow_issued = r.get_u64()?;
        *demoted = r.get_u64()?;
        *hits = r.get_u64()?;
        *expired = r.get_u64()?;
        *timely_hits = r.get_u64()?;
        *late_hits = r.get_u64()?;
        *early_hits = r.get_u64()?;
        *collected = r.get_u64()?;
        *delta_overflow = r.get_u64()?;
        let saved_total = r.get_u64()?;
        let n = r.get_len()?;
        if n != buckets.len() {
            return Err(snap_err(format!(
                "hit-depth CDF snapshot has {n} buckets, expected {}",
                buckets.len()
            )));
        }
        let mut saved = Vec::with_capacity(n);
        for _ in 0..n {
            saved.push(r.get_u64()?);
        }
        if saved.iter().sum::<u64>() != saved_total {
            return Err(snap_err("hit-depth CDF total disagrees with buckets"));
        }
        *buckets = saved;
        *total = saved_total;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_accumulates_monotonically() {
        let mut c = HitDepthCdf::new(64);
        for d in [5u32, 10, 10, 30, 64, 200] {
            c.record(d);
        }
        assert_eq!(c.total(), 6);
        assert!((c.cdf_at(4) - 0.0).abs() < 1e-12);
        assert!((c.cdf_at(10) - 0.5).abs() < 1e-12);
        assert!(
            (c.cdf_at(64) - 1.0).abs() < 1e-12,
            "clamped deep hits count in last bucket"
        );
        let pts = c.points();
        assert!(pts.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn window_fraction() {
        let mut c = HitDepthCdf::new(100);
        for d in [10u32, 20, 30, 40, 60] {
            c.record(d);
        }
        assert!((c.fraction_in_window(18, 50) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_cdf_is_zero() {
        let c = HitDepthCdf::default();
        assert_eq!(c.cdf_at(50), 0.0);
        assert_eq!(c.fraction_in_window(0, 100), 0.0);
    }

    #[test]
    fn accuracy_over_resolved() {
        let s = ContextStats {
            hits: 30,
            expired: 10,
            ..Default::default()
        };
        assert!((s.prediction_accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(ContextStats::default().prediction_accuracy(), 0.0);
    }
}
