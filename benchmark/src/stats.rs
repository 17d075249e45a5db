//! Order statistics over small samples: nearest-rank percentiles with the
//! "at least ten samples beyond" rule, and the percentile the host clock
//! reports.

/// A percentile is only reported when this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Nearest-rank percentile: the ⌈p·n⌉-th smallest value (1-indexed), the
/// rule `amada_obs::LatencySummary` uses. `p` in `(0, 1]`; 0 for an empty
/// sample.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The percentile of repeated host timings of the same work that the
/// host-clock metrics report: the lower decile by nearest rank, which is
/// the fastest of up to ten repetitions and the ⌈n/10⌉-th fastest of more.
/// The work is deterministic and single-threaded, so a repetition is never
/// faster than the program's own time, only slower by whatever the shared
/// host took away (a neighbour on the core, a descheduled slice): the fast
/// end of the sample is the program, the rest is the host. A median
/// follows the host as soon as it disturbs half of a run. With hundreds of
/// repetitions the very fastest is an outlier of its own kind, hence a
/// decile and not the minimum (cf. Chen and Revels, "Robust benchmarking in
/// noisy environments", 2016).
pub const STEADY_PERCENTILE: f64 = 0.10;

/// [`nearest_rank`] at [`STEADY_PERCENTILE`].
pub fn steady(values: &[f64]) -> f64 {
    nearest_rank(values, STEADY_PERCENTILE)
}

/// True when a sample of `n` supports percentile `p`: at least
/// [`MIN_BEYOND`] samples rank strictly above the nearest-rank pick.
pub fn supports(n: usize, p: f64) -> bool {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + MIN_BEYOND
}

/// [`nearest_rank`] when the sample [`supports`] the percentile, `None`
/// when the tail is too thin to mean anything.
pub fn supported_percentile(values: &[f64], p: f64) -> Option<f64> {
    supports(values.len(), p).then(|| nearest_rank(values, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_is_the_lower_decile_and_the_geometric_mean_is_smooth() {
        // Up to ten repetitions: the fastest.
        assert_eq!(steady(&[4.0, 1.0, 2.0, 3.0, 100.0]), 1.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(steady(&ten), 1.0);
        // Of 47: the fifth fastest.
        let many: Vec<f64> = (1..=47).rev().map(f64::from).collect();
        assert_eq!(steady(&many), 5.0);
        assert_eq!(steady(&[]), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_matches_the_library_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50.0);
        assert_eq!(nearest_rank(&v, 0.95), 95.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        // ⌈0.95 · 7⌉ = 7: a thin sample's p95 is its maximum.
        assert_eq!(
            nearest_rank(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0], 0.95),
            9.0
        );
        let sim: Vec<amada_cloud::SimDuration> = (1..=40)
            .map(|i| amada_cloud::SimDuration::from_micros(i * 7))
            .collect();
        let lib = amada_obs::LatencySummary::from_durations(sim.clone());
        let ours: Vec<f64> = sim.iter().map(|d| d.micros() as f64).collect();
        assert_eq!(nearest_rank(&ours, 0.95), lib.p95.micros() as f64);
        assert_eq!(nearest_rank(&ours, 0.50), lib.p50.micros() as f64);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 picks rank 190: exactly ten beyond.
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        // The median needs twenty samples.
        assert!(supports(20, 0.50));
        assert!(!supports(19, 0.50));
        assert!(!supports(0, 0.50));
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(supported_percentile(&v, 0.95), None);
        assert_eq!(supported_percentile(&v, 0.90), Some(179.0));
    }
}
