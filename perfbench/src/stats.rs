//! Order statistics, the tail rule and answer digests.

/// Samples a run must hold beyond its tail percentile, so the tail is
/// an observed value and not the single slowest op.
pub const SAMPLES_BEYOND_TAIL: usize = 10;

/// The reported tail percentile, in per-mille (`900` is p90).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Tail {
    pub permille: usize,
}

impl Tail {
    /// p90 for the build workload, whose ~0.1 s ops give a run about two
    /// hundred samples; p99 for the query workloads, which complete
    /// thousands.
    pub fn for_workload(workload: &str) -> Tail {
        Tail {
            permille: if workload == "build" { 900 } else { 990 },
        }
    }

    /// The metric label, e.g. `p90`.
    pub fn label(self) -> String {
        format!("p{}", self.permille / 10)
    }

    /// 1-based nearest rank of this percentile among `n` samples.
    fn rank(self, n: usize) -> usize {
        (self.permille * n).div_ceil(1000).clamp(1, n.max(1))
    }

    /// The fewest samples that leave [`SAMPLES_BEYOND_TAIL`] beyond the
    /// percentile.
    pub fn min_samples(self) -> usize {
        (1..)
            .find(|&n| n - self.rank(n) >= SAMPLES_BEYOND_TAIL)
            .expect("every percentile below p100 is reachable")
    }

    /// The percentile of `sorted`, refused when fewer than
    /// [`SAMPLES_BEYOND_TAIL`] samples lie beyond it.
    pub fn of(self, sorted: &[f64]) -> Result<f64, String> {
        let n = sorted.len();
        let rank = self.rank(n);
        if n < rank + SAMPLES_BEYOND_TAIL {
            return Err(format!(
                "{} of {n} samples leaves {} beyond it; the rule needs {SAMPLES_BEYOND_TAIL}",
                self.label(),
                n.saturating_sub(rank)
            ));
        }
        Ok(sorted[rank - 1])
    }
}

/// Median of unsorted values (mean of the two middle values for an even
/// count); `NaN` for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `NaN` for none.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Order-sensitive digest of a satisfaction set's bit words: answers are
/// compared by digest so a long run never holds its result sets.
pub fn digest(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_p90_for_build_and_p99_for_queries() {
        assert_eq!(Tail::for_workload("build").label(), "p90");
        assert_eq!(Tail::for_workload("query_cold").label(), "p99");
        assert_eq!(Tail::for_workload("query_warm").label(), "p99");
        assert_eq!(Tail::for_workload("build").min_samples(), 100);
        assert_eq!(Tail::for_workload("query_cold").min_samples(), 1000);
    }

    #[test]
    fn tail_rule_refuses_runs_with_fewer_than_ten_samples_beyond() {
        let p90 = Tail { permille: 900 };
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(p90.of(&short).is_err(), "99 samples leave 9 beyond p90");
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90.of(&enough), Ok(90.0));

        let p99 = Tail { permille: 990 };
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(p99.of(&short).is_err());
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99.of(&enough), Ok(990.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
