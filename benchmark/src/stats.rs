//! Medians and quartiles over the small samples a run collects.

/// A metric's summary over its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// driver computes its spreads that way); a lone sample is its own quartiles.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => return None,
        1 => {
            return Some(Summary {
                n,
                q1: xs[0],
                median: xs[0],
                q3: xs[0],
            })
        }
        _ => {}
    }
    let quantile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    Some(Summary {
        n,
        q1: quantile(1),
        median: quantile(2),
        q3: quantile(3),
    })
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// The fast decile: the 10th percentile (nearest rank) of op walls, so the
/// fastest of up to ten samples. The box this runs on is a shared 2-core VM
/// whose speed drops by 20–50 % for seconds at a time; those phases cover a
/// changing share of a 15 s run, so the median of one workload's op walls
/// moved by 15–40 % between identical runs while the fast decile moved by
/// 2–10 %. It estimates the op on an undisturbed machine, which is what a
/// change to the code moves; medians and quartiles are reported beside it.
pub fn fast_decile(samples: &[f64]) -> f64 {
    percentile(samples, 10.0)
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn fast_decile_is_the_fastest_of_up_to_ten() {
        assert_eq!(fast_decile(&[5.0, 3.0, 9.0]), 3.0);
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(fast_decile(&xs), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 19.0);
        assert_eq!(percentile(&xs, 100.0), 20.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }
}
