//! Summary statistics for timings: the median, and the highest percentile
//! the sample still supports.

use pnp_bench::percentile;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile reported as a tail. Higher percentiles of one
/// run rest on a handful of rare stalls and swing between runs.
pub const TAIL_CAP: f64 = 99.0;

/// The median (nearest-rank, as `pnp_bench::percentile` defines it).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A tail latency together with the percentile it was taken at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.0).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// The highest percentile, up to [`TAIL_CAP`], with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (by nearest rank): p99 from 1000
/// samples on, the 11th-largest sample below that. With no more samples
/// than that, the maximum is reported as percentile 100.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n <= TAIL_MIN_BEYOND {
        return Tail {
            percentile: 100.0,
            value: sorted.last().copied().unwrap_or(0.0),
        };
    }
    let capped = ((TAIL_CAP / 100.0) * n as f64).ceil() as usize;
    let rank = capped.min(n - TAIL_MIN_BEYOND);
    Tail {
        percentile: if rank == capped {
            TAIL_CAP
        } else {
            100.0 * rank as f64 / n as f64
        },
        value: sorted[rank - 1],
    }
}

/// Samples per chunk of a [`chunked_tail`].
pub const TAIL_CHUNK: usize = 1000;

/// Chunks a [`chunked_tail`] of `n` samples splits them into: one per
/// [`TAIL_CHUNK`] samples once there are at least four, else one.
pub fn tail_chunks(n: usize) -> usize {
    match n / TAIL_CHUNK {
        chunks @ 4.. => chunks,
        _ => 1,
    }
}

/// The tail of a long run of samples, in arrival order, steadier than the
/// whole-window tail on a shared host: the [`tail`] of each of
/// [`tail_chunks`] consecutive chunks, and the median of those (nearest
/// rank, so the lower middle one for an even count). Stalls move it once
/// they reach more than half of the chunks; stalls confined to half of the
/// chunks or fewer show only in the whole-window [`tail`]. A run of fewer
/// than `4 × TAIL_CHUNK` samples is one chunk, its plain tail.
pub fn chunked_tail(samples: &[f64]) -> Tail {
    let size = samples.len().div_ceil(tail_chunks(samples.len())).max(1);
    let mut tails: Vec<Tail> = samples.chunks(size).map(tail).collect();
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    tails
        .get(tails.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or_else(|| tail(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond it.
        assert_eq!(
            tail(&ramp(1000)),
            Tail {
                percentile: 99.0,
                value: 990.0
            }
        );
        // More samples stay at the p99 cap.
        assert_eq!(
            tail(&ramp(6000)),
            Tail {
                percentile: 99.0,
                value: 5940.0
            }
        );
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_on_smaller_samples() {
        // 999 samples: the 11th-largest sample, at p98.9.
        let t = tail(&ramp(999));
        assert_eq!(t.value, 989.0);
        assert!((t.percentile - 100.0 * 989.0 / 999.0).abs() < 1e-12);
        assert_eq!(
            tail(&ramp(20)),
            Tail {
                percentile: 50.0,
                value: 10.0
            }
        );
        assert_eq!(tail(&ramp(11)).value, 1.0);
    }

    #[test]
    fn tail_falls_back_to_the_maximum_on_tiny_samples() {
        assert_eq!(
            tail(&ramp(10)),
            Tail {
                percentile: 100.0,
                value: 10.0
            }
        );
        assert_eq!(tail(&[4.0, 2.0, 3.0]).value, 4.0);
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut shuffled = ramp(1000);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), tail(&ramp(1000)));
    }

    #[test]
    fn chunked_tail_is_the_median_chunk_tail() {
        // Under four chunks' worth, it is the plain tail.
        assert_eq!(chunked_tail(&ramp(3999)), tail(&ramp(3999)));
        // Four chunks of 1000, two holding bursts of stalls: the bursts set
        // those chunks' p99 but not the median chunk's.
        let mut samples: Vec<f64> = (0..4000).map(|i| (i % 1000) as f64).collect();
        for i in (1000..1100).chain(3000..3100) {
            samples[i] = 1e6;
        }
        assert_eq!(
            chunked_tail(&samples),
            Tail {
                percentile: 99.0,
                value: 989.0
            }
        );
        assert_eq!(tail(&samples).value, 1e6);
        // Stalls in three chunks of four move it.
        for i in 2000..2100 {
            samples[i] = 1e6;
        }
        assert_eq!(chunked_tail(&samples).value, 1e6);
        // Eight chunks of a ramp: the fourth-lowest chunk's p99.
        assert_eq!(chunked_tail(&ramp(8000)).value, 3990.0);
        assert_eq!(chunked_tail(&[]).value, 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
