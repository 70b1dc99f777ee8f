//! Seeded input streams: every input a workload sends is derived from the
//! workload seed here, so the same seed replays the same traffic and the
//! program under test only ever sees the generated inputs.

use pnp_core::serving::{KernelInput, TuneObjective};
use pnp_graph::{build_region_graph, EncodedGraph, Vocabulary};
use pnp_ir::gen::GeneratedKernel;
use pnp_ir::try_lower_kernel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Power caps of the served machine (haswell): objectives are spread over
/// every cap plus EDP, so all five committees run.
pub const POWER_CAPS: usize = 4;

/// An independent generator for one named stream of one workload seed.
pub fn rng(seed: u64, stream: &str) -> ChaCha8Rng {
    // FNV-1a of the stream name keeps the streams of one seed independent.
    let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    ChaCha8Rng::seed_from_u64(seed ^ tag)
}

/// A seed derived from one workload seed for one named stream (a
/// `pnp_ir::gen` corpus, or training).
pub fn sub_seed(seed: u64, stream: &str) -> u64 {
    rng(seed, stream).gen::<u64>()
}

/// Zipf popularity over `n` items with exponent `s`: item `k` (0-based rank)
/// is drawn with probability proportional to `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` items.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one item");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                total += 1.0 / (k as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `duration`, conditioned on its expected count: `rate × duration`
/// arrivals at independent uniform times, sorted. The gaps are exponential
/// as independent users' are, and every run offers the same number of
/// requests.
pub fn poisson_schedule(rate: f64, duration: Duration, rng: &mut impl Rng) -> Vec<Duration> {
    let count = (rate * duration.as_secs_f64()).round() as usize;
    let mut out: Vec<Duration> = (0..count)
        .map(|_| duration.mul_f64(rng.gen::<f64>()))
        .collect();
    out.sort_unstable();
    out
}

/// One objective, uniform over the power caps and EDP.
pub fn objective(rng: &mut impl Rng) -> TuneObjective {
    match rng.gen_range(0..POWER_CAPS + 1) {
        POWER_CAPS => TuneObjective::Edp,
        power_idx => TuneObjective::Time { power_idx },
    }
}

/// A random permutation of `0..n` (Fisher–Yates), so which kernel is the
/// most popular differs across seeds.
pub fn permutation(n: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..i + 1));
    }
    p
}

/// Every region of the paper suite as a `Source` kernel, the form a client
/// without a compiler front end sends.
pub fn suite_kernels() -> Vec<KernelInput> {
    let mut out = Vec::new();
    for app in pnp_benchmarks::full_suite() {
        let regions: Vec<_> = app.regions.iter().map(|r| r.source.clone()).collect();
        for region in &app.regions {
            out.push(KernelInput::Source {
                app: app.name.clone(),
                regions: regions.clone(),
                region: region.name().to_string(),
            });
        }
    }
    out
}

/// A generated kernel as a one-region application in `Source` form.
pub fn generated_source(kernel: &GeneratedKernel) -> KernelInput {
    KernelInput::Source {
        app: format!("app_{}", kernel.source.name),
        region: kernel.source.name.clone(),
        regions: vec![kernel.source.clone()],
    }
}

/// The unique-kernel stream: `count` fresh generated kernels for `seed`,
/// each encoded against `vocab` as it is drawn, the way a client that runs
/// the compiler side itself would send them.
pub fn unique_graphs(
    seed: u64,
    count: usize,
    vocab: &Vocabulary,
) -> impl Iterator<Item = EncodedGraph> + '_ {
    pnp_ir::gen::corpus(seed, count).into_iter().map(|k| {
        let KernelInput::Source {
            app,
            regions,
            region,
        } = generated_source(&k)
        else {
            unreachable!("generated_source builds Source kernels")
        };
        let module = try_lower_kernel(&app, &regions).expect("generated kernels lower");
        let graph = build_region_graph(&module, &region).expect("generated region exists");
        EncodedGraph::encode(&graph, vocab)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_draws(seed: u64) -> Vec<usize> {
        let zipf = Zipf::new(100, 1.0);
        let mut r = rng(seed, "zipf");
        (0..500).map(|_| zipf.sample(&mut r)).collect()
    }

    #[test]
    fn zipf_stream_repeats_for_a_seed_and_differs_across_seeds() {
        assert_eq!(zipf_draws(7), zipf_draws(7));
        assert_ne!(zipf_draws(7), zipf_draws(8));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let draws = zipf_draws(3);
        assert!(draws.iter().all(|&k| k < 100));
        let top = draws.iter().filter(|&&k| k == 0).count();
        let tail = draws.iter().filter(|&&k| k == 99).count();
        assert!(top > 5 * tail.max(1), "rank 0: {top}, rank 99: {tail}");
    }

    fn schedule(seed: u64) -> Vec<Duration> {
        poisson_schedule(100.0, Duration::from_secs(5), &mut rng(seed, "arrivals"))
    }

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        assert_eq!(schedule(11), schedule(11));
        assert_ne!(schedule(11), schedule(12));
    }

    #[test]
    fn poisson_schedule_is_sorted_in_window_at_the_rate() {
        let s = schedule(5);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|t| *t < Duration::from_secs(5)));
        assert_eq!(s.len(), 500);
        // Exponential gaps: mean 10 ms, and many much shorter than that.
        let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((0.008..0.012).contains(&mean), "mean gap {mean}");
        let short = gaps.iter().filter(|g| **g < 0.002).count();
        assert!(short > gaps.len() / 10, "{short} gaps under 2 ms");
    }

    #[test]
    fn objectives_cover_every_cap_and_edp() {
        let mut r = rng(1, "objectives");
        let drawn: Vec<TuneObjective> = (0..200).map(|_| objective(&mut r)).collect();
        for p in 0..POWER_CAPS {
            assert!(drawn.contains(&TuneObjective::Time { power_idx: p }));
        }
        assert!(drawn.contains(&TuneObjective::Edp));
    }

    #[test]
    fn unique_kernel_stream_repeats_for_a_seed_and_differs_across_seeds() {
        let vocab = Vocabulary::standard();
        let stream = |seed| unique_graphs(sub_seed(seed, "unique"), 6, &vocab).collect::<Vec<_>>();
        let (a, b, c) = (stream(21), stream(21), stream(22));
        let key = |g: &EncodedGraph| serde_json::to_string(g).expect("graph serializes");
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(key).collect::<Vec<_>>(),
            c.iter().map(key).collect::<Vec<_>>()
        );
        let mut names: Vec<&str> = a.iter().map(|g| g.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), a.len(), "kernels within a stream are unique");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(50, &mut rng(9, "perm"));
        assert_ne!(p, (0..50).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
