//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload <tune_sparse|tune_saturated|offline_retrain>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it measures an untraced
//! and a traced half, probes every layer in process, writes the spans to
//! `.perfbench/trace-<workload>.json`, and reports the per-layer metrics.
//! A human-readable table goes to standard output first; the last line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Working files (stores, port files, daemon logs) live under `.perfbench/`
//! in the working directory and are removed when the run ends.

mod daemon;
mod load;
mod probes;
mod retrain;
mod stats;
mod streams;
mod trace;

use daemon::Daemon;
use load::{Phase, Planned, Window};
use pnp_core::serving::{KernelInput, TuneRequest, TuneService};
use pnp_core::TrainSettings;
use pnp_graph::Vocabulary;
use pnp_serve::ServeStats;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// `tune_sparse`: Poisson arrivals per second, about a sixth of the
/// daemon's closed-loop capacity for `Source` kernels, so batches hold
/// about one request.
const SPARSE_RATE: f64 = 100.0;
/// `tune_sparse`: generated kernels added to the 68 suite regions.
const SPARSE_GENERATED: usize = 68;
/// `tune_sparse`: Zipf exponent of kernel popularity.
const ZIPF_EXPONENT: f64 = 1.0;
/// `tune_saturated`: requests in flight, below the daemon's default
/// admission queue (`max_batch` 64 × 2 workers), so nothing is shed.
const SATURATED_INFLIGHT: usize = 64;
/// `tune_saturated`: unique kernels per second of window, well above what
/// the daemon answers per second, so the stream never runs dry.
const SATURATED_KERNELS_PER_S: u64 = 2000;
/// `tune_sparse`: arrival gaps the generator's p99 lateness may reach
/// before the run is invalid.
const LATE_GAPS: f64 = 10.0;
/// `offline_retrain`: set-up probes per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 50;
/// Daemon launches per serve run; `setup_s` is their median.
const LAUNCHES: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    TuneSparse,
    TuneSaturated,
    OfflineRetrain,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::TuneSparse => "tune_sparse",
            Workload::TuneSaturated => "tune_saturated",
            Workload::OfflineRetrain => "offline_retrain",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "tune_sparse" => Workload::TuneSparse,
                    "tune_saturated" => Workload::TuneSaturated,
                    "offline_retrain" => Workload::OfflineRetrain,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or("--seconds takes a positive integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A working directory under `.perfbench/`, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        let dir =
            Path::new(".perfbench").join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    verdict: String,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Serving-counter change over one window.
fn delta(before: &ServeStats, after: &ServeStats) -> ServeStats {
    ServeStats {
        requests: after.requests - before.requests,
        batches: after.batches - before.batches,
        fused_batches: after.fused_batches - before.fused_batches,
        fused_graphs: after.fused_graphs - before.fused_graphs,
        shed_requests: after.shed_requests - before.shed_requests,
        deadline_expired: after.deadline_expired - before.deadline_expired,
        max_fused_batch: after.max_fused_batch,
        ..ServeStats::default()
    }
}

/// A serve workload's traffic, encoded before any window starts, plus the
/// kernels the probes take: the distinct kernels in first-use order and
/// their sources, at most `probes::MAX_KERNELS` of each.
struct Traffic {
    phase: Phase,
    kernels: Vec<KernelInput>,
    sources: Vec<KernelInput>,
}

fn sparse_traffic(seed: u64, seconds: u64) -> Result<Traffic, String> {
    use streams::{rng, Zipf};
    let mut pool = streams::suite_kernels();
    let generated =
        pnp_ir::gen::corpus(streams::sub_seed(seed, "sparse.kernels"), SPARSE_GENERATED);
    pool.extend(generated.iter().map(streams::generated_source));
    let popularity = streams::permutation(pool.len(), &mut rng(seed, "sparse.popularity"));
    let zipf = Zipf::new(pool.len(), ZIPF_EXPONENT);
    let (mut picks, mut objectives) = (rng(seed, "sparse.picks"), rng(seed, "sparse.objectives"));
    let arrivals = streams::poisson_schedule(
        SPARSE_RATE,
        Duration::from_secs(seconds),
        &mut rng(seed, "sparse.arrivals"),
    );
    let plan: Vec<Planned> = arrivals
        .into_iter()
        .map(|due| Planned {
            due,
            kernel: popularity[zipf.sample(&mut picks)],
            objective: streams::objective(&mut objectives),
        })
        .collect();
    let mut seen = BTreeSet::new();
    let kernels: Vec<KernelInput> = plan
        .iter()
        .filter(|p| seen.insert(p.kernel))
        .map(|p| pool[p.kernel].clone())
        .take(probes::MAX_KERNELS)
        .collect();
    Ok(Traffic {
        phase: Phase::encode(plan, |p| pool[p.kernel].clone())?,
        sources: kernels.clone(),
        kernels,
    })
}

fn saturated_traffic(seed: u64, seconds: u64) -> Result<Traffic, String> {
    let kernel_seed = streams::sub_seed(seed, "saturated.kernels");
    let count = (SATURATED_KERNELS_PER_S * seconds) as usize;
    let mut objectives = streams::rng(seed, "saturated.objectives");
    let plan: Vec<Planned> = (0..count)
        .map(|kernel| Planned {
            due: Duration::ZERO,
            kernel,
            objective: streams::objective(&mut objectives),
        })
        .collect();
    // Each graph is encoded into its frame as it is drawn; only the first
    // few are kept whole, for the probes.
    let vocab = Vocabulary::standard();
    let mut graphs = streams::unique_graphs(kernel_seed, count, &vocab);
    let mut kernels = Vec::new();
    let phase = Phase::encode(plan, |_| {
        let graph = KernelInput::Graph(graphs.next().expect("one graph per planned slot"));
        if kernels.len() < probes::MAX_KERNELS {
            kernels.push(graph.clone());
        }
        graph
    })?;
    // The corpus is prefix-stable, so these are the first kernels' sources.
    let sources = pnp_ir::gen::corpus(kernel_seed, probes::MAX_KERNELS)
        .iter()
        .map(streams::generated_source)
        .collect();
    Ok(Traffic {
        phase,
        kernels,
        sources,
    })
}

fn distinct_share(plan: &[Planned]) -> f64 {
    let distinct: BTreeSet<usize> = plan.iter().map(|p| p.kernel).collect();
    ratio(distinct.len() as f64, plan.len() as f64)
}

/// One measured window against the live daemon, settled against the
/// oracle; returns the window and the serving-counter change over it.
fn window(
    workload: Workload,
    daemon: &mut Daemon,
    phase: &Phase,
    duration: Duration,
    oracle: &mut TuneService,
    tracer: &Tracer,
) -> Result<(Window, ServeStats), String> {
    let before = daemon.stats()?;
    let wire = match workload {
        Workload::TuneSparse => load::open_loop(&daemon.addr, phase, tracer)?,
        _ => load::closed_loop(&daemon.addr, phase, SATURATED_INFLIGHT, duration, tracer)?,
    };
    let after = daemon.stats()?;
    let settled = load::settle(phase, wire, oracle, tracer)?;
    Ok((settled, delta(&before, &after)))
}

fn serve_run(args: &Args, work: &Path, tracer: &Tracer) -> Result<Report, String> {
    let bin = daemon::binary()?;
    let store = work.join("store");
    let prep = retrain::pass(
        &store,
        &retrain::settings(TrainSettings::quick().seed),
        tracer,
    )?;
    let traffic = match args.workload {
        Workload::TuneSparse => sparse_traffic(args.seed, args.seconds)?,
        _ => saturated_traffic(args.seed, args.seconds)?,
    };
    let mut oracle = retrain::Published::open(&store)?.service()?;

    let mut setups = Vec::new();
    let mut live = None;
    for tag in 0..LAUNCHES {
        let (daemon, setup_s) = Daemon::launch(&bin, &store, work, tag)?;
        setups.push(setup_s);
        if tag + 1 == LAUNCHES {
            live = Some(daemon);
        } else {
            daemon.shutdown()?;
        }
    }
    let mut daemon = live.ok_or("no daemon launched")?;
    eprintln!(
        "[perfbench] daemon up at {} (log {})",
        daemon.addr,
        daemon.log.display()
    );

    let untraced = Tracer::new(false);
    let full = Duration::from_secs(args.seconds);
    let Traffic {
        phase,
        kernels,
        sources,
    } = traffic;
    let mut windows = Vec::new();
    if args.trace {
        // An untraced and a traced half: their difference is the tracing
        // overhead.
        let half = full / 2;
        let at = match args.workload {
            Workload::TuneSparse => phase.plan.partition_point(|p| p.due < half),
            _ => phase.len() / 2,
        };
        let (a, b) = phase.split(at, half);
        let w = window(args.workload, &mut daemon, &a, half, &mut oracle, &untraced)?;
        windows.push((a, w));
        let w = window(args.workload, &mut daemon, &b, half, &mut oracle, tracer)?;
        windows.push((b, w));
    } else {
        let w = window(
            args.workload,
            &mut daemon,
            &phase,
            full,
            &mut oracle,
            &untraced,
        )?;
        windows.push((phase, w));
    }
    let rss = daemon.peak_rss_mib()?;
    daemon.shutdown()?;

    let (phase, (last, counters)) = windows.last().ok_or("no window ran")?;
    // What the closed loop actually sent, for the traffic share.
    let plan = &phase.plan[..last.attempted.min(phase.len())];
    eprintln!(
        "[perfbench] daemon counters over the last window: {} request(s) in {} batch(es), \
         {} graph(s) in {} fused group(s) (max {}), {} shed, {} deadline-expired",
        counters.requests,
        counters.batches,
        counters.fused_graphs,
        counters.fused_batches,
        counters.max_fused_batch,
        counters.shed_requests,
        counters.deadline_expired
    );
    let late_p99 = pnp_bench::percentile(&last.late_ms, 99.0);
    // Latency counts from the due time, so a generator stall can only make
    // a run look slower; a generator that stays behind by many arrival gaps
    // no longer offers the planned load, and that run is invalid.
    let behind_ms = LATE_GAPS * 1e3 / SPARSE_RATE;
    let behind = args.workload == Workload::TuneSparse && late_p99 > behind_ms;
    let sum = |f: fn(&Window) -> usize| windows.iter().map(|(_, (w, _))| f(w)).sum::<usize>();
    let mut verdict = format!(
        "{} ok, {} error(s), {} shed, {} deadline-rejected, {} timeout(s), {} mismatch(es)",
        sum(|w| w.ok),
        sum(|w| w.errors),
        sum(|w| w.shed),
        sum(|w| w.deadline),
        sum(|w| w.timeouts),
        sum(|w| w.mismatches)
    );
    if behind {
        verdict.push_str(&format!(
            "; INVALID: generator fell behind (late p99 {late_p99:.2} ms > {behind_ms:.1} ms)"
        ));
    }

    let metrics = if !args.trace {
        let tail = stats::chunked_tail(&last.latencies_ms);
        let whole = stats::tail(&last.latencies_ms);
        let samples = last.latencies_ms.len();
        vec![
            metric("setup_s", stats::median(&setups), "s")
                .note(format!("median of {} daemon launches", setups.len())),
            metric("tune_p50_ms", stats::median(&last.latencies_ms), "ms")
                .note(format!("n={samples}")),
            metric("tune_tail_ms", tail.value, "ms").note(format!(
                "p{:.2}, median of {} chunk(s) of n={samples}; whole-window p{:.2} {:.3} ms",
                tail.percentile,
                stats::tail_chunks(samples),
                whole.percentile,
                whole.value
            )),
            metric("throughput_rps", ratio(last.ok as f64, last.wall_s), "1/s")
                .note(format!("{} correct in {:.3} s", last.ok, last.wall_s)),
            metric("pipeline_s", last.wall_s, "s").note("window start to last response"),
            metric(
                "ok_share",
                ratio(last.ok as f64, last.attempted as f64),
                "share",
            )
            .note(format!("{} of {} attempted", last.ok, last.attempted)),
            metric("rss_mb", rss, "MiB").note("daemon VmHWM"),
        ]
    } else {
        let untraced_p50 = stats::median(&windows[0].1 .0.latencies_ms);
        let traced_p50 = stats::median(&last.latencies_ms);
        let batch = ratio(counters.requests as f64, counters.batches as f64);
        let probed = probes::run(
            tracer,
            &probes::Inputs {
                store: &store,
                kernels: &kernels,
                sources: &sources,
                requests: &last
                    .answered
                    .iter()
                    .map(|(request, _)| request.clone())
                    .collect::<Vec<_>>(),
                answered: &last.answered,
                batch: batch.round() as usize,
            },
        )?;
        let fused = (
            counters.fused_graphs,
            counters.fused_batches,
            counters.max_fused_batch,
        );
        let mut m = layer_metrics(tracer, &probed, &prep, fused, &store);
        let transport = traced_p50
            - (value(&m, "protocol.encode_us") + value(&m, "protocol.decode_us")) / 1e3
            - value(&m, "engine.tune_batch_ms");
        m.extend([
            metric("loadgen.late_p99_ms", late_p99, "ms"),
            metric(
                "loadgen.distinct_kernel_share",
                distinct_share(plan),
                "share",
            ),
            metric("server.transport_ms", transport, "ms"),
            metric("server.batches", counters.batches as f64, "count"),
            metric("server.batch_size_mean", batch, "count"),
            metric(
                "admission.shed_share",
                ratio(counters.shed_requests as f64, last.attempted as f64),
                "share",
            ),
            metric(
                "admission.deadline_share",
                ratio(counters.deadline_expired as f64, last.attempted as f64),
                "share",
            ),
            metric(
                "tracing.overhead_share",
                ratio(traced_p50 - untraced_p50, untraced_p50),
                "share",
            )
            .note(format!(
                "tune p50 traced {traced_p50:.4} ms vs untraced {untraced_p50:.4} ms"
            )),
        ]);
        m
    };
    let failed = sum(Window::failed);
    Ok(Report {
        correct: failed == 0 && !behind,
        attempted: sum(|w| w.attempted),
        failed,
        metrics,
        verdict,
    })
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// Per-layer metrics every workload derives the same way: from the spans,
/// the probes, and the retrain pass.
fn layer_metrics(
    tracer: &Tracer,
    probed: &probes::Probed,
    pass: &retrain::PassOutput,
    fused: (u64, u64, u64),
    store: &Path,
) -> Vec<Metric> {
    let us = |name: &str| tracer.totals_of(name).mean_self_us();
    let per_pass = |name: &str| {
        let pass_count = tracer.totals_of("retrain.pass").count.max(1);
        tracer.totals_of(name).self_s / pass_count as f64
    };
    let batch_us = us("engine.tune_batch");
    vec![
        metric("protocol.request_bytes", probed.request_bytes, "bytes"),
        metric("protocol.response_bytes", probed.response_bytes, "bytes"),
        metric("protocol.encode_us", us("protocol.encode"), "us"),
        metric("protocol.decode_us", us("protocol.decode"), "us"),
        metric("engine.start_s", us("engine.start") / 1e6, "s"),
        metric("engine.tune_batch_ms", batch_us / 1e3, "ms"),
        metric(
            "engine.per_request_us",
            batch_us / probed.batch as f64,
            "us",
        )
        .note(format!("batches of {}", probed.batch)),
        metric(
            "engine.fused_group_mean",
            ratio(fused.0 as f64, fused.1 as f64),
            "count",
        ),
        metric("engine.max_fused_batch", fused.2 as f64, "count"),
        metric(
            "serving.resolve_graph_us",
            us("serving.resolve_graph"),
            "us",
        ),
        metric(
            "serving.committee_forward_us",
            us("serving.committee_forward"),
            "us",
        ),
        metric(
            "serving.restore_grid_ms",
            us("serving.restore_grid") / 1e3,
            "ms",
        ),
        metric("ir.lower_us", us("ir.lower"), "us"),
        metric("graph.build_us", us("graph.build"), "us"),
        metric("graph.encode_us", us("graph.encode"), "us"),
        metric("graph.nodes_mean", probed.nodes_mean, "count"),
        metric("gnn.batch_assemble_us", us("gnn.batch_assemble"), "us"),
        metric("gnn.forward_batch_us", us("gnn.forward_batch"), "us"),
        metric("gnn.forward_mflop", probed.forward_mflop, "MFLOP-computed"),
        metric("registry.open_ms", us("registry.open") / 1e3, "ms"),
        metric(
            "registry.payload_read_mb",
            probed.payload_bytes as f64 / 1e6,
            "MB",
        ),
        metric("dataset.sweep_s", per_pass("dataset.sweep"), "s"),
        metric("dataset.sim_points", pass.sim_points as f64, "count"),
        metric("training.scenario1_s", per_pass("training.scenario1"), "s"),
        metric("training.scenario2_s", per_pass("training.scenario2"), "s"),
        metric("training.jobs", pass.jobs as f64, "count"),
        metric("store.write_s", per_pass("store.write"), "s"),
        metric(
            "store.write_mb",
            retrain::bytes_under(store) as f64 / 1e6,
            "MB",
        ),
    ]
}

fn offline_run(args: &Args, work: &Path, tracer: &Tracer) -> Result<Report, String> {
    let store = work.join("store");
    let settings = retrain::settings(streams::sub_seed(args.seed, "offline.training"));
    let untraced = Tracer::new(false);
    let budget = Duration::from_secs(args.seconds);
    let setups = (0..SETUP_REPEATS)
        .map(|_| retrain::probe_setup(&store))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut halves: Vec<Vec<retrain::PassOutput>> = Vec::new();
    let phases: Vec<(&Tracer, Duration)> = if args.trace {
        vec![(&untraced, budget / 2), (tracer, budget / 2)]
    } else {
        vec![(&untraced, budget)]
    };
    for (phase_tracer, phase_budget) in phases {
        let started = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || started.elapsed() < phase_budget {
            passes.push(retrain::pass(&store, &settings, phase_tracer)?);
        }
        halves.push(passes);
    }
    // Read before the reference is computed, so the peak is the passes'.
    let rss = daemon::peak_rss_mib("/proc/self/status")?;
    let reference = retrain::Reference::compute(&settings);

    let all: Vec<&retrain::PassOutput> = halves.iter().flatten().collect();
    let per_pass = reference.predictions() + 1;
    let mismatches: usize = all.iter().map(|p| reference.mismatches(p)).sum();
    let attempted = all.len() * per_pass;
    let verdict = format!(
        "{} pass(es), {} prediction(s) + 1 dataset hash each, {mismatches} mismatch(es) against the 1-worker storeless reference",
        all.len(),
        reference.predictions()
    );
    let last = halves.last().ok_or("no pass ran")?;
    let times: Vec<f64> = last.iter().map(|p| p.pipeline_s).collect();
    let metrics = if !args.trace {
        let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
        let tail = stats::tail(&ms);
        let correct_predictions = (last.len() * reference.predictions()) as f64
            - last.iter().map(|p| reference.mismatches(p)).sum::<usize>() as f64;
        vec![
            metric("setup_s", stats::median(&setups), "s").note(format!(
                "median of {} set-up probes: process start to sweep issued",
                setups.len()
            )),
            metric("tune_p50_ms", stats::median(&ms), "ms")
                .note(format!("per retrain pass, n={}", ms.len())),
            metric("tune_tail_ms", tail.value, "ms").note(format!(
                "p{:.2} of n={}",
                tail.percentile,
                ms.len()
            )),
            metric(
                "throughput_rps",
                ratio(correct_predictions, times.iter().sum()),
                "1/s",
            )
            .note("correct LOOCV predictions per second"),
            metric("pipeline_s", stats::median(&times), "s")
                .note(format!("median of {} pass(es)", times.len())),
            metric(
                "ok_share",
                ratio((attempted - mismatches) as f64, attempted as f64),
                "share",
            )
            .note(format!("{} of {attempted}", attempted - mismatches)),
            metric("rss_mb", rss, "MiB").note("benchmark process VmHWM"),
        ]
    } else {
        let untraced_s = stats::median(&halves[0].iter().map(|p| p.pipeline_s).collect::<Vec<_>>());
        let traced_s = stats::median(&times);
        let kernels = streams::suite_kernels();
        let mut objectives = streams::rng(args.seed, "offline.objectives");
        let plan: Vec<Planned> = (0..kernels.len())
            .map(|kernel| Planned {
                due: Duration::ZERO,
                kernel,
                objective: streams::objective(&mut objectives),
            })
            .collect();
        let pass = last.last().ok_or("no traced pass")?;
        // LOOCV predicts each validation fold as one fused batch.
        let fold_batch = ratio(pass.regions as f64, settings.folds as f64).round() as usize;
        let probed = probes::run(
            tracer,
            &probes::Inputs {
                store: &store,
                kernels: &kernels,
                sources: &kernels,
                requests: &plan
                    .iter()
                    .enumerate()
                    .map(|(id, p)| TuneRequest {
                        id: id as u64,
                        machine: load::MACHINE.to_string(),
                        objective: p.objective,
                        kernel: kernels[p.kernel].clone(),
                        deadline_ms: None,
                    })
                    .collect::<Vec<_>>(),
                answered: &[],
                batch: fold_batch,
            },
        )?;
        let mut m = layer_metrics(tracer, &probed, pass, probed.fused, &store);
        m.extend([
            metric("loadgen.late_p99_ms", 0.0, "ms").note("no request stream"),
            metric(
                "loadgen.distinct_kernel_share",
                ratio(1.0, last.len() as f64),
                "share",
            )
            .note("each region swept once per pass"),
            metric("server.transport_ms", 0.0, "ms").note("no socket"),
            metric("server.batches", 0.0, "count").note("no daemon"),
            metric("server.batch_size_mean", fold_batch as f64, "count")
                .note("LOOCV validation fold, predicted as one batch"),
            metric("admission.shed_share", 0.0, "share"),
            metric("admission.deadline_share", 0.0, "share"),
            metric(
                "tracing.overhead_share",
                ratio(traced_s - untraced_s, untraced_s),
                "share",
            )
            .note(format!(
                "pass traced {traced_s:.4} s vs untraced {untraced_s:.4} s"
            )),
        ]);
        m
    };
    Ok(Report {
        correct: mismatches == 0,
        attempted,
        failed: mismatches,
        metrics,
        verdict,
    })
}

fn write_trace(workload: Workload, args: &Args, tracer: &Tracer) -> Result<PathBuf, String> {
    let path = Path::new(".perfbench").join(format!("trace-{}.json", workload.name()));
    let totals: Vec<String> = tracer
        .totals()
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\":{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                t.count, t.total_s, t.self_s
            )
        })
        .collect();
    let context = serde_json::to_string(&pnp_bench::Provenance::capture())
        .map_err(|e| format!("provenance: {e}"))?;
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"context\":{context},\"self_time\":{{{}}},\"spans\":{}}}\n",
        workload.name(),
        args.seed,
        args.seconds,
        totals.join(","),
        tracer.spans_json()
    );
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn print_report(args: &Args, report: &Report) -> Result<(), String> {
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite ({})", m.name, m.value));
    }
    println!(
        "{} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &report.metrics {
        println!(
            "  {:<32} {:>16.6} {:<15} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  correct={} attempted={} failed={} ({})",
        report.correct, report.attempted, report.failed, report.verdict
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = raw.as_slice() {
        if flag == retrain::SETUP_PROBE {
            std::process::exit(retrain::setup_probe_main(Path::new(dir)));
        }
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <tune_sparse|tune_saturated|offline_retrain> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let context = pnp_bench::Provenance::capture();
    eprintln!(
        "[perfbench] {} seed {} for {} s, trace {}; git {}, {} core(s)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        context.git_sha,
        context.available_parallelism
    );
    let tracer = Tracer::new(args.trace);
    let outcome = WorkDir::create(args.workload).and_then(|work| match args.workload {
        Workload::OfflineRetrain => offline_run(&args, &work.0, &tracer),
        _ => serve_run(&args, &work.0, &tracer),
    });
    let outcome = outcome.and_then(|report| {
        if args.trace {
            let path = write_trace(args.workload, &args, &tracer)?;
            eprintln!("[perfbench] spans written to {}", path.display());
        }
        print_report(&args, &report)
    });
    if let Ok(mib) = daemon::peak_rss_mib("/proc/self/status") {
        eprintln!("[perfbench] benchmark process peak RSS {mib:.1} MiB");
    }
    if let Err(why) = outcome {
        eprintln!("perfbench: {why}");
        std::process::exit(1);
    }
}
