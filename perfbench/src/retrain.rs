//! The offline retrain pass: sweep the full haswell suite, train the
//! scenario-1 and scenario-2 static LOOCV grids, and publish everything to
//! a fresh artifact store. `offline_retrain` times it; the serve workloads
//! run it once, untimed, to prepare the store their daemon loads.

use crate::trace::Tracer;
use pnp_benchmarks::Application;
use pnp_core::artifact::{dataset_fingerprint, ArtifactStore};
use pnp_core::registry::ModelRegistry;
use pnp_core::serving::TuneService;
use pnp_core::training::{
    train_scenario1_models, train_scenario1_models_cached, train_scenario2_model,
    train_scenario2_model_cached, FoldPlan, TrainedGrid,
};
use pnp_core::{Dataset, TrainSettings};
use pnp_graph::Vocabulary;
use pnp_machine::{haswell, MachineSpec};
use pnp_openmp::Threads;
use pnp_store::{Store, StoreIndex};
use std::io::BufRead;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Sweep and training workers: one per core of the two-core host the
/// benchmark is sized for.
pub const WORKERS: usize = 2;

/// What a pass produced, plus its timings.
pub struct PassOutput {
    /// Seconds for the whole pass.
    pub pipeline_s: f64,
    /// The dataset's content hash.
    pub dataset_sha256: String,
    /// Scenario-1 LOOCV predictions, `[region][power]`.
    pub scenario1: Vec<Vec<usize>>,
    /// Scenario-2 LOOCV predictions, `[region]`.
    pub scenario2: Vec<usize>,
    /// Simulated `(region, power, configuration)` points in the sweep.
    pub sim_points: usize,
    /// LOOCV training jobs across both scenarios.
    pub jobs: usize,
    /// Regions swept.
    pub regions: usize,
}

/// Quick training settings with the benchmark's worker count and `seed`.
pub fn settings(seed: u64) -> TrainSettings {
    TrainSettings {
        seed,
        train_threads: Threads::Fixed(WORKERS),
        ..TrainSettings::quick()
    }
}

fn counts(ds: &Dataset, settings: &TrainSettings) -> (usize, usize) {
    let folds = FoldPlan::new(&ds.applications(), settings.folds).len();
    let powers = ds.space.power_levels.len();
    (ds.len() * ds.space.num_tuned_points(), folds * (powers + 1))
}

/// What a pass sets up before it issues the sweep.
pub struct Setup {
    store: ArtifactStore,
    apps: Vec<Application>,
    vocab: Vocabulary,
    machine: MachineSpec,
}

impl Setup {
    /// Creates the store directory `dir` and builds the suite, vocabulary
    /// and machine model.
    pub fn new(dir: &Path) -> Result<Setup, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Setup {
            store: ArtifactStore::open(dir),
            apps: pnp_benchmarks::full_suite(),
            vocab: Vocabulary::standard(),
            machine: haswell(),
        })
    }
}

/// The argument that turns the benchmark binary into a set-up probe: a
/// retrain process cut short where it would issue the sweep.
pub const SETUP_PROBE: &str = "--setup-probe";

/// A set-up probe's `main`: builds the [`Setup`] for the store directory
/// `dir`, reports `ready` on standard output, and returns the exit code.
pub fn setup_probe_main(dir: &Path) -> i32 {
    match Setup::new(dir) {
        Ok(_) => {
            println!("ready");
            0
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            1
        }
    }
}

/// Seconds from spawning a set-up probe on a fresh store directory `dir`
/// until it reports `ready`: process start to sweep issued. Waits for the
/// probe to exit.
pub fn probe_setup(dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    clear(dir)?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .arg(SETUP_PROBE)
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| std::io::BufReader::new(out).read_line(&mut line));
    let elapsed = started.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("set-up probe status: {e}"))?;
    match read {
        Some(Ok(_)) if line.trim() == "ready" && status.success() => Ok(elapsed),
        _ => Err(format!("set-up probe failed ({status})")),
    }
}

/// Removes `dir` and everything in it, if it exists.
pub fn clear(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Runs one pass into a fresh store at `dir` (anything there is removed
/// first, untimed).
pub fn pass(dir: &Path, settings: &TrainSettings, tracer: &Tracer) -> Result<PassOutput, String> {
    clear(dir)?;
    let start = Instant::now();
    let root = tracer.open("retrain.pass", None, None);
    let setup = tracer.open("retrain.setup", root, None);
    let Setup {
        store,
        apps,
        vocab,
        machine,
    } = Setup::new(dir)?;
    tracer.close(setup);

    let ds = tracer.time("dataset.sweep", root, || {
        Dataset::build_with_threads(&machine, &apps, &vocab, Threads::Fixed(WORKERS))
    });
    let key = ArtifactStore::dataset_key(&machine, &apps, &vocab);
    tracer
        .time("store.write", root, || store.store().save(&key, &ds))
        .map_err(|e| format!("publish dataset: {e}"))?;
    let cache = tracer.time("artifact.fingerprint", root, || store.for_dataset(&ds));
    let scenario1 = tracer.time("training.scenario1", root, || {
        train_scenario1_models_cached(&ds, settings, false, Some(&cache))
    });
    let scenario2 = tracer.time("training.scenario2", root, || {
        train_scenario2_model_cached(&ds, settings, false, Some(&cache))
    });
    tracer.time("store.write", root, || {
        StoreIndex::load_or_rebuild(store.store())
    });
    tracer.close(root);
    let pipeline_s = start.elapsed().as_secs_f64();

    let (sim_points, jobs) = counts(&ds, settings);
    Ok(PassOutput {
        pipeline_s,
        dataset_sha256: cache.dataset_sha256().to_string(),
        scenario1,
        scenario2,
        sim_points,
        jobs,
        regions: ds.len(),
    })
}

/// The reference a pass is checked against: the same sweep and LOOCV
/// training for the same seed, on one worker and without a store — a
/// separate code path that must give identical bits.
pub struct Reference {
    /// The dataset's content hash.
    pub dataset_sha256: String,
    /// Scenario-1 LOOCV predictions.
    pub scenario1: Vec<Vec<usize>>,
    /// Scenario-2 LOOCV predictions.
    pub scenario2: Vec<usize>,
}

impl Reference {
    /// Computes the reference for `settings` (its worker count is ignored).
    pub fn compute(settings: &TrainSettings) -> Reference {
        let serial = TrainSettings {
            train_threads: Threads::Fixed(1),
            ..settings.clone()
        };
        let ds = Dataset::build_with_threads(
            &haswell(),
            &pnp_benchmarks::full_suite(),
            &Vocabulary::standard(),
            Threads::Fixed(1),
        );
        Reference {
            dataset_sha256: dataset_fingerprint(&ds),
            scenario1: train_scenario1_models(&ds, &serial, false),
            scenario2: train_scenario2_model(&ds, &serial, false),
        }
    }

    /// Predictions of `out` that differ from the reference; a dataset hash
    /// mismatch counts as one more.
    pub fn mismatches(&self, out: &PassOutput) -> usize {
        let differing = |a: &[usize], b: &[usize]| {
            a.len().abs_diff(b.len()) + a.iter().zip(b).filter(|(x, y)| x != y).count()
        };
        usize::from(out.dataset_sha256 != self.dataset_sha256)
            + differing(&self.scenario1.concat(), &out.scenario1.concat())
            + differing(&self.scenario2, &out.scenario2)
    }

    /// Predictions one pass makes: every region at every cap plus EDP.
    pub fn predictions(&self) -> usize {
        self.scenario1.iter().map(Vec::len).sum::<usize>() + self.scenario2.len()
    }
}

/// Total bytes of the files under `dir` — what a pass published.
pub fn bytes_under(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => bytes_under(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// The static grids a pass published, loaded back through the registry
/// the daemon uses.
pub struct Published {
    /// The registry over the store.
    pub registry: ModelRegistry,
    /// The swept dataset.
    pub dataset: Dataset,
    /// Settings the grids were trained with.
    pub settings: TrainSettings,
    /// Registry id and grid of the scenario-1 (time) committee.
    pub time: (String, TrainedGrid),
    /// Registry id and grid of the scenario-2 (EDP) committee.
    pub edp: (String, TrainedGrid),
}

impl Published {
    /// Opens the store at `dir` and loads its static scenario grids.
    pub fn open(dir: &Path) -> Result<Published, String> {
        let registry = ModelRegistry::open(Store::open(dir));
        let descriptor = registry
            .datasets()
            .first()
            .ok_or("store holds no dataset")?;
        let dataset = registry
            .load_dataset(descriptor)
            .ok_or("dataset failed to load")?;
        let grid = |pipeline: &str| {
            let model = registry
                .models()
                .iter()
                .find(|m| m.pipeline == pipeline && !m.dynamic && m.held_out_power.is_none())
                .ok_or_else(|| format!("store holds no static {pipeline} grid"))?;
            let grid = registry
                .load_grid(model)
                .ok_or_else(|| format!("{} failed to load", model.id))?;
            Ok::<_, String>((model.id.clone(), grid, model.settings()))
        };
        let (time_id, time_grid, settings) = grid("scenario1")?;
        let (edp_id, edp_grid, _) = grid("scenario2")?;
        Ok(Published {
            settings: settings?,
            registry,
            dataset,
            time: (time_id, time_grid),
            edp: (edp_id, edp_grid),
        })
    }

    /// The in-process service the daemon's answers must equal.
    pub fn service(&self) -> Result<TuneService, String> {
        TuneService::restore(
            &self.dataset,
            &self.settings,
            &self.time.1,
            &self.edp.1,
            &self.time.0,
            &self.edp.0,
        )
    }
}
