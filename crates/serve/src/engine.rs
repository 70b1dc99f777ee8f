//! The serving engine: registry-driven startup, batched inference, and hot
//! model reload.
//!
//! At startup the engine walks the [`ModelRegistry`], loads every machine's
//! dataset once, restores **every** model grid in the store (fit-checking
//! each — an unfit or corrupt checkpoint is skipped with a log line, never
//! misapplied), and restores one [`TuneService`] per machine. Requests are
//! then served by [`ServeEngine::tune_batch`]: the batch is partitioned by
//! machine, each machine's requests are grouped by objective, and the
//! groups fan out over the in-tree `pnp_openmp` pool via `parallel_map`,
//! every worker reading the machine's one shared service and running its
//! whole group as one fused block-diagonal forward
//! ([`TuneService::tune_batch`], DESIGN.md §15) — one tall matmul per
//! relation per layer instead of one small matmul per request. Inference
//! only reads the frozen weights, so no worker ever waits on another, and
//! the fused forward is bit-identical to the single-graph one: the response
//! vector is bit-identical for every worker count and batch composition —
//! and identical to the offline [`TuneService::tune`] path (DESIGN.md §14).
//!
//! The registry and services are one atomically swappable snapshot:
//! [`ServeEngine::reload`] rebuilds them *off* the serving path from a
//! fresh registry and swaps the snapshot in one write-lock critical
//! section, so in-flight batches finish on the services they started with
//! and new batches see the new grids — no restart, no dropped request
//! (DESIGN.md §17). [`ServeEngine::spawn_reload_watcher`] automates this by
//! polling the store's index generation ([`pnp_store::StoreIndex`]).

use pnp_core::registry::{ModelDescriptor, ModelRegistry};
use pnp_core::serving::{
    restore_grid, GridPipeline, KernelInput, TuneObjective, TuneRequest, TuneResponse, TuneService,
};
use pnp_openmp::{parallel_map, Threads};
use pnp_store::{Store, StoreIndex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread;
use std::time::Duration;

use crate::protocol::{ServeStats, PROTOCOL_VERSION};

/// Startup knobs of the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Initial batch worker count; 0 means one per available core.
    /// Adjustable at runtime via the `SetWorkers` request.
    pub workers: usize,
}

/// What a cold start or a reload did — one line per grid, printed by the
/// daemon and asserted on by the integration tests.
#[derive(Clone, Debug, Default)]
pub struct StartupReport {
    /// Grids that restored cleanly (fit check passed).
    pub grids_loaded: usize,
    /// Grids skipped: unfit/corrupt checkpoints, unjoined datasets, or
    /// unparseable settings.
    pub grids_skipped: usize,
    /// Human-readable log, one line per grid and per machine.
    pub lines: Vec<String>,
}

impl StartupReport {
    fn log(&mut self, line: String) {
        eprintln!("[pnp-serve] {line}");
        self.lines.push(line);
    }
}

/// Each served machine's one service, shared read-only by every batch
/// worker.
type Services = BTreeMap<String, TuneService>;

/// The swappable snapshot: everything that changes together on a reload.
/// Batches clone the `services` Arc once at entry, so a swap mid-batch is
/// invisible to that batch (DESIGN.md §17).
struct LiveState {
    registry: Arc<ModelRegistry>,
    services: Arc<Services>,
    generation: String,
}

/// The daemon's shared state: the swappable registry + services snapshot,
/// plus the serving and degradation counters.
pub struct ServeEngine {
    live: RwLock<LiveState>,
    workers: AtomicUsize,
    requests: AtomicU64,
    batches: AtomicU64,
    max_batch_seen: AtomicU64,
    fused_batches: AtomicU64,
    fused_graphs: AtomicU64,
    max_fused_batch: AtomicU64,
    shed_requests: AtomicU64,
    deadline_expired: AtomicU64,
    queue_depth: AtomicU64,
    reloads: AtomicU64,
    grids_loaded: AtomicUsize,
    grids_skipped: AtomicUsize,
}

fn grid_pipeline(model: &ModelDescriptor) -> GridPipeline {
    match model.pipeline.as_str() {
        "scenario1" => GridPipeline::Scenario1 {
            dynamic: model.dynamic,
        },
        "scenario2" => GridPipeline::Scenario2 {
            dynamic: model.dynamic,
        },
        _ => GridPipeline::UnseenPower {
            held_out_power: model.held_out_power.unwrap_or(0),
        },
    }
}

/// Restores and fit-checks every grid in `registry`, then restores one
/// service per machine — the shared body of cold start and reload.
fn build_services(registry: &ModelRegistry, report: &mut StartupReport) -> Services {
    let mut machines = Services::new();

    for dataset in registry.datasets() {
        let Some(ds) = registry.load_dataset(dataset) else {
            report.log(format!(
                "machine {}: dataset {} failed to load — skipping its grids",
                dataset.machine, dataset.address
            ));
            report.grids_skipped += registry
                .models()
                .iter()
                .filter(|m| m.dataset_sha256 == dataset.sha256)
                .count();
            continue;
        };
        // Fit-check every grid trained on this dataset, serveable or not:
        // a corrupt checkpoint must surface at startup, not at request
        // time.
        let mut statics: BTreeMap<&str, &ModelDescriptor> = BTreeMap::new();
        for model in registry
            .models()
            .iter()
            .filter(|m| m.dataset_sha256 == dataset.sha256)
        {
            let outcome = model.settings().and_then(|settings| {
                registry
                    .load_grid(model)
                    .ok_or_else(|| "grid payload failed to load".to_string())
                    .and_then(|grid| {
                        restore_grid(&ds, &settings, grid_pipeline(model), &grid)
                            .map(|models| models.len())
                    })
            });
            match outcome {
                Ok(n) => {
                    report.grids_loaded += 1;
                    report.log(format!("loaded {} ({n} checkpoints)", model.id));
                    if !model.dynamic && model.held_out_power.is_none() {
                        statics.insert(model.pipeline.as_str(), model);
                    }
                }
                Err(why) => {
                    report.grids_skipped += 1;
                    report.log(format!("SKIP {}: {why}", model.id));
                }
            }
        }

        if ds.is_empty() {
            report.log(format!(
                "machine {}: dataset is empty — nothing to serve",
                dataset.machine
            ));
            continue;
        }
        if machines.contains_key(&dataset.machine) {
            report.log(format!(
                "machine {}: already served by an earlier dataset — skipping {}",
                dataset.machine, dataset.address
            ));
            continue;
        }
        let (Some(s1), Some(s2)) = (statics.get("scenario1"), statics.get("scenario2")) else {
            report.log(format!(
                "machine {}: no loadable static scenario1+scenario2 pair — not serving",
                dataset.machine
            ));
            continue;
        };
        let (Ok(settings), Some(grid1), Some(grid2)) = (
            s1.settings(),
            registry.load_grid(s1),
            registry.load_grid(s2),
        ) else {
            report.log(format!(
                "machine {}: static grids vanished between fit check and restore",
                dataset.machine
            ));
            continue;
        };
        match TuneService::restore(&ds, &settings, &grid1, &grid2, &s1.id, &s2.id) {
            Ok(service) => {
                report.log(format!(
                    "machine {}: serving (time={}, edp={})",
                    dataset.machine, s1.id, s2.id
                ));
                machines.insert(dataset.machine.clone(), service);
            }
            Err(why) => report.log(format!(
                "machine {}: service restore failed: {why}",
                dataset.machine
            )),
        }
    }
    machines
}

impl ServeEngine {
    /// Cold start: restore every grid in the registry, then one service
    /// per machine. Serving zero machines is a valid (if useless) state —
    /// the daemon binary refuses it, the tests exercise it.
    pub fn start(registry: ModelRegistry, config: &EngineConfig) -> (ServeEngine, StartupReport) {
        let mut report = StartupReport::default();
        let services = build_services(&registry, &mut report);
        let generation = registry.generation().to_string();

        let engine = ServeEngine {
            live: RwLock::new(LiveState {
                registry: Arc::new(registry),
                services: Arc::new(services),
                generation,
            }),
            workers: AtomicUsize::new(config.workers),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch_seen: AtomicU64::new(0),
            fused_batches: AtomicU64::new(0),
            fused_graphs: AtomicU64::new(0),
            max_fused_batch: AtomicU64::new(0),
            shed_requests: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            grids_loaded: AtomicUsize::new(report.grids_loaded),
            grids_skipped: AtomicUsize::new(report.grids_skipped),
        };
        (engine, report)
    }

    fn live(&self) -> std::sync::RwLockReadGuard<'_, LiveState> {
        self.live.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Machines with a ready service (in the current snapshot).
    pub fn machines(&self) -> Vec<String> {
        self.live().services.keys().cloned().collect()
    }

    /// The registry behind the current snapshot (`List`/`Describe` answer
    /// from this; a reload swaps it together with the services).
    pub fn registry(&self) -> Arc<ModelRegistry> {
        self.live().registry.clone()
    }

    /// Generation stamp of the store index the current snapshot was built
    /// from.
    pub fn generation(&self) -> String {
        self.live().generation.clone()
    }

    /// Sets the batch worker count (0 = one per available core).
    pub fn set_workers(&self, workers: usize) {
        self.workers.store(workers, Ordering::Relaxed);
    }

    fn batch_threads(&self) -> Threads {
        match self.workers.load(Ordering::Relaxed) {
            0 => Threads::Auto,
            n => Threads::Fixed(n),
        }
    }

    /// Admission control (DESIGN.md §17): reserves a dispatcher-queue slot
    /// for one tune request. Returns `false` — and counts a shed — when the
    /// queue already holds `max_queue` requests; the caller must then
    /// answer with a typed `Overloaded` rejection instead of enqueueing.
    /// Every admitted request must be paired with one [`ServeEngine::departed`]
    /// call when it leaves the queue.
    pub fn admit(&self, max_queue: usize) -> bool {
        let prior = self.queue_depth.fetch_add(1, Ordering::SeqCst);
        if prior >= max_queue as u64 {
            self.queue_depth.fetch_sub(1, Ordering::SeqCst);
            self.shed_requests.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Releases the queue slot taken by [`ServeEngine::admit`] — called by
    /// the dispatcher as it dequeues, whatever it then decides to do with
    /// the request.
    pub fn departed(&self) {
        self.queue_depth.fetch_sub(1, Ordering::SeqCst);
    }

    /// Counts one request whose deadline budget ran out in the queue.
    pub fn note_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Serves one batch: requests are partitioned by machine, each
    /// machine's slice is grouped by objective, and the groups fan out over
    /// the worker pool, all reading the machine's one service — each group
    /// running as one fused block-diagonal forward
    /// ([`TuneService::tune_batch`], DESIGN.md §15). Responses come back in
    /// request order, bit-identical to serving each request alone. Unknown
    /// machines get error responses; nothing panics on client input. The
    /// services snapshot is taken once at entry, so a concurrent reload
    /// never splits a batch across two model generations (DESIGN.md §17).
    pub fn tune_batch(&self, requests: &[TuneRequest]) -> Vec<TuneResponse> {
        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch_seen
            .fetch_max(requests.len() as u64, Ordering::Relaxed);
        let threads = self.batch_threads();
        let services = self.live().services.clone();

        let mut settled: BTreeMap<usize, TuneResponse> = BTreeMap::new();
        let mut by_machine: BTreeMap<&str, Vec<(usize, &TuneRequest)>> = BTreeMap::new();
        for (i, request) in requests.iter().enumerate() {
            match services.contains_key(&request.machine) {
                true => by_machine
                    .entry(request.machine.as_str())
                    .or_default()
                    .push((i, request)),
                false => {
                    settled.insert(
                        i,
                        TuneResponse::err(
                            request.id,
                            format!(
                                "unknown machine {:?} (serving: {:?})",
                                request.machine,
                                self.machines().join(", ")
                            ),
                        ),
                    );
                }
            }
        }
        for (machine, entries) in by_machine {
            let Some(service) = services.get(machine) else {
                // Unreachable (partitioned on the same snapshot above), but
                // an unsettled slot degrades to a typed error, never a
                // panic.
                continue;
            };
            // Group by objective: requests sharing a committee fuse into one
            // block-diagonal forward, in `TuneObjective`'s deterministic order.
            let mut by_objective: BTreeMap<TuneObjective, Vec<(usize, &TuneRequest)>> =
                BTreeMap::new();
            for (i, request) in entries {
                by_objective
                    .entry(request.objective)
                    .or_default()
                    .push((i, request));
            }
            let groups: Vec<Vec<(usize, &TuneRequest)>> = by_objective.into_values().collect();
            for group in &groups {
                self.fused_batches.fetch_add(1, Ordering::Relaxed);
                self.fused_graphs
                    .fetch_add(group.len() as u64, Ordering::Relaxed);
                self.max_fused_batch
                    .fetch_max(group.len() as u64, Ordering::Relaxed);
            }
            let group_results = parallel_map(&groups, threads, |group| {
                let bodies: Vec<(&KernelInput, TuneObjective)> = group
                    .iter()
                    .map(|(_, request)| (&request.kernel, request.objective))
                    .collect();
                service.tune_batch(&bodies)
            });
            for (group, results) in groups.iter().zip(group_results) {
                for ((i, request), result) in group.iter().zip(results) {
                    settled.insert(
                        *i,
                        match result {
                            Ok(prediction) => TuneResponse::ok(request.id, prediction),
                            Err(why) => TuneResponse::err(request.id, why),
                        },
                    );
                }
            }
        }
        requests
            .iter()
            .enumerate()
            .map(|(i, request)| {
                settled.remove(&i).unwrap_or_else(|| {
                    TuneResponse::err(request.id, "internal: request slot left unsettled")
                })
            })
            .collect()
    }

    /// The single-request path — literally a one-element batch, so it
    /// cannot diverge from the batched path.
    pub fn tune(&self, request: &TuneRequest) -> TuneResponse {
        self.tune_batch(std::slice::from_ref(request))
            .into_iter()
            .next()
            .unwrap_or_else(|| TuneResponse::err(request.id, "internal: batch answered nothing"))
    }

    /// Hot model reload (DESIGN.md §17): restores and fit-checks every grid
    /// of `registry` *off* the serving path, then swaps the
    /// registry + services + generation snapshot in one critical section.
    /// Batches already running keep the services Arc they cloned at entry
    /// and finish undisturbed; the next batch serves the new grids.
    pub fn reload(&self, registry: ModelRegistry) -> StartupReport {
        let mut report = StartupReport::default();
        let services = build_services(&registry, &mut report);
        let generation = registry.generation().to_string();
        {
            let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
            live.registry = Arc::new(registry);
            live.services = Arc::new(services);
            live.generation = generation;
        }
        self.grids_loaded
            .store(report.grids_loaded, Ordering::Relaxed);
        self.grids_skipped
            .store(report.grids_skipped, Ordering::Relaxed);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        report.log(format!(
            "hot reload #{}: {} grid(s) loaded, {} skipped",
            self.reloads.load(Ordering::Relaxed),
            report.grids_loaded,
            report.grids_skipped
        ));
        report
    }

    /// One watcher tick: reopens the store, loads (or rebuilds) its index,
    /// and hot-reloads when the generation stamp moved. Returns whether a
    /// reload happened. Cheap when nothing changed — one small JSON read
    /// plus a file-name walk, no artifact payload is touched.
    pub fn reload_if_stale(&self) -> bool {
        let (root, force, verify) = {
            let live = self.live();
            let store = live.registry.store();
            (
                store.root().to_path_buf(),
                store.force_rebuild(),
                store.verify(),
            )
        };
        let store = Store::open(root)
            .with_force_rebuild(force)
            .with_verify(verify);
        let index = StoreIndex::load_or_rebuild(&store);
        if index.generation() == self.generation() {
            return false;
        }
        self.reload(ModelRegistry::from_index(store, &index));
        true
    }

    /// Spawns the registry watcher: every `poll`, check the store's index
    /// generation and hot-reload on change, until `stop` is set. The daemon
    /// binary runs this for the life of the process; tests drive
    /// [`ServeEngine::reload_if_stale`] directly when they want determinism.
    pub fn spawn_reload_watcher(
        self: &Arc<ServeEngine>,
        poll: Duration,
        stop: Arc<AtomicBool>,
    ) -> thread::JoinHandle<()> {
        let engine = Arc::clone(self);
        thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                thread::sleep(poll);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                engine.reload_if_stale();
            }
        })
    }

    /// Serving counters since startup.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_batch_seen: self.max_batch_seen.load(Ordering::Relaxed),
            fused_batches: self.fused_batches.load(Ordering::Relaxed),
            fused_graphs: self.fused_graphs.load(Ordering::Relaxed),
            max_fused_batch: self.max_fused_batch.load(Ordering::Relaxed),
            machines: self.machines(),
            grids_loaded: self.grids_loaded.load(Ordering::Relaxed),
            grids_skipped: self.grids_skipped.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::SeqCst),
            reloads: self.reloads.load(Ordering::Relaxed),
            protocol: PROTOCOL_VERSION,
        }
    }
}
