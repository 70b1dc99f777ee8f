//! The traced run's layer probes: in-process calls into each layer's public
//! functions on the workload's own inputs and batch size, each wrapped in a
//! span. They run after the measured windows, so they never perturb them.

use crate::retrain::Published;
use crate::trace::Tracer;
use pnp_core::registry::ModelRegistry;
use pnp_core::serving::{
    committee_predict_batch, resolve_graph, restore_grid, serving_tables, GridPipeline,
    KernelInput, TuneRequest,
};
use pnp_gnn::{GraphBatch, ModelConfig, PnPModel};
use pnp_graph::{build_region_graph, EncodedGraph, Vocabulary};
use pnp_ir::try_lower_kernel;
use pnp_serve::{read_message, write_message, EngineConfig, Request, Response, ServeEngine};
use pnp_store::Store;
use std::path::Path;

/// Repeats of the set-up-sized calls (registry open, engine start, grid
/// restore); their spans are averaged.
const SETUP_REPEATS: usize = 3;
/// Most batches pushed through the per-batch probes.
const MAX_BATCHES: usize = 24;
/// Most kernels pushed through the per-kernel probes.
pub const MAX_KERNELS: usize = 200;

/// Results the spans alone do not carry.
pub struct Probed {
    /// Dataset and grid payload bytes the registry points the daemon at,
    /// which its start-up reads.
    pub payload_bytes: u64,
    /// Mean nodes per encoded graph of the workload's kernels.
    pub nodes_mean: f64,
    /// Computed MFLOP of one fold model's forward at the workload's batch
    /// size (from tensor shapes, not measured).
    pub forward_mflop: f64,
    /// Mean request and response frame sizes, in bytes.
    pub request_bytes: f64,
    /// Mean response frame size, in bytes.
    pub response_bytes: f64,
    /// Graphs per batch the probes used.
    pub batch: usize,
    /// The in-process engine's fused-group counters over the probe:
    /// `(fused graphs, fused groups, largest group)`.
    pub fused: (u64, u64, u64),
}

/// The workload's inputs, as the probes consume them.
pub struct Inputs<'a> {
    /// The published store the daemon (or the last pass) used.
    pub store: &'a Path,
    /// Kernels as the workload sends them (distinct ones).
    pub kernels: &'a [KernelInput],
    /// The same kernels' sources, for the lowering and graph probes.
    pub sources: &'a [KernelInput],
    /// Requests of the workload, in order.
    pub requests: &'a [TuneRequest],
    /// `(request, response)` pairs the daemon answered; empty without a
    /// daemon, when the in-process engine's answers are used instead.
    pub answered: &'a [(TuneRequest, Response)],
    /// Graphs per batch in this workload.
    pub batch: usize,
}

/// Computed floating-point operations of one `forward_batch` of `model` on
/// `batch`: the embedding add, every RGCN matmul, bias and message
/// aggregation, the readout, and the dense classifier.
pub fn forward_flops(config: &ModelConfig, batch: &GraphBatch) -> f64 {
    let n = batch.num_nodes() as f64;
    let b = batch.len() as f64;
    let h = config.hidden_dim as f64;
    let f = config.fc_hidden as f64;
    let d = config.num_dynamic_features as f64;
    let c = config.num_classes as f64;
    let relation_flops: f64 = batch
        .relations()
        .iter()
        .filter(|edges| !edges.is_empty())
        .map(|edges| 2.0 * n * h * h + 2.0 * edges.len() as f64 * h)
        .sum();
    let layer = 2.0 * n * h * h + 2.0 * n * h + relation_flops;
    let dense = 2.0 * b * ((h + d) * f + f * f + f * c) + b * (2.0 * f + c);
    n * h + config.num_rgcn_layers as f64 * layer + n * h + dense
}

fn source_parts(kernel: &KernelInput) -> Option<(&str, &[pnp_ir::RegionSource], &str)> {
    match kernel {
        KernelInput::Source {
            app,
            regions,
            region,
        } => Some((app, regions, region)),
        KernelInput::Graph(_) => None,
    }
}

/// Runs every probe, recording spans under one `probes` root.
pub fn run(tracer: &Tracer, inputs: &Inputs) -> Result<Probed, String> {
    let root = tracer.open("probes", None, None);
    let vocab = Vocabulary::standard();
    let open = || ModelRegistry::open(Store::open(inputs.store));

    // Registry and store reads, engine start-up, grid restore.
    for _ in 0..SETUP_REPEATS {
        tracer.time("registry.open", root, open);
    }
    for _ in 0..SETUP_REPEATS {
        let registry = open();
        tracer.time("engine.start", root, || {
            ServeEngine::start(registry, &EngineConfig::default())
        });
    }
    let published = Published::open(inputs.store)?;
    let (ds, settings) = (&published.dataset, &published.settings);
    let payload_bytes = published
        .registry
        .datasets()
        .iter()
        .map(|d| d.payload_len as u64)
        .chain(
            published
                .registry
                .models()
                .iter()
                .map(|m| m.payload_len as u64),
        )
        .sum();
    let mut time_models = Vec::new();
    for _ in 0..SETUP_REPEATS {
        time_models = tracer.time("serving.restore_grid", root, || {
            let time = restore_grid(
                ds,
                settings,
                GridPipeline::Scenario1 { dynamic: false },
                &published.time.1,
            );
            let edp = restore_grid(
                ds,
                settings,
                GridPipeline::Scenario2 { dynamic: false },
                &published.edp.1,
            );
            time.and_then(|t| edp.map(|_| t))
        })?;
    }

    // Lowering, graph construction and encoding of the workload's sources.
    let mut nodes = Vec::new();
    for kernel in inputs.sources.iter().take(MAX_KERNELS) {
        let (app, regions, region) = source_parts(kernel).ok_or("probe sources are Source")?;
        let module = tracer
            .time("ir.lower", root, || try_lower_kernel(app, regions))
            .map_err(|e| format!("lowering {app}: {e:?}"))?;
        let graph = tracer
            .time("graph.build", root, || build_region_graph(&module, region))
            .ok_or_else(|| format!("region {region} missing"))?;
        let encoded = tracer.time("graph.encode", root, || {
            EncodedGraph::encode(&graph, &vocab)
        });
        nodes.push(encoded.num_nodes() as f64);
    }

    // What the daemon does per kernel it receives.
    let mut graphs = Vec::new();
    for kernel in inputs.kernels.iter().take(MAX_KERNELS) {
        graphs.push(tracer.time("serving.resolve_graph", root, || {
            resolve_graph(kernel, &vocab)
        })?);
    }

    // Batch assembly and fused forwards at the workload's batch size, on
    // the committee of the first power cap.
    let batch = inputs.batch.clamp(1, graphs.len().max(1));
    let mut committee: Vec<PnPModel> = time_models
        .into_iter()
        .filter(|((_, power), _)| *power == 0)
        .map(|(_, model)| model)
        .collect();
    let prior = serving_tables(ds).time_priors[0].clone();
    let mut mflop = Vec::new();
    for chunk in graphs.chunks(batch).take(MAX_BATCHES) {
        let refs: Vec<&EncodedGraph> = chunk.iter().collect();
        let assembled = tracer
            .time("gnn.batch_assemble", root, || {
                GraphBatch::from_graphs(&refs)
            })
            .map_err(|e| format!("batch assembly: {e:?}"))?;
        for model in &mut committee {
            tracer.time("gnn.forward_batch", root, || {
                model.predict_proba_batch(&assembled, None)
            });
            mflop.push(forward_flops(&model.config, &assembled) / 1e6);
        }
        tracer
            .time("serving.committee_forward", root, || {
                committee_predict_batch(&mut committee, &refs, &prior)
            })
            .map_err(|e| format!("committee forward: {e:?}"))?;
    }

    // The engine's whole batch path, in process.
    let (engine, _) = ServeEngine::start(open(), &EngineConfig::default());
    let mut in_process = Vec::new();
    for chunk in inputs.requests.chunks(batch).take(MAX_BATCHES) {
        let responses = tracer.time("engine.tune_batch", root, || engine.tune_batch(chunk));
        in_process.extend(
            chunk
                .iter()
                .cloned()
                .zip(responses.into_iter().map(Response::Tune)),
        );
    }
    let stats = engine.stats();

    // Both ends of the wire protocol on the workload's messages: the
    // client encodes a request and decodes a response, the daemon the
    // reverse. Without a daemon, the in-process answers stand in.
    let answered = match inputs.answered {
        [] => &in_process[..],
        answered => answered,
    };
    let (mut request_bytes, mut response_bytes) = (Vec::new(), Vec::new());
    for (request, response) in answered.iter() {
        let request = Request::Tune(request.clone());
        let (mut req, mut resp) = (Vec::new(), Vec::new());
        tracer
            .time("protocol.encode", root, || {
                write_message(&mut req, &request).and_then(|()| write_message(&mut resp, response))
            })
            .map_err(|e| format!("encode: {e}"))?;
        tracer
            .time("protocol.decode", root, || {
                read_message::<Request>(&mut req.as_slice())
                    .and_then(|_| read_message::<Response>(&mut resp.as_slice()))
            })
            .map_err(|e| format!("decode: {e}"))?;
        request_bytes.push(req.len() as f64);
        response_bytes.push(resp.len() as f64);
    }
    tracer.close(root);

    Ok(Probed {
        payload_bytes,
        nodes_mean: crate::stats::mean(&nodes),
        forward_mflop: crate::stats::mean(&mflop),
        request_bytes: crate::stats::mean(&request_bytes),
        response_bytes: crate::stats::mean(&response_bytes),
        batch,
        fused: (
            stats.fused_graphs,
            stats.fused_batches,
            stats.max_fused_batch,
        ),
    })
}
