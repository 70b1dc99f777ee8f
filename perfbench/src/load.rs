//! The serve workloads' traffic: an open loop that sends on a Poisson
//! schedule and times each request from when it was due, and a closed loop
//! that keeps a fixed number of requests in flight on one pipelined
//! connection.
//!
//! Requests are encoded into wire frames with the protocol's own
//! `write_message` before a window starts, and each frame leaves in one
//! write, so the timed loops measure the daemon rather than the
//! benchmark's client.

use crate::trace::{SpanId, Tracer};
use pnp_core::serving::{KernelInput, TuneObjective, TunePrediction, TuneRequest, TuneService};
use pnp_serve::{read_message, write_message, Client, RejectReason, Request, Response};
use std::collections::btree_map::{BTreeMap, Entry};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long outstanding requests may take to be answered once sending has
/// stopped; anything later is a timeout.
pub const DRAIN: Duration = Duration::from_secs(10);

/// Answered requests a window keeps for the protocol probes.
const KEEP_ANSWERED: usize = 2000;

/// The machine every request tunes for.
pub const MACHINE: &str = "haswell";

/// One request of a workload: which kernel, which objective, and (open
/// loop) when it is due relative to the window start.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Offset of its due time from the window start.
    pub due: Duration,
    /// Index into the workload's kernel list.
    pub kernel: usize,
    /// What it optimizes for.
    pub objective: TuneObjective,
}

/// One window's traffic: the plan and every request as its encoded frame.
/// Request `i` of the phase carries the id `base + i`.
pub struct Phase {
    /// The requests' plan.
    pub plan: Vec<Planned>,
    frames: Vec<Vec<u8>>,
    base: u64,
}

impl Phase {
    /// Encodes one tune request per planned slot; `kernel` gives each
    /// slot's kernel.
    pub fn encode(
        plan: Vec<Planned>,
        mut kernel: impl FnMut(&Planned) -> KernelInput,
    ) -> Result<Phase, String> {
        let frames = plan
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let request = Request::Tune(TuneRequest {
                    id: i as u64,
                    machine: MACHINE.to_string(),
                    objective: p.objective,
                    kernel: kernel(p),
                    deadline_ms: None,
                });
                let mut frame = Vec::new();
                write_message(&mut frame, &request)
                    .map_err(|e| format!("encode request {i}: {e}"))?;
                Ok(frame)
            })
            .collect::<Result<_, String>>()?;
        Ok(Phase {
            plan,
            frames,
            base: 0,
        })
    }

    /// Splits off the requests from `at` on as a second phase whose due
    /// times start `shift` earlier.
    pub fn split(mut self, at: usize, shift: Duration) -> (Phase, Phase) {
        let mut plan = self.plan.split_off(at);
        for p in &mut plan {
            p.due = p.due.saturating_sub(shift);
        }
        let second = Phase {
            plan,
            frames: self.frames.split_off(at),
            base: self.base + at as u64,
        };
        (self, second)
    }

    /// Requests in the phase.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Decodes request `i` back from its frame.
    pub fn request(&self, i: usize) -> Result<TuneRequest, String> {
        match read_message::<Request>(&mut self.frames[i].as_slice())? {
            Some(Request::Tune(request)) => Ok(request),
            other => Err(format!("frame {i} holds {other:?}")),
        }
    }
}

/// What the generator did for one request.
pub struct Sent {
    due: Instant,
    written: Instant,
    span: SpanId,
}

/// What a window's loop observed on the wire.
pub struct Wire {
    sent: Vec<Sent>,
    got: Vec<(Response, Instant)>,
    start: Instant,
}

/// The outcome of one measured window.
#[derive(Default)]
pub struct Window {
    /// Requests sent.
    pub attempted: usize,
    /// Latency of each answered (not rejected) request, from when it was
    /// due, in ms.
    pub latencies_ms: Vec<f64>,
    /// How late the generator wrote each request after it was due, in ms.
    pub late_ms: Vec<f64>,
    /// Seconds from the window start to the last response.
    pub wall_s: f64,
    /// Answers that matched the in-process oracle.
    pub ok: usize,
    /// Error responses (including protocol errors).
    pub errors: usize,
    /// Typed `Overloaded` rejections.
    pub shed: usize,
    /// Typed `DeadlineExceeded` rejections.
    pub deadline: usize,
    /// Requests never answered.
    pub timeouts: usize,
    /// Answers that differ from the oracle.
    pub mismatches: usize,
    /// `(request, response)` of the first answered requests, for the
    /// protocol probes.
    pub answered: Vec<(TuneRequest, Response)>,
}

impl Window {
    /// Failed operations: errors, rejections, timeouts and mismatches.
    pub fn failed(&self) -> usize {
        self.errors + self.shed + self.deadline + self.timeouts + self.mismatches
    }
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = Client::connect(addr)
        .map_err(|e| format!("connect {addr}: {e}"))?
        .into_stream();
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    reader
        .set_read_timeout(Some(DRAIN))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok((stream, BufReader::new(reader)))
}

fn send(
    writer: &mut TcpStream,
    phase: &Phase,
    i: usize,
    due: Instant,
    tracer: &Tracer,
) -> Result<Sent, String> {
    let id = Some(phase.base + i as u64);
    let span = tracer.open_at("request", due, None, id);
    let started = Instant::now();
    tracer.close_at(tracer.open_at("loadgen.late", due, span, id), started);
    let write_span = tracer.open_at("socket.write", started, span, id);
    writer
        .write_all(&phase.frames[i])
        .map_err(|e| format!("send request {i}: {e}"))?;
    let written = Instant::now();
    tracer.close_at(write_span, written);
    Ok(Sent { due, written, span })
}

/// Open loop: each request is written when the schedule says, never held
/// back by outstanding ones; a reader thread collects the responses.
pub fn open_loop(addr: &str, phase: &Phase, tracer: &Tracer) -> Result<Wire, String> {
    let (mut writer, mut reader) = connect(addr)?;
    let expected = phase.len();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    // A short lead so the first due time is not already in the past.
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let reading = scope.spawn(move || {
            let mut got = Vec::with_capacity(expected);
            while got.len() < expected {
                match read_message::<Response>(&mut reader) {
                    Ok(Some(response)) => got.push((response, Instant::now())),
                    _ => break,
                }
            }
            let _ = done_tx.send(());
            got
        });
        let mut sent = Vec::with_capacity(expected);
        let mut failure = None;
        for (i, plan) in phase.plan.iter().enumerate() {
            let due = start + plan.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            match send(&mut writer, phase, i, due, tracer) {
                Ok(s) => sent.push(s),
                Err(why) => {
                    failure = Some(why);
                    break;
                }
            }
        }
        if done_rx.recv_timeout(DRAIN).is_err() {
            // Unblock the reader; whatever is still unanswered timed out.
            let _ = writer.shutdown(Shutdown::Both);
        }
        let got = reading.join().expect("reader thread does not panic");
        match failure {
            Some(why) => Err(why),
            None => Ok(Wire { sent, got, start }),
        }
    })
}

/// Closed loop: `inflight` requests outstanding on one pipelined
/// connection, each answer releasing the next request, until `duration`
/// has passed or the requests run out. One thread does both directions.
pub fn closed_loop(
    addr: &str,
    phase: &Phase,
    inflight: usize,
    duration: Duration,
    tracer: &Tracer,
) -> Result<Wire, String> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut sent = Vec::with_capacity(phase.len());
    let mut got = Vec::with_capacity(phase.len());
    let start = Instant::now();
    let stop = start + duration;
    while sent.len() < inflight.min(phase.len()) {
        sent.push(send(
            &mut writer,
            phase,
            sent.len(),
            Instant::now(),
            tracer,
        )?);
    }
    let mut outstanding = sent.len();
    while outstanding > 0 {
        let Ok(Some(response)) = read_message::<Response>(&mut reader) else {
            break;
        };
        let now = Instant::now();
        got.push((response, now));
        outstanding -= 1;
        if now < stop && sent.len() < phase.len() {
            // The next request is due the moment this answer freed a slot.
            sent.push(send(&mut writer, phase, sent.len(), now, tracer)?);
            outstanding += 1;
        }
    }
    Ok(Wire { sent, got, start })
}

fn same(a: &TunePrediction, b: &TunePrediction) -> bool {
    a == b
        && a.expected_gain.to_bits() == b.expected_gain.to_bits()
        && a.point.power_watts.to_bits() == b.point.power_watts.to_bits()
}

/// Matches responses to requests, checks every answer bit for bit against
/// the in-process `TuneService::tune` on the same store (memoized per
/// kernel and objective, outside any timed window), and tallies failures.
pub fn settle(
    phase: &Phase,
    wire: Wire,
    oracle: &mut TuneService,
    tracer: &Tracer,
) -> Result<Window, String> {
    let Wire { sent, got, start } = wire;
    let mut w = Window {
        attempted: sent.len(),
        ..Window::default()
    };
    let mut expected: BTreeMap<(usize, Option<usize>), Result<TunePrediction, String>> =
        BTreeMap::new();
    let mut answered = vec![false; sent.len()];
    let mut last = start;
    for (response, at) in got {
        last = last.max(at);
        let id = match &response {
            Response::Tune(t) => t.id,
            Response::Rejected { id, .. } => *id,
            _ => {
                w.errors += 1;
                continue;
            }
        };
        let i = id.wrapping_sub(phase.base) as usize;
        let (Some(s), Some(plan)) = (sent.get(i), phase.plan.get(i)) else {
            w.errors += 1;
            continue;
        };
        if std::mem::replace(&mut answered[i], true) {
            w.errors += 1;
            continue;
        }
        let waited = tracer.open_at("server.wait", s.written, s.span, Some(id));
        tracer.close_at(waited, at);
        tracer.close_at(s.span, at);
        let t = match &response {
            Response::Rejected { reason, .. } => {
                match reason {
                    RejectReason::Overloaded => w.shed += 1,
                    RejectReason::DeadlineExceeded => w.deadline += 1,
                }
                continue;
            }
            Response::Tune(t) => t,
            _ => unreachable!("only tune answers and rejections carry ids"),
        };
        w.latencies_ms
            .push(at.saturating_duration_since(s.due).as_secs_f64() * 1e3);
        let objective = match plan.objective {
            TuneObjective::Time { power_idx } => Some(power_idx),
            TuneObjective::Edp => None,
        };
        let want = match expected.entry((plan.kernel, objective)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let request = phase.request(i)?;
                e.insert(oracle.tune(&request.kernel, request.objective))
            }
        };
        match (&t.prediction, &t.error, want) {
            (_, Some(_), _) => w.errors += 1,
            (Some(got), None, Ok(want)) if same(got, want) => w.ok += 1,
            _ => w.mismatches += 1,
        }
        if w.answered.len() < KEEP_ANSWERED {
            w.answered.push((phase.request(i)?, response.clone()));
        }
    }
    w.timeouts = answered.iter().filter(|a| !**a).count();
    w.late_ms = sent
        .iter()
        .map(|s| s.written.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    w.wall_s = last.saturating_duration_since(start).as_secs_f64();
    Ok(w)
}
