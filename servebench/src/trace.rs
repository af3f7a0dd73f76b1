//! Spans, and the in-process replay that attributes an op's time to layers.
//!
//! A span records a layer, the span that caused it, the op it belongs to,
//! and its start and end. Spans stay in memory and are written out when the
//! run ends. The replay repeats a workload's op sequence without the network,
//! calling the same public functions the node calls, one span around each.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use estima_core::engine::FitKey;
use estima_core::fit::{candidate_fits_with, FitOptions};
use estima_core::json::Json;
use estima_core::plan::DEFAULT_SUGGESTIONS;
use estima_core::store::{EstimaSession, SeriesSnapshot};
use estima_core::{
    DurabilityOptions, Engine, EstimaError, FitCache, MeasurementSet, MeasurementStore, SeriesId,
    StallSource,
};
use estima_serve::http::{
    parse_request_limited, ParseStatus, Request, ResponseBuf, MAX_BODY_BYTES,
};
use estima_serve::{wire, ServerConfig};

use crate::inputs::{config, Kind, Step, Workload, WorkloadKind, MEASURED_CORES};

/// What a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One op (a root span).
    Op,
    /// Replay-only calls that time layers the workload's ops never reach
    /// (a root span).
    Probe,
    /// The replay's set-up (a root span).
    Setup,
    /// One HTTP request as the client sees it.
    ClientRequest,
    HttpParse,
    WireDecode,
    /// Durable `EstimaSession::ingest_set` (the WAL append and the cache
    /// invalidation included).
    StoreIngest,
    /// The same ingest on a twin durable `MeasurementStore`, without the
    /// session's cache.
    TwinDurable,
    /// The same ingest on a twin in-memory `MeasurementStore`.
    TwinMemory,
    StoreSnapshot,
    PredictorCold,
    PredictorWarm,
    PlanCold,
    PlanWarm,
    CacheLookup,
    FitGrid,
    WireEncode,
    HttpRender,
}

impl Layer {
    /// Number of layers (the last variant's index plus one).
    const COUNT: usize = Layer::HttpRender as usize + 1;

    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Probe => "probe",
            Layer::Setup => "setup",
            Layer::ClientRequest => "client.request",
            Layer::HttpParse => "http.parse",
            Layer::WireDecode => "wire.decode",
            Layer::StoreIngest => "store.ingest",
            Layer::TwinDurable => "wal.twin_durable",
            Layer::TwinMemory => "wal.twin_memory",
            Layer::StoreSnapshot => "store.snapshot",
            Layer::PredictorCold => "predictor.cold",
            Layer::PredictorWarm => "predictor.warm",
            Layer::PlanCold => "plan.cold",
            Layer::PlanWarm => "plan.warm",
            Layer::CacheLookup => "engine.cache_lookup",
            Layer::FitGrid => "fit.grid",
            Layer::WireEncode => "wire.encode",
            Layer::HttpRender => "http.render",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The layers a node runs for a request, in order. The other replay spans
/// re-time work these calls do inside, so they are left out of path sums.
pub const PATH: [Layer; 8] = [
    Layer::HttpParse,
    Layer::WireDecode,
    Layer::StoreIngest,
    Layer::PredictorCold,
    Layer::PredictorWarm,
    Layer::PlanWarm,
    Layer::WireEncode,
    Layer::HttpRender,
];

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;
/// Id of a span not recorded because the log is full.
const DROPPED: u32 = u32::MAX - 1;
/// Most spans one log keeps (about 16 MiB). Past it, new root spans and
/// everything under them are dropped whole.
const MAX_SPANS: usize = 500_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call reported (candidates for a grid span).
    pub items: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, layer: Layer, parent: u32, op: u64) -> u32 {
        if parent == DROPPED || (parent == ROOT && self.spans.len() >= MAX_SPANS) {
            self.dropped += u64::from(parent == ROOT);
            return DROPPED;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            parent,
            op: op as u32,
            start_ns,
            end_ns: start_ns,
            items: 0,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if id != DROPPED {
            let now = self.now();
            self.spans[id as usize].end_ns = now;
        }
    }

    fn close_items(&mut self, id: u32, items: usize) {
        self.close(id);
        if id != DROPPED {
            self.spans[id as usize].items = items as u32;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Root spans (and everything under them) dropped because the log was
    /// full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span: its duration minus what its children cover
    /// (children of a span never overlap: one thread makes every call).
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if span.parent != ROOT {
                let parent = span.parent as usize;
                own[parent] = own[parent].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Append the first `limit` spans as CSV rows tagged with `phase`.
    pub fn write_csv(
        &self,
        phase: &str,
        limit: usize,
        out: &mut impl std::io::Write,
    ) -> std::io::Result<()> {
        let own = self.self_times();
        for (id, (span, own)) in self.spans.iter().zip(own).enumerate().take(limit) {
            let parent = if span.parent == ROOT {
                String::new()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{phase},{id},{parent},{},{},{},{},{own},{}",
                span.op,
                span.layer.name(),
                span.start_ns,
                span.end_ns,
                span.items
            )?;
        }
        Ok(())
    }

    /// Header of [`Tracer::write_csv`] rows.
    pub const CSV_HEADER: &'static str = "phase,span,parent,op,layer,start_ns,end_ns,self_ns,items";

    /// Per root span: the summed self time, call count and items of every
    /// layer inside it.
    pub fn roots(&self) -> Vec<RootTotals> {
        let own = self.self_times();
        let mut root_of = vec![0usize; self.spans.len()];
        let mut slot_of_root = vec![usize::MAX; self.spans.len()];
        let mut roots: Vec<RootTotals> = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            let root = if span.parent == ROOT {
                id
            } else {
                root_of[span.parent as usize]
            };
            root_of[id] = root;
            if span.parent == ROOT {
                slot_of_root[id] = roots.len();
                roots.push(RootTotals {
                    kind: span.layer,
                    ns: [0; Layer::COUNT],
                    calls: [0; Layer::COUNT],
                    items: [0; Layer::COUNT],
                });
            }
            let totals = &mut roots[slot_of_root[root]];
            totals.ns[span.layer.index()] += own[id];
            totals.calls[span.layer.index()] += 1;
            totals.items[span.layer.index()] += u64::from(span.items);
        }
        roots
    }

    /// Self times of every single span of `layer`, in nanoseconds.
    pub fn calls(&self, layer: Layer) -> Vec<u64> {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(span, _)| span.layer == layer)
            .map(|(_, own)| own)
            .collect()
    }
}

/// What one root span (an op, a probe, the set-up) spent per layer.
pub struct RootTotals {
    pub kind: Layer,
    ns: [u64; Layer::COUNT],
    calls: [u64; Layer::COUNT],
    items: [u64; Layer::COUNT],
}

impl RootTotals {
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer.index()]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    pub fn items(&self, layer: Layer) -> u64 {
        self.items[layer.index()]
    }

    /// Summed self time of the [`PATH`] layers.
    pub fn path_ns(&self) -> u64 {
        PATH.iter().map(|layer| self.ns(*layer)).sum()
    }
}

/// Median of `values` (nearest rank); 0 when empty.
pub fn p50(values: &mut [u64]) -> u64 {
    percentile(values, 0.50)
}

/// Nearest-rank percentile of `values`; 0 when empty.
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// p50 over ops of `layer`'s summed self time per op, in µs. When no op
/// reaches the layer, the same over the probe and set-up roots that time
/// it, so every layer is measured on every workload.
pub fn layer_p50_us(roots: &[RootTotals], layer: Layer) -> f64 {
    let per_root = |kind_is_op: bool| -> Vec<u64> {
        roots
            .iter()
            .filter(|r| (r.kind == Layer::Op) == kind_is_op && r.calls(layer) > 0)
            .map(|r| r.ns(layer))
            .collect()
    };
    let mut values = per_root(true);
    if values.is_empty() {
        values = per_root(false);
    }
    p50(&mut values) as f64 / 1e3
}

/// Items (candidates, for a grid) that `layer` reported per op; when no op
/// reaches the layer, per probe or set-up root that does.
pub fn items_per_root(roots: &[RootTotals], layer: Layer) -> f64 {
    let ops: Vec<&RootTotals> = roots.iter().filter(|r| r.kind == Layer::Op).collect();
    let reached = |r: &&RootTotals| r.calls(layer) > 0;
    let counted: Vec<&RootTotals> = if ops.iter().any(reached) {
        ops
    } else {
        roots.iter().filter(reached).collect()
    };
    let items: u64 = counted.iter().map(|r| r.items(layer)).sum();
    items as f64 / counted.len().max(1) as f64
}

/// p50 over roots of the durable twin store's ingest self time minus the
/// in-memory twin's, in µs: the cost of the write-ahead append.
pub fn wal_append_p50_us(roots: &[RootTotals]) -> f64 {
    let deltas = |kind_is_op: bool| -> Vec<i64> {
        roots
            .iter()
            .filter(|r| (r.kind == Layer::Op) == kind_is_op && r.calls(Layer::TwinDurable) > 0)
            .map(|r| r.ns(Layer::TwinDurable) as i64 - r.ns(Layer::TwinMemory) as i64)
            .collect()
    };
    let mut values = deltas(true);
    if values.is_empty() {
        values = deltas(false);
    }
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    values[values.len().div_ceil(2) - 1] as f64 / 1e3
}

/// The node's request path replayed in-process: a durable session like the
/// node's, a durable and an in-memory twin store for the WAL's share of an
/// ingest, and the node's reusable request and response buffers.
pub struct Replay<'w> {
    workload: &'w Workload,
    durable: EstimaSession,
    twin_durable: MeasurementStore,
    twin_memory: MeasurementStore,
    sources: Vec<StallSource>,
    fit: FitOptions,
    request: Request,
    response: ResponseBuf,
    wire_in: Vec<u8>,
    wire_out: Vec<u8>,
    scratch: String,
    next: u64,
    probes: u64,
}

impl<'w> Replay<'w> {
    /// Open the durable store in `dir`, seed both sessions, and send each
    /// series its first read (timed: these are the cold spans) and one
    /// whole cycle of ops (untimed).
    pub fn setup(
        workload: &'w Workload,
        dir: &Path,
        tracer: &mut Tracer,
    ) -> Result<Replay<'w>, String> {
        let capacity = ServerConfig::default().cache_capacity;
        let store = open_store(&dir.join("session"))?;
        let config = config();
        let mut replay = Replay {
            workload,
            durable: EstimaSession::with_store(
                config.clone(),
                Arc::new(FitCache::with_capacity(capacity)),
                store,
            ),
            twin_durable: open_store(&dir.join("twin"))?,
            twin_memory: MeasurementStore::new(),
            sources: config.sources(),
            fit: FitOptions {
                realism_horizon: workload.target.cores,
                ..config.fit.clone()
            },
            request: Request::new(),
            response: ResponseBuf::new(),
            wire_in: Vec::new(),
            wire_out: Vec::new(),
            scratch: String::new(),
            next: 0,
            probes: 0,
        };
        for series in workload.series.iter().chain(&workload.probes) {
            let seeded = replay
                .durable
                .ingest_set(&series.id, &series.states[0])
                .and_then(|_| {
                    replay
                        .twin_durable
                        .ingest_set(&series.id, &series.states[0])
                })
                .and_then(|_| replay.twin_memory.ingest_set(&series.id, &series.states[0]));
            seeded.map_err(|e| format!("seed `{}` in-process: {e}", series.id))?;
        }
        // Each first read and cold probe plan is a set-up root of its own,
        // so per-root figures stay per call.
        for step in workload.first_reads() {
            let root = tracer.open(Layer::Setup, ROOT, 0);
            let matched = replay.step(tracer, root, 0, &step);
            tracer.close(root);
            if !matched {
                return Err("an in-process first read does not match the reference".into());
            }
        }
        // The probes: one series to flip and predict, and (unless planning
        // is on the ops' path) three series planned once cold here.
        replay
            .durable
            .predict(&workload.probes[0].id, &workload.target)
            .map_err(|e| format!("probe predict: {e}"))?;
        if workload.kind != WorkloadKind::PlanWarm {
            for series in &workload.probes[1..] {
                let root = tracer.open(Layer::Setup, ROOT, 0);
                let span = tracer.open(Layer::PlanCold, root, 0);
                let plan = replay
                    .durable
                    .plan(&series.id, &workload.target, DEFAULT_SUGGESTIONS);
                tracer.close(span);
                tracer.close(root);
                plan.map_err(|e| format!("probe plan: {e}"))?;
            }
        }
        let mut untimed = Tracer::new(Instant::now());
        for _ in 0..workload.cycle() {
            if !replay.op(&mut untimed) {
                return Err("an in-process warm-up op failed".into());
            }
        }
        Ok(replay)
    }

    /// Replay whole cycles of ops until `budget` has passed, interleaving
    /// probes so they take about a third of the time. Returns the ops run
    /// and how many failed.
    pub fn run(&mut self, tracer: &mut Tracer, budget: Duration) -> (u64, u64) {
        let started = Instant::now();
        let mut probing = Duration::ZERO;
        let (mut ops, mut failed) = (0, 0);
        while started.elapsed() < budget {
            for _ in 0..self.workload.cycle() {
                ops += 1;
                if !self.op(tracer) {
                    failed += 1;
                }
            }
            if probing * 2 <= started.elapsed() - probing {
                let probe_started = Instant::now();
                self.probe(tracer);
                probing += probe_started.elapsed();
            }
        }
        (ops, failed)
    }

    /// Replay the next op; `false` if a reply differs from the reference.
    fn op(&mut self, tracer: &mut Tracer) -> bool {
        let number = self.next;
        self.next += 1;
        let op = self.workload.op(number);
        let root = tracer.open(Layer::Op, ROOT, number);
        let mut ok = true;
        for step in op.steps() {
            ok &= self.step(tracer, root, number, step);
        }
        tracer.close(root);
        ok
    }

    /// One request, as the node handles it: parse the exact wire bytes the
    /// client sends, decode, call the session, encode, render.
    fn step(&mut self, tracer: &mut Tracer, root: u32, op: u64, step: &Step) -> bool {
        let workload = self.workload;
        let (path, body) = workload.request(step);
        self.wire_in.clear();
        let _ = write!(
            self.wire_in,
            "POST {path} HTTP/1.1\r\nhost: loopback\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        );
        let span = tracer.open(Layer::HttpParse, root, op);
        let parsed = parse_request_limited(&self.wire_in, &mut self.request, MAX_BODY_BYTES);
        tracer.close(span);
        if !matches!(parsed, Ok(ParseStatus::Complete { .. })) {
            return false;
        }
        let Ok(text) = std::str::from_utf8(&self.request.body) else {
            return false;
        };
        self.response.reset();
        let id = &workload.series[step.series].id;
        let answered = match step.kind {
            Kind::Ingest => {
                let span = tracer.open(Layer::WireDecode, root, op);
                let decoded = wire::decode_ingest_request(text);
                tracer.close(span);
                let Ok(ingest) = decoded else {
                    return false;
                };
                let Some(frequency_ghz) = ingest.frequency_ghz else {
                    return false;
                };
                let mut incoming = MeasurementSet::new(ingest.series.as_str(), frequency_ghz);
                for point in ingest.points {
                    incoming.push(point);
                }
                self.ingest(tracer, root, op, &ingest.series, &incoming)
                    .map(|snapshot| {
                        let span = tracer.open(Layer::WireEncode, root, op);
                        ingest_reply_json(&snapshot).render_into(&mut self.response.body);
                        tracer.close(span);
                    })
                    .is_some()
            }
            Kind::Predict => {
                let span = tracer.open(Layer::WireDecode, root, op);
                let decoded = wire::decode_series_predict_request(text);
                tracer.close(span);
                let Ok((target, _)) = decoded else {
                    return false;
                };
                let Some(snapshot) = self.snapshot(tracer, root, op, id) else {
                    return false;
                };
                // A first read and every `cold_refit` predict refit; the
                // rest are cache hits.
                let layer = if step.version == 0 || workload.kind == WorkloadKind::ColdRefit {
                    Layer::PredictorCold
                } else {
                    Layer::PredictorWarm
                };
                let span = tracer.open(layer, root, op);
                let predicted = self.durable.predict(id, &target);
                tracer.close(span);
                let Ok(prediction) = predicted else {
                    return false;
                };
                let span = tracer.open(Layer::WireEncode, root, op);
                wire::write_prediction_response(&prediction, None, &mut self.response.body);
                tracer.close(span);
                let hits = self.lookups(tracer, root, op, &snapshot);
                if workload.kind == WorkloadKind::ColdRefit && step.version > 0 {
                    self.grids(tracer, root, op, &snapshot);
                }
                hits
            }
            Kind::Plan => {
                let span = tracer.open(Layer::WireDecode, root, op);
                let decoded = wire::decode_plan_request(text);
                tracer.close(span);
                let Ok((target, suggestions)) = decoded else {
                    return false;
                };
                let Some(snapshot) = self.snapshot(tracer, root, op, id) else {
                    return false;
                };
                let layer = if step.version == 0 {
                    Layer::PlanCold
                } else {
                    Layer::PlanWarm
                };
                let span = tracer.open(layer, root, op);
                let planned = self.durable.plan(id, &target, suggestions);
                tracer.close(span);
                let Ok(plan) = planned else {
                    return false;
                };
                let span = tracer.open(Layer::WireEncode, root, op);
                wire::write_plan(&plan, &mut self.response.body);
                tracer.close(span);
                self.lookups(tracer, root, op, &snapshot)
            }
        };
        let matches = answered && self.response.body == workload.expected(step, &mut self.scratch);
        let span = tracer.open(Layer::HttpRender, root, op);
        self.response.render_into(&mut self.wire_out, false);
        tracer.close(span);
        self.wire_out.clear();
        matches
    }

    /// The session's durable ingest, then the same ingest on both twin
    /// stores.
    fn ingest(
        &self,
        tracer: &mut Tracer,
        root: u32,
        op: u64,
        id: &SeriesId,
        incoming: &MeasurementSet,
    ) -> Option<SeriesSnapshot> {
        let span = tracer.open(Layer::StoreIngest, root, op);
        let durable = self.durable.ingest_set(id, incoming);
        tracer.close(span);
        let span = tracer.open(Layer::TwinDurable, root, op);
        let twin_durable = self.twin_durable.ingest_set(id, incoming);
        tracer.close(span);
        let span = tracer.open(Layer::TwinMemory, root, op);
        let twin_memory = self.twin_memory.ingest_set(id, incoming);
        tracer.close(span);
        twin_durable.ok()?;
        twin_memory.ok()?;
        durable.ok()
    }

    fn snapshot(
        &self,
        tracer: &mut Tracer,
        root: u32,
        op: u64,
        id: &SeriesId,
    ) -> Option<SeriesSnapshot> {
        let span = tracer.open(Layer::StoreSnapshot, root, op);
        let snapshot = self.durable.snapshot(id);
        tracer.close(span);
        snapshot
    }

    /// The `(xs, ys)` series of every non-zero stall category, as the
    /// predictor fits them.
    fn category_series(&self, snapshot: &SeriesSnapshot) -> Vec<(Vec<f64>, Vec<f64>)> {
        snapshot
            .set
            .categories(&self.sources)
            .iter()
            .map(|category| snapshot.set.category_series(category))
            .filter(|series| series.iter().any(|(_, v)| *v != 0.0))
            .map(|series| series.iter().map(|(c, v)| (f64::from(*c), *v)).unzip())
            .collect()
    }

    /// One fit-cache lookup per stall category with the scoped key the
    /// predictor builds; `false` if any missed.
    fn lookups(&self, tracer: &mut Tracer, root: u32, op: u64, snapshot: &SeriesSnapshot) -> bool {
        let mut hits = true;
        for (xs, ys) in self.category_series(snapshot) {
            let span = tracer.open(Layer::CacheLookup, root, op);
            let key = FitKey::scoped(&xs, &ys, &self.fit, snapshot.id.as_str(), snapshot.version);
            let found = self.durable.cache().get_or_compute(key, || {
                Err(EstimaError::Numerical("benchmark lookup missed".into()))
            });
            tracer.close(span);
            hits &= found.is_ok();
        }
        hits
    }

    /// The candidate grid of every stall category, fitted again outside the
    /// cache.
    fn grids(&self, tracer: &mut Tracer, root: u32, op: u64, snapshot: &SeriesSnapshot) {
        for (xs, ys) in self.category_series(snapshot) {
            let span = tracer.open(Layer::FitGrid, root, op);
            let candidates = candidate_fits_with(&xs, &ys, &self.fit, &Engine::sequential());
            tracer.close_items(span, candidates.map_or(0, |c| c.len()));
        }
    }

    /// Time the layers this workload's ops never reach, on the probe series.
    fn probe(&mut self, tracer: &mut Tracer) {
        let workload = self.workload;
        self.probes += 1;
        let number = self.probes;
        let root = tracer.open(Layer::Probe, ROOT, number);
        let probe = &workload.probes[0];
        if workload.kind != WorkloadKind::ColdRefit {
            // Flip the newest checkpoint, so the next predict refits.
            let state = (number % 2) as usize;
            let mut incoming =
                MeasurementSet::new(probe.id.as_str(), probe.states[state].frequency_ghz);
            if let Some(point) = probe.states[state].at_cores(MEASURED_CORES) {
                incoming.push(point.clone());
            }
            if self
                .ingest(tracer, root, number, &probe.id, &incoming)
                .is_some()
            {
                let span = tracer.open(Layer::PredictorCold, root, number);
                let _ = std::hint::black_box(self.durable.predict(&probe.id, &workload.target));
                tracer.close(span);
                if let Some(snapshot) = self.durable.snapshot(&probe.id) {
                    self.grids(tracer, root, number, &snapshot);
                }
            }
        }
        if workload.kind != WorkloadKind::WarmMix {
            let span = tracer.open(Layer::PredictorWarm, root, number);
            let _ = std::hint::black_box(self.durable.predict(&probe.id, &workload.target));
            tracer.close(span);
        }
        if workload.kind != WorkloadKind::PlanWarm {
            let planned = &workload.probes[1 + (number as usize % (workload.probes.len() - 1))];
            let span = tracer.open(Layer::PlanWarm, root, number);
            let _ = std::hint::black_box(self.durable.plan(
                &planned.id,
                &workload.target,
                DEFAULT_SUGGESTIONS,
            ));
            tracer.close(span);
        }
        tracer.close(root);
    }
}

/// Open a durable store in a fresh directory `dir`.
fn open_store(dir: &Path) -> Result<MeasurementStore, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    MeasurementStore::open(&DurabilityOptions::new(dir))
        .map_err(|e| format!("open a store in {}: {e}", dir.display()))
}

/// The ingest reply the node renders.
fn ingest_reply_json(snapshot: &SeriesSnapshot) -> Json {
    Json::Object(vec![
        (
            "series".to_string(),
            Json::String(snapshot.id.as_str().to_string()),
        ),
        ("version".to_string(), Json::Number(snapshot.version as f64)),
        (
            "points".to_string(),
            Json::Number(snapshot.set.len() as f64),
        ),
    ])
}
