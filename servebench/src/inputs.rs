//! Seeded benchmark inputs: the series every workload serves, the fixed op
//! cycle that drives them, and the in-process reference outputs every
//! response is byte-compared against.
//!
//! The seed only moves coefficients inside the quickstart shape (12 core
//! counts, three stall categories, a 48-core target), so the cost of an op
//! is comparable across seeds. The server only ever sees the generated
//! request bodies.

use std::fmt::Write as _;

use estima_core::json::Json;
use estima_core::plan::{Planner, DEFAULT_SUGGESTIONS};
use estima_core::{
    BatchPredictor, Estima, EstimaConfig, Measurement, MeasurementSet, SeriesId, StallCategory,
    TargetSpec,
};
use estima_serve::wire;

/// Measured core counts per series (`1..=MEASURED_CORES`).
pub const MEASURED_CORES: u32 = 12;
/// Prediction target.
pub const TARGET_CORES: u32 = 48;
/// Clock of the measurements machine.
pub const FREQUENCY_GHZ: f64 = 2.1;

/// SplitMix64: a tiny, well-mixed generator, so the inputs of a seed are the
/// same on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// What one request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/measurements` replacing the newest checkpoint.
    Ingest,
    /// `POST /v1/series/{id}/predict`.
    Predict,
    /// `POST /v1/series/{id}/plan`.
    Plan,
}

impl Kind {
    /// The `/v1/stats` `requests` key this request is counted under.
    pub fn route(self) -> &'static str {
        match self {
            Kind::Ingest => "measurements",
            Kind::Predict => "series_predict",
            Kind::Plan => "series_plan",
        }
    }
}

/// One request of an op: what it does to which series, and what the reply
/// must be.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub kind: Kind,
    /// Index into [`Workload::series`].
    pub series: usize,
    /// Flip state of the newest checkpoint after this step (0 is what
    /// seeding stores).
    pub state: usize,
    /// Series version an ingest must report.
    pub version: u64,
}

/// One timed unit of work: one or two requests.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    steps: [Step; 2],
    len: usize,
}

impl Op {
    fn one(step: Step) -> Op {
        Op {
            steps: [step; 2],
            len: 1,
        }
    }

    pub fn steps(&self) -> &[Step] {
        &self.steps[..self.len]
    }
}

/// One named series: its two flip states and every request body that
/// touches it.
pub struct Series {
    pub id: SeriesId,
    /// The full set in each flip state of the newest (12-core) checkpoint.
    pub states: [MeasurementSet; 2],
    /// Seeding ingest: the whole state-0 set.
    pub seed_body: String,
    /// Flip ingests: the newest checkpoint in state 0 and in state 1.
    pub flip_bodies: [String; 2],
    pub predict_path: String,
    pub plan_path: String,
}

impl Series {
    fn new(id: &str, states: [MeasurementSet; 2]) -> Series {
        let sid = SeriesId::new(id).expect("benchmark series ids are valid");
        let newest = |state: usize| {
            let point = states[state]
                .at_cores(MEASURED_CORES)
                .expect("every state holds the newest checkpoint");
            wire::ingest_request_to_json(&sid, Some(FREQUENCY_GHZ), std::slice::from_ref(point))
                .render()
        };
        Series {
            seed_body: wire::ingest_request_to_json(
                &sid,
                Some(FREQUENCY_GHZ),
                states[0].measurements(),
            )
            .render(),
            flip_bodies: [newest(0), newest(1)],
            predict_path: format!("/v1/series/{id}/predict"),
            plan_path: format!("/v1/series/{id}/plan"),
            id: sid,
            states,
        }
    }
}

/// The three workloads. Each is homogeneous: every op of a run costs about
/// the same, so a percentile never straddles two kinds of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Flip a series' newest checkpoint, then predict it: a full refit
    /// through the candidate grid per op.
    ColdRefit,
    /// Four cache-hit predicts on unchanged series, then one flip ingest on
    /// a series nobody reads.
    WarmMix,
    /// A plan of an unchanged, already-planned series per op.
    PlanWarm,
}

impl WorkloadKind {
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        match name {
            "cold_refit" => Some(WorkloadKind::ColdRefit),
            "warm_mix" => Some(WorkloadKind::WarmMix),
            "plan_warm" => Some(WorkloadKind::PlanWarm),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ColdRefit => "cold_refit",
            WorkloadKind::WarmMix => "warm_mix",
            WorkloadKind::PlanWarm => "plan_warm",
        }
    }
}

/// Series flipped and predicted round-robin by `cold_refit`.
const COLD_SERIES: usize = 8;
/// Unchanged series read by `warm_mix` (one predict each per cycle).
const READ_SERIES: usize = 4;
/// Unchanged series planned round-robin by `plan_warm`.
const PLAN_SERIES: usize = 4;

/// A workload's generated inputs and reference outputs.
pub struct Workload {
    pub kind: WorkloadKind,
    pub target: TargetSpec,
    /// The bare-`TargetSpec` body of every predict and plan request.
    pub target_body: String,
    /// Series the ops touch.
    pub series: Vec<Series>,
    /// Series only the in-process replay touches, to time layers the ops
    /// never reach: index 0 is flipped and predicted, the rest are planned.
    pub probes: Vec<Series>,
    /// `expected[series][state]`: the reference predict or plan body
    /// (empty where that series/state is never read).
    expected: Vec<[String; 2]>,
}

impl Workload {
    /// Generate the inputs for `seed` and compute every reference output
    /// in-process.
    pub fn generate(kind: WorkloadKind, seed: u64) -> Result<Workload, String> {
        let target = TargetSpec::cores(TARGET_CORES);
        let mut rng = Rng::new(seed ^ (kind as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let names: Vec<String> = match kind {
            WorkloadKind::ColdRefit => (0..COLD_SERIES).map(|i| format!("cold-{i}")).collect(),
            WorkloadKind::WarmMix => (0..READ_SERIES)
                .map(|i| format!("read-{i}"))
                .chain(std::iter::once("write-0".to_string()))
                .collect(),
            WorkloadKind::PlanWarm => (0..PLAN_SERIES).map(|i| format!("plan-{i}")).collect(),
        };
        let series: Vec<Series> = names
            .iter()
            .map(|name| Series::new(name, draw_states(name, &mut rng)))
            .collect();
        let probes: Vec<Series> = ["probe-0", "probe-plan-0", "probe-plan-1", "probe-plan-2"]
            .iter()
            .map(|name| Series::new(name, draw_states(name, &mut rng)))
            .collect();

        let predictor = BatchPredictor::new(config());
        let estima = Estima::new(config());
        let predict = |set: &MeasurementSet| -> Result<String, String> {
            let prediction = predictor
                .predict(set, &target)
                .map_err(|e| format!("reference prediction of `{}`: {e}", set.app_name))?;
            let mut body = String::new();
            wire::write_prediction(&prediction, &mut body);
            Ok(body)
        };
        let plan = |set: &MeasurementSet| -> Result<String, String> {
            let plan = Planner::new(&estima)
                .plan(set, &target, DEFAULT_SUGGESTIONS)
                .map_err(|e| format!("reference plan of `{}`: {e}", set.app_name))?;
            let mut body = String::new();
            wire::write_plan(&plan, &mut body);
            Ok(body)
        };
        let mut expected = Vec::with_capacity(series.len());
        for (index, s) in series.iter().enumerate() {
            expected.push(match kind {
                WorkloadKind::ColdRefit => [predict(&s.states[0])?, predict(&s.states[1])?],
                WorkloadKind::WarmMix if index < READ_SERIES => {
                    [predict(&s.states[0])?, String::new()]
                }
                WorkloadKind::WarmMix => [String::new(), String::new()],
                WorkloadKind::PlanWarm => [plan(&s.states[0])?, String::new()],
            });
        }
        // The probes are never byte-checked, but must not fail either.
        predict(&probes[0].states[0])?;
        predict(&probes[0].states[1])?;

        Ok(Workload {
            kind,
            target_body: wire::target_spec_to_json(&target).render(),
            target,
            series,
            probes,
            expected,
        })
    }

    /// Ops per whole cycle: after one cycle every series is back in the
    /// same flip state, so per-op counts over whole cycles are exact.
    pub fn cycle(&self) -> u64 {
        match self.kind {
            WorkloadKind::ColdRefit => 2 * COLD_SERIES as u64,
            WorkloadKind::WarmMix => 2 * (READ_SERIES as u64 + 1),
            WorkloadKind::PlanWarm => PLAN_SERIES as u64,
        }
    }

    /// The first request each read series gets after seeding (the cold fit
    /// or cold plan), issued during set-up.
    pub fn first_reads(&self) -> Vec<Step> {
        let read = |kind, series| Step {
            kind,
            series,
            state: 0,
            version: 0,
        };
        match self.kind {
            WorkloadKind::ColdRefit => (0..COLD_SERIES).map(|s| read(Kind::Predict, s)).collect(),
            WorkloadKind::WarmMix => (0..READ_SERIES).map(|s| read(Kind::Predict, s)).collect(),
            WorkloadKind::PlanWarm => (0..PLAN_SERIES).map(|s| read(Kind::Plan, s)).collect(),
        }
    }

    /// Op number `k` of the fixed cycle (op 0 is the first after the first
    /// reads). Seeding leaves every series at version 2; flip `f` of a
    /// series moves it to state `f % 2` and version `2 + f`.
    pub fn op(&self, k: u64) -> Op {
        match self.kind {
            WorkloadKind::ColdRefit => {
                let series = (k % COLD_SERIES as u64) as usize;
                let flip = k / COLD_SERIES as u64 + 1;
                let state = (flip % 2) as usize;
                Op {
                    steps: [
                        Step {
                            kind: Kind::Ingest,
                            series,
                            state,
                            version: 2 + flip,
                        },
                        Step {
                            kind: Kind::Predict,
                            series,
                            state,
                            version: 2 + flip,
                        },
                    ],
                    len: 2,
                }
            }
            WorkloadKind::WarmMix => {
                let slot = (k % (READ_SERIES as u64 + 1)) as usize;
                if slot < READ_SERIES {
                    Op::one(Step {
                        kind: Kind::Predict,
                        series: slot,
                        state: 0,
                        version: 2,
                    })
                } else {
                    let flip = k / (READ_SERIES as u64 + 1) + 1;
                    Op::one(Step {
                        kind: Kind::Ingest,
                        series: READ_SERIES,
                        state: (flip % 2) as usize,
                        version: 2 + flip,
                    })
                }
            }
            WorkloadKind::PlanWarm => Op::one(Step {
                kind: Kind::Plan,
                series: (k % PLAN_SERIES as u64) as usize,
                state: 0,
                version: 2,
            }),
        }
    }

    /// Method, path and body of one step.
    pub fn request(&self, step: &Step) -> (&str, &str) {
        let series = &self.series[step.series];
        match step.kind {
            Kind::Ingest => ("/v1/measurements", &series.flip_bodies[step.state]),
            Kind::Predict => (&series.predict_path, &self.target_body),
            Kind::Plan => (&series.plan_path, &self.target_body),
        }
    }

    /// The exact response body a step must get, rendered into `scratch`
    /// when it depends on the series version.
    pub fn expected<'a>(&'a self, step: &Step, scratch: &'a mut String) -> &'a str {
        match step.kind {
            Kind::Ingest => {
                ingest_reply(&self.series[step.series].id, step.version, scratch);
                scratch
            }
            Kind::Predict | Kind::Plan => &self.expected[step.series][step.state],
        }
    }
}

/// The predictor configuration of both the server and the references:
/// the paper defaults at `parallelism = 1`.
pub fn config() -> EstimaConfig {
    EstimaConfig::default().with_parallelism(1)
}

/// The body `POST /v1/measurements` answers for a 12-point series at
/// `version`, rendered without allocating once `out` has grown.
pub fn ingest_reply(id: &SeriesId, version: u64, out: &mut String) {
    out.clear();
    let _ = write!(
        out,
        "{{\"series\":\"{}\",\"version\":{version},\"points\":{MEASURED_CORES}}}",
        id.as_str()
    );
}

/// The same body through the service's own JSON renderer; set-up asserts
/// the two agree.
pub fn ingest_reply_rendered(id: &SeriesId, version: u64) -> String {
    Json::Object(vec![
        ("series".to_string(), Json::String(id.as_str().to_string())),
        ("version".to_string(), Json::Number(version as f64)),
        (
            "points".to_string(),
            Json::Number(f64::from(MEASURED_CORES)),
        ),
    ])
    .render()
}

/// Draw one series: `time = a / n + b` seconds on `n` cores, its stalls split
/// between two backend categories, plus lock spinning growing as `n²` — the
/// quickstart curve with seeded coefficients. State 1 raises the newest
/// checkpoint by a seeded 2–4%.
fn draw_states(name: &str, rng: &mut Rng) -> [MeasurementSet; 2] {
    let a = rng.uniform(45.0, 55.0);
    let b = rng.uniform(0.9, 1.1);
    let scale = rng.uniform(3.6e8, 4.4e8);
    let share = rng.uniform(0.65, 0.75);
    let lock = rng.uniform(0.9e7, 1.1e7);
    let bump = rng.uniform(0.02, 0.04);
    let point = |cores: u32, raise: f64| {
        let n = f64::from(cores);
        let time = (a / n + b) * (1.0 + raise / 2.0);
        Measurement::new(cores, time)
            .with_stall(
                StallCategory::backend("rob_full"),
                scale * n * time * share * (1.0 + raise),
            )
            .with_stall(
                StallCategory::backend("ls_full"),
                scale * n * time * (1.0 - share) * (1.0 + raise),
            )
            .with_stall(
                StallCategory::software("lock_spin"),
                lock * n * n * (1.0 + raise),
            )
    };
    let state = |raise: f64| {
        let mut set = MeasurementSet::new(name, FREQUENCY_GHZ);
        for cores in 1..MEASURED_CORES {
            set.push(point(cores, 0.0));
        }
        set.push(point(MEASURED_CORES, raise));
        set
    };
    [state(0.0), state(bump)]
}
