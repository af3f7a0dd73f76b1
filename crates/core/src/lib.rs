//! # estima-core
//!
//! The ESTIMA prediction pipeline: extrapolating the scalability of
//! in-memory applications from stalled-cycle measurements.
//!
//! This crate is a from-scratch Rust implementation of the method described
//! in *"ESTIMA: Extrapolating ScalabiliTy of In-Memory Applications"*
//! (Chatzopoulos, Dragojević, Guerraoui — PPoPP'16 / ACM TOPC 2017). Given
//! measurements of an application on a small machine — execution time plus
//! fine-grain backend stalled-cycle counters and, optionally, software stall
//! cycles — it predicts the application's execution time on a machine with
//! many more cores.
//!
//! The pipeline has three steps (Figure 3 of the paper):
//!
//! 1. **Collection** — measurements accumulate in a [`store`]: an
//!    [`EstimaSession`] holds named, versioned series that are
//!    [`ingest`](store::EstimaSession::ingest)ed incrementally (one
//!    [`Measurement`] per core count, stall categories broken out) and
//!    predicted on demand. The companion crates `estima-counters` and
//!    `estima-workloads` produce the measurements; callers that already
//!    hold a complete [`MeasurementSet`] can skip the store and call
//!    [`Estima::predict`] directly.
//! 2. **Extrapolation** — each stall category is approximated with the best
//!    of six analytic kernels ([`KernelKind`], Table 1) selected by RMSE at
//!    held-out checkpoint measurements, then extrapolated to the target core
//!    count.
//! 3. **Time translation** — the total stalled cycles per core are combined
//!    with a fitted *scaling factor* to produce execution-time predictions.
//!
//! The crate also contains the *time extrapolation* baseline the paper
//! compares against ([`TimeExtrapolation`]), bottleneck analysis on the
//! extrapolated categories ([`BottleneckReport`]), and the plugin mechanism
//! for user-supplied software stall categories ([`plugin`]).
//!
//! The module-to-paper mapping is documented in DESIGN.md § *Pipeline*; the
//! parallel [`engine`] (work pool, sharded [`FitCache`]), the
//! allocation-free fitting hot path, and the [`json`] machinery behind the
//! `estima-serve` wire format each have their own DESIGN.md sections.
//!
//! ## Quick example
//!
//! ```
//! use estima_core::prelude::*;
//!
//! // Measurements of a (synthetic) application at 1..=8 cores.
//! let mut set = MeasurementSet::new("my-app", 3.4);
//! for cores in 1..=8u32 {
//!     let n = cores as f64;
//!     set.push(
//!         Measurement::new(cores, 12.0 / n + 0.4)
//!             .with_stall(StallCategory::backend("resource_stalls"), 5.0e8 * (1.0 + 0.1 * n * n)),
//!     );
//! }
//!
//! // Predict scalability on a 32-core machine clocked at 2.8 GHz.
//! let estima = Estima::new(EstimaConfig::default());
//! let target = TargetSpec::cores(32).with_frequency_ghz(2.8);
//! let prediction = estima.predict(&set, &target).unwrap();
//! println!("{}", estima_core::report::render_prediction(&prediction));
//! assert!(prediction.predicted_time_at(32).is_some());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod bottleneck;
pub mod config;
pub mod engine;
pub mod error;
pub mod fit;
pub mod json;
pub mod kernels;
pub mod levenberg;
pub mod linalg;
pub mod measurement;
pub mod plan;
pub mod plugin;
pub mod predictor;
pub mod report;
pub mod stats;
pub mod store;
pub mod time_extrapolation;
pub mod wal;

pub use bottleneck::{BottleneckEntry, BottleneckReport};
pub use config::{EstimaConfig, TargetSpec, MAX_TARGET_CORES};
pub use engine::{BatchPredictor, CacheScope, Engine, FitCache};
pub use error::{EstimaError, Result};
pub use fit::{approximate_series, candidate_fits, fit_kernel, FitContext, FitOptions};
pub use json::Json;
pub use kernels::{FittedCurve, KernelKind};
pub use levenberg::{Jacobian, LmModel, LmOptions, LmStats, LmWorkspace};
pub use measurement::{Measurement, MeasurementSet, StallCategory, StallSource};
pub use plan::{ConfidenceInterval, MeasurementPlan, PlanSuggestion, Planner};
pub use predictor::{CategoryExtrapolation, Estima, Prediction};
pub use store::{
    EstimaSession, MeasurementStore, SeriesId, SeriesInfo, SeriesSnapshot, StoreLimits,
};
pub use time_extrapolation::{TimeExtrapolation, TimePrediction};
pub use wal::{DurabilityOptions, WalStats};

/// Convenience re-exports covering the common use of the crate.
pub mod prelude {
    pub use crate::bottleneck::{BottleneckEntry, BottleneckReport};
    pub use crate::config::{EstimaConfig, TargetSpec};
    pub use crate::engine::{BatchPredictor, Engine, FitCache};
    pub use crate::error::{EstimaError, Result};
    pub use crate::kernels::{FittedCurve, KernelKind};
    pub use crate::measurement::{Measurement, MeasurementSet, StallCategory, StallSource};
    pub use crate::plan::{ConfidenceInterval, MeasurementPlan, PlanSuggestion, Planner};
    pub use crate::predictor::{Estima, Prediction};
    pub use crate::store::{EstimaSession, MeasurementStore, SeriesId, StoreLimits};
    pub use crate::time_extrapolation::{TimeExtrapolation, TimePrediction};
    pub use crate::wal::{DurabilityOptions, WalStats};
}
