//! Measurement types: what ESTIMA collects on the measurements machine.
//!
//! A [`Measurement`] is one execution of the target application at a given
//! core count. It records the execution time, the fine-grain backend
//! hardware-stall counters (Table 2 / Table 3 of the paper), optionally the
//! frontend stalls (only used for the §5.2 ablation), and optionally the
//! software stalls reported by instrumented runtimes (lock spinning, barrier
//! waits, aborted STM transaction cycles).
//!
//! A [`MeasurementSet`] is the ordered collection of measurements for core
//! counts `1..=m` on one machine, plus machine metadata (clock frequency,
//! memory footprint) needed for cross-machine and weak-scaling predictions.

use std::collections::BTreeMap;
use std::fmt::Display;

use serde::{Deserialize, Serialize};

use crate::error::{EstimaError, Result};
use crate::json::{self, Json};

/// Where a stall-cycle category was measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StallSource {
    /// Backend hardware stalls (dispatch/execution-stage resource stalls).
    /// These are ESTIMA's default input.
    HardwareBackend,
    /// Frontend hardware stalls (fetch/decode). Disabled by default; the
    /// paper shows they do not improve predictions (§5.2, Table 6).
    HardwareFrontend,
    /// Software stalls reported by instrumented runtimes (§2.3, §5.3).
    Software,
}

impl StallSource {
    /// The source's name in the HTTP wire format and the write-ahead log.
    pub fn name(self) -> &'static str {
        match self {
            StallSource::HardwareBackend => "hw_backend",
            StallSource::HardwareFrontend => "hw_frontend",
            StallSource::Software => "software",
        }
    }

    /// Inverse of [`StallSource::name`]; any other string is an error that
    /// names the accepted ones (the wire's 400 message).
    pub fn from_name(name: &str) -> std::result::Result<StallSource, String> {
        match name {
            "hw_backend" => Ok(StallSource::HardwareBackend),
            "hw_frontend" => Ok(StallSource::HardwareFrontend),
            "software" => Ok(StallSource::Software),
            _ => Err(format!(
                "unknown stall source `{name}` (expected hw_backend, hw_frontend or software)"
            )),
        }
    }
}

/// A named stall-cycle category with its source.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StallCategory {
    /// Category name, e.g. `"dispatch_stall_rob_full"` or `"stm.aborted_cycles"`.
    pub name: String,
    /// Hardware backend, hardware frontend, or software.
    pub source: StallSource,
}

impl StallCategory {
    /// Convenience constructor for a backend hardware category.
    pub fn backend(name: impl Into<String>) -> Self {
        StallCategory {
            name: name.into(),
            source: StallSource::HardwareBackend,
        }
    }

    /// Convenience constructor for a frontend hardware category.
    pub fn frontend(name: impl Into<String>) -> Self {
        StallCategory {
            name: name.into(),
            source: StallSource::HardwareFrontend,
        }
    }

    /// Convenience constructor for a software category.
    pub fn software(name: impl Into<String>) -> Self {
        StallCategory {
            name: name.into(),
            source: StallSource::Software,
        }
    }
}

impl std::fmt::Display for StallCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = match self.source {
            StallSource::HardwareBackend => "hw",
            StallSource::HardwareFrontend => "fe",
            StallSource::Software => "sw",
        };
        write!(f, "{}:{}", tag, self.name)
    }
}

/// One execution of the application at a fixed core count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Number of cores (threads) used for this execution.
    pub cores: u32,
    /// Execution time in seconds.
    pub exec_time: f64,
    /// Total stalled cycles per category, summed over all cores used.
    pub stalls: BTreeMap<StallCategory, f64>,
    /// Peak memory footprint in bytes, used by weak-scaling predictions.
    pub memory_footprint: Option<u64>,
}

impl Measurement {
    /// Create a measurement with no stall categories yet.
    pub fn new(cores: u32, exec_time: f64) -> Self {
        Measurement {
            cores,
            exec_time,
            stalls: BTreeMap::new(),
            memory_footprint: None,
        }
    }

    /// Record total stalled cycles for one category.
    pub fn with_stall(mut self, category: StallCategory, cycles: f64) -> Self {
        self.stalls.insert(category, cycles);
        self
    }

    /// Record the memory footprint in bytes.
    pub fn with_memory_footprint(mut self, bytes: u64) -> Self {
        self.memory_footprint = Some(bytes);
        self
    }

    /// Total stalled cycles across categories from the given sources.
    pub fn total_stalls(&self, sources: &[StallSource]) -> f64 {
        self.stalls
            .iter()
            .filter(|(c, _)| sources.contains(&c.source))
            .map(|(_, v)| v)
            .sum()
    }

    /// Total stalled cycles per core across categories from the given sources.
    pub fn stalls_per_core(&self, sources: &[StallSource]) -> f64 {
        self.total_stalls(sources) / self.cores.max(1) as f64
    }

    /// Bit-exact content equality: every field equal, with floats compared by
    /// bit pattern (`-0.0 != 0.0`, `NaN == NaN` of the same bits). This is
    /// the store's idempotence test — re-ingesting a measurement that is
    /// `content_eq` to the stored one is a no-op (no version bump, no fit
    /// invalidation), because every downstream computation is a deterministic
    /// function of exactly these bits.
    pub fn content_eq(&self, other: &Measurement) -> bool {
        self.cores == other.cores
            && self.exec_time.to_bits() == other.exec_time.to_bits()
            && self.memory_footprint == other.memory_footprint
            && self.stalls.len() == other.stalls.len()
            && self
                .stalls
                .iter()
                .zip(&other.stalls)
                .all(|((c1, v1), (c2, v2))| c1 == c2 && v1.to_bits() == v2.to_bits())
    }

    /// Encode as the measurement JSON object, the one shape of a point on
    /// the HTTP wire, in WAL records and in snapshots: `cores`,
    /// `exec_time`, `memory_footprint` when known, then `stalls` as
    /// `{source, name, cycles}` objects in category order.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cores".to_string(), Json::Number(f64::from(self.cores))),
            ("exec_time".to_string(), Json::Number(self.exec_time)),
        ];
        if let Some(bytes) = self.memory_footprint {
            fields.push(("memory_footprint".to_string(), Json::Number(bytes as f64)));
        }
        let stalls = self
            .stalls
            .iter()
            .map(|(category, cycles)| {
                Json::Object(vec![
                    (
                        "source".to_string(),
                        Json::String(category.source.name().to_string()),
                    ),
                    ("name".to_string(), Json::String(category.name.clone())),
                    ("cycles".to_string(), Json::Number(*cycles)),
                ])
            })
            .collect();
        fields.push(("stalls".to_string(), Json::Array(stalls)));
        Json::Object(fields)
    }

    /// Decode a measurement JSON object; inverse of
    /// [`Measurement::to_json`]. `memory_footprint` and `stalls` are
    /// optional, unknown fields are ignored, and the first of duplicate
    /// keys wins. Errors name the field under `context`, e.g.
    /// ``points[2]: missing field `cores` ``; the context is formatted only
    /// when an error is returned.
    pub fn from_json(
        value: &Json,
        context: &dyn Display,
    ) -> std::result::Result<Measurement, String> {
        let cores = json::require_u32(value, "cores", context)?;
        let exec_time = json::require_f64(value, "exec_time", context)?;
        let mut measurement = Measurement::new(cores, exec_time);
        if let Some(footprint) = value.get("memory_footprint") {
            let bytes = footprint.as_u64().ok_or_else(|| {
                format!("{context}: field `memory_footprint` must be a non-negative integer")
            })?;
            measurement = measurement.with_memory_footprint(bytes);
        }
        if let Some(stalls) = value.get("stalls") {
            let stalls = stalls
                .as_array()
                .ok_or_else(|| format!("{context}: field `stalls` must be an array"))?;
            for (index, stall) in stalls.iter().enumerate() {
                let (category, cycles) =
                    stall_from_json(stall, &format_args!("{context}.stalls[{index}]"))?;
                measurement = measurement.with_stall(category, cycles);
            }
        }
        Ok(measurement)
    }
}

/// Decode one `{source, name, cycles}` entry of a measurement's `stalls`.
fn stall_from_json(
    stall: &Json,
    context: &dyn Display,
) -> std::result::Result<(StallCategory, f64), String> {
    let source = StallSource::from_name(json::require_str(stall, "source", context)?)?;
    let name = json::require_str(stall, "name", context)?.to_string();
    let cycles = json::require_f64(stall, "cycles", context)?;
    Ok((StallCategory { name, source }, cycles))
}

/// The full set of measurements collected on the measurements machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurementSet {
    /// Name of the application / workload the measurements describe.
    pub app_name: String,
    /// Clock frequency of the measurements machine in GHz. Used to scale
    /// execution time when the target machine runs at a different frequency.
    pub frequency_ghz: f64,
    measurements: Vec<Measurement>,
}

impl MeasurementSet {
    /// Create an empty measurement set.
    pub fn new(app_name: impl Into<String>, frequency_ghz: f64) -> Self {
        MeasurementSet {
            app_name: app_name.into(),
            frequency_ghz,
            measurements: Vec::new(),
        }
    }

    /// Add a measurement under the set's explicit ordering/dedup policy:
    ///
    /// * **Sort on insert** — the set is always ordered by ascending core
    ///   count, whatever order measurements arrive in (a binary-search
    ///   insert, so out-of-order ingestion costs one `Vec` shift, not a
    ///   re-sort).
    /// * **Replace on duplicate** — a measurement at an already-present core
    ///   count replaces the old one (latest run wins) and the replaced
    ///   measurement is returned; debug builds log the replacement to
    ///   stderr, since a duplicate usually means a collector re-ran a core
    ///   count.
    ///
    /// Together these make insertion order irrelevant to fit results: any
    /// permutation of the same runs yields an identical set, so store
    /// ingestion order can never change a prediction.
    pub fn push(&mut self, measurement: Measurement) -> Option<Measurement> {
        match self
            .measurements
            .binary_search_by_key(&measurement.cores, |m| m.cores)
        {
            Ok(index) => {
                #[cfg(debug_assertions)]
                eprintln!(
                    "estima-core: measurement set `{}`: replacing existing measurement at {} cores",
                    self.app_name, measurement.cores
                );
                Some(std::mem::replace(
                    &mut self.measurements[index],
                    measurement,
                ))
            }
            Err(index) => {
                self.measurements.insert(index, measurement);
                None
            }
        }
    }

    /// The measurement at exactly `cores`, or `None` when that core count
    /// has not been measured (binary search; the set is sorted by cores).
    pub fn at_cores(&self, cores: u32) -> Option<&Measurement> {
        self.measurements
            .binary_search_by_key(&cores, |m| m.cores)
            .ok()
            .map(|index| &self.measurements[index])
    }

    /// Builder-style [`MeasurementSet::push`].
    pub fn with(mut self, measurement: Measurement) -> Self {
        self.push(measurement);
        self
    }

    /// Ordered measurements (ascending core count).
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.measurements.len()
    }

    /// True when no measurements have been recorded.
    pub fn is_empty(&self) -> bool {
        self.measurements.is_empty()
    }

    /// The core counts measured, ascending.
    pub fn core_counts(&self) -> Vec<u32> {
        self.measurements.iter().map(|m| m.cores).collect()
    }

    /// The largest measured core count, or 0 for an empty set.
    pub fn max_cores(&self) -> u32 {
        self.measurements.last().map_or(0, |m| m.cores)
    }

    /// Execution-time series as `(cores, seconds)` pairs.
    pub fn exec_times(&self) -> Vec<(u32, f64)> {
        self.measurements
            .iter()
            .map(|m| (m.cores, m.exec_time))
            .collect()
    }

    /// Peak memory footprint over all measurements, if any were recorded.
    pub fn memory_footprint(&self) -> Option<u64> {
        self.measurements
            .iter()
            .filter_map(|m| m.memory_footprint)
            .max()
    }

    /// All stall categories present in any measurement, restricted to the
    /// given sources, in a deterministic order.
    pub fn categories(&self, sources: &[StallSource]) -> Vec<StallCategory> {
        // Every measurement usually repeats the same categories: collect
        // references and clone each distinct category once.
        let mut set = std::collections::BTreeSet::new();
        for m in &self.measurements {
            set.extend(m.stalls.keys().filter(|c| sources.contains(&c.source)));
        }
        set.into_iter().cloned().collect()
    }

    /// Series of total cycles for one category as `(cores, cycles)` pairs.
    /// Missing values are treated as zero (a runtime that reported nothing
    /// for a run spent no cycles in that category).
    pub fn category_series(&self, category: &StallCategory) -> Vec<(u32, f64)> {
        self.measurements
            .iter()
            .map(|m| (m.cores, m.stalls.get(category).copied().unwrap_or(0.0)))
            .collect()
    }

    /// Measured total stalled cycles per core (summing the given sources) as
    /// `(cores, cycles-per-core)` pairs.
    pub fn stalls_per_core(&self, sources: &[StallSource]) -> Vec<(u32, f64)> {
        self.measurements
            .iter()
            .map(|m| (m.cores, m.stalls_per_core(sources)))
            .collect()
    }

    /// Validate the set for use by the prediction pipeline: at least
    /// `min_points` measurements, finite positive execution times, finite
    /// non-negative stall counts, at least one backend or software category.
    pub fn validate(&self, min_points: usize) -> Result<()> {
        if self.measurements.len() < min_points {
            return Err(EstimaError::InsufficientMeasurements {
                required: min_points,
                available: self.measurements.len(),
            });
        }
        for m in &self.measurements {
            if !m.exec_time.is_finite() || m.exec_time <= 0.0 {
                return Err(EstimaError::InvalidMeasurement {
                    cores: m.cores,
                    detail: format!("execution time {} is not positive and finite", m.exec_time),
                });
            }
            if m.cores == 0 {
                return Err(EstimaError::InvalidMeasurement {
                    cores: 0,
                    detail: "core count must be at least 1".into(),
                });
            }
            for (c, v) in &m.stalls {
                if !v.is_finite() || *v < 0.0 {
                    return Err(EstimaError::InvalidMeasurement {
                        cores: m.cores,
                        detail: format!("category {c} has invalid cycle count {v}"),
                    });
                }
            }
        }
        let has_usable = self.measurements.iter().any(|m| {
            m.stalls.keys().any(|c| {
                matches!(
                    c.source,
                    StallSource::HardwareBackend | StallSource::Software
                )
            })
        });
        if !has_usable {
            return Err(EstimaError::NoStallCategories);
        }
        Ok(())
    }

    /// Keep only the measurements at or below `max_cores`. This is how the
    /// evaluation harness derives "measurements on one socket" from a full
    /// sweep of the machine.
    pub fn truncated(&self, max_cores: u32) -> MeasurementSet {
        MeasurementSet {
            app_name: self.app_name.clone(),
            frequency_ghz: self.frequency_ghz,
            measurements: self
                .measurements
                .iter()
                .filter(|m| m.cores <= max_cores)
                .cloned()
                .collect(),
        }
    }

    /// Remove every category coming from the given source. Used by the
    /// software-stall and frontend-stall ablations (Fig 13, Table 6).
    pub fn without_source(&self, source: StallSource) -> MeasurementSet {
        let mut out = self.clone();
        for m in &mut out.measurements {
            m.stalls.retain(|c, _| c.source != source);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> MeasurementSet {
        let mut set = MeasurementSet::new("demo", 2.1);
        for cores in 1..=8u32 {
            let m = Measurement::new(cores, 10.0 / cores as f64)
                .with_stall(StallCategory::backend("rob_full"), 1000.0 * cores as f64)
                .with_stall(
                    StallCategory::backend("ls_full"),
                    500.0 * (cores * cores) as f64,
                )
                .with_stall(StallCategory::software("lock_spin"), 10.0 * cores as f64)
                .with_memory_footprint(1 << 20);
            set.push(m);
        }
        set
    }

    #[test]
    fn push_keeps_sorted_and_dedupes() {
        let mut set = MeasurementSet::new("x", 3.4);
        assert!(set.push(Measurement::new(4, 1.0)).is_none());
        assert!(set.push(Measurement::new(1, 4.0)).is_none());
        assert!(set.push(Measurement::new(2, 2.0)).is_none());
        // Replaces the first 4-core run; the replaced run is handed back.
        let replaced = set.push(Measurement::new(4, 0.9));
        assert_eq!(replaced.map(|m| m.exec_time), Some(1.0));
        assert_eq!(set.core_counts(), vec![1, 2, 4]);
        assert_eq!(set.measurements()[2].exec_time, 0.9);
    }

    #[test]
    fn push_order_is_irrelevant_to_the_resulting_set() {
        let runs: Vec<Measurement> = (1..=6u32).map(|c| Measurement::new(c, 1.0)).collect();
        let mut forward = MeasurementSet::new("x", 2.0);
        let mut reverse = MeasurementSet::new("x", 2.0);
        for m in &runs {
            forward.push(m.clone());
        }
        for m in runs.iter().rev() {
            reverse.push(m.clone());
        }
        assert_eq!(forward, reverse);
    }

    #[test]
    fn stall_source_names_round_trip() {
        for source in [
            StallSource::HardwareBackend,
            StallSource::HardwareFrontend,
            StallSource::Software,
        ] {
            assert_eq!(StallSource::from_name(source.name()), Ok(source));
        }
        assert!(StallSource::from_name("backend")
            .unwrap_err()
            .starts_with("unknown stall source `backend`"));
    }

    #[test]
    fn categories_filter_by_source() {
        let set = sample_set();
        let backend = set.categories(&[StallSource::HardwareBackend]);
        assert_eq!(backend.len(), 2);
        let software = set.categories(&[StallSource::Software]);
        assert_eq!(software.len(), 1);
        assert_eq!(software[0].name, "lock_spin");
    }

    #[test]
    fn category_series_is_ordered_and_complete() {
        let set = sample_set();
        let series = set.category_series(&StallCategory::backend("rob_full"));
        assert_eq!(series.len(), 8);
        assert_eq!(series[0], (1, 1000.0));
        assert_eq!(series[7], (8, 8000.0));
    }

    #[test]
    fn missing_category_reads_as_zero() {
        let set = sample_set();
        let series = set.category_series(&StallCategory::backend("does_not_exist"));
        assert!(series.iter().all(|(_, v)| *v == 0.0));
    }

    #[test]
    fn stalls_per_core_divides_by_cores() {
        let set = sample_set();
        let per_core = set.stalls_per_core(&[StallSource::HardwareBackend]);
        // at 2 cores: (1000*2 + 500*4) / 2 = 2000
        let at2 = per_core.iter().find(|(c, _)| *c == 2).unwrap().1;
        assert!((at2 - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn validate_accepts_good_set() {
        assert!(sample_set().validate(5).is_ok());
    }

    #[test]
    fn validate_rejects_too_few_points() {
        let set = sample_set().truncated(3);
        assert!(matches!(
            set.validate(5),
            Err(EstimaError::InsufficientMeasurements { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_time() {
        let mut set = MeasurementSet::new("bad", 2.0);
        for cores in 1..=5u32 {
            set.push(
                Measurement::new(cores, if cores == 3 { -1.0 } else { 1.0 })
                    .with_stall(StallCategory::backend("x"), 1.0),
            );
        }
        assert!(matches!(
            set.validate(3),
            Err(EstimaError::InvalidMeasurement { cores: 3, .. })
        ));
    }

    #[test]
    fn validate_rejects_missing_categories() {
        let mut set = MeasurementSet::new("none", 2.0);
        for cores in 1..=5u32 {
            set.push(Measurement::new(cores, 1.0));
        }
        assert!(matches!(
            set.validate(3),
            Err(EstimaError::NoStallCategories)
        ));
    }

    #[test]
    fn truncated_keeps_prefix() {
        let set = sample_set().truncated(4);
        assert_eq!(set.max_cores(), 4);
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn without_source_strips_categories() {
        let set = sample_set().without_source(StallSource::Software);
        assert!(set.categories(&[StallSource::Software]).is_empty());
        assert_eq!(set.categories(&[StallSource::HardwareBackend]).len(), 2);
    }

    #[test]
    fn total_stalls_sums_selected_sources() {
        let m = Measurement::new(2, 1.0)
            .with_stall(StallCategory::backend("a"), 10.0)
            .with_stall(StallCategory::software("b"), 5.0)
            .with_stall(StallCategory::frontend("c"), 100.0);
        assert_eq!(m.total_stalls(&[StallSource::HardwareBackend]), 10.0);
        assert_eq!(
            m.total_stalls(&[StallSource::HardwareBackend, StallSource::Software]),
            15.0
        );
        assert_eq!(m.stalls_per_core(&[StallSource::HardwareFrontend]), 50.0);
    }

    #[test]
    fn display_includes_source_tag() {
        assert_eq!(StallCategory::backend("rob").to_string(), "hw:rob");
        assert_eq!(StallCategory::software("spin").to_string(), "sw:spin");
        assert_eq!(StallCategory::frontend("iq").to_string(), "fe:iq");
    }

    #[test]
    fn memory_footprint_is_max_over_runs() {
        let mut set = MeasurementSet::new("m", 2.0);
        set.push(Measurement::new(1, 1.0).with_memory_footprint(100));
        set.push(Measurement::new(2, 1.0).with_memory_footprint(300));
        set.push(Measurement::new(3, 1.0));
        assert_eq!(set.memory_footprint(), Some(300));
    }
}
