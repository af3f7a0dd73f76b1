//! Configuration of the ESTIMA prediction pipeline.

use crate::error::{EstimaError, Result};
use crate::fit::{FitOptions, MIN_TRAINING_POINTS};
use crate::kernels::KernelKind;
use crate::measurement::StallSource;

/// Largest [`TargetSpec::cores`] a prediction accepts; larger targets fail
/// with [`EstimaError::InvalidConfig`].
/// A prediction materialises every core count `1..=target` — per stall
/// category, per candidate fit's evaluation table, and in every returned
/// series — so its memory grows linearly with the target, and an unbounded
/// target lets a single request ask for tens of gigabytes. 4096 is far
/// beyond any machine the paper extrapolates to (64 cores is the largest
/// target anywhere in this repository).
pub const MAX_TARGET_CORES: u32 = 4096;

/// Fewest measurements a prediction accepts: one checkpoint beyond the
/// [`MIN_TRAINING_POINTS`] every fit needs. A smaller set fails with
/// [`EstimaError::InsufficientMeasurements`].
pub const MIN_MEASUREMENTS: usize = MIN_TRAINING_POINTS + 1;

/// The target of a prediction: what machine (and dataset) we extrapolate to.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSpec {
    /// Number of cores on the target machine.
    pub cores: u32,
    /// Clock frequency of the target machine in GHz. When it differs from the
    /// measurements machine, measured execution times are scaled by the
    /// frequency ratio before the stall/time correlation step (§4.3).
    pub frequency_ghz: Option<f64>,
    /// Dataset scale factor for weak-scaling predictions (§4.5). A value of
    /// 2.0 means the target run uses a dataset twice as large; extrapolated
    /// stall values are scaled accordingly. Strong scaling uses 1.0.
    pub dataset_scale: f64,
}

impl TargetSpec {
    /// Strong-scaling target with the given core count, same frequency and
    /// dataset as the measurements machine.
    pub fn cores(cores: u32) -> Self {
        TargetSpec {
            cores,
            frequency_ghz: None,
            dataset_scale: 1.0,
        }
    }

    /// Set the target machine frequency in GHz.
    pub fn with_frequency_ghz(mut self, ghz: f64) -> Self {
        self.frequency_ghz = Some(ghz);
        self
    }

    /// Set the dataset scale factor (weak scaling).
    pub fn with_dataset_scale(mut self, scale: f64) -> Self {
        self.dataset_scale = scale;
        self
    }

    /// Check the target on its own: `dataset_scale` and, when given,
    /// `frequency_ghz` must be positive and finite (an absent clock means the
    /// measurement machine's), and `cores` at most [`MAX_TARGET_CORES`]. Both
    /// predictors, ESTIMA and the time-extrapolation baseline, call it before
    /// fitting anything.
    pub fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("dataset_scale", Some(self.dataset_scale)),
            ("frequency_ghz", self.frequency_ghz),
        ] {
            let requirement = match value {
                Some(v) if v.is_nan() || v <= 0.0 => "positive",
                Some(v) if v.is_infinite() => "finite",
                _ => continue,
            };
            return Err(EstimaError::InvalidConfig(format!(
                "{name} must be {requirement}"
            )));
        }
        if self.cores > MAX_TARGET_CORES {
            return Err(EstimaError::InvalidConfig(format!(
                "target cores must be at most {MAX_TARGET_CORES}"
            )));
        }
        Ok(())
    }
}

/// Configuration of the ESTIMA predictor.
#[derive(Debug, Clone)]
pub struct EstimaConfig {
    /// Include software-reported stall categories (lock spinning, barrier
    /// waits, aborted STM transaction cycles) in the extrapolation. Software
    /// stalls are optional in the paper but significantly improve accuracy
    /// for synchronisation-heavy applications (§5.3, Fig 13).
    pub use_software_stalls: bool,
    /// Include frontend hardware stalls. Off by default — the paper shows
    /// they add no information and can hurt (§5.2, Table 6). Exposed for the
    /// Table 6 ablation.
    pub use_frontend_stalls: bool,
    /// Options for the per-category regression step (§3.1.2): kernels,
    /// checkpoint counts, horizon, growth cap, prefix refitting.
    pub fit: FitOptions,
    /// Worker-thread budget for the prediction engine: the candidate-grid
    /// fan-out, the per-category fan-out, and
    /// [`crate::engine::BatchPredictor`] job fan-out all share this knob.
    /// `0` means "auto" (one worker per available CPU); `1` reproduces the
    /// sequential path exactly. Results are bit-identical for every setting.
    pub parallelism: usize,
}

impl Default for EstimaConfig {
    fn default() -> Self {
        EstimaConfig {
            use_software_stalls: true,
            use_frontend_stalls: false,
            fit: FitOptions::default(),
            parallelism: 0,
        }
    }
}

impl EstimaConfig {
    /// Configuration using hardware backend stalls only (the paper's default
    /// when no runtime instrumentation is available).
    pub fn hardware_only() -> Self {
        EstimaConfig {
            use_software_stalls: false,
            ..EstimaConfig::default()
        }
    }

    /// Restrict the kernel set (ablation support).
    pub fn with_kernels(mut self, kernels: Vec<KernelKind>) -> Self {
        self.fit.kernels = kernels;
        self
    }

    /// Set the checkpoint counts used for model selection.
    pub fn with_checkpoints(mut self, checkpoints: Vec<usize>) -> Self {
        self.fit.checkpoint_counts = checkpoints;
        self
    }

    /// Enable or disable prefix refitting (the `i in 3..n` loop of §3.1.2).
    pub fn with_prefix_refitting(mut self, enabled: bool) -> Self {
        self.fit.prefix_refitting = enabled;
        self
    }

    /// Set the engine's worker-thread budget (`0` = auto, `1` = sequential).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The stall sources this configuration draws categories from.
    pub fn sources(&self) -> Vec<StallSource> {
        let mut sources = vec![StallSource::HardwareBackend];
        if self.use_software_stalls {
            sources.push(StallSource::Software);
        }
        if self.use_frontend_stalls {
            sources.push(StallSource::HardwareFrontend);
        }
        sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_backend_and_software() {
        let sources = EstimaConfig::default().sources();
        assert!(sources.contains(&StallSource::HardwareBackend));
        assert!(sources.contains(&StallSource::Software));
        assert!(!sources.contains(&StallSource::HardwareFrontend));
    }

    #[test]
    fn hardware_only_excludes_software() {
        let sources = EstimaConfig::hardware_only().sources();
        assert_eq!(sources, vec![StallSource::HardwareBackend]);
    }

    #[test]
    fn frontend_ablation_adds_source() {
        let cfg = EstimaConfig {
            use_frontend_stalls: true,
            ..EstimaConfig::default()
        };
        assert!(cfg.sources().contains(&StallSource::HardwareFrontend));
    }

    #[test]
    fn target_spec_builders() {
        let t = TargetSpec::cores(48)
            .with_frequency_ghz(2.8)
            .with_dataset_scale(2.0);
        assert_eq!(t.cores, 48);
        assert_eq!(t.frequency_ghz, Some(2.8));
        assert_eq!(t.dataset_scale, 2.0);
    }

    #[test]
    fn kernel_restriction_applies() {
        let cfg = EstimaConfig::default().with_kernels(vec![KernelKind::Poly25]);
        assert_eq!(cfg.fit.kernels, vec![KernelKind::Poly25]);
    }

    #[test]
    fn checkpoint_override_applies() {
        let cfg = EstimaConfig::default().with_checkpoints(vec![2]);
        assert_eq!(cfg.fit.checkpoint_counts, vec![2]);
    }

    #[test]
    fn parallelism_defaults_to_auto_and_overrides() {
        assert_eq!(EstimaConfig::default().parallelism, 0);
        assert_eq!(EstimaConfig::default().with_parallelism(4).parallelism, 4);
    }
}
