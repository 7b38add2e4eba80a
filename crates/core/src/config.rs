//! Configuration and error types for the PANE pipeline.

use pane_graph::DanglingPolicy;

/// Errors surfaced by [`crate::Pane::embed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaneError {
    /// The graph has no nodes.
    EmptyGraph,
    /// The graph has no attributes (PANE embeds node–attribute affinity;
    /// for attribute-less graphs use a homogeneous embedding such as the
    /// NRP baseline).
    NoAttributes,
    /// Invalid configuration, with an explanation.
    BadConfig(String),
}

impl std::fmt::Display for PaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaneError::EmptyGraph => write!(f, "input graph has no nodes"),
            PaneError::NoAttributes => write!(f, "input graph has no attributes"),
            PaneError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for PaneError {}

/// Which embedding initializer [`crate::Pane::embed`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitStrategy {
    /// One global RandSVD (Algorithm 3). `threads` only parallelizes the
    /// dense products, whose per-element summation order is fixed, so the
    /// embedding is **bit-identical for every thread count** — this is the
    /// default because it makes `seed` a complete determinism contract.
    #[default]
    Greedy,
    /// Split–merge per-block RandSVD (Algorithm 7). Scales the SVD itself
    /// but the output depends on the block count (= `threads`); choose this
    /// explicitly when the affinity matrix is too tall for one RandSVD.
    SplitMerge,
}

impl InitStrategy {
    /// The paper's own coupling (Algorithms 1 vs 5): split–merge init
    /// whenever more than one worker is used. Experiment binaries that
    /// reproduce the paper's thread ablations use this; the library default
    /// stays [`InitStrategy::Greedy`] so that `seed` alone determines the
    /// output bit-for-bit regardless of `threads`.
    pub fn for_threads(threads: usize) -> Self {
        if threads > 1 {
            InitStrategy::SplitMerge
        } else {
            InitStrategy::Greedy
        }
    }
}

/// Hyper-parameters of PANE (Table 1 / §5.1 of the paper).
#[derive(Debug, Clone)]
pub struct PaneConfig {
    /// Total space budget `k`: each node gets two `k/2`-dimensional vectors
    /// (forward + backward), each attribute one `k/2` vector. Must be even
    /// and ≥ 2. Paper default: 128.
    pub dimension: usize,
    /// Random-walk stopping probability `α ∈ (0,1)`. Paper default: 0.5.
    pub alpha: f64,
    /// Error threshold `ε ∈ (0,1)` controlling the iteration count
    /// `t = ⌈log ε / log(1−α)⌉ − 1`. Paper default: 0.015.
    pub error_threshold: f64,
    /// Number of worker threads `n_b`; 1 selects the single-threaded
    /// algorithms (Algorithms 1–4), >1 the parallel ones (Algorithms 5–8).
    /// With the default [`InitStrategy::Greedy`] the output is bit-identical
    /// for every value (Lemma 4.1 lifted to the whole pipeline).
    /// Paper default: 10.
    pub threads: usize,
    /// Initializer choice; see [`InitStrategy`].
    pub init: InitStrategy,
    /// Override for the number of CCD sweeps; `None` couples it to the APMI
    /// iteration count `t` as Algorithm 1 does. (Figures 7–8 vary this.)
    pub ccd_sweeps: Option<usize>,
    /// Treatment of out-degree-0 nodes in `P = D⁻¹A`.
    pub dangling: DanglingPolicy,
    /// Seed for the randomized SVD sketch. In GreedyInit it acts, like the
    /// two `svd_*` fields, only where RandSVD sketches: where the attribute
    /// dimension is small enough that the SVD is exact (through the `d×d`
    /// Gram, see `pane_linalg::randsvd`), all three are inert.
    pub seed: u64,
    /// Oversampling columns for RandSVD (sketch path only).
    pub svd_oversample: usize,
    /// Power iterations for RandSVD; `None` couples it to `t` (sketch path
    /// only).
    pub svd_power_iters: Option<usize>,
}

impl Default for PaneConfig {
    fn default() -> Self {
        Self {
            dimension: 128,
            alpha: 0.5,
            error_threshold: 0.015,
            threads: 1,
            init: InitStrategy::Greedy,
            ccd_sweeps: None,
            dangling: DanglingPolicy::SelfLoop,
            seed: 0,
            svd_oversample: 8,
            svd_power_iters: None,
        }
    }
}

impl PaneConfig {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> PaneConfigBuilder {
        PaneConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Validates all invariants, returning a message on failure.
    pub fn validate(&self) -> Result<(), PaneError> {
        if self.dimension < 2 || !self.dimension.is_multiple_of(2) {
            return Err(PaneError::BadConfig(format!(
                "dimension must be an even number >= 2, got {}",
                self.dimension
            )));
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(PaneError::BadConfig(format!(
                "alpha must be in (0,1), got {}",
                self.alpha
            )));
        }
        if !(self.error_threshold > 0.0 && self.error_threshold < 1.0) {
            return Err(PaneError::BadConfig(format!(
                "error_threshold must be in (0,1), got {}",
                self.error_threshold
            )));
        }
        if self.threads == 0 {
            return Err(PaneError::BadConfig("threads must be >= 1".into()));
        }
        Ok(())
    }

    /// Per-side embedding width `k/2`.
    pub fn half_dim(&self) -> usize {
        self.dimension / 2
    }

    /// The iteration count `t` implied by `ε` and `α`.
    pub fn iterations(&self) -> usize {
        crate::iterations_for(self.error_threshold, self.alpha)
    }

    /// CCD sweep count: the override, or `t`.
    pub fn sweeps(&self) -> usize {
        self.ccd_sweeps.unwrap_or_else(|| self.iterations())
    }

    /// RandSVD power iterations: the override, or `t`.
    pub fn power_iters(&self) -> usize {
        self.svd_power_iters.unwrap_or_else(|| self.iterations())
    }
}

/// Fluent builder for [`PaneConfig`].
#[derive(Debug, Clone)]
pub struct PaneConfigBuilder {
    cfg: PaneConfig,
}

impl PaneConfigBuilder {
    /// Sets the total space budget `k` (even, ≥ 2).
    pub fn dimension(mut self, k: usize) -> Self {
        self.cfg.dimension = k;
        self
    }

    /// Sets the stopping probability `α`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.cfg.alpha = alpha;
        self
    }

    /// Sets the error threshold `ε`.
    pub fn error_threshold(mut self, eps: f64) -> Self {
        self.cfg.error_threshold = eps;
        self
    }

    /// Sets the worker-thread count `n_b`.
    pub fn threads(mut self, nb: usize) -> Self {
        self.cfg.threads = nb;
        self
    }

    /// Selects the initializer (default: [`InitStrategy::Greedy`]).
    pub fn init_strategy(mut self, init: InitStrategy) -> Self {
        self.cfg.init = init;
        self
    }

    /// Overrides the CCD sweep count.
    pub fn ccd_sweeps(mut self, sweeps: usize) -> Self {
        self.cfg.ccd_sweeps = Some(sweeps);
        self
    }

    /// Sets the dangling-node policy.
    pub fn dangling(mut self, policy: DanglingPolicy) -> Self {
        self.cfg.dangling = policy;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets RandSVD oversampling (sketch path only, see the field).
    pub fn svd_oversample(mut self, cols: usize) -> Self {
        self.cfg.svd_oversample = cols;
        self
    }

    /// Overrides the RandSVD power-iteration count (sketch path only).
    pub fn svd_power_iters(mut self, iters: usize) -> Self {
        self.cfg.svd_power_iters = Some(iters);
        self
    }

    /// Finalizes, panicking on invalid values (use
    /// [`try_build`](Self::try_build) for fallible construction).
    pub fn build(self) -> PaneConfig {
        self.try_build().expect("invalid PaneConfig")
    }

    /// Finalizes, returning an error on invalid values.
    pub fn try_build(self) -> Result<PaneConfig, PaneError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PaneConfig::default();
        assert_eq!(c.dimension, 128);
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.error_threshold, 0.015);
        assert!(c.validate().is_ok());
        assert_eq!(c.half_dim(), 64);
    }

    #[test]
    fn builder_roundtrip() {
        let c = PaneConfig::builder()
            .dimension(32)
            .alpha(0.3)
            .error_threshold(0.05)
            .threads(4)
            .ccd_sweeps(7)
            .seed(9)
            .build();
        assert_eq!(c.dimension, 32);
        assert_eq!(c.sweeps(), 7);
        assert_eq!(c.threads, 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(PaneConfig::builder().dimension(3).try_build().is_err());
        assert!(PaneConfig::builder().dimension(0).try_build().is_err());
        assert!(PaneConfig::builder().alpha(1.0).try_build().is_err());
        assert!(PaneConfig::builder()
            .error_threshold(0.0)
            .try_build()
            .is_err());
        assert!(PaneConfig::builder().threads(0).try_build().is_err());
    }

    #[test]
    fn sweeps_default_to_iterations() {
        let c = PaneConfig::builder()
            .alpha(0.5)
            .error_threshold(0.25)
            .build();
        assert_eq!(c.sweeps(), c.iterations());
        assert_eq!(c.sweeps(), 1);
    }
}
