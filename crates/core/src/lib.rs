//! # tlc-core — the two-level on-chip caching study
//!
//! The paper's contribution assembled: this crate combines the
//! `tlc-trace` workload models, the `tlc-cache` hierarchy simulator, the
//! `tlc-area` rbe model and the `tlc-timing` access-time model into the
//! four-step methodology of Jouppi & Wilton's §2 —
//!
//! 1. simulate miss rates,
//! 2. derive cache cycle times,
//! 3. price chip area,
//! 4. combine into **time per instruction (TPI) as a function of area**
//!
//! — over the full configuration space (L1 1–256KB × L2 0–256KB ×
//! associativity × conventional/exclusive policy × single/dual-ported
//! cells × 50/200ns off-chip), with best-performance envelopes.
//!
//! ## Quick start
//!
//! ```no_run
//! use tlc_area::AreaModel;
//! use tlc_core::configspace::{full_space, SpaceOptions};
//! use tlc_core::experiment::SimBudget;
//! use tlc_core::report;
//! use tlc_core::runner::sweep;
//! use tlc_timing::TimingModel;
//! use tlc_trace::spec::SpecBenchmark;
//!
//! let timing = TimingModel::paper();
//! let area = AreaModel::new();
//! let configs = full_space(&SpaceOptions::baseline());
//! let points = sweep(&configs, SpecBenchmark::Gcc1, SimBudget::standard(), &timing, &area);
//! println!("{}", report::points_table("gcc1, 50ns, 4-way L2 (Figure 5)", &points));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod banking;
pub mod configspace;
pub mod energy;
pub mod envelope;
pub mod experiment;
pub mod future;
pub mod machine;
pub mod overlap;
pub mod report;
pub mod runner;
pub mod sampling;
pub mod tpi;

pub use experiment::{
    capture_benchmark, capture_miss_stream, config_is_predictable, evaluate, evaluate_arena,
    evaluate_family, DesignPoint, SimBudget,
};
pub use machine::{L2Policy, L2Spec, MachineConfig, MachineTiming};
pub use sampling::{
    capture_phase_slices, combine_weighted, sample_source, PhaseSample, PhaseSlice, SampleOptions,
    SAMPLED_MISS_RATIO_EPSILON,
};
