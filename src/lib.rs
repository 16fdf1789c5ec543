//! # two-level-cache
//!
//! A from-scratch reproduction of Norman P. Jouppi and Steven J.E.
//! Wilton, *Tradeoffs in Two-Level On-Chip Caching* (DEC WRL Research
//! Report 93/3, October 1993; ISCA 1994) — the paper that introduced
//! **two-level exclusive caching**.
//!
//! This facade crate re-exports the four substrates plus the study layer:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`trace`] | `tlc-trace` | synthetic SPEC'89-like workload generators |
//! | [`cache`] | `tlc-cache` | cache hierarchy simulator (single, conventional, exclusive, victim) |
//! | [`area`]  | `tlc-area`  | Mulder rbe area model |
//! | [`timing`]| `tlc-timing`| Wilton–Jouppi access/cycle-time model (proto-CACTI) |
//! | [`study`] | `tlc-core`  | TPI model, configuration space, envelopes, runners |
//!
//! ## Quick start
//!
//! ```
//! use two_level_cache::area::AreaModel;
//! use two_level_cache::study::{evaluate, L2Policy, MachineConfig, SimBudget};
//! use two_level_cache::timing::TimingModel;
//! use two_level_cache::trace::spec::SpecBenchmark;
//!
//! let timing = TimingModel::paper();
//! let area = AreaModel::new();
//! let config = MachineConfig::two_level(8, 64, 4, L2Policy::Exclusive, 50.0);
//! let mut li = SpecBenchmark::Li.workload();
//! let point = evaluate(&config, &mut li, SimBudget::quick(), &timing, &area);
//! println!("{}: {:.2} ns/instruction on {:.0} rbe", point.label, point.tpi_ns, point.area_rbe);
//! assert!(point.tpi_ns > 0.0);
//! ```
//!
//! See `README.md` for an overview, `DESIGN.md` for the system inventory
//! and the substitutions made for unobtainable 1993 artifacts, and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every figure.

#![warn(missing_docs)]

/// Synthetic memory-reference traces (`tlc-trace`).
pub use tlc_trace as trace;

/// Cache hierarchy simulator (`tlc-cache`).
pub use tlc_cache as cache;

/// Register-bit-equivalent area model (`tlc-area`).
pub use tlc_area as area;

/// SRAM access/cycle-time model (`tlc-timing`).
pub use tlc_timing as timing;

/// The assembled study: TPI, configuration space, envelopes (`tlc-core`).
pub use tlc_core as study;
