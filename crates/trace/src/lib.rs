//! # tlc-trace — synthetic memory-reference traces
//!
//! Trace-generation substrate for the reproduction of Jouppi & Wilton,
//! *Tradeoffs in Two-Level On-Chip Caching* (WRL 93/3 / ISCA 1994).
//!
//! The paper drove its cache simulations with SPEC'89 address traces that
//! are no longer obtainable; this crate replaces them with deterministic,
//! seeded synthetic workloads whose miss-rate-versus-cache-size behaviour
//! matches the published anchors (see `DESIGN.md` at the repository root
//! for the substitution argument and the calibration targets).
//!
//! ## Quick start
//!
//! ```
//! use tlc_trace::spec::SpecBenchmark;
//!
//! // A seeded, infinite instruction stream for the gcc1-like workload.
//! let mut workload = SpecBenchmark::Gcc1.workload();
//! let mut stats = tlc_trace::TraceStats::new(16);
//! for _ in 0..10_000 {
//!     let instr = workload.next_instruction();
//!     stats.record_instruction(&instr);
//! }
//! assert_eq!(stats.instr_refs(), 10_000);
//! assert!(stats.data_refs() > 0);
//! ```
//!
//! ## Layout
//!
//! * [`Addr`], [`LineAddr`], [`AddrRange`] — address arithmetic.
//! * [`MemRef`], [`InstructionRecord`] — reference records.
//! * [`gen`] — composable address-stream generators.
//! * [`Workload`] — instruction+data stream with a reference mix.
//! * [`TraceArena`] — a stream captured once into packed chunks and
//!   replayed by every configuration of a design-space sweep.
//! * [`EventArena`] — an L1 front-end's miss/victim event stream,
//!   captured once and fanned over every L2 configuration sharing it.
//! * [`columns`] — the one chunked `(u64, u64, u8)` [`ColumnStore`] both
//!   arenas own, each with its own record encoding, and
//!   [`walk_window`](columns::walk_window), the one warm-up/measure walk
//!   every replay of either arena takes.
//! * [`spec`] — the seven SPEC'89-like presets of the paper's Table 1,
//!   each a [`specfile::WorkloadSpec`].
//! * [`TraceStats`] — Table-1-style counters and footprints.
//! * [`compact`] — the `TLCTRC01` delta/varint on-disk format (the one
//!   trace format the library writes and reads back), its streaming
//!   reader, and the importer every other format enters through.
//! * [`io`] — the decoders of the formats the importer accepts, the
//!   typed [`TraceIoError`], and the `TLCEVT01` miss-event archive.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
pub mod arena;
pub mod columns;
pub mod compact;
pub mod events;
pub mod gen;
pub mod io;
mod record;
pub mod shrink;
mod source;
pub mod spec;
pub mod specfile;
mod stats;
mod timeslice;
mod workload;

pub use addr::{Addr, AddrRange, LineAddr};
pub use arena::{ArenaReplay, TraceArena};
pub use columns::{ChunkView, ColumnStore};
pub use compact::{CompactTraceWriter, ImportFormat, TraceReader};
pub use events::{EventArena, MissEvent, VictimLine};
pub use io::TraceIoError;
pub use record::{AccessKind, InstructionRecord, MemRef};
pub use source::{batch_buffer, InstructionSource, ReplaySource, BATCH_LEN};
pub use stats::{TraceStats, TraceSummary};
pub use timeslice::TimeSliced;
pub use workload::Workload;
