//! # tlc-cache — cache hierarchy simulator
//!
//! Cache-simulation substrate for the reproduction of Jouppi & Wilton,
//! *Tradeoffs in Two-Level On-Chip Caching* (WRL 93/3 / ISCA 1994).
//!
//! The crate provides every cache organisation the paper evaluates:
//!
//! * [`SingleLevel`] — split direct-mapped L1 caches only (§3);
//! * [`ConventionalTwoLevel`] — unified L2 with the standard fill policy
//!   (§4, §5, §7);
//! * [`ExclusiveTwoLevel`] — the paper's contribution, two-level
//!   exclusive caching with victim swap (§8);
//! * [`VictimCacheSystem`] — the degenerate `y < x` case, a shared
//!   fully-associative victim buffer (Jouppi 1990, referenced in §8);
//!
//! plus [`InclusiveTwoLevel`], [`StreamBufferSystem`] and the miss-stream
//! front-end [`L1FrontEnd`]. All seven share one first level: a
//! crate-private split L1 (equal-size I/D caches, write-allocate, with a
//! same-line fetch filter) that every miss refills, so each organisation
//! holds only the logic of what sits behind it.
//!
//! The crate also has replacement policies (LRU, FIFO, the paper's
//! pseudo-random, tree-PLRU, and SRRIP), per-fill block-liveness
//! statistics ([`Liveness`]), 3C miss classification
//! ([`MissClassifier`]), and content auditing ([`DuplicationReport`]).
//!
//! ## Quick start
//!
//! ```
//! use tlc_cache::{Associativity, CacheConfig, ExclusiveTwoLevel, MemorySystem};
//! use tlc_trace::spec::SpecBenchmark;
//!
//! # fn main() -> Result<(), tlc_cache::ConfigError> {
//! let l1 = CacheConfig::paper(4 * 1024, Associativity::Direct)?;
//! let l2 = CacheConfig::paper(32 * 1024, Associativity::SetAssoc(4))?;
//! let mut sys = ExclusiveTwoLevel::new(l1, l2);
//!
//! let mut workload = SpecBenchmark::Gcc1.workload();
//! for _ in 0..50_000 {
//!     let instr = workload.next_instruction();
//!     sys.access_instruction(&instr);
//! }
//! println!("{}", sys.stats());
//! assert!(sys.stats().l1_miss_rate() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod board;
mod cache;
mod classify;
mod config;
mod exclusive;
pub mod filter;
pub mod filter_family;
mod hierarchy;
mod inclusive;
mod l1;
mod mattson;
pub mod oracle;
pub mod predict;
mod prefetch;
mod replacement;
mod single;
mod stats;
mod system;
mod twolevel;
mod victim;

pub use audit::DuplicationReport;
pub use board::{effective_offchip_ns, BoardCache, BoardOutcome};
pub use cache::{Cache, Evicted, Liveness, Slot};
pub use classify::{MissBreakdown, MissClass, MissClassifier};
pub use config::{Associativity, CacheConfig, ConfigError, ReplacementKind};
pub use exclusive::ExclusiveTwoLevel;
pub use filter::{L1FrontEnd, MissStream};
pub use hierarchy::{InstructionOutcome, MemorySystem, ServiceLevel};
pub use inclusive::InclusiveTwoLevel;
pub use mattson::{MissRatioCurve, NestedDmProfiler, StackDistanceProfiler};
pub use oracle::{
    lru_misses, naive_replay_conventional, naive_replay_exclusive, naive_replay_single, NaiveSystem,
};
pub use predict::{miss_ratio_error, ReuseProfile, MISS_RATIO_EPSILON};
pub use prefetch::StreamBufferSystem;
pub use replacement::{Lfsr16, ReplState};
pub use single::SingleLevel;
pub use stats::{CacheStats, HierarchyStats};
pub use system::SystemKind;
pub use twolevel::ConventionalTwoLevel;
pub use victim::VictimCacheSystem;
