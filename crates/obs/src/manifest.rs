//! The `tlc-run-manifest/2` document: a versioned JSON record of one
//! pipeline run (sweep or repro) carrying engine/thread metadata, a
//! config-space hash, counter totals, a nested per-phase span tree,
//! latency histogram summaries, a memory-accounting section, and any
//! point events (fallbacks, worker errors).
//!
//! Schema history: `/1` had counters + spans + events; `/2` adds
//! `histograms` (log-linear latency distributions with
//! p50/p90/p99/max), `memory` (peak/current RSS plus arena and
//! event-buffer bytes), and `spans_dropped` (ring-buffer overflow
//! count). The new fields deserialize with defaults, so `/1` documents
//! still parse — but [`RunManifest::validate`] only accepts `/2`.
//!
//! Every build is instrumented, so `instrumentation` is always written
//! `true`; the field stays in the schema so documents from older,
//! uninstrumented builds (`false`, empty counters and spans) still
//! parse, but [`RunManifest::validate`] rejects them.

use crate::hist::{HistBucket, HistSnapshot};
use crate::{Counter, ObsEventRecord, SpanRecord};
use serde::{Deserialize, Serialize};

/// Schema identifier stamped into every manifest.
pub const SCHEMA: &str = "tlc-run-manifest/2";

/// One counter total, by dotted name ([`Counter::name`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterTotal {
    /// Dotted counter name, e.g. `"l2.probes"`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One node of the aggregated span tree. Spans with the same path are
/// merged: `count` executions, summed `wall_ns`/`cpu_ns`/`items`,
/// `threads` distinct executing threads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Path segment, e.g. `"fan_out"` or `"group[8192B/16B]"`.
    pub name: String,
    /// Number of span executions merged into this node.
    pub count: u64,
    /// Total wall-clock ns across executions (parents include
    /// children; sibling workers overlap, so sums can exceed the
    /// parent's wall time).
    pub wall_ns: u64,
    /// Total thread CPU ns across executions; 0 when the platform
    /// exposes no per-thread CPU clock.
    pub cpu_ns: u64,
    /// Distinct threads that executed this span.
    pub threads: u64,
    /// Work items attributed via `PhaseSpan::add_items`.
    pub items: u64,
    /// Child phases, ordered by first start time.
    pub children: Vec<SpanNode>,
}

/// Summary of one latency histogram: exact count/sum/max, the
/// headline quantiles, and the sparse bucket array for consumers that
/// want other quantiles or full distribution plots.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Dotted histogram name, e.g. `"replay.family_chunk_ns"`.
    pub name: String,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (exact; `sum / count` is the mean).
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Median (within one log-linear bucket width of exact).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<HistBucket>,
}

impl HistogramSummary {
    fn from_snapshot(s: &HistSnapshot) -> HistogramSummary {
        HistogramSummary {
            name: s.name.clone(),
            count: s.count,
            sum: s.sum,
            max: s.max,
            p50: s.quantile(0.50),
            p90: s.quantile(0.90),
            p99: s.quantile(0.99),
            buckets: s.buckets.clone(),
        }
    }
}

/// Memory accounting for the run. RSS figures come from
/// `/proc/self/status` at manifest-collection time (0 where procfs is
/// unavailable); the byte totals come from counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemorySection {
    /// Process peak resident set size in bytes (`VmHWM`).
    pub peak_rss_bytes: u64,
    /// Resident set size in bytes when the manifest was collected
    /// (`VmRSS`).
    pub current_rss_bytes: u64,
    /// Bytes of packed SoA trace arena storage allocated
    /// (`trace.bytes_packed`).
    pub arena_bytes: u64,
    /// Bytes of encoded L1 miss events accumulated in filter event
    /// buffers (`filter.event_bytes`).
    pub event_buffer_bytes: u64,
}

impl MemorySection {
    /// Collects RSS from procfs and byte totals from the given counter
    /// list.
    fn collect(counters: &[CounterTotal]) -> MemorySection {
        let get =
            |name: &str| counters.iter().find(|c| c.name == name).map(|c| c.value).unwrap_or(0);
        let (peak, current) = read_rss_bytes();
        MemorySection {
            peak_rss_bytes: peak,
            current_rss_bytes: current,
            arena_bytes: get("trace.bytes_packed"),
            event_buffer_bytes: get("filter.event_bytes"),
        }
    }
}

/// (`VmHWM`, `VmRSS`) in bytes from `/proc/self/status`; zeros where
/// procfs is unavailable or the fields are missing.
fn read_rss_bytes() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .unwrap_or(0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// Run metadata supplied by the caller (everything the instrumentation
/// layer cannot know on its own).
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Entry point: `"sweep"` or `"repro"`.
    pub command: String,
    /// Workload/benchmark name.
    pub benchmark: String,
    /// Engine actually requested (`"auto"`, `"family"`, ...).
    pub engine: String,
    /// Worker threads used.
    pub threads: u64,
    /// Number of design points in the swept space.
    pub configs: u64,
    /// Hex FNV-1a 64 hash of the serialized config space (ties a
    /// manifest to the exact set of design points it measured).
    pub config_space_hash: String,
    /// End-to-end wall time in seconds.
    pub wall_s: f64,
}

/// A complete `tlc-run-manifest/1` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunManifest {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Entry point: `"sweep"` or `"repro"`.
    pub command: String,
    /// Workload/benchmark name.
    pub benchmark: String,
    /// Engine requested.
    pub engine: String,
    /// Worker threads used.
    pub threads: u64,
    /// Design points in the swept space.
    pub configs: u64,
    /// Hex FNV-1a 64 hash of the serialized config space.
    pub config_space_hash: String,
    /// End-to-end wall time in seconds.
    pub wall_s: f64,
    /// Whether the producing build carried live instrumentation
    /// (always `true` today; `false` in documents from older no-op
    /// builds).
    pub instrumentation: bool,
    /// Counter totals (all counters, [`Counter::ALL`] order).
    pub counters: Vec<CounterTotal>,
    /// Aggregated span tree.
    pub spans: Vec<SpanNode>,
    /// Point events in record order (fallbacks, errors).
    pub events: Vec<ObsEventRecord>,
    /// Latency histogram summaries, one per `Hist`, in `Hist::ALL`
    /// order (absent in `/1` documents).
    #[serde(default = "Vec::new")]
    pub histograms: Vec<HistogramSummary>,
    /// Memory accounting (all-zero in `/1` documents).
    #[serde(default = "Default::default")]
    pub memory: MemorySection,
    /// Spans lost to ring-buffer overflow before collection.
    #[serde(default = "Default::default")]
    pub spans_dropped: u64,
}

impl RunManifest {
    /// Builds a manifest by draining the global instrumentation state
    /// (spans, events) and snapshotting counters. Call once, at the
    /// end of a run.
    pub fn collect(meta: RunMeta) -> RunManifest {
        Self::from_parts(
            meta,
            crate::take_spans(),
            crate::take_events(),
            crate::counters().snapshot(),
        )
    }

    /// Builds a manifest from explicitly captured parts (used by
    /// callers that drain spans incrementally, e.g. `repro`).
    pub fn from_parts(
        meta: RunMeta,
        spans: Vec<SpanRecord>,
        events: Vec<ObsEventRecord>,
        snapshot: [u64; Counter::COUNT],
    ) -> RunManifest {
        let counters: Vec<CounterTotal> = Counter::ALL
            .iter()
            .zip(snapshot)
            .map(|(c, value)| CounterTotal { name: c.name().to_string(), value })
            .collect();
        let memory = MemorySection::collect(&counters);
        RunManifest {
            schema: SCHEMA.to_string(),
            command: meta.command,
            benchmark: meta.benchmark,
            engine: meta.engine,
            threads: meta.threads,
            configs: meta.configs,
            config_space_hash: meta.config_space_hash,
            wall_s: meta.wall_s,
            instrumentation: true,
            counters,
            spans: build_span_tree(spans),
            events,
            histograms: crate::hist::snapshot_all()
                .iter()
                .map(HistogramSummary::from_snapshot)
                .collect(),
            memory,
            spans_dropped: crate::spans_dropped(),
        }
    }

    /// Looks up a histogram summary by dotted name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Looks up a counter total by dotted name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Checks structural and arithmetic invariants:
    ///
    /// * `schema` matches [`SCHEMA`];
    /// * `instrumentation` is `true` (the all-zero counters of an older
    ///   no-op build prove nothing);
    /// * `filter.events_decoded` ==
    ///   `filter.l1_hits + filter.l1_misses`, `l2.probes` ==
    ///   `l2.hits + l2.misses`, and for sweeps
    ///   `runner.configs_completed` == `configs` (times the phase count
    ///   for sampled sweeps);
    /// * when phase-sampled (`sample.phases` > 0):
    ///   `sample.phases + sample.intervals_skipped == sample.intervals`;
    /// * per histogram: bucket counts sum to `count` and quantiles are
    ///   monotone (`p50 <= p90 <= p99 <= max`);
    /// * `memory.peak_rss_bytes >= memory.current_rss_bytes` when both
    ///   were measured.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!("schema {:?}, expected {SCHEMA:?}", self.schema));
        }
        for h in &self.histograms {
            let bucket_sum: u64 = h.buckets.iter().map(|b| b.count).sum();
            if bucket_sum != h.count {
                return Err(format!(
                    "histogram {}: bucket counts sum to {bucket_sum}, count is {}",
                    h.name, h.count
                ));
            }
            if h.count > 0 && !(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max) {
                return Err(format!(
                    "histogram {}: quantiles not monotone (p50 {} p90 {} p99 {} max {})",
                    h.name, h.p50, h.p90, h.p99, h.max
                ));
            }
        }
        let mem = &self.memory;
        if mem.peak_rss_bytes > 0
            && mem.current_rss_bytes > 0
            && mem.peak_rss_bytes < mem.current_rss_bytes
        {
            return Err(format!(
                "memory: peak_rss_bytes {} < current_rss_bytes {}",
                mem.peak_rss_bytes, mem.current_rss_bytes
            ));
        }
        if !self.instrumentation {
            return Err(
                "instrumentation is false: only instrumented manifests are accepted".to_string()
            );
        }
        let get =
            |name: &str| self.counter(name).ok_or_else(|| format!("missing counter {name:?}"));
        let decoded = get("filter.events_decoded")?;
        let hits = get("filter.l1_hits")?;
        let misses = get("filter.l1_misses")?;
        if decoded != hits + misses {
            return Err(format!(
                "filter.events_decoded {decoded} != l1_hits {hits} + l1_misses {misses}"
            ));
        }
        let probes = get("l2.probes")?;
        let l2h = get("l2.hits")?;
        let l2m = get("l2.misses")?;
        if probes != l2h + l2m {
            return Err(format!("l2.probes {probes} != l2.hits {l2h} + l2.misses {l2m}"));
        }
        let phases = self.counter("sample.phases").unwrap_or(0);
        if phases > 0 {
            let intervals = get("sample.intervals")?;
            let skipped = get("sample.intervals_skipped")?;
            if phases + skipped != intervals {
                return Err(format!(
                    "sample.phases {phases} + sample.intervals_skipped {skipped} \
                     != sample.intervals {intervals}"
                ));
            }
        }
        if self.command == "sweep" {
            let done = get("runner.configs_completed")?;
            // A sampled sweep runs every config once per representative
            // phase before recombining, so the completion ticks scale by
            // the phase count.
            let expected = self.configs * phases.max(1);
            if done != expected {
                return Err(format!(
                    "runner.configs_completed {done} != configs {} x phases {}",
                    self.configs,
                    phases.max(1)
                ));
            }
        }
        Ok(())
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization cannot fail")
    }

    /// Parses a manifest from JSON.
    pub fn from_json(s: &str) -> Result<RunManifest, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Human-readable summary (counters + span tree) for stderr.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# {} {} engine={} threads={} configs={} wall={:.3}s instrumentation={}\n",
            self.command,
            self.benchmark,
            self.engine,
            self.threads,
            self.configs,
            self.wall_s,
            self.instrumentation
        ));
        for c in &self.counters {
            if c.value != 0 {
                out.push_str(&format!("# counter {} = {}\n", c.name, c.value));
            }
        }
        for h in &self.histograms {
            if h.count != 0 {
                out.push_str(&format!(
                    "# hist {}: n={} mean={} p50={} p90={} p99={} max={}\n",
                    h.name,
                    h.count,
                    h.sum / h.count,
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max
                ));
            }
        }
        if self.memory.peak_rss_bytes != 0 {
            out.push_str(&format!(
                "# memory peak_rss={}K current_rss={}K arena={}K event_buffers={}K\n",
                self.memory.peak_rss_bytes / 1024,
                self.memory.current_rss_bytes / 1024,
                self.memory.arena_bytes / 1024,
                self.memory.event_buffer_bytes / 1024
            ));
        }
        if self.spans_dropped != 0 {
            out.push_str(&format!("# spans dropped (ring overflow): {}\n", self.spans_dropped));
        }
        for node in &self.spans {
            render_node(&mut out, node, 0);
        }
        out
    }
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize) {
    out.push_str(&span_line(node, depth));
    out.push('\n');
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

/// Formats one span-tree node as the shared single-line text form used
/// by both `tlc sweep` and `repro` stderr reporting.
pub fn span_line(node: &SpanNode, depth: usize) -> String {
    let mut line = format!(
        "# {:indent$}{}: wall {:.3}s",
        "",
        node.name,
        node.wall_ns as f64 / 1e9,
        indent = depth * 2
    );
    if node.cpu_ns != 0 {
        line.push_str(&format!(" cpu {:.3}s", node.cpu_ns as f64 / 1e9));
    }
    if node.count > 1 {
        line.push_str(&format!(" x{}", node.count));
    }
    if node.threads > 1 {
        line.push_str(&format!(" on {} threads", node.threads));
    }
    if node.items != 0 {
        line.push_str(&format!(" ({} items)", node.items));
    }
    line
}

struct NodeBuild {
    name: String,
    count: u64,
    wall_ns: u64,
    cpu_ns: u64,
    items: u64,
    threads: Vec<u64>,
    first_start: u64,
    children: Vec<NodeBuild>,
}

impl NodeBuild {
    fn new(name: &str) -> NodeBuild {
        NodeBuild {
            name: name.to_string(),
            count: 0,
            wall_ns: 0,
            cpu_ns: 0,
            items: 0,
            threads: Vec::new(),
            first_start: u64::MAX,
            children: Vec::new(),
        }
    }

    fn child(&mut self, name: &str) -> &mut NodeBuild {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(NodeBuild::new(name));
        self.children.last_mut().unwrap()
    }

    fn finish(mut self) -> SpanNode {
        self.children.sort_by_key(|c| c.first_start);
        SpanNode {
            name: self.name,
            count: self.count,
            wall_ns: self.wall_ns,
            cpu_ns: self.cpu_ns,
            threads: self.threads.len() as u64,
            items: self.items,
            children: self.children.into_iter().map(NodeBuild::finish).collect(),
        }
    }
}

/// Aggregates flat [`SpanRecord`]s (drained from the thread-local span
/// stacks) into a nested tree, merging records that share a path.
pub fn build_span_tree(records: Vec<SpanRecord>) -> Vec<SpanNode> {
    let mut root = NodeBuild::new("");
    for rec in records {
        let mut node = &mut root;
        for seg in &rec.path {
            node = node.child(seg);
            node.first_start = node.first_start.min(rec.start_ns);
        }
        node.count += 1;
        node.wall_ns += rec.wall_ns;
        node.cpu_ns += rec.cpu_ns.unwrap_or(0);
        node.items += rec.items;
        if !node.threads.contains(&rec.thread) {
            node.threads.push(rec.thread);
        }
    }
    root.finish().children
}

/// FNV-1a 64-bit hash — deterministic across processes (unlike
/// `DefaultHasher`, which is randomly seeded), used for
/// `config_space_hash`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(path: &[&str], thread: u64, start: u64, wall: u64, items: u64) -> SpanRecord {
        SpanRecord {
            path: path.iter().map(|s| s.to_string()).collect(),
            thread,
            start_ns: start,
            wall_ns: wall,
            cpu_ns: Some(wall / 2),
            items,
        }
    }

    fn meta() -> RunMeta {
        RunMeta {
            command: "sweep".to_string(),
            benchmark: "paper".to_string(),
            engine: "family".to_string(),
            threads: 2,
            configs: 0,
            config_space_hash: format!("{:016x}", fnv1a64(b"[]")),
            wall_s: 0.5,
        }
    }

    #[test]
    fn tree_merges_paths_and_orders_children() {
        let spans = vec![
            rec(&["sweep"], 1, 0, 100, 0),
            rec(&["sweep", "fan_out"], 1, 60, 40, 0),
            rec(&["sweep", "l1_capture"], 1, 10, 50, 0),
            rec(&["sweep", "fan_out", "worker[0]"], 2, 61, 39, 45),
            rec(&["sweep", "fan_out", "worker[1]"], 3, 61, 39, 45),
        ];
        let tree = build_span_tree(spans);
        assert_eq!(tree.len(), 1);
        let sweep = &tree[0];
        assert_eq!(sweep.name, "sweep");
        assert_eq!(sweep.count, 1);
        // Children ordered by first start: l1_capture before fan_out.
        let names: Vec<_> = sweep.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["l1_capture", "fan_out"]);
        let fan = &sweep.children[1];
        assert_eq!(fan.children.len(), 2);
        assert_eq!(fan.children[0].threads, 1);
        assert_eq!(fan.children[0].items, 45);
    }

    #[test]
    fn tree_merges_same_path_across_threads() {
        let spans =
            vec![rec(&["root", "group[a]"], 1, 0, 10, 3), rec(&["root", "group[a]"], 2, 5, 20, 4)];
        let tree = build_span_tree(spans);
        let g = &tree[0].children[0];
        assert_eq!(g.count, 2);
        assert_eq!(g.wall_ns, 30);
        assert_eq!(g.threads, 2);
        assert_eq!(g.items, 7);
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = RunManifest::from_parts(
            meta(),
            vec![rec(&["sweep"], 1, 0, 100, 0)],
            vec![ObsEventRecord { kind: "k".to_string(), detail: "d".to_string() }],
            [3; Counter::COUNT],
        );
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert_eq!(back.counters, m.counters);
        assert_eq!(back.spans, m.spans);
        assert_eq!(back.events, m.events);
        assert_eq!(back.counter("l2.probes"), Some(3));
    }

    #[test]
    fn validate_checks_schema_and_invariants() {
        let mut m = RunManifest::from_parts(meta(), Vec::new(), Vec::new(), [0; Counter::COUNT]);
        // All-zero counters over zero configs satisfy every invariant.
        assert!(m.validate().is_ok());
        m.schema = "bogus".to_string();
        assert!(m.validate().unwrap_err().contains("schema"));
        m.schema = SCHEMA.to_string();
        m.instrumentation = false;
        assert!(m.validate().unwrap_err().contains("instrumentation is false"));
    }

    #[test]
    fn validate_rejects_broken_counter_arithmetic() {
        let mut m = RunManifest::from_parts(meta(), Vec::new(), Vec::new(), [0; Counter::COUNT]);
        let set = |m: &mut RunManifest, name: &str, v: u64| {
            m.counters.iter_mut().find(|c| c.name == name).unwrap().value = v;
        };
        set(&mut m, "filter.events_decoded", 10);
        set(&mut m, "filter.l1_hits", 6);
        set(&mut m, "filter.l1_misses", 4);
        assert!(m.validate().is_ok());
        set(&mut m, "filter.l1_misses", 5);
        assert!(m.validate().unwrap_err().contains("events_decoded"));
        set(&mut m, "filter.l1_misses", 4);
        set(&mut m, "l2.probes", 1);
        assert!(m.validate().unwrap_err().contains("l2.probes"));
        set(&mut m, "l2.probes", 0);
        set(&mut m, "runner.configs_completed", 1);
        assert!(m.validate().unwrap_err().contains("configs_completed"));
        m.configs = 1;
        assert!(m.validate().is_ok());
    }

    fn hist(name: &str, count: u64, quantiles: (u64, u64, u64, u64)) -> HistogramSummary {
        let (p50, p90, p99, max) = quantiles;
        HistogramSummary {
            name: name.to_string(),
            count,
            sum: count * p50,
            max,
            p50,
            p90,
            p99,
            buckets: if count > 0 {
                vec![HistBucket { index: crate::hist::bucket_of(p50) as u32, floor: 0, count }]
            } else {
                Vec::new()
            },
        }
    }

    #[test]
    fn validate_checks_histogram_and_memory_invariants() {
        let mut m = RunManifest::from_parts(meta(), Vec::new(), Vec::new(), [0; Counter::COUNT]);
        m.histograms = vec![hist("replay.family_chunk_ns", 10, (5, 8, 9, 12))];
        m.memory = MemorySection {
            peak_rss_bytes: 2048,
            current_rss_bytes: 1024,
            arena_bytes: 0,
            event_buffer_bytes: 0,
        };
        assert!(m.validate().is_ok());
        // Non-monotone quantiles are rejected.
        m.histograms[0].p90 = 4;
        assert!(m.validate().unwrap_err().contains("not monotone"));
        m.histograms[0].p90 = 8;
        // Bucket counts must sum to the recorded count.
        m.histograms[0].buckets[0].count = 9;
        assert!(m.validate().unwrap_err().contains("bucket counts"));
        m.histograms[0].buckets[0].count = 10;
        // Peak RSS below current RSS is impossible.
        m.memory.current_rss_bytes = 4096;
        assert!(m.validate().unwrap_err().contains("peak_rss_bytes"));
    }

    #[test]
    fn memory_section_is_collected_from_procfs_and_counters() {
        let mut snapshot = [0u64; Counter::COUNT];
        let idx = |c: Counter| Counter::ALL.iter().position(|&x| x == c).unwrap();
        snapshot[idx(Counter::TraceBytesPacked)] = 777;
        snapshot[idx(Counter::FilterEventBytes)] = 42;
        let m = RunManifest::from_parts(meta(), Vec::new(), Vec::new(), snapshot);
        assert_eq!(m.memory.arena_bytes, 777);
        assert_eq!(m.memory.event_buffer_bytes, 42);
        // On Linux, procfs gives real RSS figures.
        if cfg!(target_os = "linux") {
            assert!(m.memory.peak_rss_bytes > 0);
            assert!(m.memory.peak_rss_bytes >= m.memory.current_rss_bytes);
        }
    }

    #[test]
    fn v1_documents_parse_with_defaulted_v2_fields() {
        // A /1 document has no histograms/memory/spans_dropped keys;
        // deserialization must fill defaults (validate then rejects the
        // old schema string with a clear message).
        let mut m = RunManifest::from_parts(meta(), Vec::new(), Vec::new(), [0; Counter::COUNT]);
        m.schema = "tlc-run-manifest/1".to_string();
        let mut v: serde_json::Value = serde_json::from_str(&m.to_json()).unwrap();
        let serde_json::Value::Object(ref mut entries) = v else {
            panic!("manifest serializes as an object");
        };
        entries.retain(|(k, _)| !matches!(k.as_str(), "histograms" | "memory" | "spans_dropped"));
        let back = RunManifest::from_json(&serde_json::to_string(&v).unwrap()).unwrap();
        assert!(back.histograms.is_empty());
        assert_eq!(back.memory, MemorySection::default());
        assert_eq!(back.spans_dropped, 0);
        let err = back.validate().unwrap_err();
        assert!(err.contains("tlc-run-manifest/2"), "clear schema message, got: {err}");
    }

    #[test]
    fn manifest_carries_histograms_in_hist_all_order() {
        let m = RunManifest::from_parts(meta(), Vec::new(), Vec::new(), [0; Counter::COUNT]);
        let names: Vec<_> = m.histograms.iter().map(|h| h.name.as_str()).collect();
        let expected: Vec<_> = crate::Hist::ALL.iter().map(|h| h.name()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn span_line_formats_shared_shape() {
        let node = SpanNode {
            name: "fan_out".to_string(),
            count: 2,
            wall_ns: 1_500_000_000,
            cpu_ns: 0,
            threads: 2,
            items: 90,
            children: Vec::new(),
        };
        let line = span_line(&node, 1);
        assert!(line.starts_with("#   fan_out: wall 1.500s"));
        assert!(line.contains("x2"));
        assert!(line.contains("on 2 threads"));
        assert!(line.contains("(90 items)"));
    }
}
