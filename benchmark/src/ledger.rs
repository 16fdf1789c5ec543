//! The benchmark's own span recorder: the per-layer cost ledger.
//!
//! A traced repetition wraps every public library call it makes in a
//! span (name, start, end, parent, run id). Spans stay in memory until
//! the benchmark ends; a layer's self time is its spans' durations minus
//! the part their child spans cover. Work counts (instructions, events,
//! configurations) are tallied beside the spans under the same names, so
//! ratios are formed where the work happens. Nothing here probes inside
//! the program: the finest grain is one library call.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;
use tlc_obs::SpanRecord;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `cache.filter`.
    pub name: &'static str,
    /// Start, ns since the ledger was created.
    pub start_ns: u64,
    /// End, ns since the ledger was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The traced repetition this span belongs to.
    pub run: u32,
}

impl Span {
    fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    run: u32,
}

/// Spans and counts of the traced repetitions. Interior mutability lets
/// an instruction source that is itself inside a span (the batching
/// decoder) open child spans; the breakdown is single-threaded, so the
/// lock is never contended.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger { epoch: Instant::now(), inner: Mutex::default() }
    }
}

impl Ledger {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("ledger lock poisoned by a panicking span")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next traced repetition; later spans carry its id.
    pub fn next_run(&self) {
        self.lock().run += 1;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut g = self.lock();
            let start_ns = self.now_ns();
            let parent = g.open.last().copied();
            let run = g.run;
            g.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run });
            let idx = g.spans.len() - 1;
            g.open.push(idx);
            idx
        };
        let out = f();
        let mut g = self.lock();
        let end_ns = self.now_ns();
        g.spans[idx].end_ns = end_ns;
        let closed = g.open.pop();
        debug_assert_eq!(closed, Some(idx), "spans close innermost first");
        out
    }

    /// Adds `n` units of work to the tally named `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.lock().counts.entry(name).or_default() += n;
    }

    /// The tally named `name` (0 if never counted).
    pub fn units(&self, name: &str) -> u64 {
        self.lock().counts.get(name).copied().unwrap_or(0)
    }

    /// Number of traced repetitions started.
    pub fn runs(&self) -> u32 {
        self.lock().run
    }

    /// Self time per span name: each span's duration minus the durations
    /// of its direct children (which nest inside it on one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let g = self.lock();
        let mut child_ns = vec![0u64; g.spans.len()];
        for s in &g.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.wall_ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, c) in g.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_default() += s.wall_ns().saturating_sub(c);
        }
        out
    }

    /// The spans as Chrome trace-event JSON — the document `tlc sweep
    /// --trace-out` writes, so one Perfetto session opens both. Each
    /// span's path is its ancestors' names under a `run[k]` root.
    pub fn chrome_trace_json(&self) -> String {
        let g = self.lock();
        let records: Vec<SpanRecord> = g
            .spans
            .iter()
            .map(|s| {
                let mut path = vec![s.name.to_string()];
                let mut p = s.parent;
                while let Some(i) = p {
                    path.push(g.spans[i].name.to_string());
                    p = g.spans[i].parent;
                }
                path.push(format!("run[{}]", s.run));
                path.reverse();
                SpanRecord {
                    path,
                    thread: 1,
                    start_ns: s.start_ns,
                    wall_ns: s.wall_ns(),
                    cpu_ns: None,
                    items: 0,
                }
            })
            .collect();
        tlc_obs::trace_export::chrome_trace_json(&records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let l = Ledger::default();
        l.next_run();
        l.span("outer", || {
            spin(4);
            l.span("inner", || spin(6));
        });
        let st = l.self_times();
        assert!(st["inner"] >= 6_000_000);
        assert!(st["outer"] >= 4_000_000 && st["outer"] < 6_000_000 + 4_000_000);
        let json = l.chrome_trace_json();
        assert!(json.contains("\"name\":\"inner\""), "{json}");
        assert!(json.contains("run[1]/outer"), "{json}");
    }

    #[test]
    fn counts_accumulate() {
        let l = Ledger::default();
        l.count("x", 2);
        l.count("x", 3);
        assert_eq!(l.units("x"), 5);
        assert_eq!(l.units("y"), 0);
    }
}
