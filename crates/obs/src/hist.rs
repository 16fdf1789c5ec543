//! Lock-free log-linear latency histograms.
//!
//! The aggregate span tree answers "where did the wall time go", but a
//! mean hides tails: one slow family chunk inside a hundred fast ones
//! is invisible until it stalls a worker. Each [`Hist`] is a global
//! array of relaxed atomic buckets — recording is one `fetch_add` per
//! sample with no locks, so probes stay legal anywhere except the
//! innermost per-event loops, and per-thread recordings merge by
//! construction (all threads target the same atomics).
//!
//! ## Bucket scheme
//!
//! HDR-style log-linear: values 0..15 get exact unit buckets; above
//! that each power-of-two octave is split into [`SUB_BUCKETS`] linear
//! sub-buckets. With 16 sub-buckets per octave the relative width of
//! any bucket is at most 1/16 = 6.25%, so a quantile read off the
//! bucket upper edge is within one bucket width of the exact sample
//! (see [`HistSnapshot::quantile`]). The full `u64` range maps to
//! [`NUM_BUCKETS`] = 976 buckets (~7.6 KiB of atomics per histogram).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Every histogram the pipeline can record into. Discriminants index
/// the global histogram array; [`Hist::name`] gives the dotted name
/// used in manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Wall ns per family-chunk replay (one sample per family unit the
    /// runner's replay evaluator runs, in the family, sampled and
    /// predict sweeps alike).
    ReplayFamilyChunkNs,
    /// Wall ns per analytically-solved design point in the predict
    /// engine (profile lookup + model evaluation, no replay).
    PredictSolveNs,
    /// Wall ns per phase-slice segment replayed through a family
    /// back-end in sampled sweeps of two or more slices (a one-slice
    /// capture is a whole stream).
    SampleSliceReplayNs,
    /// Work units claimed per worker per fan-out (a *distribution* over
    /// workers: a wide spread is queue imbalance).
    RunnerWorkerItems,
    /// Wall ns per L1-group miss-stream capture (every segment of a
    /// sampled sweep's group in one sample).
    CaptureL1GroupNs,
}

impl Hist {
    /// Number of histograms (size of the global array).
    pub const COUNT: usize = 5;

    /// All histograms, in discriminant order.
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::ReplayFamilyChunkNs,
        Hist::PredictSolveNs,
        Hist::SampleSliceReplayNs,
        Hist::RunnerWorkerItems,
        Hist::CaptureL1GroupNs,
    ];

    /// Dotted manifest name, e.g. `"replay.family_chunk_ns"`.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::ReplayFamilyChunkNs => "replay.family_chunk_ns",
            Hist::PredictSolveNs => "predict.solve_ns",
            Hist::SampleSliceReplayNs => "sample.slice_replay_ns",
            Hist::RunnerWorkerItems => "runner.worker_items",
            Hist::CaptureL1GroupNs => "capture.l1_group_ns",
        }
    }
}

/// Linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 16;

/// Total buckets: 16 exact unit buckets for 0..15, then 16 sub-buckets
/// for each of the 60 octaves `[2^4, 2^5) .. [2^63, 2^64)`.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + 60 * SUB_BUCKETS;

/// Bucket index a value lands in. Values below [`SUB_BUCKETS`] map to
/// exact unit buckets; above, the top four bits after the leading one
/// select the sub-bucket within the value's octave.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 4
        SUB_BUCKETS + (msb - 4) * SUB_BUCKETS + ((v >> (msb - 4)) & 15) as usize
    }
}

/// Smallest value that lands in bucket `i` (inverse of [`bucket_of`]).
#[inline]
pub fn bucket_floor(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let oct = (i - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = (i - SUB_BUCKETS) % SUB_BUCKETS;
        ((SUB_BUCKETS + sub) as u64) << oct
    }
}

/// Largest value that lands in bucket `i` (inclusive upper edge).
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_floor(i + 1) - 1
    }
}

/// One populated bucket of a snapshot: `floor` is redundant with
/// `index` ([`bucket_floor`]) but keeps the JSON self-describing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistBucket {
    /// Bucket index (see [`bucket_of`]).
    pub index: u32,
    /// Smallest value the bucket holds.
    pub floor: u64,
    /// Samples recorded into the bucket.
    pub count: u64,
}

/// A point-in-time copy of one histogram: exact `count`/`sum`/`max`
/// plus the sparse non-empty buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Dotted histogram name ([`Hist::name`]).
    pub name: String,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (exact, not bucketed).
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<HistBucket>,
}

impl HistSnapshot {
    /// The value at quantile `q` in `[0, 1]`: the upper edge of the
    /// bucket holding the `ceil(q * count)`-th sample, clamped to the
    /// exact `max`. The clamp keeps `quantile(1.0) <= max` (the top
    /// sample sits somewhere *inside* its bucket) while the upper edge
    /// keeps quantiles monotone in `q`; either way the reported value
    /// is within one bucket width (<= 6.25% relative) of the exact
    /// order statistic. Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return bucket_hi(b.index as usize).min(self.max);
            }
        }
        self.max
    }
}

/// One lock-free histogram: relaxed atomic buckets plus exact
/// count/sum/max. Threads record concurrently into the same
/// atomics, so "merging" per-thread recordings is the identity.
struct AtomicHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    #[allow(clippy::declare_interior_mutable_const)] // repeat-init seed
    const ZERO: AtomicU64 = AtomicU64::new(0);

    const fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: [Self::ZERO; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &str) -> HistSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then(|| HistBucket { index: i as u32, floor: bucket_floor(i), count })
            })
            .collect();
        HistSnapshot {
            name: name.to_string(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[allow(clippy::declare_interior_mutable_const)] // repeat-init seed
const EMPTY: AtomicHistogram = AtomicHistogram::new();
static HISTS: [AtomicHistogram; Hist::COUNT] = [EMPTY; Hist::COUNT];

/// Records one sample (lock-free; safe from any thread).
#[inline]
pub fn record(h: Hist, v: u64) {
    HISTS[h as usize].record(v);
}

/// Snapshots every histogram, in [`Hist::ALL`] order (empty ones
/// included; filter on `count` if needed). Call after worker
/// threads join — a mid-recording snapshot can catch a sample
/// between its bucket and count increments.
pub fn snapshot_all() -> Vec<HistSnapshot> {
    Hist::ALL.iter().map(|&h| HISTS[h as usize].snapshot(h.name())).collect()
}

/// Zeroes every histogram.
pub fn reset_hists() {
    for h in &HISTS {
        h.reset();
    }
}

/// RAII duration probe: records the wall ns between construction
/// and drop into `hist`.
#[must_use = "a timer measures the region it is alive for"]
pub struct HistTimer {
    hist: Hist,
    start: Instant,
}

impl HistTimer {
    /// Starts timing into `hist`.
    #[inline]
    pub fn start(hist: Hist) -> HistTimer {
        HistTimer { hist, start: Instant::now() }
    }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        record(self.hist, self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn hist_names_match_all_order() {
        assert_eq!(Hist::ALL.len(), Hist::COUNT);
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "{} out of order", h.name());
        }
    }

    #[test]
    fn bucket_math_round_trips_and_is_monotone() {
        // Every bucket's floor maps back to the bucket, edges align,
        // and the mapping is monotone across bucket boundaries.
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_of(bucket_floor(i)), i, "floor of bucket {i}");
            assert_eq!(bucket_of(bucket_hi(i)), i, "hi of bucket {i}");
            if i + 1 < NUM_BUCKETS {
                assert_eq!(bucket_hi(i) + 1, bucket_floor(i + 1), "buckets {i},{} tile", i + 1);
            }
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        // Relative bucket width stays under 1/16 above the linear range.
        for v in [100u64, 1_000, 123_456, 1 << 30, u64::MAX / 3] {
            let i = bucket_of(v);
            let width = bucket_hi(i) - bucket_floor(i) + 1;
            assert!(
                (width as f64) <= (bucket_floor(i) as f64) / 16.0 + 1.0,
                "bucket {i} too wide for {v}"
            );
        }
    }

    #[test]
    fn snapshot_quantiles_are_monotone_and_bounded() {
        // A synthetic snapshot exercises the quantile walk without the
        // global state: 10 samples at 100, 1 sample at 1000.
        let mk = |v: u64, count: u64| HistBucket {
            index: bucket_of(v) as u32,
            floor: bucket_floor(bucket_of(v)),
            count,
        };
        let snap = HistSnapshot {
            name: "t".to_string(),
            count: 11,
            sum: 2000,
            max: 1000,
            buckets: vec![mk(100, 10), mk(1000, 1)],
        };
        let (p50, p90, p99) = (snap.quantile(0.5), snap.quantile(0.9), snap.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99 && p99 <= snap.max);
        // Quantile error is bounded by the bucket width.
        let b50 = bucket_of(100);
        assert!(p50 >= 100 && p50 <= bucket_hi(b50), "p50 {p50} within 100's bucket");
        assert_eq!(p99, snap.max, "top sample's bucket edge clamps to the exact max");
        assert_eq!(
            HistSnapshot { name: "e".into(), count: 0, sum: 0, max: 0, buckets: vec![] }
                .quantile(0.5),
            0
        );
    }

    // Histograms are process-global; serialize tests touching them.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn concurrent_recording_merges_identically_to_serial() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Deterministic value stream, split across 4 threads vs
        // recorded serially: the snapshots must be identical (the
        // "merge" is threads sharing one atomic array).
        let values: Vec<u64> =
            (0..8_000u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17)).collect();
        reset_hists();
        for &v in &values {
            record(Hist::SampleSliceReplayNs, v);
        }
        let serial = snapshot_all();
        reset_hists();
        std::thread::scope(|s| {
            for chunk in values.chunks(values.len() / 4) {
                s.spawn(move || {
                    for &v in chunk {
                        record(Hist::SampleSliceReplayNs, v);
                    }
                });
            }
        });
        let concurrent = snapshot_all();
        assert_eq!(serial, concurrent, "thread interleaving must not change the histogram");
        reset_hists();
    }

    #[test]
    fn quantile_error_is_bounded_by_bucket_width() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Known sorted sample set: compare each reported quantile
        // against the exact order statistic.
        let mut values: Vec<u64> = (0..1_000u64).map(|i| i * i + 17).collect();
        reset_hists();
        for &v in &values {
            record(Hist::PredictSolveNs, v);
        }
        values.sort_unstable();
        let snap = snapshot_all()
            .into_iter()
            .find(|s| s.name == "predict.solve_ns")
            .expect("snapshot present");
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(snap.max, *values.last().unwrap());
        for q in [0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let got = snap.quantile(q);
            let b = bucket_of(exact);
            let width = bucket_hi(b) - bucket_floor(b);
            assert!(
                got >= exact.saturating_sub(width) && got <= exact + width,
                "q{q}: got {got}, exact {exact}, bucket width {width}"
            );
        }
        // Monotone across the quantile range.
        let qs: Vec<u64> = (0..=20).map(|k| snap.quantile(k as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "quantiles must be monotone: {qs:?}");
        assert!(snap.quantile(1.0) <= snap.max);
        reset_hists();
    }

    #[test]
    fn timer_records_elapsed_time() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_hists();
        {
            let _t = HistTimer::start(Hist::CaptureL1GroupNs);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = snapshot_all()
            .into_iter()
            .find(|s| s.name == "capture.l1_group_ns")
            .expect("snapshot present");
        assert_eq!(snap.count, 1);
        assert!(snap.max >= 2_000_000, "timed at least the 2 ms sleep, got {} ns", snap.max);
        reset_hists();
    }
}
