//! Seeded workload inputs: synthetic traces written as `TLCTRC01` files.
//!
//! The workload seed reaches the program only through these files. It
//! reseeds each generator; the generators' shapes (footprints, mixes,
//! address layout) stay fixed, so every seed asks for the same amount of
//! simulation work and only the address streams differ.

use crate::ledger::Ledger;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tlc_trace::specfile::{
    ChaseSpec, CodeSpec, DataSpec, MixtureEntrySpec, RegionSpec, StreamSpec, WorkloadSpec,
};
use tlc_trace::{
    CompactTraceWriter, InstructionRecord, InstructionSource, TimeSliced, TraceReader,
};

/// One generated trace file.
#[derive(Debug, Clone)]
pub struct TraceInput {
    /// File stem; the name design points carry.
    pub name: String,
    /// Where the file was written.
    pub path: PathBuf,
    /// Instruction records in the file.
    pub instructions: u64,
}

/// What writing a set of inputs cost, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// ns spent in the generators.
    pub gen_ns: u64,
    /// ns spent encoding and writing `TLCTRC01`.
    pub write_ns: u64,
    /// Instructions written.
    pub instructions: u64,
    /// Bytes written.
    pub bytes: u64,
}

/// SplitMix64: derives independent generator seeds from the workload
/// seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn code(
    footprint_kb: u64,
    n_sites: usize,
    body_max_bytes: u64,
    mean_iters: f64,
    base: u64,
) -> CodeSpec {
    CodeSpec {
        footprint_kb,
        n_sites,
        body_min_bytes: 64,
        body_max_bytes,
        mean_iters,
        zipf_theta: 1.0,
        p_excursion: 0.02,
        excursion_bytes: 1024,
        base,
    }
}

fn region(base: u64, size_kb: u64, weight: f64, mean_run: f64) -> RegionSpec {
    RegionSpec { base, size_kb, weight, mean_run }
}

fn spec(name: &str, seed: u64, code: CodeSpec, data: DataSpec) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_string(),
        seed,
        data_per_instr: 0.35,
        store_fraction: 0.3,
        code,
        data,
    }
}

/// The two `trace-sweep` / `predict-grid` programs. `resident` keeps its
/// ~44 KB of nested working sets inside the larger L1s; `spilling`
/// streams and chases through megabytes, past the largest (256 KB) L1
/// and L2. Between them every L1 size sees both hit-dominated and
/// miss-dominated traffic. Segment bases are staggered, not aligned to
/// large powers of two, so the segments do not all collide in the same
/// L2 sets — a layout no real program has, and one the predictor's
/// uniform set-spread model cannot follow.
pub fn sweep_specs(seed: u64) -> [WorkloadSpec; 2] {
    let mut s = seed ^ 0x7377_6565_7000;
    [
        spec(
            "resident",
            splitmix64(&mut s),
            code(16, 24, 512, 4.0, 0x40_0000),
            DataSpec::Regions(vec![
                region(0x1000_4000, 4, 0.5, 4.0),
                region(0x1010_5000, 8, 0.3, 4.0),
                region(0x1020_7000, 16, 0.2, 4.0),
            ]),
        ),
        spec(
            "spilling",
            splitmix64(&mut s),
            code(96, 80, 1024, 4.0, 0x40_0000),
            DataSpec::Mixture(vec![
                MixtureEntrySpec {
                    weight: 0.5,
                    mean_burst: 16.0,
                    source: DataSpec::Regions(vec![region(0x1001_8000, 16, 1.0, 4.0)]),
                },
                MixtureEntrySpec {
                    weight: 0.3,
                    mean_burst: 32.0,
                    source: DataSpec::Stream(vec![
                        StreamSpec { base: 0x2001_C000, size_kb: 512, stride_bytes: 8 },
                        StreamSpec { base: 0x280A_3400, size_kb: 512, stride_bytes: 8 },
                    ]),
                },
                MixtureEntrySpec {
                    weight: 0.2,
                    mean_burst: 8.0,
                    source: DataSpec::Chase(ChaseSpec {
                        base: 0x4013_7C00,
                        size_kb: 2048,
                        p_restart: 0.01,
                    }),
                },
            ]),
        ),
    ]
}

/// The four processes time-sliced into the `sampled-trace` stream, each
/// in its own address space so the phases differ in what they touch: a
/// tight loop, a 2 MB array sweep, a pointer chase, and a large-code
/// mix. No process's footprint sits near the largest (256 KB) L2, where
/// sampling is documented as unsound (`tlc_core::sampling`).
pub fn phased_specs(seed: u64) -> [WorkloadSpec; 4] {
    let mut s = seed ^ 0x7068_6173_6564;
    [
        spec(
            "loop",
            splitmix64(&mut s),
            code(8, 16, 512, 8.0, 0x40_0000),
            DataSpec::Regions(vec![region(0x1000_0000, 24, 1.0, 4.0)]),
        ),
        spec(
            "sweep",
            splitmix64(&mut s),
            code(24, 24, 512, 6.0, 0x80_0000),
            DataSpec::Stream(vec![
                StreamSpec { base: 0x2000_0000, size_kb: 1024, stride_bytes: 8 },
                StreamSpec { base: 0x2113_4000, size_kb: 1024, stride_bytes: 8 },
            ]),
        ),
        spec(
            "chase",
            splitmix64(&mut s),
            code(16, 16, 512, 6.0, 0xC0_0000),
            DataSpec::Mixture(vec![
                MixtureEntrySpec {
                    weight: 0.6,
                    mean_burst: 8.0,
                    source: DataSpec::Chase(ChaseSpec {
                        base: 0x4000_0000,
                        size_kb: 96,
                        p_restart: 0.01,
                    }),
                },
                MixtureEntrySpec {
                    weight: 0.4,
                    mean_burst: 8.0,
                    source: DataSpec::Regions(vec![region(0x4800_0000, 8, 1.0, 4.0)]),
                },
            ]),
        ),
        spec(
            "bigcode",
            splitmix64(&mut s),
            code(64, 64, 1024, 3.0, 0x100_0000),
            DataSpec::Regions(vec![
                region(0x6000_0000, 16, 0.7, 4.0),
                region(0x6100_0000, 64, 0.3, 2.0),
            ]),
        ),
    ]
}

/// Records generated and written per batch: bounds setup memory and
/// lets generation and encoding be timed apart.
const BATCH: usize = 1 << 16;

/// Generates `instructions` records from `source` and writes them to
/// `dir/name.trc`, timing the generator and the encoder separately.
pub fn write_trace(
    dir: &Path,
    name: &str,
    source: &mut dyn InstructionSource,
    instructions: u64,
    cost: &mut SetupCost,
) -> std::io::Result<TraceInput> {
    let path = dir.join(format!("{name}.trc"));
    let mut w = CompactTraceWriter::new(BufWriter::new(File::create(&path)?))?;
    let mut batch: Vec<InstructionRecord> = Vec::with_capacity(BATCH);
    let mut left = instructions;
    while left > 0 {
        let n = left.min(BATCH as u64);
        let t = Instant::now();
        batch.clear();
        batch.extend((0..n).map_while(|_| source.next_instruction_opt()));
        let t_gen = t.elapsed();
        for r in &batch {
            w.write(r)?;
        }
        cost.gen_ns += t_gen.as_nanos() as u64;
        cost.write_ns += (t.elapsed() - t_gen).as_nanos() as u64;
        left -= n;
    }
    let written = w.written();
    let t = Instant::now();
    w.into_inner()?.flush()?;
    cost.write_ns += t.elapsed().as_nanos() as u64;
    let bytes = std::fs::metadata(&path)?.len();
    cost.instructions += written;
    cost.bytes += bytes;
    Ok(TraceInput { name: name.to_string(), path, instructions: written })
}

/// Writes each spec as its own trace of `instructions` records.
pub fn write_sweep_inputs(
    dir: &Path,
    seed: u64,
    instructions: u64,
    cost: &mut SetupCost,
) -> std::io::Result<Vec<TraceInput>> {
    sweep_specs(seed)
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let mut w = spec.build().map_err(std::io::Error::other)?;
            cost.gen_ns += t.elapsed().as_nanos() as u64;
            write_trace(dir, &spec.name, &mut w, instructions, cost)
        })
        .collect()
}

/// Writes the phased specs round-robin with a `quantum`-instruction time
/// slice as one trace named `phased`.
pub fn write_phased_input(
    dir: &Path,
    seed: u64,
    instructions: u64,
    quantum: u64,
    cost: &mut SetupCost,
) -> std::io::Result<TraceInput> {
    let t = Instant::now();
    let procs = phased_specs(seed)
        .iter()
        .map(|s| s.build().map(|w| Box::new(w) as Box<dyn InstructionSource>))
        .collect::<Result<Vec<_>, _>>()
        .map_err(std::io::Error::other)?;
    let mut sliced = TimeSliced::new(procs, quantum);
    cost.gen_ns += t.elapsed().as_nanos() as u64;
    write_trace(dir, "phased", &mut sliced, instructions, cost)
}

/// Opens a trace for streaming exactly as `tlc sweep --trace` does.
pub fn open(input: &TraceInput) -> Result<TraceReader<BufReader<File>>, String> {
    let file = File::open(&input.path).map_err(|e| format!("{}: {e}", input.path.display()))?;
    TraceReader::new(BufReader::new(file), input.name.clone())
        .map_err(|e| format!("{}: {e}", input.path.display()))
}

/// An instruction source that decodes its `TraceReader` ahead in
/// batches, each inside a `trace.compact.decode` span, so the consumer's
/// own span keeps only the consumer's time. It hands out exactly the
/// reader's records in order, with the reader's name.
pub struct Decoded<'a, R: Read> {
    reader: TraceReader<R>,
    buf: Vec<InstructionRecord>,
    pos: usize,
    ledger: &'a Ledger,
}

impl<'a, R: Read + Send> Decoded<'a, R> {
    /// Wraps `reader`, recording decode spans and counts in `ledger`.
    pub fn new(reader: TraceReader<R>, ledger: &'a Ledger) -> Self {
        Decoded { reader, buf: Vec::with_capacity(BATCH), pos: 0, ledger }
    }

    /// The wrapped reader (for its parked decode error).
    pub fn reader_mut(&mut self) -> &mut TraceReader<R> {
        &mut self.reader
    }

    fn refill(&mut self) {
        let (reader, buf) = (&mut self.reader, &mut self.buf);
        let offset0 = reader.byte_offset();
        self.ledger.span("trace.compact.decode", || {
            buf.clear();
            while buf.len() < BATCH {
                match reader.try_next() {
                    Ok(Some(r)) => buf.push(r),
                    _ => break,
                }
            }
        });
        self.ledger.count("trace.compact.decode", self.buf.len() as u64);
        self.ledger.count("trace.compact.decode_bytes", reader.byte_offset() - offset0);
        self.pos = 0;
    }
}

impl<R: Read + Send> InstructionSource for Decoded<'_, R> {
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord> {
        if self.pos == self.buf.len() {
            self.refill();
        }
        let r = self.buf.get(self.pos).copied();
        self.pos += 1;
        r
    }

    fn source_name(&self) -> &str {
        self.reader.source_name()
    }
}

/// A fresh directory for one test's inputs under `benchmark/out/`.
#[cfg(test)]
pub fn test_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_decoded_matches_reader() {
        let dir = test_dir("inputs");
        let mut cost = SetupCost::default();
        let a = write_sweep_inputs(&dir, 7, 20_000, &mut cost).unwrap();
        let first = std::fs::read(&a[1].path).unwrap();
        let b = write_sweep_inputs(&dir, 7, 20_000, &mut cost).unwrap();
        assert_eq!(first, std::fs::read(&b[1].path).unwrap(), "seeded inputs repeat");
        assert_eq!(cost.instructions, 80_000);
        let c = write_sweep_inputs(&dir, 8, 20_000, &mut cost).unwrap();
        assert_ne!(first, std::fs::read(&c[1].path).unwrap(), "the seed reaches the inputs");

        let ledger = Ledger::default();
        let mut plain = open(&c[1]).unwrap();
        let mut batched = Decoded::new(open(&c[1]).unwrap(), &ledger);
        let mut n = 0u64;
        while let Some(r) = plain.next_instruction_opt() {
            assert_eq!(Some(r), batched.next_instruction_opt());
            n += 1;
        }
        assert_eq!(batched.next_instruction_opt(), None);
        assert_eq!(n, 20_000);
        assert_eq!(ledger.units("trace.compact.decode"), 20_000);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
