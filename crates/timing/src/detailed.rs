//! Transistor-level access-time model in the full Wilton–Jouppi / CACTI
//! 1.0 style.
//!
//! The default [`TimingModel`](crate::TimingModel) uses calibrated stage
//! constants; this module rebuilds each stage from device physics the way
//! WRL TR 93/5 does:
//!
//! * every stage is an RC problem: the driving transistor's on-resistance
//!   against the gate/diffusion/wire capacitance it must move;
//! * stage delays come from Horowitz's approximation, which accounts for
//!   the finite input ramp of the previous stage;
//! * the decoder is a driver → NAND → NOR chain whose fan-in grows with
//!   the array; wordlines and bitlines are distributed RC lines whose
//!   length follows the array organisation; the comparator is a
//!   precharged XOR rail; set-associative reads pay a comparator-driven
//!   output-mux stage.
//!
//! Device constants approximate a 0.8µm CMOS process (the paper's
//! reference technology); the paper's 0.5µm operating point is the usual
//! ×0.5 linear scale. Absolute nanoseconds are *not* the point — the
//! structural model exists so organisation-dependent effects (how delay
//! moves with Ndwl/Ndbl/Nspd, associativity, and cell size) can be
//! studied against the calibrated model; the `timingmodels` exhibit and
//! the cross-model tests below do exactly that.

use crate::model::{CacheTiming, TimingBreakdown};
use serde::{Deserialize, Serialize};
use tlc_area::{ArrayOrg, CacheGeometry, CellKind};

/// Device and layout constants, 0.8µm-class CMOS.
///
/// Units: resistance Ω, capacitance fF, length µm, time ns
/// (RC of Ω·fF = 1e-6 ns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    /// On-resistance of a unit (1µm-wide) NMOS device, Ω·µm.
    pub r_nmos_on: f64,
    /// On-resistance of a unit PMOS device, Ω·µm.
    pub r_pmos_on: f64,
    /// Gate capacitance per µm of transistor width, fF/µm.
    pub c_gate: f64,
    /// Drain-diffusion capacitance per µm of width, fF/µm.
    pub c_diff: f64,
    /// Metal wire capacitance per µm of length, fF/µm.
    pub c_metal: f64,
    /// Metal wire resistance per µm of length, Ω/µm.
    pub r_metal: f64,
    /// SRAM cell width, µm (wordline runs across it).
    pub cell_width: f64,
    /// SRAM cell height, µm (bitline runs along it).
    pub cell_height: f64,
    /// Pass-transistor width inside the cell, µm.
    pub cell_pass_width: f64,
    /// Wordline-driver transistor width, µm.
    pub wordline_driver_width: f64,
    /// Decoder-gate transistor width, µm.
    pub decoder_gate_width: f64,
    /// Sense-amplifier fixed delay, ns (a tuned analog block in every
    /// generation of this model, CACTI included).
    pub sense_amp_delay: f64,
    /// Bitline voltage-swing fraction needed before sensing (differential
    /// sensing needs only a small swing).
    pub bitline_swing: f64,
    /// Comparator transistor width, µm.
    pub comparator_width: f64,
    /// Output-driver width, µm.
    pub output_driver_width: f64,
    /// Output bus capacitance, fF.
    pub output_bus_cap: f64,
    /// Delay of a repeated (buffered) global wire, ns per µm. Long
    /// routes to distributed subarrays are driven through repeaters, so
    /// their delay is linear in length rather than quadratic.
    pub repeated_wire_ns_per_um: f64,
    /// Length of the route segment the address driver itself must charge
    /// before the first repeater, µm.
    pub first_wire_segment_um: f64,
    /// Linear technology scale on all delays (0.5 = the paper's 0.5µm).
    pub scale: f64,
}

impl DeviceParams {
    /// 0.8µm-class reference constants.
    pub fn cmos_0_8um() -> Self {
        DeviceParams {
            r_nmos_on: 9_700.0,
            r_pmos_on: 22_400.0,
            c_gate: 1.95,
            c_diff: 1.25,
            c_metal: 0.275,
            r_metal: 0.08,
            cell_width: 8.0,
            cell_height: 16.0,
            cell_pass_width: 1.0,
            wordline_driver_width: 60.0,
            decoder_gate_width: 10.0,
            sense_amp_delay: 0.58,
            bitline_swing: 0.20,
            comparator_width: 20.0,
            output_driver_width: 100.0,
            output_bus_cap: 500.0,
            repeated_wire_ns_per_um: 1.2e-4,
            first_wire_segment_um: 1_000.0,
            scale: 1.0,
        }
    }

    /// The paper's 0.5µm operating point (×0.5 on all delays, §2.3).
    pub fn paper_0_5um() -> Self {
        DeviceParams { scale: 0.5, ..Self::cmos_0_8um() }
    }
}

impl Default for DeviceParams {
    fn default() -> Self {
        Self::paper_0_5um()
    }
}

/// Horowitz's delay approximation for a stage with time constant `tf`
/// (ns), input rise time `input_ramp` (ns), switching at threshold
/// fraction `vth`.
///
/// `delay = tf · sqrt( ln(vth)² + 2·ramp·(1−vth)/tf )` — CACTI 1.0's
/// equation 10 restated; reduces to `tf·|ln(vth)|` for a step input.
pub fn horowitz(tf: f64, input_ramp: f64, vth: f64) -> f64 {
    debug_assert!(tf > 0.0 && (0.0..1.0).contains(&vth));
    let a = (vth.ln()).powi(2);
    let b = 2.0 * input_ramp * (1.0 - vth) / tf;
    tf * (a + b.max(0.0)).sqrt()
}

/// Per-stage result: delay plus the ramp it hands the next stage.
#[derive(Debug, Clone, Copy)]
struct Stage {
    delay: f64,
    ramp: f64,
}

/// Transistor-level timing model. Mirrors the
/// [`TimingModel`](crate::TimingModel) API.
///
/// # Examples
///
/// ```
/// use tlc_area::{CacheGeometry, CellKind};
/// use tlc_timing::DetailedTimingModel;
///
/// let m = DetailedTimingModel::paper();
/// let t = m.optimal(&CacheGeometry::paper(8 * 1024, 1), CellKind::SinglePorted);
/// assert!(t.cycle_ns > t.access_ns);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DetailedTimingModel {
    dev: DeviceParams,
}

impl DetailedTimingModel {
    /// Model at the paper's 0.5µm operating point.
    pub fn paper() -> Self {
        DetailedTimingModel { dev: DeviceParams::paper_0_5um() }
    }

    /// The device parameters in use.
    pub fn devices(&self) -> &DeviceParams {
        &self.dev
    }

    /// RC in ns from Ω and fF.
    fn rc(r_ohm: f64, c_ff: f64) -> f64 {
        r_ohm * c_ff * 1e-6
    }

    /// Decoder chain: address driver → NAND3 predecode → NOR row gate.
    /// Fan-out grows with rows; routing to distributed subarrays loads
    /// the driver.
    fn decoder(&self, rows: f64, subarrays: f64, wire_um: f64) -> Stage {
        let d = &self.dev;
        // Stage 1: address driver charges the first wire segment and the
        // predecode gates; the rest of the route is a repeated wire with
        // linear delay (long unbuffered RC would be quadratic and absurd
        // at centimetre-class 0.8µm array sizes).
        let seg = wire_um.min(d.first_wire_segment_um);
        let r1 = d.r_nmos_on / d.decoder_gate_width;
        let c1 = subarrays * 2.0 * d.c_gate * d.decoder_gate_width
            + seg * d.c_metal
            + d.c_diff * d.decoder_gate_width;
        let repeated = (wire_um - seg).max(0.0) * d.repeated_wire_ns_per_um;
        let s1 = horowitz(Self::rc(r1 + seg * d.r_metal / 2.0, c1), 0.2, 0.5) + repeated;
        // Stage 2: NAND3 predecode drives the row-gate inputs; fan-out
        // grows logarithmically with the row count (wider predecode).
        let fan = (rows.max(2.0)).log2() / 3.0;
        let r2 = 3.0 * d.r_nmos_on / d.decoder_gate_width; // series stack of 3
        let c2 = (1.0 + fan) * 2.0 * d.c_gate * d.decoder_gate_width;
        let s2 = horowitz(Self::rc(r2, c2), s1, 0.5);
        // Stage 3: NOR row gate drives the wordline driver's input.
        let r3 = d.r_pmos_on / d.decoder_gate_width;
        let c3 = d.c_gate * d.wordline_driver_width + d.c_diff * d.decoder_gate_width;
        let s3 = horowitz(Self::rc(r3, c3), s2, 0.5);
        Stage { delay: s1 + s2 + s3, ramp: s3 }
    }

    /// Wordline: the driver charges a distributed RC line crossing
    /// `cols` cells, each hanging two pass-gate loads.
    fn wordline(&self, cols: f64, cell: CellKind, ramp_in: f64) -> Stage {
        let d = &self.dev;
        let wf = cell.wire_factor();
        let len = cols * d.cell_width * wf;
        let c_line = len * d.c_metal + cols * 2.0 * d.c_gate * d.cell_pass_width;
        let r_drv = d.r_pmos_on / d.wordline_driver_width;
        // Distributed line: driver R sees full C; line R sees C/2.
        let tf = Self::rc(r_drv, c_line) + Self::rc(len * d.r_metal, c_line / 2.0);
        let s = horowitz(tf, ramp_in, 0.5);
        Stage { delay: s, ramp: s }
    }

    /// Bitline: the cell's pass transistor discharges a line of `rows`
    /// cells' diffusion plus wire, to the sensing swing.
    fn bitline(&self, rows: f64, cell: CellKind, ramp_in: f64) -> Stage {
        let d = &self.dev;
        let wf = cell.wire_factor();
        let len = rows * d.cell_height * wf;
        let c_line = len * d.c_metal + rows * d.c_diff * d.cell_pass_width;
        let r_cell = d.r_nmos_on / d.cell_pass_width; // pass gate + driver stack
        let tf = Self::rc(2.0 * r_cell, c_line) + Self::rc(len * d.r_metal, c_line / 2.0);
        // Only a small differential swing is needed before the sense amp
        // fires: threshold = 1 - swing.
        let s = horowitz(tf, ramp_in, 1.0 - d.bitline_swing);
        Stage { delay: s, ramp: s }
    }

    /// Comparator: precharged XOR rail over the tag bits.
    fn comparator(&self, tag_bits: f64, ramp_in: f64) -> Stage {
        let d = &self.dev;
        let r = 2.0 * d.r_nmos_on / d.comparator_width;
        let c = tag_bits * d.c_diff * d.comparator_width + 40.0;
        let s = horowitz(Self::rc(r, c), ramp_in, 0.5);
        Stage { delay: s, ramp: s }
    }

    /// Output (or way-select mux) driver onto the data bus.
    fn output_driver(&self, ramp_in: f64) -> Stage {
        let d = &self.dev;
        let r = d.r_nmos_on / d.output_driver_width;
        let c = d.output_bus_cap + d.c_diff * d.output_driver_width;
        let s = horowitz(Self::rc(r, c), ramp_in, 0.5);
        Stage { delay: s, ramp: s }
    }

    /// Stage delays for `geom` organised as `org` with `cell` cells.
    ///
    /// # Panics
    ///
    /// Panics if `org` is not valid for `geom`.
    pub fn analyze(&self, geom: &CacheGeometry, org: &ArrayOrg, cell: CellKind) -> TimingBreakdown {
        assert!(org.is_valid_for(geom), "organisation {org} invalid for {geom}");
        let d = &self.dev;

        let d_rows = org.data_rows(geom);
        let d_cols = org.data_cols(geom);
        let t_rows = org.tag_rows(geom);
        let t_cols = org.tag_cols(geom);

        // Routing distance to the distributed subarray decoders: half the
        // edge of the tiled array (an H-tree reaches every subarray in
        // about that length).
        let route = |subarrays: f64, rows: f64, cols: f64| {
            (subarrays * rows * d.cell_height * cols * d.cell_width).sqrt() / 2.0
        };

        let dec_d = self.decoder(
            d_rows,
            org.data_subarrays() as f64,
            route(org.data_subarrays() as f64, d_rows, d_cols),
        );
        let wl_d = self.wordline(d_cols, cell, dec_d.ramp);
        let bl_d = self.bitline(d_rows, cell, wl_d.ramp);

        let dec_t = self.decoder(
            t_rows,
            org.tag_subarrays() as f64,
            route(org.tag_subarrays() as f64, t_rows, t_cols),
        );
        let wl_t = self.wordline(t_cols, cell, dec_t.ramp);
        let bl_t = self.bitline(t_rows, cell, wl_t.ramp);

        let cmp = self.comparator(geom.tag_bits() as f64, d.sense_amp_delay);
        let mux = if geom.ways > 1 { self.output_driver(cmp.ramp).delay } else { 0.0 };
        let out = self.output_driver(0.3).delay;

        // Precharge: restore the bitline's full swing through the
        // precharge PMOS.
        let len = d_rows * d.cell_height * cell.wire_factor();
        let c_line = len * d.c_metal + d_rows * d.c_diff * d.cell_pass_width;
        let precharge =
            0.45 + horowitz(Self::rc(d.r_pmos_on / d.wordline_driver_width, c_line), 0.2, 0.5);

        let s = d.scale;
        TimingBreakdown {
            data_decode: dec_d.delay * s,
            data_wordline: wl_d.delay * s,
            data_bitline: bl_d.delay * s,
            tag_decode: dec_t.delay * s,
            tag_wordline: wl_t.delay * s,
            tag_bitline: bl_t.delay * s,
            sense: d.sense_amp_delay * s,
            compare: cmp.delay * s,
            mux: mux * s,
            output: out * s,
            precharge: precharge * s,
        }
    }

    /// Organisation search for the fastest layout (same policy as the
    /// calibrated model: minimum cycle, near-ties to fewer subarrays).
    pub fn optimal(&self, geom: &CacheGeometry, cell: CellKind) -> CacheTiming {
        let mut best: Option<CacheTiming> = None;
        for org in crate::model::candidate_orgs(geom) {
            let b = self.analyze(geom, &org, cell);
            let cand =
                CacheTiming { access_ns: b.access_ns(), cycle_ns: b.cycle_ns(), org, breakdown: b };
            let subarrays = |t: &CacheTiming| t.org.data_subarrays() + t.org.tag_subarrays();
            let better = match &best {
                None => true,
                Some(cur) => {
                    cand.cycle_ns < cur.cycle_ns - 5e-3
                        || ((cand.cycle_ns - cur.cycle_ns).abs() <= 5e-3
                            && (subarrays(&cand) < subarrays(cur)
                                || (subarrays(&cand) == subarrays(cur)
                                    && cand.access_ns < cur.access_ns)))
                }
            };
            if better {
                best = Some(cand);
            }
        }
        best.expect("at least the unit organisation is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimingModel;

    fn dm(kb: u64) -> CacheGeometry {
        CacheGeometry::paper(kb * 1024, 1)
    }

    #[test]
    fn horowitz_reduces_to_log_for_step_input() {
        let tf = 1.0;
        let step = horowitz(tf, 0.0, 0.5);
        assert!((step - 0.5f64.ln().abs()).abs() < 1e-12);
        // Slower input ramps increase the delay.
        assert!(horowitz(tf, 1.0, 0.5) > step);
    }

    #[test]
    fn cycle_exceeds_access_and_grows_with_size() {
        let m = DetailedTimingModel::paper();
        let mut last = 0.0;
        for kb in [1u64, 4, 16, 64, 256] {
            let t = m.optimal(&dm(kb), CellKind::SinglePorted);
            assert!(t.cycle_ns > t.access_ns, "{kb}KB");
            assert!(t.cycle_ns >= last - 1e-9, "{kb}KB not monotone");
            assert!(t.cycle_ns > 0.5 && t.cycle_ns < 30.0, "{kb}KB implausible: {}", t.cycle_ns);
            last = t.cycle_ns;
        }
    }

    #[test]
    fn spread_is_structurally_plausible() {
        // The calibrated model reproduces the paper's 1.8× exactly; the
        // transistor-level model, charging honest wire lengths for
        // centimetre-class 0.8µm arrays, comes out steeper. Both must
        // grow, and the structural spread must stay within a plausible
        // band of the paper's.
        let m = DetailedTimingModel::paper();
        let small = m.optimal(&dm(1), CellKind::SinglePorted).cycle_ns;
        let large = m.optimal(&dm(256), CellKind::SinglePorted).cycle_ns;
        let ratio = large / small;
        assert!((1.3..4.0).contains(&ratio), "spread {ratio:.2}");
    }

    #[test]
    fn set_associative_pays_the_mux() {
        let m = DetailedTimingModel::paper();
        for kb in [16u64, 64] {
            let t_dm = m.optimal(&CacheGeometry::paper(kb * 1024, 1), CellKind::SinglePorted);
            let t_sa = m.optimal(&CacheGeometry::paper(kb * 1024, 4), CellKind::SinglePorted);
            assert!(t_sa.access_ns > t_dm.access_ns, "{kb}KB");
        }
    }

    #[test]
    fn dual_ported_cells_are_slower() {
        let m = DetailedTimingModel::paper();
        let g = dm(8);
        let s = m.optimal(&g, CellKind::SinglePorted).cycle_ns;
        let d = m.optimal(&g, CellKind::DualPorted).cycle_ns;
        assert!(d > s);
    }

    #[test]
    fn agrees_with_calibrated_model_on_size_ordering() {
        // The two models must rank cache sizes identically (and nearly
        // proportionally) even though their absolute values differ.
        let detailed = DetailedTimingModel::paper();
        let simple = TimingModel::paper();
        let sizes = [1u64, 2, 4, 8, 16, 32, 64, 128, 256];
        let dv: Vec<f64> = sizes
            .iter()
            .map(|&kb| detailed.optimal(&dm(kb), CellKind::SinglePorted).cycle_ns)
            .collect();
        let sv: Vec<f64> = sizes
            .iter()
            .map(|&kb| simple.optimal(&dm(kb), CellKind::SinglePorted).cycle_ns)
            .collect();
        for i in 1..sizes.len() {
            assert!(
                (dv[i] >= dv[i - 1] - 1e-9) == (sv[i] >= sv[i - 1] - 1e-9),
                "models disagree on ordering at {}KB",
                sizes[i]
            );
        }
        // Pearson correlation of the two curves should be very high.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (md, ms) = (mean(&dv), mean(&sv));
        let cov: f64 = dv.iter().zip(&sv).map(|(a, b)| (a - md) * (b - ms)).sum();
        let sd = |v: &[f64], m: f64| v.iter().map(|a| (a - m).powi(2)).sum::<f64>().sqrt();
        let corr = cov / (sd(&dv, md) * sd(&sv, ms));
        assert!(corr > 0.95, "model correlation only {corr:.3}");
    }

    #[test]
    fn organisation_search_beats_monolithic_for_big_arrays() {
        let m = DetailedTimingModel::paper();
        let g = dm(256);
        let unit = m.analyze(&g, &ArrayOrg::UNIT, CellKind::SinglePorted).cycle_ns();
        let best = m.optimal(&g, CellKind::SinglePorted).cycle_ns;
        assert!(best < unit / 1.5, "search {best:.2} vs monolithic {unit:.2}");
    }

    #[test]
    #[should_panic(expected = "invalid for")]
    fn rejects_invalid_org() {
        let m = DetailedTimingModel::paper();
        let bad = ArrayOrg { ndbl: 256, ..ArrayOrg::UNIT };
        let _ = m.analyze(&dm(1), &bad, CellKind::SinglePorted);
    }
}
