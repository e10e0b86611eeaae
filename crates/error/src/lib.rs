//! Behavioural error analysis of approximate arithmetic circuits.
//!
//! Computes the error metrics used throughout the ApproxFPGAs reproduction,
//! most importantly the paper's **MED** — the mean absolute error distance
//! normalized by the maximum output value — plus worst-case error, mean
//! relative error, error probability, MSE and signed bias.
//!
//! Evaluation is exhaustive for small operand widths (all `2^(2w)` input
//! pairs) and switches to a deterministic stratified sample for wide
//! operands, mirroring how behavioural models of 12/16-bit circuits are
//! evaluated in practice.
//!
//! # Example
//!
//! ```
//! use afp_circuits::adders::{loa, ripple_carry};
//! use afp_error::{analyze, ErrorConfig};
//!
//! let cfg = ErrorConfig::default();
//! let exact = analyze(&ripple_carry(8), &cfg);
//! assert_eq!(exact.wce, 0);
//! assert_eq!(exact.med, 0.0);
//!
//! let approx = analyze(&loa(8, 4), &cfg);
//! assert!(approx.med > 0.0);
//! assert!(approx.wce > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use afp_circuits::{ArithCircuit, ArithKind, BatchEvaluator};
use afp_netlist::{SimTape, LANES};
use afp_runtime::{Counters, Runtime};

/// Configuration for [`analyze`].
#[derive(Clone, Debug)]
pub struct ErrorConfig {
    /// Evaluate exhaustively when the total input width `2w` does not
    /// exceed this many bits (default 16, i.e. 8-bit operands).
    pub max_exhaustive_bits: usize,
    /// Sample size for the stratified evaluation of wider circuits.
    pub samples: usize,
    /// Seed for the sampled strata.
    pub seed: u64,
}

impl Default for ErrorConfig {
    fn default() -> ErrorConfig {
        ErrorConfig {
            max_exhaustive_bits: 16,
            samples: 1 << 16,
            seed: 0xE44_0001,
        }
    }
}

impl afp_runtime::Fingerprint for ErrorConfig {
    fn fingerprint(&self, h: &mut afp_runtime::StableHasher) {
        h.write_str("error-config");
        h.write_usize(self.max_exhaustive_bits);
        h.write_usize(self.samples);
        h.write_u64(self.seed);
    }
}

/// Error metrics of one circuit against its golden function.
///
/// All means are over the evaluated input set (exhaustive or sampled, see
/// [`ErrorMetrics::samples`] and [`ErrorMetrics::exhaustive`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorMetrics {
    /// Number of input pairs evaluated.
    pub samples: u64,
    /// Whether the evaluation covered every input pair.
    pub exhaustive: bool,
    /// The paper's MED: mean absolute error / maximum output value.
    pub med: f64,
    /// Mean absolute error (unnormalized).
    pub mae: f64,
    /// Worst-case absolute error observed.
    pub wce: u64,
    /// Worst-case error / maximum output value.
    pub wce_rel: f64,
    /// Mean relative error `|err| / exact`, over pairs with `exact != 0`.
    pub mre: f64,
    /// Fraction of input pairs with a non-zero error.
    pub error_prob: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Mean signed error (negative = the circuit under-estimates).
    pub bias: f64,
}

impl ErrorMetrics {
    /// Metrics of a perfectly exact circuit over `samples` pairs.
    pub fn zero(samples: u64, exhaustive: bool) -> ErrorMetrics {
        ErrorMetrics {
            samples,
            exhaustive,
            med: 0.0,
            mae: 0.0,
            wce: 0,
            wce_rel: 0.0,
            mre: 0.0,
            error_prob: 0.0,
            mse: 0.0,
            bias: 0.0,
        }
    }

    /// True if no error was observed on any evaluated pair.
    pub fn is_exact(&self) -> bool {
        self.wce == 0
    }
}

/// Analyze `circuit` against its golden function under `config`.
///
/// Exhaustive when `2 * width <= config.max_exhaustive_bits`, otherwise a
/// deterministic stratified sample of `config.samples` pairs: one third
/// uniform, one third with a short operand (exercising low-magnitude
/// behaviour), one third near the operand maximum (exercising long carry
/// chains), plus the four corner pairs.
pub fn analyze(circuit: &ArithCircuit, config: &ErrorConfig) -> ErrorMetrics {
    analyze_with(circuit, config, &Runtime::serial())
}

/// Pairs per parallel block. Fixed (never derived from the thread count),
/// so the partition — and with it every reduction order — is a pure
/// function of the input and the result is identical for any parallelism.
pub const BLOCK_PAIRS: usize = 4096;

/// [`analyze`] on an explicit [`Runtime`].
///
/// The input space is split into fixed-size blocks evaluated in parallel;
/// per-block partial sums use exact integer arithmetic and are merged in
/// block order, so the metrics are bit-identical for any thread count.
///
/// # Panics
///
/// Panics if the circuit's operands are wider than 32 bits.
pub fn analyze_with(circuit: &ArithCircuit, config: &ErrorConfig, rt: &Runtime) -> ErrorMetrics {
    let (kind, w) = (circuit.kind(), circuit.width());
    let mut total = ErrorFold::new(kind, w);
    let exhaustive = 2 * w <= config.max_exhaustive_bits;
    // Lower the netlist once; every block worker shares the same tape.
    let tape = SimTape::compile(circuit.netlist());
    let partials: Vec<ErrorFold> = if exhaustive {
        let mask = (1u64 << w) - 1;
        // Blocks are ranges of `a` rows; each row is `mask + 1` pairs.
        let rows_per_block = (BLOCK_PAIRS >> w).max(1) as u64;
        let row_starts: Vec<u64> = (0..=mask).step_by(rows_per_block as usize).collect();
        rt.par_map(&row_starts, |_, &a_start| {
            let a_end = (a_start + rows_per_block - 1).min(mask);
            let mut fold = ErrorFold::new(kind, w);
            let mut batch = BatchEvaluator::with_tape(circuit, &tape);
            let mut got: Vec<u64> = Vec::with_capacity(LANES);
            // The block's pairs are the consecutive pair indices
            // `a_start·2^w .. (a_end+1)·2^w` in the row-major order
            // `p = (a << w) | b`.
            let start = a_start << w;
            let end = (a_end + 1) << w;
            let mut p = start;
            while p < end {
                let n = ((end - p) as usize).min(LANES);
                got.clear();
                batch.eval_exhaustive_block_into(p, n, &mut got);
                fold.push_exhaustive(p, &got);
                p += n as u64;
            }
            Counters::add(&rt.counters().sim_tape_reuses, 1);
            record_bytes(rt, &fold);
            fold
        })
    } else {
        let pairs = stratified_pairs(w, config.samples, config.seed);
        let blocks: Vec<&[(u64, u64)]> = pairs.chunks(BLOCK_PAIRS).collect();
        rt.par_map(&blocks, |_, block| {
            let mut fold = ErrorFold::new(kind, w);
            let mut batch = BatchEvaluator::with_tape(circuit, &tape);
            let mut got: Vec<u64> = Vec::with_capacity(LANES);
            for chunk in block.chunks(LANES) {
                got.clear();
                if chunk.len() <= 64 {
                    batch.eval_chunk_into(chunk, &mut got);
                } else {
                    batch.eval_block_into(chunk, &mut got);
                }
                fold.push_pairs(chunk, &got);
            }
            Counters::add(&rt.counters().sim_tape_reuses, 1);
            record_bytes(rt, &fold);
            fold
        })
    };
    for p in &partials {
        total.merge(p);
    }
    total.finish(exhaustive)
}

fn record_bytes(rt: &Runtime, fold: &ErrorFold) {
    // 16 bytes of operand data per evaluated pair.
    Counters::add(&rt.counters().bytes_simulated, fold.sums.n * 16);
}

/// The deterministic stratified sample used for wide circuits.
pub fn stratified_pairs(width: usize, samples: usize, seed: u64) -> Vec<(u64, u64)> {
    let mask = (1u64 << width) - 1;
    let mut pairs = Vec::with_capacity(samples + 4);
    pairs.extend_from_slice(&[(0, 0), (mask, mask), (0, mask), (mask, 0)]);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let third = samples / 3;
    for _ in 0..third {
        let v = next();
        pairs.push((v & mask, (v >> 32) & mask));
    }
    // Low-magnitude stratum: one operand confined to the low half bits.
    let low_mask = (1u64 << (width / 2)) - 1;
    for _ in 0..third {
        let v = next();
        pairs.push((v & low_mask, (v >> 32) & mask));
    }
    // Long-carry stratum: operands near the maximum.
    for _ in 0..(samples - 2 * third) {
        let v = next();
        pairs.push((mask - (v & low_mask), mask - ((v >> 32) & low_mask)));
    }
    pairs
}

/// The error fold: partial error sums over a run of input pairs, fed one
/// simulated chunk of at most [`LANES`] pairs at a time.
///
/// The absolute, signed and squared error sums are exact integers, so
/// merging folds is associative and the integer metrics do not depend on
/// how the input space was partitioned. Only the relative-error sum is
/// fractional: it adds each pair's `|err| / exact` in enumeration order,
/// exactly as a per-pair loop would, and folds merge in a fixed order, so
/// it is deterministic for any thread count.
///
/// Golden outputs are generated per chunk and folded without a branch per
/// pair. Circuits with at most 16 output bits fold in 32-bit lanes (every
/// per-pair quantity fits, so the loop vectorizes); wider ones fold in
/// 64-bit lanes with `i128` signed errors, correct up to 64 output bits.
///
/// # Example
///
/// ```
/// use afp_circuits::{multipliers, BatchEvaluator};
/// use afp_error::{analyze, ErrorConfig, ErrorFold};
///
/// let c = multipliers::truncated(4, 2);
/// let pairs: Vec<(u64, u64)> = (0..16).flat_map(|a| (0..16).map(move |b| (a, b))).collect();
/// let got = BatchEvaluator::new(&c).eval_pairs(&pairs);
/// let mut fold = ErrorFold::new(c.kind(), c.width());
/// fold.push_pairs(&pairs, &got);
/// assert_eq!(fold.finish(true), analyze(&c, &ErrorConfig::default()));
/// ```
#[derive(Debug)]
pub struct ErrorFold {
    kind: ArithKind,
    width: usize,
    max_out: f64,
    /// At most 16 output bits: fold in 32-bit lanes.
    narrow: bool,
    sums: Sums,
    /// Golden outputs of the chunk being folded.
    exact: Vec<u64>,
}

/// The mergeable state of an [`ErrorFold`].
#[derive(Debug, Default)]
struct Sums {
    n: u64,
    sum_abs: u128,
    sum_signed: i128,
    /// Σ|err|² as the sums of each square's high and low 64-bit halves,
    /// which cannot overflow even for 64-bit errors.
    sum_sq_hi: u128,
    sum_sq_lo: u128,
    wce: u64,
    nonzero: u64,
    sum_rel: f64,
    rel_n: u64,
}

impl ErrorFold {
    /// An empty fold for circuits computing `kind` on `width`-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if `width > 32`.
    pub fn new(kind: ArithKind, width: usize) -> ErrorFold {
        assert!(width <= 32, "operand width limited to 32 bits");
        ErrorFold {
            kind,
            width,
            max_out: kind.max_output(width) as f64,
            narrow: kind.out_width(width) <= 16,
            sums: Sums::default(),
            exact: Vec::with_capacity(LANES),
        }
    }

    /// Fold the outputs `got` of the consecutive exhaustive pairs
    /// `start..start + got.len()`, where pair index `p` encodes the
    /// operands `(p >> width, p & (2^width - 1))`.
    ///
    /// # Panics
    ///
    /// Panics if `got.len() > LANES`.
    pub fn push_exhaustive(&mut self, start: u64, got: &[u64]) {
        let w = self.width;
        let mask = (1u64 << w) - 1;
        let pairs = (start..start + got.len() as u64).map(|p| (p >> w, p & mask));
        golden(self.kind, pairs, &mut self.exact);
        self.fold_chunk(got);
    }

    /// Fold the outputs `got` of `pairs`, whose operands must fit in the
    /// fold's width.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or exceed [`LANES`].
    pub fn push_pairs(&mut self, pairs: &[(u64, u64)], got: &[u64]) {
        assert_eq!(pairs.len(), got.len(), "one output per pair");
        let mask = (1u64 << self.width) - 1;
        debug_assert!(
            pairs.iter().all(|&(a, b)| a <= mask && b <= mask),
            "operand out of range"
        );
        golden(self.kind, pairs.iter().copied(), &mut self.exact);
        self.fold_chunk(got);
    }

    /// Fold one chunk against the golden outputs in `self.exact`.
    fn fold_chunk(&mut self, got: &[u64]) {
        assert!(got.len() <= LANES, "a chunk is at most LANES pairs");
        let sums = &mut self.sums;
        sums.n += got.len() as u64;
        let mut rel = [0.0f64; 64];
        // One lane word at a time, so the ordered sum of one overlaps
        // the vectorized fold of the next.
        for (exact, got) in self.exact.chunks(64).zip(got.chunks(64)) {
            let rel = &mut rel[..got.len()];
            if self.narrow {
                fold_narrow(sums, exact, got, rel);
            } else {
                fold_wide(sums, exact, got, rel);
            }
            // The relative errors in enumeration order, exactly as a
            // per-pair fold adds them. Pairs without error or with a zero
            // golden output add +0.0, which leaves the (non-negative)
            // sum's bits unchanged.
            for &q in rel.iter() {
                sums.sum_rel += q;
            }
        }
    }

    /// Add `other`'s sums to this fold; merging in a fixed order keeps
    /// the relative-error sum deterministic.
    pub fn merge(&mut self, other: &ErrorFold) {
        let (s, o) = (&mut self.sums, &other.sums);
        s.n += o.n;
        s.sum_abs += o.sum_abs;
        s.sum_signed += o.sum_signed;
        s.sum_sq_hi += o.sum_sq_hi;
        s.sum_sq_lo += o.sum_sq_lo;
        s.wce = s.wce.max(o.wce);
        s.nonzero += o.nonzero;
        s.sum_rel += o.sum_rel;
        s.rel_n += o.rel_n;
    }

    /// The metrics of every pair folded so far.
    pub fn finish(&self, exhaustive: bool) -> ErrorMetrics {
        let s = &self.sums;
        let n = s.n.max(1) as f64;
        ErrorMetrics {
            samples: s.n,
            exhaustive,
            med: s.sum_abs as f64 / n / self.max_out,
            mae: s.sum_abs as f64 / n,
            wce: s.wce,
            wce_rel: s.wce as f64 / self.max_out,
            mre: s.sum_rel / s.rel_n.max(1) as f64,
            error_prob: s.nonzero as f64 / n,
            mse: s.sum_sq() / n,
            bias: s.sum_signed as f64 / n,
        }
    }
}

impl Sums {
    /// Σ|err|² as `f64`: the correctly rounded value of the exact sum
    /// whenever it fits `u128` (always for outputs of up to 32 bits).
    fn sum_sq(&self) -> f64 {
        let hi = self.sum_sq_hi + (self.sum_sq_lo >> 64);
        let lo = self.sum_sq_lo & u128::from(u64::MAX);
        match hi.checked_mul(1 << 64) {
            Some(high) => (high | lo) as f64,
            None => hi as f64 * 2f64.powi(64) + lo as f64,
        }
    }
}

/// Fold up to 64 pairs with outputs of at most 16 bits into `sums`,
/// writing each pair's relative error to `rel`. `|err| < 2^16`, so the
/// per-call sums fit `i32` (squares `u64`) and the loop vectorizes.
fn fold_narrow(sums: &mut Sums, exact: &[u64], got: &[u64], rel: &mut [f64]) {
    let (mut sum_abs, mut sum_signed, mut sum_sq) = (0i32, 0i32, 0u64);
    let (mut wce, mut nonzero, mut rel_n) = (0i32, 0i32, 0i32);
    for ((&e, &g), q) in exact.iter().zip(got).zip(rel) {
        let (e, g) = (e as i32, g as i32);
        let err = g - e;
        let abs = err.abs();
        sum_abs += abs;
        sum_signed += err;
        sum_sq += abs as u32 as u64 * abs as u32 as u64;
        wce = wce.max(abs);
        // Both are below 2^16: adding 2^16 - 1 carries into bit 16 iff
        // the value is non-zero.
        let (abs_nz, e_nz) = ((abs + 0xFFFF) >> 16, (e + 0xFFFF) >> 16);
        nonzero += abs_nz;
        rel_n += e_nz;
        // |err| / exact, or 0 / 1 = +0.0 where exact = 0.
        *q = (abs & -e_nz) as f64 / (e + 1 - e_nz) as f64;
    }
    sums.sum_abs += sum_abs as u128;
    sums.sum_signed += sum_signed as i128;
    sums.sum_sq_lo += sum_sq as u128;
    sums.wce = sums.wce.max(wce as u64);
    sums.nonzero += nonzero as u64;
    sums.rel_n += rel_n as u64;
}

/// Fold up to 64 pairs with outputs of up to 64 bits into `sums`:
/// signed errors in `i128`, squares split into 64-bit halves.
fn fold_wide(sums: &mut Sums, exact: &[u64], got: &[u64], rel: &mut [f64]) {
    let (mut sum_abs, mut sum_signed) = (0u128, 0i128);
    let (mut sum_sq_hi, mut sum_sq_lo) = (0u128, 0u128);
    let (mut wce, mut nonzero, mut rel_n) = (0u64, 0u64, 0u64);
    for ((&e, &g), q) in exact.iter().zip(got).zip(rel) {
        let abs = g.abs_diff(e);
        sum_abs += abs as u128;
        sum_signed += g as i128 - e as i128;
        let sq = abs as u128 * abs as u128;
        sum_sq_hi += sq >> 64;
        sum_sq_lo += sq as u64 as u128;
        wce = wce.max(abs);
        nonzero += (abs != 0) as u64;
        rel_n += (e != 0) as u64;
        *q = if e != 0 { abs as f64 / e as f64 } else { 0.0 };
    }
    sums.sum_abs += sum_abs;
    sums.sum_signed += sum_signed;
    sums.sum_sq_hi += sum_sq_hi;
    sums.sum_sq_lo += sum_sq_lo;
    sums.wce = sums.wce.max(wce);
    sums.nonzero += nonzero;
    sums.rel_n += rel_n;
}

/// Replace `out` with the golden outputs of `pairs`. Operands are in
/// range by construction, so there is no per-pair check.
fn golden(kind: ArithKind, pairs: impl Iterator<Item = (u64, u64)>, out: &mut Vec<u64>) {
    out.clear();
    match kind {
        ArithKind::Adder => out.extend(pairs.map(|(a, b)| a + b)),
        ArithKind::Multiplier => out.extend(pairs.map(|(a, b)| a * b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuits::adders;
    use afp_circuits::multipliers;
    use afp_netlist::Netlist;

    fn cfg() -> ErrorConfig {
        ErrorConfig::default()
    }

    /// The per-pair fold [`ErrorFold`] replaced, kept as its reference:
    /// one asserting golden call and one branchy update per pair.
    #[derive(Default)]
    struct RefFold {
        n: u64,
        sum_abs: u128,
        sum_signed: i128,
        sum_sq: u128,
        wce: u64,
        nonzero: u64,
        sum_rel: f64,
        rel_n: u64,
    }

    impl RefFold {
        fn push(&mut self, exact: u64, got: u64) {
            let err = got as i64 - exact as i64;
            let abs = err.unsigned_abs();
            self.n += 1;
            self.sum_abs += abs as u128;
            self.sum_signed += err as i128;
            self.sum_sq += (abs as u128) * (abs as u128);
            self.wce = self.wce.max(abs);
            if abs != 0 {
                self.nonzero += 1;
            }
            if exact != 0 {
                self.sum_rel += abs as f64 / exact as f64;
                self.rel_n += 1;
            }
        }

        fn merge(&mut self, other: &RefFold) {
            self.n += other.n;
            self.sum_abs += other.sum_abs;
            self.sum_signed += other.sum_signed;
            self.sum_sq += other.sum_sq;
            self.wce = self.wce.max(other.wce);
            self.nonzero += other.nonzero;
            self.sum_rel += other.sum_rel;
            self.rel_n += other.rel_n;
        }

        fn finish(&self, max_out: f64, exhaustive: bool) -> ErrorMetrics {
            let n = self.n.max(1) as f64;
            ErrorMetrics {
                samples: self.n,
                exhaustive,
                med: self.sum_abs as f64 / n / max_out,
                mae: self.sum_abs as f64 / n,
                wce: self.wce,
                wce_rel: self.wce as f64 / max_out,
                mre: self.sum_rel / self.rel_n.max(1) as f64,
                error_prob: self.nonzero as f64 / n,
                mse: self.sum_sq as f64 / n,
                bias: self.sum_signed as f64 / n,
            }
        }
    }

    /// [`analyze`] through the reference fold: the same pairs, blocks and
    /// merge order, outputs from the scalar (transpose-free) kernel.
    fn reference_analyze(c: &ArithCircuit, config: &ErrorConfig) -> ErrorMetrics {
        let w = c.width();
        let mask = (1u64 << w) - 1;
        let exhaustive = 2 * w <= config.max_exhaustive_bits;
        let (pairs, block): (Vec<(u64, u64)>, usize) = if exhaustive {
            let all = (0..1u64 << (2 * w)).map(|p| (p >> w, p & mask)).collect();
            (all, BLOCK_PAIRS.max(1 << w))
        } else {
            let sample = stratified_pairs(w, config.samples, config.seed);
            (sample, BLOCK_PAIRS)
        };
        let mut batch = BatchEvaluator::new(c);
        let mut got = Vec::new();
        for chunk in pairs.chunks(64) {
            batch.eval_chunk_into(chunk, &mut got);
        }
        let mut total = RefFold::default();
        for (pairs, got) in pairs.chunks(block).zip(got.chunks(block)) {
            let mut part = RefFold::default();
            for (&(a, b), &g) in pairs.iter().zip(got) {
                part.push(c.exact(a, b), g);
            }
            total.merge(&part);
        }
        total.finish(c.kind().max_output(w) as f64, exhaustive)
    }

    fn bits(m: &ErrorMetrics) -> [u64; 9] {
        [
            m.samples,
            m.med.to_bits(),
            m.mae.to_bits(),
            m.wce,
            m.wce_rel.to_bits(),
            m.mre.to_bits(),
            m.error_prob.to_bits(),
            m.mse.to_bits(),
            m.bias.to_bits(),
        ]
    }

    /// A 32×32 "multiplier" that returns operand `a`: 64 output bits, and
    /// errors near 2^64 that overflow 64-bit signed arithmetic.
    fn wire_multiplier_32() -> ArithCircuit {
        let mut n = Netlist::new("wire_mul32");
        let mut outs = n.add_inputs(32);
        let _b = n.add_inputs(32);
        let zero = n.constant(false);
        outs.extend(std::iter::repeat_n(zero, 32));
        n.set_outputs(outs);
        ArithCircuit::new(ArithKind::Multiplier, 32, n)
    }

    #[test]
    fn exact_adder_has_zero_metrics() {
        for c in [
            adders::ripple_carry(8),
            adders::carry_lookahead(8),
            adders::carry_select(8),
        ] {
            let m = analyze(&c, &cfg());
            assert!(m.is_exact(), "{}", c.name());
            assert_eq!(m.samples, 65536);
            assert!(m.exhaustive);
            assert_eq!(m, ErrorMetrics::zero(65536, true));
        }
    }

    #[test]
    fn truncated_adder_med_matches_closed_form() {
        // Truncated adder k=1: both the LSB sum and its carry are lost, so
        // the error on a pair is a0 + b0: mean (0+1+1+2)/4 = 1.0, worst 2.
        let c = adders::truncated(8, 1);
        let m = analyze(&c, &cfg());
        let expected_mae = 1.0;
        assert!((m.mae - expected_mae).abs() < 1e-9, "mae {}", m.mae);
        assert!((m.med - expected_mae / 511.0).abs() < 1e-12);
        assert_eq!(m.wce, 2);
        assert!(m.bias < 0.0, "truncation under-estimates");
    }

    #[test]
    fn loa_error_probability_is_positive_but_partial() {
        let m = analyze(&adders::loa(8, 4), &cfg());
        assert!(m.error_prob > 0.0 && m.error_prob < 1.0);
        assert!(m.wce < 32, "LOA(4) wce bounded: {}", m.wce);
    }

    #[test]
    fn med_increases_with_truncation_level() {
        let mut last = -1.0;
        for k in [0usize, 2, 4, 6] {
            let m = analyze(&adders::truncated(8, k), &cfg());
            assert!(m.med > last, "k={k}: {} <= {last}", m.med);
            last = m.med;
        }
    }

    #[test]
    fn multiplier_truncation_med_grows() {
        let small = analyze(&multipliers::truncated(8, 2), &cfg());
        let large = analyze(&multipliers::truncated(8, 8), &cfg());
        assert!(large.med > small.med);
        assert!(
            large.bias < small.bias,
            "more truncation, more negative bias"
        );
    }

    #[test]
    fn sampled_evaluation_close_to_exhaustive_on_8bit() {
        // Force sampling on an 8-bit circuit and compare with the truth.
        let c = multipliers::broken_array(8, 6, 2);
        let exhaustive = analyze(&c, &cfg());
        let sampled = analyze(
            &c,
            &ErrorConfig {
                max_exhaustive_bits: 8,
                samples: 1 << 14,
                seed: 3,
            },
        );
        assert!(!sampled.exhaustive);
        let rel = (sampled.med - exhaustive.med).abs() / exhaustive.med.max(1e-12);
        assert!(rel < 0.35, "sampled med off by {rel}");
        assert!(sampled.wce <= exhaustive.wce);
    }

    #[test]
    fn wide_circuits_are_sampled() {
        let c = adders::loa(16, 8);
        let m = analyze(&c, &cfg());
        assert!(!m.exhaustive);
        assert_eq!(m.samples, (1 << 16) + 4);
        assert!(m.med > 0.0);
    }

    #[test]
    fn stratified_pairs_are_deterministic_and_in_range() {
        let a = stratified_pairs(12, 1000, 7);
        let b = stratified_pairs(12, 1000, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1004);
        for &(x, y) in &a {
            assert!(x < 4096 && y < 4096);
        }
    }

    #[test]
    fn error_prob_near_one_for_fully_truncated_adder() {
        let m = analyze(&adders::truncated(8, 8), &cfg());
        assert!(m.error_prob > 0.99);
    }

    #[test]
    fn metrics_are_bit_identical_for_any_thread_count() {
        let circuits = [
            multipliers::broken_array(8, 6, 2),
            adders::loa(8, 4),
            adders::loa(16, 8), // exercises the sampled path
        ];
        for c in &circuits {
            let serial = analyze_with(c, &cfg(), &Runtime::serial());
            for threads in [2, 4, 8] {
                let par = Runtime::install(threads, |rt| analyze_with(c, &cfg(), rt));
                assert_eq!(serial, par, "{} at {threads} threads", c.name());
            }
        }
    }

    #[test]
    fn bytes_simulated_counts_sixteen_per_pair() {
        let rt = Runtime::serial();
        let m = analyze_with(&adders::loa(8, 4), &cfg(), &rt);
        assert_eq!(rt.snapshot().bytes_simulated, m.samples * 16);
    }

    #[test]
    fn sixty_four_bit_outputs_fold_without_overflow() {
        let c = wire_multiplier_32();
        let config = ErrorConfig {
            samples: 3000,
            ..cfg()
        };
        let m = analyze(&c, &config);
        // u128/i128 integer sums and an f64 square sum, one block.
        let pairs = stratified_pairs(32, config.samples, config.seed);
        assert!(pairs.len() <= BLOCK_PAIRS);
        let (mut sum_abs, mut sum_signed, mut sum_sq) = (0u128, 0i128, 0f64);
        let (mut wce, mut nonzero, mut sum_rel, mut rel_n) = (0u64, 0u64, 0f64, 0u64);
        for &(a, b) in &pairs {
            let exact = a as u128 * b as u128;
            let err = a as i128 - exact as i128;
            let abs = err.unsigned_abs();
            sum_abs += abs;
            sum_signed += err;
            sum_sq += (abs as f64) * (abs as f64);
            wce = wce.max(abs as u64);
            nonzero += (abs != 0) as u64;
            if exact != 0 {
                sum_rel += abs as u64 as f64 / exact as u64 as f64;
                rel_n += 1;
            }
        }
        let n = pairs.len() as f64;
        assert_eq!(m.samples, pairs.len() as u64);
        assert_eq!(m.mae.to_bits(), (sum_abs as f64 / n).to_bits());
        assert_eq!(
            m.med.to_bits(),
            (sum_abs as f64 / n / u64::MAX as f64).to_bits()
        );
        assert_eq!(m.bias.to_bits(), (sum_signed as f64 / n).to_bits());
        assert_eq!(m.wce, wce);
        assert_eq!(m.error_prob.to_bits(), (nonzero as f64 / n).to_bits());
        assert_eq!(m.mre.to_bits(), (sum_rel / rel_n as f64).to_bits());
        let mse = sum_sq / n;
        assert!((m.mse - mse).abs() <= mse * 1e-12, "mse {} vs {mse}", m.mse);
        // The true bias of returning `a` for `a·b` is about -7.7e18 here.
        assert!(m.bias < -7e18 && m.bias > -8.5e18, "bias {}", m.bias);
    }

    #[test]
    fn block_fold_matches_reference_on_fixed_circuits() {
        let sampled = ErrorConfig {
            max_exhaustive_bits: 8,
            samples: 5000,
            seed: 11,
        };
        let cases = [
            (multipliers::broken_array(8, 6, 2), cfg()),
            (adders::loa(8, 4), cfg()),
            (adders::truncated(8, 8), cfg()),
            (multipliers::wallace_multiplier(4), cfg()),
            (multipliers::broken_array(8, 6, 2), sampled.clone()),
            (adders::loa(16, 8), sampled.clone()),
            (multipliers::truncated(16, 10), sampled),
        ];
        for (c, config) in &cases {
            let want = bits(&reference_analyze(c, config));
            assert_eq!(bits(&analyze(c, config)), want, "{}", c.name());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]
        #[test]
        fn block_fold_matches_reference_bit_for_bit(
            pick in 0usize..4,
            k in 0usize..8,
            sampled in 0usize..2,
            samples in 1usize..6000,
            seed in 0u64..u64::MAX,
        ) {
            let c = match pick {
                0 => multipliers::broken_array(8, 1 + k % 7, k % 4),
                1 => multipliers::truncated(8, 2 * k),
                2 => adders::loa(8, k + 1),
                _ => adders::truncated(8, k),
            };
            let config = if sampled == 1 {
                ErrorConfig { max_exhaustive_bits: 8, samples, seed }
            } else {
                cfg()
            };
            let want = bits(&reference_analyze(&c, &config));
            for threads in [1, 8] {
                let got = Runtime::install(threads, |rt| analyze_with(&c, &config, rt));
                proptest::prop_assert_eq!(bits(&got), want);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn metrics_are_internally_consistent(k in 0usize..8, vbl in 1usize..8) {
            let c = multipliers::broken_array(8, vbl, k % 4);
            let m = analyze(&c, &cfg());
            // MAE <= WCE, MED = MAE/max, MSE >= MAE^2 (Jensen).
            proptest::prop_assert!(m.mae <= m.wce as f64 + 1e-9);
            proptest::prop_assert!((m.med * 65535.0 - m.mae).abs() < 1e-6);
            proptest::prop_assert!(m.mse + 1e-9 >= m.mae * m.mae);
            proptest::prop_assert!(m.bias.abs() <= m.mae + 1e-9);
            proptest::prop_assert!((0.0..=1.0).contains(&m.error_prob));
        }
    }
}
