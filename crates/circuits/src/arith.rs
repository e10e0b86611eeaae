//! Word-level wrapper around gate-level netlists for two-operand arithmetic
//! circuits, plus batch evaluation helpers.

use afp_netlist::{Netlist, SimTape, LANES, LANE_WORDS};

/// The arithmetic function a circuit is *supposed* to compute.
// Safe total order (`Eq + Ord`, no float keys): the clippy.toml
// `partial_cmp` ban fires inside the derive expansion, not here.
#[allow(clippy::disallowed_methods)]
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArithKind {
    /// Unsigned addition: `w`-bit + `w`-bit → `w+1`-bit.
    Adder,
    /// Unsigned multiplication: `w`-bit × `w`-bit → `2w`-bit.
    Multiplier,
}

impl ArithKind {
    /// Short mnemonic used in circuit names (`"add"` / `"mul"`).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            ArithKind::Adder => "add",
            ArithKind::Multiplier => "mul",
        }
    }

    /// Output bus width for operand width `w`.
    pub fn out_width(&self, w: usize) -> usize {
        match self {
            ArithKind::Adder => w + 1,
            ArithKind::Multiplier => 2 * w,
        }
    }

    /// The exact (golden) result for operands `a`, `b` of width `w`.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `w` bits or `2w` exceeds 64.
    pub fn exact(&self, w: usize, a: u64, b: u64) -> u64 {
        assert!(w <= 32, "operand width limited to 32 bits");
        let mask = (1u64 << w) - 1;
        assert!(a <= mask && b <= mask, "operand out of range");
        match self {
            ArithKind::Adder => a + b,
            ArithKind::Multiplier => a * b,
        }
    }

    /// Maximum representable output value (`2^out_width - 1`), the
    /// normalization constant in the paper's MED definition.
    pub fn max_output(&self, w: usize) -> u64 {
        let ow = self.out_width(w);
        if ow >= 64 {
            u64::MAX
        } else {
            (1u64 << ow) - 1
        }
    }
}

impl std::fmt::Display for ArithKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A two-operand arithmetic circuit: a gate-level netlist with a declared
/// word-level interface (`a[w]`, `b[w]` → `out[kind.out_width(w)]`, all
/// LSB-first).
///
/// # Example
///
/// ```
/// use afp_circuits::multipliers::array_multiplier;
///
/// let m = array_multiplier(8);
/// assert_eq!(m.eval(13, 11), 143);
/// assert_eq!(m.width(), 8);
/// assert_eq!(m.netlist().num_outputs(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct ArithCircuit {
    kind: ArithKind,
    width: usize,
    netlist: Netlist,
}

impl ArithCircuit {
    /// Wrap a netlist as an arithmetic circuit.
    ///
    /// # Panics
    ///
    /// Panics if the netlist interface does not match `kind`/`width`
    /// (`2w` inputs, `kind.out_width(w)` outputs).
    pub fn new(kind: ArithKind, width: usize, netlist: Netlist) -> ArithCircuit {
        assert_eq!(
            netlist.num_inputs(),
            2 * width,
            "expected {} primary inputs",
            2 * width
        );
        assert_eq!(
            netlist.num_outputs(),
            kind.out_width(width),
            "expected {} primary outputs",
            kind.out_width(width)
        );
        ArithCircuit {
            kind,
            width,
            netlist,
        }
    }

    /// The intended arithmetic function.
    pub fn kind(&self) -> ArithKind {
        self.kind
    }

    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The circuit's name (delegates to the netlist).
    pub fn name(&self) -> &str {
        self.netlist.name()
    }

    /// Rename the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.netlist.set_name(name);
    }

    /// The underlying gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consume the wrapper, returning the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Replace the netlist with a simplified copy (see
    /// [`afp_netlist::opt::simplify`]); interface is preserved.
    pub fn simplify(&mut self) {
        self.netlist = afp_netlist::opt::simplify(&self.netlist);
    }

    /// The exact (golden) value this circuit approximates.
    pub fn exact(&self, a: u64, b: u64) -> u64 {
        self.kind.exact(self.width, a, b)
    }

    /// Evaluate the circuit behaviourally on one operand pair.
    ///
    /// For bulk evaluation use [`BatchEvaluator`], which amortizes the
    /// simulator allocation and evaluates 64 pairs per pass.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `width` bits.
    pub fn eval(&self, a: u64, b: u64) -> u64 {
        let mut batch = BatchEvaluator::new(self);
        batch.eval_pairs(&[(a, b)])[0]
    }
}

/// How a [`BatchEvaluator`] holds its compiled tape: its own copy, or a
/// borrow of a tape the caller compiled once and shares across evaluators
/// (the error-analysis workers share one tape per circuit).
#[derive(Debug)]
enum TapeRef<'c> {
    Owned(SimTape),
    Shared(&'c SimTape),
}

/// Bit-parallel batch evaluator for an [`ArithCircuit`].
///
/// The circuit's netlist is compiled once into a [`SimTape`]; evaluation
/// then runs either the scalar kernel (≤ 64 operand pairs per pass) or the
/// wide kernel ([`LANES`] pairs per pass, autovectorized). Both produce
/// identical results — [`BatchEvaluator::eval_pairs`] picks per chunk.
///
/// # Example
///
/// ```
/// use afp_circuits::adders::ripple_carry;
/// use afp_circuits::BatchEvaluator;
///
/// let add = ripple_carry(8);
/// let mut batch = BatchEvaluator::new(&add);
/// let out = batch.eval_pairs(&[(1, 2), (255, 255), (100, 27)]);
/// assert_eq!(out, vec![3, 510, 127]);
/// ```
#[derive(Debug)]
pub struct BatchEvaluator<'c> {
    circuit: &'c ArithCircuit,
    tape: TapeRef<'c>,
    /// Net indices of the primary outputs, LSB-first.
    outputs: Vec<usize>,
    // Scalar (≤ 64 lane) buffers.
    words: Vec<u64>,
    values: Vec<u64>,
    out_words: Vec<u64>,
    // Wide ([`LANES`] lane) buffers, kept separate so alternating between
    // the two kernels never thrashes a shared allocation.
    wide_words: Vec<u64>,
    wide_values: Vec<u64>,
    /// One packed `a | b << w` input word per lane of a wide pass.
    wide_lanes: Vec<u64>,
}

/// Periodic input-word patterns for exhaustive enumeration: bit `l` of
/// `EXHAUSTIVE_PAT[q]` is bit `q` of the lane index `l` (valid for any
/// 64-aligned block of consecutive pair indices).
const EXHAUSTIVE_PAT: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl<'c> BatchEvaluator<'c> {
    /// Create an evaluator bound to `circuit`, compiling its own tape.
    pub fn new(circuit: &'c ArithCircuit) -> BatchEvaluator<'c> {
        Self::build(circuit, TapeRef::Owned(SimTape::compile(circuit.netlist())))
    }

    /// Create an evaluator that executes a tape the caller already
    /// compiled from this circuit's netlist — lets many evaluators (e.g.
    /// parallel error-analysis workers) share one lowering.
    ///
    /// # Panics
    ///
    /// Panics if `tape` was not compiled from a netlist with the same
    /// net and input counts as `circuit.netlist()`.
    pub fn with_tape(circuit: &'c ArithCircuit, tape: &'c SimTape) -> BatchEvaluator<'c> {
        assert_eq!(
            tape.num_nets(),
            circuit.netlist().len(),
            "tape was compiled from a different netlist (net count mismatch)"
        );
        assert_eq!(
            tape.num_inputs(),
            circuit.netlist().num_inputs(),
            "tape was compiled from a different netlist (input count mismatch)"
        );
        Self::build(circuit, TapeRef::Shared(tape))
    }

    fn build(circuit: &'c ArithCircuit, tape: TapeRef<'c>) -> BatchEvaluator<'c> {
        let outputs: Vec<usize> = circuit
            .netlist()
            .outputs()
            .iter()
            .map(|o| o.index())
            .collect();
        assert!(
            outputs.len() <= 64,
            "batch evaluation supports at most 64 output bits"
        );
        let num_inputs = circuit.netlist().num_inputs();
        BatchEvaluator {
            circuit,
            tape,
            words: vec![0u64; num_inputs],
            values: Vec::new(),
            out_words: vec![0u64; outputs.len()],
            wide_words: vec![0u64; num_inputs * LANE_WORDS],
            wide_values: Vec::new(),
            wide_lanes: Vec::new(),
            outputs,
        }
    }

    /// Evaluate a chunk of at most 64 operand pairs in one scalar pass.
    ///
    /// # Panics
    ///
    /// Panics if `pairs.len() > 64`, or if an operand is out of range.
    pub fn eval_chunk(&mut self, pairs: &[(u64, u64)]) -> Vec<u64> {
        let mut out = Vec::with_capacity(pairs.len());
        self.eval_chunk_into(pairs, &mut out);
        out
    }

    /// Like [`BatchEvaluator::eval_chunk`], but appends the results into a
    /// caller-provided buffer — the whole evaluation is then allocation-free
    /// once the evaluator is warm.
    ///
    /// # Panics
    ///
    /// Panics if `pairs.len() > 64`, or if an operand is out of range.
    pub fn eval_chunk_into(&mut self, pairs: &[(u64, u64)], out: &mut Vec<u64>) {
        assert!(pairs.len() <= 64, "a chunk is at most 64 lanes");
        let w = self.circuit.width();
        self.words.fill(0);
        for (lane, &(a, b)) in pairs.iter().enumerate() {
            afp_netlist::pack_operand(&mut self.words, 0, w, lane, a);
            afp_netlist::pack_operand(&mut self.words, w, w, lane, b);
        }
        let tape = match &self.tape {
            TapeRef::Owned(t) => t,
            TapeRef::Shared(t) => t,
        };
        tape.execute(&self.words, &mut self.values);
        for (slot, &o) in self.out_words.iter_mut().zip(&self.outputs) {
            *slot = self.values[o];
        }
        out.extend((0..pairs.len()).map(|lane| afp_netlist::unpack_result(&self.out_words, lane)));
    }

    /// Evaluate a block of at most [`LANES`] operand pairs in one wide
    /// pass, appending one result per pair. Operand packing and result
    /// extraction go through bit transposes only as wide as the input and
    /// output buses (see [`afp_netlist::pack_lanes_wide`]), so the
    /// per-pair conversion cost is a handful of word operations rather
    /// than one shift/mask chain per operand bit.
    ///
    /// # Panics
    ///
    /// Panics if `pairs.len() > LANES` or the operands are wider than 32
    /// bits.
    pub fn eval_block_into(&mut self, pairs: &[(u64, u64)], out: &mut Vec<u64>) {
        assert!(pairs.len() <= LANES, "a block is at most LANES lanes");
        let w = self.circuit.width();
        assert!(w <= 32, "wide packing supports operands of at most 32 bits");
        let mask = (1u64 << w) - 1;
        self.wide_lanes.clear();
        self.wide_lanes
            .extend(pairs.iter().map(|&(a, b)| (a & mask) | ((b & mask) << w)));
        afp_netlist::pack_lanes_wide(&self.wide_lanes, 2 * w, &mut self.wide_words);
        self.exec_wide_and_unpack(pairs.len(), out);
    }

    /// Evaluate `n` consecutive pairs of the exhaustive enumeration
    /// starting at pair index `start`, where index `p` encodes the
    /// operands `(p >> w, p & ((1 << w) - 1))` — the row-major order the
    /// error analysis walks. When `start` is 64-aligned (always true for
    /// the analysis blocks) the operand packing collapses to writing
    /// precomputed periodic constants: zero per-pair packing work.
    ///
    /// # Panics
    ///
    /// Panics if `n > LANES`.
    pub fn eval_exhaustive_block_into(&mut self, start: u64, n: usize, out: &mut Vec<u64>) {
        assert!(n <= LANES, "a block is at most LANES lanes");
        const W: usize = LANE_WORDS;
        let w = self.circuit.width();
        let mask = (1u64 << w) - 1;
        if start.is_multiple_of(64) {
            for o in 0..2 * w {
                // Input o carries pair-index bit q: operand a occupies
                // the high w index bits, operand b the low w.
                let q = if o < w { w + o } else { o - w };
                for j in 0..W {
                    self.wide_words[o * W + j] = if q < 6 {
                        EXHAUSTIVE_PAT[q]
                    } else {
                        let base = start + (j * 64) as u64;
                        0u64.wrapping_sub((base >> q) & 1)
                    };
                }
            }
        } else {
            for l in 0..n {
                let p = start + l as u64;
                afp_netlist::pack_operand_wide(&mut self.wide_words, 0, w, l, p >> w);
                afp_netlist::pack_operand_wide(&mut self.wide_words, w, w, l, p & mask);
            }
        }
        self.exec_wide_and_unpack(n, out);
    }

    /// Run the wide kernel over the packed `wide_words` and append the
    /// first `n` lane results to `out` via an output-width-aware
    /// transpose ([`afp_netlist::unpack_results_wide`]).
    fn exec_wide_and_unpack(&mut self, n: usize, out: &mut Vec<u64>) {
        let tape = match &self.tape {
            TapeRef::Owned(t) => t,
            TapeRef::Shared(t) => t,
        };
        tape.execute_wide(&self.wide_words, &mut self.wide_values);
        afp_netlist::unpack_results_wide(&self.wide_values, &self.outputs, n, out);
    }

    /// Evaluate any number of operand pairs, chunking internally: blocks
    /// of [`LANES`] pairs run the wide kernel, a short tail (≤ 64 pairs)
    /// runs the scalar kernel.
    pub fn eval_pairs(&mut self, pairs: &[(u64, u64)]) -> Vec<u64> {
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(LANES) {
            if chunk.len() <= 64 {
                self.eval_chunk_into(chunk, &mut out);
            } else {
                self.eval_block_into(chunk, &mut out);
            }
        }
        out
    }
}

/// A 64-bit behavioural signature of a circuit: outputs hashed over a fixed
/// deterministic stimulus (corner cases + pseudo-random pairs). Two circuits
/// with equal signatures almost surely compute the same function; used for
/// library dedup.
pub fn behavioral_signature(circuit: &ArithCircuit) -> u64 {
    let w = circuit.width();
    let mask = (1u64 << w) - 1;
    let mut pairs: Vec<(u64, u64)> = vec![
        (0, 0),
        (mask, mask),
        (0, mask),
        (mask, 0),
        (1, 1),
        (mask >> 1, (mask >> 1) + 1),
    ];
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (w as u64);
    for _ in 0..122 {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        pairs.push((v & mask, (v >> 32) & mask));
    }
    let mut batch = BatchEvaluator::new(circuit);
    let outs = batch.eval_pairs(&pairs);
    // FNV-1a over the output stream.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for o in outs {
        for byte in o.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_netlist::NetId;

    fn wire_adder(width: usize) -> ArithCircuit {
        // "Adder" that just returns operand a (zero-extended): legal
        // interface, very approximate.
        let mut n = Netlist::new("wire_add");
        let a = n.add_inputs(width);
        let _b = n.add_inputs(width);
        let zero = n.constant(false);
        let mut outs = a;
        outs.push(zero);
        n.set_outputs(outs);
        ArithCircuit::new(ArithKind::Adder, width, n)
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(ArithKind::Adder.out_width(8), 9);
        assert_eq!(ArithKind::Multiplier.out_width(8), 16);
        assert_eq!(ArithKind::Adder.max_output(8), 511);
        assert_eq!(ArithKind::Multiplier.max_output(8), 65535);
        assert_eq!(ArithKind::Adder.exact(8, 255, 255), 510);
        assert_eq!(ArithKind::Multiplier.exact(8, 255, 255), 65025);
    }

    #[test]
    #[should_panic(expected = "primary inputs")]
    fn interface_mismatch_panics() {
        let n = Netlist::new("empty");
        let _ = ArithCircuit::new(ArithKind::Adder, 4, n);
    }

    #[test]
    fn wire_adder_behaves_as_declared() {
        let c = wire_adder(4);
        assert_eq!(c.eval(9, 3), 9);
        assert_eq!(c.exact(9, 3), 12);
    }

    #[test]
    fn batch_matches_single_eval() {
        let c = wire_adder(6);
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 64, (i * 7) % 64)).collect();
        let mut batch = BatchEvaluator::new(&c);
        let out = batch.eval_pairs(&pairs);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(out[i], c.eval(a, b));
        }
    }

    #[test]
    fn wide_block_matches_scalar_chunks() {
        let c = crate::adders::ripple_carry(6);
        let pairs: Vec<(u64, u64)> = (0..300).map(|i| ((i * 31) % 64, (i * 17) % 64)).collect();
        let mut batch = BatchEvaluator::new(&c);
        let mut wide = Vec::new();
        batch.eval_block_into(&pairs, &mut wide);
        let mut scalar = Vec::new();
        for chunk in pairs.chunks(64) {
            batch.eval_chunk_into(chunk, &mut scalar);
        }
        assert_eq!(wide, scalar);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(wide[i], a + b, "pair {i}");
        }
    }

    #[test]
    fn wide_blocks_match_scalar_chunks_at_every_lane_count() {
        // Input/output buses of 16/9, 16/16, 32/32 and 64/64 bits: every
        // transpose width the wide pack and unpack choose between.
        let wire_mul = |w: usize| {
            let mut n = Netlist::new("wire_mul");
            let mut outs = n.add_inputs(w);
            let _b = n.add_inputs(w);
            let zero = n.constant(false);
            outs.extend(std::iter::repeat_n(zero, w));
            n.set_outputs(outs);
            ArithCircuit::new(ArithKind::Multiplier, w, n)
        };
        let circuits = [
            crate::adders::ripple_carry(8),
            crate::multipliers::wallace_multiplier(8),
            wire_mul(16),
            wire_mul(32),
        ];
        let mut state = 0x1234_5678_9ABC_DEF1u64;
        for c in &circuits {
            let mask = (1u64 << c.width()) - 1;
            let pairs: Vec<(u64, u64)> = (0..LANES)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state & mask, (state >> 32) & mask)
                })
                .collect();
            let mut batch = BatchEvaluator::new(c);
            let mut scalar = Vec::new();
            for chunk in pairs.chunks(64) {
                batch.eval_chunk_into(chunk, &mut scalar);
            }
            for n in 1..=LANES {
                let mut wide = Vec::new();
                batch.eval_block_into(&pairs[..n], &mut wide);
                assert_eq!(wide, scalar[..n], "{} at {n} lanes", c.name());
            }
        }
    }

    #[test]
    fn exhaustive_block_matches_explicit_pairs() {
        let c = crate::adders::ripple_carry(5);
        let w = 5;
        let mask = (1u64 << w) - 1;
        let mut batch = BatchEvaluator::new(&c);
        // Aligned starts take the periodic-constant fast path, unaligned
        // ones the generic wide pack; both must agree with pair-by-pair
        // evaluation.
        for start in [0u64, 512, 64, 33, 97] {
            let n = 300;
            let mut fast = Vec::new();
            batch.eval_exhaustive_block_into(start, n, &mut fast);
            let pairs: Vec<(u64, u64)> = (0..n as u64)
                .map(|l| {
                    let p = start + l;
                    ((p >> w) & mask, p & mask)
                })
                .collect();
            assert_eq!(fast, batch.eval_pairs(&pairs), "start {start}");
        }
    }

    #[test]
    fn shared_tape_matches_owned_tape() {
        let c = crate::multipliers::wallace_multiplier(4);
        let tape = SimTape::compile(c.netlist());
        let pairs: Vec<(u64, u64)> = (0..16u64)
            .flat_map(|a| (0..16u64).map(move |b| (a, b)))
            .collect();
        let mut owned = BatchEvaluator::new(&c);
        let mut shared = BatchEvaluator::with_tape(&c, &tape);
        let out = owned.eval_pairs(&pairs);
        assert_eq!(out, shared.eval_pairs(&pairs));
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(out[i], a * b, "pair {i}");
        }
    }

    #[test]
    fn signature_distinguishes_functions() {
        let a = wire_adder(4);
        let mut n = Netlist::new("other");
        let ins = n.add_inputs(8);
        let zero = n.constant(false);
        let mut outs: Vec<NetId> = ins[4..8].to_vec(); // returns b instead
        outs.push(zero);
        n.set_outputs(outs);
        let b = ArithCircuit::new(ArithKind::Adder, 4, n);
        assert_ne!(behavioral_signature(&a), behavioral_signature(&b));
        assert_eq!(behavioral_signature(&a), behavioral_signature(&a.clone()));
    }
}
