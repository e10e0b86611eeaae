//! Bit-parallel behavioural simulation: the compiled gate tape, the wide
//! SIMD-friendly executor, and the packing helpers shared by every
//! simulation consumer in the workspace.
//!
//! The hot path is [`SimTape`]: a [`Netlist`] is lowered **once** into a
//! flat opcode stream (operand net indices pre-resolved to buffer offsets,
//! constants folded), and the executor then runs the tape over `W`-word
//! lane blocks — `W = 1` reproduces the classic one-`u64`-per-net pass,
//! `W =` [`LANE_WORDS`] evaluates [`LANES`] independent input vectors per
//! pass with a branch-predictable, autovectorizable inner loop. Both
//! widths produce bit-identical per-net values, and both are bit-identical
//! to the legacy per-gate interpreter kept as [`eval_pass_reference`].

use crate::gate::Gate;
use crate::netlist::Netlist;

/// Words per net in the wide simulation kernel: every net's value is a
/// `[u64; LANE_WORDS]` block, so one pass evaluates [`LANES`] input
/// vectors. Eight words autovectorize to two AVX2 (or one AVX-512) lane
/// operations per gate input.
pub const LANE_WORDS: usize = 8;

/// Independent input vectors evaluated by one wide pass
/// (`LANE_WORDS * 64`).
pub const LANES: usize = LANE_WORDS * 64;

/// Lowered opcode of one [`TapeOp`]. Binary/ternary kernels read their
/// operands through pre-resolved offsets, so the executor never touches
/// the [`Gate`] enum or its payload layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpCode {
    /// Copy primary-input block `a` (an input ordinal, not a net index).
    Input,
    /// Constant all-zeros (also the result of folding to constant 0).
    Zero,
    /// Constant all-ones (also the result of folding to constant 1).
    One,
    Buf,
    Not,
    And,
    Or,
    Xor,
    Nand,
    Nor,
    Xnor,
    /// `(a=select, b, c)`: select 0 → `b`, select 1 → `c`.
    Mux,
    Maj,
}

/// One lowered operation. The destination is implicit: op `i` writes net
/// slot `i` (netlists are topologically ordered, so every operand offset
/// points strictly backwards).
#[derive(Clone, Copy, Debug)]
struct TapeOp {
    code: OpCode,
    a: u32,
    b: u32,
    c: u32,
}

/// A [`Netlist`] compiled to a flat, branch-predictable opcode stream.
///
/// Lowering resolves operand [`crate::NetId`]s to plain buffer offsets and
/// folds constants (a gate whose controlling operands are known constants
/// lowers to `Zero`/`One`/`Buf`/`Not`/... of the remaining live operand).
/// Every net still gets a value slot with exactly the value the per-gate
/// interpreter would compute, so signal-probability estimation over all
/// nets is unaffected by folding.
///
/// # Example
///
/// ```
/// use afp_netlist::{Netlist, SimTape};
///
/// let mut n = Netlist::new("and");
/// let a = n.add_input();
/// let b = n.add_input();
/// let y = n.and(a, b);
/// n.set_outputs(vec![y]);
///
/// let tape = SimTape::compile(&n);
/// let mut values = Vec::new();
/// tape.execute(&[0b011, 0b101], &mut values);
/// assert_eq!(values[y.index()] & 0b111, 0b001);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimTape {
    ops: Vec<TapeOp>,
    num_inputs: usize,
    /// Per-net folded constant, reused across [`SimTape::compile_into`]
    /// calls so recompilation is allocation-free once warm.
    fold: Vec<Option<bool>>,
}

impl SimTape {
    /// Lower `netlist` into a fresh tape.
    pub fn compile(netlist: &Netlist) -> SimTape {
        let mut tape = SimTape::default();
        tape.compile_into(netlist);
        tape
    }

    /// Re-lower `netlist` into this tape, reusing the existing buffers
    /// (allocation-free once the tape has seen a netlist of equal or
    /// larger size).
    pub fn compile_into(&mut self, netlist: &Netlist) {
        self.ops.clear();
        self.ops.reserve(netlist.len());
        self.fold.clear();
        self.fold.resize(netlist.len(), None);
        self.num_inputs = netlist.num_inputs();

        let op0 = |code: OpCode| TapeOp {
            code,
            a: 0,
            b: 0,
            c: 0,
        };
        let op1 = |code: OpCode, a: usize| TapeOp {
            code,
            a: a as u32,
            b: 0,
            c: 0,
        };
        let op2 = |code: OpCode, a: usize, b: usize| TapeOp {
            code,
            a: a as u32,
            b: b as u32,
            c: 0,
        };
        let konst = |v: bool| {
            if v {
                op0(OpCode::One)
            } else {
                op0(OpCode::Zero)
            }
        };

        for (i, gate) in netlist.gates().iter().enumerate() {
            let op = match *gate {
                Gate::Input(ord) => op1(OpCode::Input, ord as usize),
                Gate::Const(v) => {
                    self.fold[i] = Some(v);
                    konst(v)
                }
                Gate::Buf(a) => match self.fold[a.index()] {
                    Some(v) => {
                        self.fold[i] = Some(v);
                        konst(v)
                    }
                    None => op1(OpCode::Buf, a.index()),
                },
                Gate::Not(a) => match self.fold[a.index()] {
                    Some(v) => {
                        self.fold[i] = Some(!v);
                        konst(!v)
                    }
                    None => op1(OpCode::Not, a.index()),
                },
                Gate::And(a, b) => self.lower2(i, OpCode::And, a.index(), b.index()),
                Gate::Or(a, b) => self.lower2(i, OpCode::Or, a.index(), b.index()),
                Gate::Xor(a, b) => self.lower2(i, OpCode::Xor, a.index(), b.index()),
                Gate::Nand(a, b) => self.lower2(i, OpCode::Nand, a.index(), b.index()),
                Gate::Nor(a, b) => self.lower2(i, OpCode::Nor, a.index(), b.index()),
                Gate::Xnor(a, b) => self.lower2(i, OpCode::Xnor, a.index(), b.index()),
                Gate::Mux(s, a, b) => {
                    let (si, ai, bi) = (s.index(), a.index(), b.index());
                    match (self.fold[si], self.fold[ai], self.fold[bi]) {
                        // Known select: the mux is a wire.
                        (Some(false), Some(v), _) | (Some(true), _, Some(v)) => {
                            self.fold[i] = Some(v);
                            konst(v)
                        }
                        (Some(false), None, _) => op1(OpCode::Buf, ai),
                        (Some(true), _, None) => op1(OpCode::Buf, bi),
                        // Constant data inputs: the mux is the select
                        // (or its complement, or a constant).
                        (None, Some(a0), Some(b1)) => match (a0, b1) {
                            (false, true) => op1(OpCode::Buf, si),
                            (true, false) => op1(OpCode::Not, si),
                            (v, _) => {
                                self.fold[i] = Some(v);
                                konst(v)
                            }
                        },
                        // One constant data input simplifies to AND/OR.
                        (None, Some(false), None) => op2(OpCode::And, bi, si),
                        (None, Some(true), None) => {
                            // !s | (b & s) has no single-gate form; keep
                            // the mux with a folded constant-one input.
                            TapeOp {
                                code: OpCode::Mux,
                                a: si as u32,
                                b: ai as u32,
                                c: bi as u32,
                            }
                        }
                        (None, None, Some(true)) => op2(OpCode::Or, ai, si),
                        (None, None, _) => TapeOp {
                            code: OpCode::Mux,
                            a: si as u32,
                            b: ai as u32,
                            c: bi as u32,
                        },
                    }
                }
                Gate::Maj(a, b, c) => {
                    let (ai, bi, ci) = (a.index(), b.index(), c.index());
                    match (self.fold[ai], self.fold[bi], self.fold[ci]) {
                        (Some(x), Some(y), Some(z)) => {
                            let v = (x as u8 + y as u8 + z as u8) >= 2;
                            self.fold[i] = Some(v);
                            konst(v)
                        }
                        // One known constant: majority degenerates to
                        // AND (const 0) or OR (const 1) of the others.
                        (Some(v), None, None) => self.maj2(i, v, bi, ci),
                        (None, Some(v), None) => self.maj2(i, v, ai, ci),
                        (None, None, Some(v)) => self.maj2(i, v, ai, bi),
                        // Two known constants: equal pair decides, a
                        // mixed pair forwards the live operand.
                        (Some(x), Some(y), None) => self.maj1(i, x, y, ci),
                        (Some(x), None, Some(z)) => self.maj1(i, x, z, bi),
                        (None, Some(y), Some(z)) => self.maj1(i, y, z, ai),
                        (None, None, None) => TapeOp {
                            code: OpCode::Maj,
                            a: ai as u32,
                            b: bi as u32,
                            c: ci as u32,
                        },
                    }
                }
            };
            self.ops.push(op);
        }
    }

    /// Lower a two-input gate, folding known-constant operands.
    fn lower2(&mut self, i: usize, code: OpCode, a: usize, b: usize) -> TapeOp {
        let (fa, fb) = (self.fold[a], self.fold[b]);
        let konst = |tape: &mut SimTape, v: bool| {
            tape.fold[i] = Some(v);
            TapeOp {
                code: if v { OpCode::One } else { OpCode::Zero },
                a: 0,
                b: 0,
                c: 0,
            }
        };
        let unary = |code: OpCode, a: usize| TapeOp {
            code,
            a: a as u32,
            b: 0,
            c: 0,
        };
        match (fa, fb) {
            (Some(x), Some(y)) => {
                let v = match code {
                    OpCode::And => x & y,
                    OpCode::Or => x | y,
                    OpCode::Xor => x ^ y,
                    OpCode::Nand => !(x & y),
                    OpCode::Nor => !(x | y),
                    OpCode::Xnor => !(x ^ y),
                    _ => unreachable!("lower2 is only called for binary logic"),
                };
                konst(self, v)
            }
            (Some(k), None) | (None, Some(k)) => {
                // The live operand.
                let live = if fa.is_none() { a } else { b };
                match (code, k) {
                    (OpCode::And, false) | (OpCode::Nor, true) => konst(self, false),
                    (OpCode::Or, true) | (OpCode::Nand, false) => konst(self, true),
                    (OpCode::And, true)
                    | (OpCode::Or, false)
                    | (OpCode::Xor, false)
                    | (OpCode::Xnor, true) => unary(OpCode::Buf, live),
                    (OpCode::Nand, true)
                    | (OpCode::Nor, false)
                    | (OpCode::Xor, true)
                    | (OpCode::Xnor, false) => unary(OpCode::Not, live),
                    _ => unreachable!("lower2 is only called for binary logic"),
                }
            }
            (None, None) => TapeOp {
                code,
                a: a as u32,
                b: b as u32,
                c: 0,
            },
        }
    }

    /// Majority with one constant operand: `Maj(0, x, y) = x & y`,
    /// `Maj(1, x, y) = x | y`.
    fn maj2(&mut self, i: usize, k: bool, x: usize, y: usize) -> TapeOp {
        self.lower2(i, if k { OpCode::Or } else { OpCode::And }, x, y)
    }

    /// Majority with two constant operands: an equal pair decides the
    /// output, a mixed pair forwards the live operand.
    fn maj1(&mut self, i: usize, x: bool, y: bool, live: usize) -> TapeOp {
        if x == y {
            self.fold[i] = Some(x);
            TapeOp {
                code: if x { OpCode::One } else { OpCode::Zero },
                a: 0,
                b: 0,
                c: 0,
            }
        } else {
            TapeOp {
                code: OpCode::Buf,
                a: live as u32,
                b: 0,
                c: 0,
            }
        }
    }

    /// Number of net value slots the tape writes (= `netlist.len()`).
    pub fn num_nets(&self) -> usize {
        self.ops.len()
    }

    /// Number of primary inputs the tape reads.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Execute the tape over `W`-word lane blocks. `inputs` holds
    /// `num_inputs * W` words (input `i` at `i*W..`), `values` is resized
    /// to `num_nets * W` (net `n` at `n*W..`).
    fn exec<const W: usize>(&self, inputs: &[u64], values: &mut Vec<u64>) {
        assert_eq!(
            inputs.len(),
            self.num_inputs * W,
            "input word count must equal the number of primary inputs"
        );
        let len = self.ops.len() * W;
        if values.len() != len {
            values.clear();
            values.resize(len, 0);
        }
        let vals = values.as_mut_slice();
        for (i, op) in self.ops.iter().enumerate() {
            // Everything before slot `i` is already written; the fixed-size
            // block views give the optimizer loop bounds it can vectorize.
            let (prev, rest) = vals.split_at_mut(i * W);
            let cur: &mut [u64; W] = (&mut rest[..W]).try_into().expect("destination block");
            let arg = |x: u32| -> &[u64; W] {
                prev[x as usize * W..][..W]
                    .try_into()
                    .expect("operand block")
            };
            match op.code {
                OpCode::Input => {
                    cur.copy_from_slice(&inputs[op.a as usize * W..][..W]);
                }
                OpCode::Zero => cur.fill(0),
                OpCode::One => cur.fill(u64::MAX),
                OpCode::Buf => *cur = *arg(op.a),
                OpCode::Not => {
                    let a = arg(op.a);
                    for k in 0..W {
                        cur[k] = !a[k];
                    }
                }
                OpCode::And => {
                    let (a, b) = (arg(op.a), arg(op.b));
                    for k in 0..W {
                        cur[k] = a[k] & b[k];
                    }
                }
                OpCode::Or => {
                    let (a, b) = (arg(op.a), arg(op.b));
                    for k in 0..W {
                        cur[k] = a[k] | b[k];
                    }
                }
                OpCode::Xor => {
                    let (a, b) = (arg(op.a), arg(op.b));
                    for k in 0..W {
                        cur[k] = a[k] ^ b[k];
                    }
                }
                OpCode::Nand => {
                    let (a, b) = (arg(op.a), arg(op.b));
                    for k in 0..W {
                        cur[k] = !(a[k] & b[k]);
                    }
                }
                OpCode::Nor => {
                    let (a, b) = (arg(op.a), arg(op.b));
                    for k in 0..W {
                        cur[k] = !(a[k] | b[k]);
                    }
                }
                OpCode::Xnor => {
                    let (a, b) = (arg(op.a), arg(op.b));
                    for k in 0..W {
                        cur[k] = !(a[k] ^ b[k]);
                    }
                }
                OpCode::Mux => {
                    let (s, a, b) = (arg(op.a), arg(op.b), arg(op.c));
                    for k in 0..W {
                        cur[k] = (a[k] & !s[k]) | (b[k] & s[k]);
                    }
                }
                OpCode::Maj => {
                    let (a, b, c) = (arg(op.a), arg(op.b), arg(op.c));
                    for k in 0..W {
                        cur[k] = (a[k] & b[k]) | (a[k] & c[k]) | (b[k] & c[k]);
                    }
                }
            }
        }
    }

    /// One 64-lane pass: `inputs` holds one word per primary input,
    /// `values` is resized to one word per net. Bit-identical to
    /// [`eval_pass_reference`].
    #[inline]
    pub fn execute(&self, inputs: &[u64], values: &mut Vec<u64>) {
        self.exec::<1>(inputs, values);
    }

    /// One [`LANES`]-lane pass: `inputs` holds [`LANE_WORDS`] words per
    /// primary input, `values` is resized to [`LANE_WORDS`] words per net.
    /// Lane-word `j` of every block is an independent 64-lane pass,
    /// bit-identical to [`SimTape::execute`] on that word column.
    #[inline]
    pub fn execute_wide(&self, inputs: &[u64], values: &mut Vec<u64>) {
        self.exec::<LANE_WORDS>(inputs, values);
    }
}

/// 64-way bit-parallel behavioural simulator.
///
/// Each primary input is assigned a 64-bit word; bit lane `k` of every word
/// forms one independent input vector, so a single pass evaluates 64 input
/// assignments. The netlist is compiled to a [`SimTape`] at construction;
/// repeated passes are allocation-free.
///
/// # Example
///
/// ```
/// use afp_netlist::{Netlist, Simulator};
///
/// let mut n = Netlist::new("and");
/// let a = n.add_input();
/// let b = n.add_input();
/// let y = n.and(a, b);
/// n.set_outputs(vec![y]);
///
/// let mut sim = Simulator::new(&n);
/// // lane 0: a=1,b=1; lane 1: a=1,b=0; lane 2: a=0,b=1
/// let out = sim.run(&[0b011, 0b101]);
/// assert_eq!(out[0] & 0b111, 0b001);
/// ```
#[derive(Debug)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    tape: SimTape,
    values: Vec<u64>,
}

impl<'n> Simulator<'n> {
    /// Create a simulator bound to `netlist` (compiles its tape once).
    pub fn new(netlist: &'n Netlist) -> Simulator<'n> {
        Simulator {
            netlist,
            tape: SimTape::compile(netlist),
            values: vec![0; netlist.len()],
        }
    }

    /// The netlist this simulator is bound to.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Evaluate one 64-lane pass.
    ///
    /// `input_words[i]` supplies the 64 lanes of primary input `i`. Returns
    /// one word per primary output (same order as [`Netlist::outputs`]).
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != netlist.num_inputs()`.
    pub fn run(&mut self, input_words: &[u64]) -> Vec<u64> {
        self.run_into(input_words);
        self.netlist
            .outputs()
            .iter()
            .map(|o| self.values[o.index()])
            .collect()
    }

    /// Evaluate one pass, leaving results in the internal buffer (readable
    /// through [`Simulator::value`]). Avoids the output `Vec` allocation of
    /// [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != netlist.num_inputs()`.
    #[inline]
    pub fn run_into(&mut self, input_words: &[u64]) {
        self.tape.execute(input_words, &mut self.values);
    }

    /// Value word of an arbitrary net after the last pass.
    #[inline]
    pub fn value(&self, net: crate::NetId) -> u64 {
        self.values[net.index()]
    }

    /// Signal probability of every net, estimated from `passes` passes of
    /// uniform random stimulus (64 samples per pass) drawn from `rng_seed`.
    ///
    /// Used by the power models: under the temporal-independence assumption
    /// a net with signal probability `p` has switching activity `2·p·(1-p)`.
    pub fn signal_probabilities(&mut self, passes: usize, rng_seed: u64) -> Vec<f64> {
        let mut scratch = SimScratch::new();
        let mut out = Vec::new();
        scratch.signal_probabilities(self.netlist, passes, rng_seed, &mut out);
        out
    }
}

/// Reusable scratch buffers for repeated [`SimScratch::signal_probabilities`]
/// runs across many netlists.
///
/// A [`Simulator`] is borrowed against one netlist and allocates its value
/// buffer on construction; callers that sweep a whole circuit library (the
/// characterization flow's mapper and ASIC workers) instead keep one
/// `SimScratch` alive and re-estimate probabilities with zero steady-state
/// allocation. Results are bit-identical to
/// [`Simulator::signal_probabilities`].
#[derive(Debug, Default)]
pub struct SimScratch {
    tape: SimTape,
    values: Vec<u64>,
    inputs: Vec<u64>,
    ones: Vec<u64>,
}

impl SimScratch {
    /// An empty scratch; buffers grow to the largest netlist seen.
    pub fn new() -> SimScratch {
        SimScratch::default()
    }

    /// Estimate the signal probability of every net in `netlist` from
    /// `passes` passes of uniform random stimulus seeded by `rng_seed`,
    /// writing one probability per net into `out` (cleared first).
    ///
    /// Runs the wide kernel, [`LANE_WORDS`] passes per dispatch. Stimulus
    /// draw order and per-net ones-counting are pass-major exactly like a
    /// pass-at-a-time loop over [`eval_pass_reference`], so the estimates
    /// are bit-identical to the legacy kernel and to
    /// [`Simulator::signal_probabilities`].
    pub fn signal_probabilities(
        &mut self,
        netlist: &Netlist,
        passes: usize,
        rng_seed: u64,
        out: &mut Vec<f64>,
    ) {
        const W: usize = LANE_WORDS;
        let n = netlist.len();
        self.tape.compile_into(netlist);
        self.ones.clear();
        self.ones.resize(n, 0);
        self.inputs.clear();
        self.inputs.resize(netlist.num_inputs() * W, 0);

        let mut state = rng_seed.wrapping_mul(2).wrapping_add(1);
        let mut next = || {
            // xorshift64* — deterministic, dependency-free stimulus.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let total_passes = passes.max(1);
        let mut done = 0;
        while done < total_passes {
            let block = (total_passes - done).min(W);
            // Pass-major fill: pass j draws one word per input, in input
            // order — the exact RNG call order of the legacy loop.
            for j in 0..block {
                for i in 0..netlist.num_inputs() {
                    self.inputs[i * W + j] = next();
                }
            }
            self.tape.execute_wide(&self.inputs, &mut self.values);
            for (net, o) in self.ones.iter_mut().enumerate() {
                let mut count = 0u64;
                for j in 0..block {
                    count += self.values[net * W + j].count_ones() as u64;
                }
                *o += count;
            }
            done += block;
        }
        let total = (total_passes * 64) as f64;
        out.clear();
        out.extend(self.ones.iter().map(|&o| o as f64 / total));
    }
}

/// The legacy per-gate interpreter: one 64-lane pass evaluated by matching
/// on [`Gate`] directly, with no tape compilation.
///
/// Kept as the differential reference for the tape kernel — the
/// bit-identity property tests and the `sim_scaling` pre-rewrite baseline
/// run this; every production path runs [`SimTape`].
///
/// # Panics
///
/// Panics if `input_words.len() != netlist.num_inputs()`.
pub fn eval_pass_reference(netlist: &Netlist, input_words: &[u64], values: &mut Vec<u64>) {
    assert_eq!(
        input_words.len(),
        netlist.num_inputs(),
        "input word count must equal the number of primary inputs"
    );
    if values.len() != netlist.len() {
        values.clear();
        values.resize(netlist.len(), 0);
    }
    for (i, gate) in netlist.gates().iter().enumerate() {
        let v = match *gate {
            Gate::Input(ord) => input_words[ord as usize],
            Gate::Const(c) => {
                if c {
                    u64::MAX
                } else {
                    0
                }
            }
            Gate::Buf(a) => values[a.index()],
            Gate::Not(a) => !values[a.index()],
            Gate::And(a, b) => values[a.index()] & values[b.index()],
            Gate::Or(a, b) => values[a.index()] | values[b.index()],
            Gate::Xor(a, b) => values[a.index()] ^ values[b.index()],
            Gate::Nand(a, b) => !(values[a.index()] & values[b.index()]),
            Gate::Nor(a, b) => !(values[a.index()] | values[b.index()]),
            Gate::Xnor(a, b) => !(values[a.index()] ^ values[b.index()]),
            Gate::Mux(s, a, b) => {
                let sv = values[s.index()];
                (values[a.index()] & !sv) | (values[b.index()] & sv)
            }
            Gate::Maj(a, b, c) => {
                let (av, bv, cv) = (values[a.index()], values[b.index()], values[c.index()]);
                (av & bv) | (av & cv) | (bv & cv)
            }
        };
        values[i] = v;
    }
}

/// Pack an integer operand into input words: bit `b` of `value` is written
/// to bit `lane` of `words[offset + b]`, overwriting whatever that lane
/// held before.
///
/// Helper for word-level simulation: arithmetic circuits declare inputs
/// LSB-first, so operand bit `b` maps to input word `offset + b`.
#[inline]
pub fn pack_operand(words: &mut [u64], offset: usize, width: usize, lane: usize, value: u64) {
    let mask = 1u64 << lane;
    for b in 0..width {
        let w = &mut words[offset + b];
        *w = (*w & !mask) | (((value >> b) & 1) << lane);
    }
}

/// Extract the integer formed by `output_words` (LSB-first) at `lane`.
#[inline]
pub fn unpack_result(output_words: &[u64], lane: usize) -> u64 {
    let mut v = 0u64;
    for (b, w) in output_words.iter().enumerate() {
        v |= ((w >> lane) & 1) << b;
    }
    v
}

/// Block-wise counterpart of [`pack_operand`] for the wide kernel: input
/// `offset + b` is a `[u64; LANE_WORDS]` block at
/// `(offset + b) * LANE_WORDS`, and `lane` ranges over `0..`[`LANES`].
#[inline]
pub fn pack_operand_wide(words: &mut [u64], offset: usize, width: usize, lane: usize, value: u64) {
    let (word, bit) = (lane / 64, lane % 64);
    let mask = 1u64 << bit;
    for b in 0..width {
        let w = &mut words[(offset + b) * LANE_WORDS + word];
        *w = (*w & !mask) | (((value >> b) & 1) << bit);
    }
}

/// Block-wise counterpart of [`unpack_result`]: `output_blocks` holds one
/// `[u64; LANE_WORDS]` block per output bit (LSB-first), `lane` ranges
/// over `0..`[`LANES`].
#[inline]
pub fn unpack_result_wide(output_blocks: &[u64], lane: usize) -> u64 {
    let (word, bit) = (lane / 64, lane % 64);
    let mut v = 0u64;
    for b in 0..output_blocks.len() / LANE_WORDS {
        v |= ((output_blocks[b * LANE_WORDS + word] >> bit) & 1) << b;
    }
    v
}

/// In-place 64×64 bit-matrix transpose: bit `j` of `a[i]` swaps with bit
/// `i` of `a[j]` (the recursive block-swap algorithm, 6 rounds).
///
/// This is how batch evaluation converts between lane-major simulation
/// words (one word per output bit, one lane per bit position) and
/// value-major results (one word per lane) in ~6 operations per lane
/// instead of one shift/mask chain per output bit per lane.
pub fn transpose64(a: &mut [u64; 64]) {
    transpose_blocks(a);
}

/// `64 / S` independent S×S bit transposes packed side by side: for each
/// `S`-bit field `c`, bit `S·c + j` of `a[i]` swaps with bit `S·c + i` of
/// `a[j]`. The block-swap rounds of [`transpose64`] with the masks
/// replicated per field, so `S = 16` costs 4 rounds over 16 words where
/// the full transpose costs 6 rounds over 64.
fn transpose_blocks<const S: usize>(a: &mut [u64; S]) {
    let mut j = S / 2;
    // Ones in the low `j` bits of every `2j`-bit field.
    let mut m = u64::MAX / ((1u64 << j) + 1);
    while j != 0 {
        let mut k = 0;
        while k < S {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Append the integer results of lanes `0..n` of a wide pass to `out`.
///
/// `values` holds [`LANE_WORDS`] words per net, as
/// [`SimTape::execute_wide`] writes them; `outputs` lists the output nets
/// LSB-first. Equal to transposing every lane word with [`transpose64`],
/// but only as wide as the output bus: up to 16 output bits, four 16×16
/// transposes share each word, up to 32 bits two 32×32 ones.
///
/// # Panics
///
/// Panics if there are more than 64 outputs or `n > LANES`.
pub fn unpack_results_wide(values: &[u64], outputs: &[usize], n: usize, out: &mut Vec<u64>) {
    assert!(outputs.len() <= 64, "at most 64 output bits");
    assert!(n <= LANES, "at most LANES lanes");
    match outputs.len() {
        0..=16 => unpack_blocks::<16>(values, outputs, n, out),
        17..=32 => unpack_blocks::<32>(values, outputs, n, out),
        _ => unpack_blocks::<64>(values, outputs, n, out),
    }
}

fn unpack_blocks<const S: usize>(values: &[u64], outputs: &[usize], n: usize, out: &mut Vec<u64>) {
    let field = u64::MAX >> (64 - S);
    for j in 0..n.div_ceil(64) {
        // Row b = output bit b of lanes 64j..64j+64; after the transpose
        // field c of row r holds the result of lane S·c + r.
        let mut m = [0u64; S];
        for (row, &o) in m.iter_mut().zip(outputs) {
            *row = values[o * LANE_WORDS + j];
        }
        transpose_blocks(&mut m);
        let mut lanes = [0u64; 64];
        for (c, field_lanes) in lanes.chunks_exact_mut(S).enumerate() {
            for (lane, &row) in field_lanes.iter_mut().zip(&m) {
                *lane = (row >> (c * S)) & field;
            }
        }
        out.extend_from_slice(&lanes[..(n - 64 * j).min(64)]);
    }
}

/// Pack one `width`-bit integer per lane into the input blocks of a wide
/// pass: bit `b` of `lanes[l]` goes to bit `l % 64` of
/// `words[b * LANE_WORDS + l / 64]`. The inverse of
/// [`unpack_results_wide`], with the same width-aware transposes. Lane
/// words past the last lane are left untouched; unused lanes of the last
/// word are zero.
///
/// # Panics
///
/// Panics if `width > 64` or `lanes.len() > LANES`. Values must fit in
/// `width` bits.
pub fn pack_lanes_wide(lanes: &[u64], width: usize, words: &mut [u64]) {
    assert!(width <= 64, "at most 64 input bits per lane");
    assert!(lanes.len() <= LANES, "at most LANES lanes");
    match width {
        0..=16 => pack_blocks::<16>(lanes, width, words),
        17..=32 => pack_blocks::<32>(lanes, width, words),
        _ => pack_blocks::<64>(lanes, width, words),
    }
}

fn pack_blocks<const S: usize>(lanes: &[u64], width: usize, words: &mut [u64]) {
    for (j, group) in lanes.chunks(64).enumerate() {
        // Field c of row r = the value of lane S·c + r; after the
        // transpose row b is the simulation word of input bit b.
        let mut lanes = [0u64; 64];
        lanes[..group.len()].copy_from_slice(group);
        debug_assert!(
            lanes.iter().all(|&v| width == 64 || v >> width == 0),
            "lane value exceeds width"
        );
        let mut m = [0u64; S];
        for (c, field_lanes) in lanes.chunks_exact(S).enumerate() {
            for (row, &v) in m.iter_mut().zip(field_lanes) {
                *row |= v << (c * S);
            }
        }
        transpose_blocks(&mut m);
        for (b, &row) in m.iter().enumerate().take(width) {
            words[b * LANE_WORDS + j] = row;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_bit_adder() -> Netlist {
        // 2-bit ripple-carry adder: inputs a0 a1 b0 b1, outputs s0 s1 s2.
        let mut n = Netlist::new("add2");
        let a0 = n.add_input();
        let a1 = n.add_input();
        let b0 = n.add_input();
        let b1 = n.add_input();
        let s0 = n.xor(a0, b0);
        let c0 = n.and(a0, b0);
        let x1 = n.xor(a1, b1);
        let s1 = n.xor(x1, c0);
        let c1 = n.maj(a1, b1, c0);
        n.set_outputs(vec![s0, s1, c1]);
        n
    }

    #[test]
    fn adder_exhaustive_via_lanes() {
        let n = two_bit_adder();
        let mut sim = Simulator::new(&n);
        // Pack all 16 combinations into lanes 0..16.
        let mut words = vec![0u64; 4];
        for a in 0..4u64 {
            for b in 0..4u64 {
                let lane = (a * 4 + b) as usize;
                pack_operand(&mut words, 0, 2, lane, a);
                pack_operand(&mut words, 2, 2, lane, b);
            }
        }
        let out = sim.run(&words);
        for a in 0..4u64 {
            for b in 0..4u64 {
                let lane = (a * 4 + b) as usize;
                assert_eq!(unpack_result(&out, lane), a + b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn const_and_mux_semantics() {
        let mut n = Netlist::new("m");
        let s = n.add_input();
        let one = n.constant(true);
        let zero = n.constant(false);
        let y = n.mux(s, one, zero); // s ? 0 : 1  => NOT s
        n.set_outputs(vec![y]);
        let mut sim = Simulator::new(&n);
        let out = sim.run(&[0b01]);
        assert_eq!(out[0] & 0b11, 0b10);
    }

    #[test]
    fn tape_matches_reference_on_const_folding_patterns() {
        // Every fold rule: gates fed by constants in each operand slot.
        let mut n = Netlist::new("folds");
        let x = n.add_input();
        let y = n.add_input();
        let one = n.constant(true);
        let zero = n.constant(false);
        let mut outs = Vec::new();
        for (a, b) in [
            (x, one),
            (x, zero),
            (one, x),
            (zero, x),
            (one, zero),
            (one, one),
        ] {
            outs.push(n.and(a, b));
            outs.push(n.or(a, b));
            outs.push(n.xor(a, b));
            outs.push(n.nand(a, b));
            outs.push(n.nor(a, b));
            outs.push(n.xnor(a, b));
        }
        for (s, a, b) in [
            (one, x, y),
            (zero, x, y),
            (x, one, y),
            (x, zero, y),
            (x, y, one),
            (x, y, zero),
            (x, one, zero),
            (x, zero, one),
            (x, one, one),
            (x, zero, zero),
            (one, zero, one),
        ] {
            outs.push(n.mux(s, a, b));
            outs.push(n.maj(s, a, b));
            outs.push(n.maj(a, s, b));
            outs.push(n.maj(a, b, s));
        }
        outs.push(n.buf(one));
        outs.push(n.not(zero));
        let b1 = n.buf(zero);
        outs.push(n.not(b1)); // fold through a folded buf
        n.set_outputs(outs);

        let inputs = [0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210];
        let mut reference = Vec::new();
        eval_pass_reference(&n, &inputs, &mut reference);
        let tape = SimTape::compile(&n);
        let mut values = Vec::new();
        tape.execute(&inputs, &mut values);
        assert_eq!(values, reference);
    }

    #[test]
    fn wide_execution_matches_per_word_scalar_passes() {
        let n = two_bit_adder();
        let tape = SimTape::compile(&n);
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let wide_inputs: Vec<u64> = (0..n.num_inputs() * LANE_WORDS).map(|_| next()).collect();
        let mut wide = Vec::new();
        tape.execute_wide(&wide_inputs, &mut wide);
        for j in 0..LANE_WORDS {
            let narrow: Vec<u64> = (0..n.num_inputs())
                .map(|i| wide_inputs[i * LANE_WORDS + j])
                .collect();
            let mut scalar = Vec::new();
            tape.execute(&narrow, &mut scalar);
            for net in 0..n.len() {
                assert_eq!(
                    wide[net * LANE_WORDS + j],
                    scalar[net],
                    "net {net} word {j}"
                );
            }
        }
    }

    #[test]
    fn signal_probabilities_are_sane() {
        let n = two_bit_adder();
        let mut sim = Simulator::new(&n);
        let p = sim.signal_probabilities(64, 7);
        // Inputs should be roughly uniform.
        for &pi in &p[..4] {
            assert!((pi - 0.5).abs() < 0.08, "input probability {pi}");
        }
        // AND of two uniform inputs ~ 0.25.
        let c0 = 5; // index of the and gate
        assert!((p[c0] - 0.25).abs() < 0.08, "and probability {}", p[c0]);
        for &pi in &p {
            assert!((0.0..=1.0).contains(&pi));
        }
    }

    #[test]
    fn signal_probabilities_match_a_legacy_pass_loop() {
        // The wide-block estimator must reproduce the original
        // pass-at-a-time loop bit for bit, for pass counts around and
        // away from the block width.
        let n = two_bit_adder();
        for passes in [1, 3, 8, 9, 31, 32, 64] {
            for seed in [0u64, 7, 0xA51C] {
                let mut state = seed.wrapping_mul(2).wrapping_add(1);
                let mut next = || {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
                };
                let mut values = Vec::new();
                let mut ones = vec![0u64; n.len()];
                let mut inputs = vec![0u64; n.num_inputs()];
                for _ in 0..passes.max(1) {
                    for w in inputs.iter_mut() {
                        *w = next();
                    }
                    eval_pass_reference(&n, &inputs, &mut values);
                    for (o, v) in ones.iter_mut().zip(&values) {
                        *o += v.count_ones() as u64;
                    }
                }
                let total = (passes.max(1) * 64) as f64;
                let legacy: Vec<f64> = ones.iter().map(|&o| o as f64 / total).collect();

                let mut scratch = SimScratch::new();
                let mut got = Vec::new();
                scratch.signal_probabilities(&n, passes, seed, &mut got);
                let legacy_bits: Vec<u64> = legacy.iter().map(|p| p.to_bits()).collect();
                let got_bits: Vec<u64> = got.iter().map(|p| p.to_bits()).collect();
                assert_eq!(got_bits, legacy_bits, "passes={passes} seed={seed}");
            }
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut words = vec![0u64; 8];
        pack_operand(&mut words, 0, 8, 13, 0xA5);
        assert_eq!(unpack_result(&words[0..8], 13), 0xA5);
        // Overwrite with a different value on the same lane.
        pack_operand(&mut words, 0, 8, 13, 0x3C);
        assert_eq!(unpack_result(&words[0..8], 13), 0x3C);
    }

    #[test]
    fn wide_pack_unpack_round_trip() {
        let mut blocks = vec![0u64; 8 * LANE_WORDS];
        for lane in [0usize, 13, 63, 64, 200, LANES - 1] {
            pack_operand_wide(&mut blocks, 0, 8, lane, 0xA5);
            assert_eq!(unpack_result_wide(&blocks, lane), 0xA5, "lane {lane}");
            pack_operand_wide(&mut blocks, 0, 8, lane, 0x3C);
            assert_eq!(unpack_result_wide(&blocks, lane), 0x3C, "lane {lane}");
        }
        // Narrow and wide packing agree on word column 0.
        let mut narrow = vec![0u64; 8];
        pack_operand(&mut narrow, 0, 8, 17, 0x5A);
        let mut wide = vec![0u64; 8 * LANE_WORDS];
        pack_operand_wide(&mut wide, 0, 8, 17, 0x5A);
        for b in 0..8 {
            assert_eq!(wide[b * LANE_WORDS], narrow[b]);
        }
    }

    #[test]
    fn transpose64_is_an_involutive_transpose() {
        let mut state = 0xDEAD_BEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let original: Vec<u64> = (0..64).map(|_| next()).collect();
        let mut a: [u64; 64] = original.clone().try_into().unwrap();
        transpose64(&mut a);
        for (i, &row) in a.iter().enumerate() {
            for (j, &orig) in original.iter().enumerate() {
                assert_eq!(
                    (row >> j) & 1,
                    (orig >> i) & 1,
                    "bit ({i},{j}) not transposed"
                );
            }
        }
        transpose64(&mut a);
        assert_eq!(a.as_slice(), original.as_slice());
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        state |= 1;
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// The full-transpose unpack: every lane word through [`transpose64`].
    fn unpack_reference(values: &[u64], outputs: &[usize], n: usize) -> Vec<u64> {
        let mut out = Vec::new();
        for j in 0..n.div_ceil(64) {
            let mut m = [0u64; 64];
            for (b, &o) in outputs.iter().enumerate() {
                m[b] = values[o * LANE_WORDS + j];
            }
            transpose64(&mut m);
            out.extend_from_slice(&m[..(n - 64 * j).min(64)]);
        }
        out
    }

    /// The full-transpose pack: every 64-lane group through [`transpose64`].
    fn pack_reference(lanes: &[u64], width: usize, words: &mut [u64]) {
        for (j, group) in lanes.chunks(64).enumerate() {
            let mut m = [0u64; 64];
            m[..group.len()].copy_from_slice(group);
            transpose64(&mut m);
            for (b, &row) in m.iter().enumerate().take(width) {
                words[b * LANE_WORDS + j] = row;
            }
        }
    }

    #[test]
    fn width_aware_transposes_match_transpose64_at_every_lane_count() {
        let mut next = xorshift(7);
        for width in [1usize, 9, 16, 17, 32, 33, 64] {
            let values: Vec<u64> = (0..width * LANE_WORDS).map(|_| next()).collect();
            let outputs: Vec<usize> = (0..width).collect();
            let field = u64::MAX >> (64 - width);
            let lanes: Vec<u64> = (0..LANES).map(|_| next() & field).collect();
            for n in 1..=LANES {
                let mut fast = Vec::new();
                unpack_results_wide(&values, &outputs, n, &mut fast);
                assert_eq!(
                    fast,
                    unpack_reference(&values, &outputs, n),
                    "unpack w={width} n={n}"
                );
                let (mut fast, mut slow) = (
                    vec![!0u64; width * LANE_WORDS],
                    vec![!0u64; width * LANE_WORDS],
                );
                pack_lanes_wide(&lanes[..n], width, &mut fast);
                pack_reference(&lanes[..n], width, &mut slow);
                assert_eq!(fast, slow, "pack w={width} n={n}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn width_aware_transposes_match_transpose64(n in 1usize..=LANES, seed in 0u64..u64::MAX) {
            let mut next = xorshift(seed);
            for width in 1..=64usize {
                // Outputs read from scattered nets, as a netlist's do.
                let nets = width + 5;
                let values: Vec<u64> = (0..nets * LANE_WORDS).map(|_| next()).collect();
                let outputs: Vec<usize> = (0..width).map(|b| (b * 7 + 3) % nets).collect();
                let mut fast = Vec::new();
                unpack_results_wide(&values, &outputs, n, &mut fast);
                proptest::prop_assert_eq!(fast, unpack_reference(&values, &outputs, n));

                let field = u64::MAX >> (64 - width);
                let lanes: Vec<u64> = (0..n).map(|_| next() & field).collect();
                let sentinel = next();
                let mut fast = vec![sentinel; width * LANE_WORDS];
                let mut slow = fast.clone();
                pack_lanes_wide(&lanes, width, &mut fast);
                pack_reference(&lanes, width, &mut slow);
                proptest::prop_assert_eq!(fast, slow);
            }
        }
    }
}
