//! Simulation-kernel scaling measurement: exhaustive error analysis and
//! activity estimation through the legacy per-gate interpreter vs the
//! compiled-tape / wide-lane kernel.
//!
//! This is the regenerator behind EXPERIMENTS.md "Simulation kernel" and
//! the `BENCH_sim.json` baseline. The legacy column re-runs the exact
//! pre-tape hot loop (64-pair chunks through [`eval_pass_reference`] with
//! per-lane operand packing, or per-pass interpreter sweeps for activity
//! estimation); the tape column runs today's production entry points
//! ([`afp_error::analyze`] and [`SimScratch::signal_probabilities`]).
//! Both sides are checked for bit-identical results before any timing —
//! a speedup over diverging answers would be meaningless.
//!
//! Two layers of the analysis are also timed alone over one exhaustive
//! 8-bit input space (65,536 pairs): `fold_*` folds precomputed outputs
//! (per-pair fold before, [`ErrorFold`] after) and `unpack_*` turns wide
//! simulation words into integer results (a full [`transpose64`] per lane
//! word before, the output-width-aware [`unpack_results_wide`] after).
//!
//! Usage: `cargo run --release -p afp-bench --bin sim_scaling [--quick]`
//!
//! Writes `results/sim_scaling.csv`.

use std::time::Instant;

use afp_bench::render::table;
use afp_bench::write_csv;
use afp_circuits::{adders, multipliers, ArithCircuit, BatchEvaluator};
use afp_error::{analyze, ErrorConfig, ErrorFold, ErrorMetrics, BLOCK_PAIRS};
use afp_netlist::{
    eval_pass_reference, pack_lanes_wide, pack_operand, transpose64, unpack_results_wide, Netlist,
    SimScratch, SimTape, LANES, LANE_WORDS,
};

/// Median-of-runs wall time of `f`, in microseconds.
fn time_us(iters: u32, runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| afp_ord::asc(*a, *b));
    samples[samples.len() / 2]
}

/// Exhaustive error analysis exactly as the pre-tape kernel ran it: pack
/// each 64-pair chunk lane by lane, one interpreter pass per chunk,
/// unpack outputs per lane, accumulate the integer error sums. Returns
/// `(samples, sum_abs)` so the caller can check agreement with
/// [`analyze`].
fn legacy_exhaustive(circuit: &ArithCircuit) -> (u64, u128) {
    let nl = circuit.netlist();
    let w = circuit.width();
    let mask = (1u64 << w) - 1;
    let outputs: Vec<usize> = nl.outputs().iter().map(|o| o.index()).collect();
    let n_pairs = 1u64 << (2 * w);
    let mut words = vec![0u64; nl.num_inputs()];
    let mut values: Vec<u64> = Vec::new();
    let (mut n, mut sum_abs): (u64, u128) = (0, 0);
    let mut base = 0u64;
    while base < n_pairs {
        let chunk = 64.min(n_pairs - base);
        for lane in 0..chunk {
            let p = base + lane;
            pack_operand(&mut words, 0, w, lane as usize, p >> w);
            pack_operand(&mut words, w, w, lane as usize, p & mask);
        }
        eval_pass_reference(nl, &words, &mut values);
        for lane in 0..chunk {
            let p = base + lane;
            let mut got = 0u64;
            for (b, &o) in outputs.iter().enumerate() {
                got |= ((values[o] >> lane) & 1) << b;
            }
            let exact = circuit.exact(p >> w, p & mask);
            n += 1;
            sum_abs += (got as i64 - exact as i64).unsigned_abs() as u128;
        }
        base += chunk;
    }
    (n, sum_abs)
}

/// Every exhaustive output of `circuit`, in pair-index order.
fn exhaustive_outputs(circuit: &ArithCircuit) -> Vec<u64> {
    let end = 1u64 << (2 * circuit.width());
    let mut batch = BatchEvaluator::new(circuit);
    let mut got = Vec::with_capacity(end as usize);
    for p in (0..end).step_by(LANES) {
        batch.eval_exhaustive_block_into(p, LANES.min((end - p) as usize), &mut got);
    }
    got
}

/// The error fold alone over precomputed exhaustive outputs, blocked and
/// merged exactly as [`analyze`] blocks and merges it.
fn block_fold(circuit: &ArithCircuit, got: &[u64]) -> ErrorMetrics {
    let new = || ErrorFold::new(circuit.kind(), circuit.width());
    let mut total = new();
    for (b, block) in got.chunks(BLOCK_PAIRS).enumerate() {
        let mut fold = new();
        for (c, chunk) in block.chunks(LANES).enumerate() {
            fold.push_exhaustive((b * BLOCK_PAIRS + c * LANES) as u64, chunk);
        }
        total.merge(&fold);
    }
    total.finish(true)
}

/// The error fold as it ran before [`ErrorFold`]: one asserting golden
/// call and one branchy 128-bit update per pair, same blocks and merge
/// order. Returns `(mae, mre)` for the equivalence check.
fn legacy_fold(circuit: &ArithCircuit, got: &[u64]) -> (f64, f64) {
    let w = circuit.width();
    let mask = (1u64 << w) - 1;
    let (mut n, mut sum_abs, mut sum_signed, mut sum_sq) = (0u64, 0u128, 0i128, 0u128);
    let (mut wce, mut nonzero, mut rel_n, mut sum_rel) = (0u64, 0u64, 0u64, 0.0f64);
    for (b, block) in got.chunks(BLOCK_PAIRS).enumerate() {
        let mut block_rel = 0.0f64;
        for (l, &g) in block.iter().enumerate() {
            let p = (b * BLOCK_PAIRS + l) as u64;
            let exact = circuit.exact(p >> w, p & mask);
            let err = g as i64 - exact as i64;
            let abs = err.unsigned_abs();
            n += 1;
            sum_abs += abs as u128;
            sum_signed += err as i128;
            sum_sq += (abs as u128) * (abs as u128);
            wce = wce.max(abs);
            if abs != 0 {
                nonzero += 1;
            }
            if exact != 0 {
                block_rel += abs as f64 / exact as f64;
                rel_n += 1;
            }
        }
        sum_rel += block_rel;
    }
    std::hint::black_box((sum_signed, sum_sq, wce, nonzero));
    (sum_abs as f64 / n as f64, sum_rel / rel_n.max(1) as f64)
}

/// One exhaustive analysis worth of wide-pass result unpacking (65,536
/// lanes) from a real simulation block of `circuit`, via `unpack`.
fn unpack_all(
    values: &[u64],
    outputs: &[usize],
    out: &mut Vec<u64>,
    unpack: fn(&[u64], &[usize], usize, &mut Vec<u64>),
) {
    for _ in 0..(1 << 16) / LANES {
        out.clear();
        unpack(values, outputs, LANES, out);
    }
}

/// The pre-width-aware unpack: a full 64×64 transpose per lane word.
fn legacy_unpack(values: &[u64], outputs: &[usize], n: usize, out: &mut Vec<u64>) {
    for j in 0..n.div_ceil(64) {
        let mut m = [0u64; 64];
        for (b, &o) in outputs.iter().enumerate() {
            m[b] = values[o * LANE_WORDS + j];
        }
        transpose64(&mut m);
        out.extend_from_slice(&m[..(n - 64 * j).min(64)]);
    }
}

/// Wide net values of the first exhaustive block of `circuit`, and its
/// output net indices.
fn first_block_values(circuit: &ArithCircuit) -> (Vec<u64>, Vec<usize>) {
    let w = circuit.width();
    let lanes: Vec<u64> = (0..LANES as u64)
        .map(|p| (p >> w) | ((p & ((1 << w) - 1)) << w))
        .collect();
    let mut words = vec![0u64; 2 * w * LANE_WORDS];
    pack_lanes_wide(&lanes, 2 * w, &mut words);
    let mut values = Vec::new();
    SimTape::compile(circuit.netlist()).execute_wide(&words, &mut values);
    let outputs = circuit
        .netlist()
        .outputs()
        .iter()
        .map(|o| o.index())
        .collect();
    (values, outputs)
}

/// Activity estimation exactly as the pre-tape kernel ran it: one
/// interpreter pass per 64-vector stimulus block, fresh RNG fill and
/// popcount accumulation per pass.
fn legacy_signal_probabilities(nl: &Netlist, passes: usize, seed: u64, out: &mut Vec<f64>) {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut inputs = vec![0u64; nl.num_inputs()];
    let mut values: Vec<u64> = Vec::new();
    let mut ones = vec![0u64; nl.len()];
    let passes = passes.max(1);
    for _ in 0..passes {
        for word in inputs.iter_mut() {
            *word = next();
        }
        eval_pass_reference(nl, &inputs, &mut values);
        for (o, v) in ones.iter_mut().zip(&values) {
            *o += v.count_ones() as u64;
        }
    }
    let total = (passes * 64) as f64;
    out.clear();
    out.extend(ones.iter().map(|&o| o as f64 / total));
}

/// Print one case and append it to the table and CSV rows.
fn push_row(
    rows: &mut Vec<Vec<String>>,
    csv_rows: &mut Vec<Vec<String>>,
    name: &str,
    work: &str,
    legacy_us: f64,
    tape_us: f64,
) {
    let speedup = legacy_us / tape_us;
    println!("  {name}: legacy {legacy_us:.0} us, tape {tape_us:.0} us  ({speedup:.2}x, {work})");
    let row = |digits: usize| {
        vec![
            name.to_string(),
            work.to_string(),
            format!("{legacy_us:.digits$}"),
            format!("{tape_us:.digits$}"),
            format!("{speedup:.2}"),
        ]
    };
    rows.push(row(1));
    csv_rows.push(row(2));
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (iters, runs) = if quick { (3, 3) } else { (20, 5) };
    let cfg = ErrorConfig::default();
    let cases: Vec<(&str, ArithCircuit)> = vec![
        ("add8_rca", adders::ripple_carry(8)),
        ("add8_loa4", adders::loa(8, 4)),
        ("mul8_wallace", multipliers::wallace_multiplier(8)),
        ("mul8_bam", multipliers::broken_array(8, 6, 2)),
    ];

    println!("sim_scaling: {iters} iters x {runs} runs (median)\n");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (name, circuit) in &cases {
        // Equivalence gate: the legacy loop and the tape kernel must
        // agree on the exact integer error sum before we compare speed.
        let (n, sum_abs) = legacy_exhaustive(circuit);
        let m = analyze(circuit, &cfg);
        assert!(m.exhaustive, "{name}: expected the exhaustive path");
        assert_eq!(n, m.samples, "{name}: sample count diverged");
        assert_eq!(
            sum_abs as f64 / n as f64,
            m.mae,
            "{name}: legacy and tape kernels disagree on MAE"
        );

        let legacy_us = time_us(iters, runs, || {
            std::hint::black_box(legacy_exhaustive(std::hint::black_box(circuit)));
        });
        let tape_us = time_us(iters, runs, || {
            std::hint::black_box(analyze(std::hint::black_box(circuit), &cfg));
        });
        push_row(
            &mut rows,
            &mut csv_rows,
            name,
            &n.to_string(),
            legacy_us,
            tape_us,
        );
    }

    // The fold and unpack layers alone, on approximate circuits (so the
    // fold sees errors) of both 8-bit kinds.
    let layers: Vec<(&str, ArithCircuit)> = vec![
        ("mul8_bam", multipliers::broken_array(8, 6, 2)),
        ("add8_loa4", adders::loa(8, 4)),
    ];
    for (name, circuit) in &layers {
        let got = exhaustive_outputs(circuit);
        let m = analyze(circuit, &cfg);
        assert_eq!(
            block_fold(circuit, &got),
            m,
            "{name}: fold diverged from analyze"
        );
        let (mae, mre) = legacy_fold(circuit, &got);
        assert_eq!(
            (mae.to_bits(), mre.to_bits()),
            (m.mae.to_bits(), m.mre.to_bits()),
            "{name}: legacy and block folds disagree"
        );
        let legacy_us = time_us(iters, runs, || {
            std::hint::black_box(legacy_fold(circuit, std::hint::black_box(&got)));
        });
        let tape_us = time_us(iters, runs, || {
            std::hint::black_box(block_fold(circuit, std::hint::black_box(&got)));
        });
        push_row(
            &mut rows,
            &mut csv_rows,
            &format!("fold_{name}"),
            "65536",
            legacy_us,
            tape_us,
        );

        let (values, outputs) = first_block_values(circuit);
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        unpack_results_wide(&values, &outputs, LANES, &mut fast);
        legacy_unpack(&values, &outputs, LANES, &mut slow);
        assert_eq!(fast, slow, "{name}: width-aware unpack diverged");
        let legacy_us = time_us(iters, runs, || {
            unpack_all(
                &values,
                &outputs,
                std::hint::black_box(&mut slow),
                legacy_unpack,
            );
        });
        let tape_us = time_us(iters, runs, || {
            unpack_all(
                &values,
                &outputs,
                std::hint::black_box(&mut fast),
                unpack_results_wide,
            );
        });
        push_row(
            &mut rows,
            &mut csv_rows,
            &format!("unpack_{name}"),
            "65536",
            legacy_us,
            tape_us,
        );
    }

    // Activity estimation: the ASIC power model's stimulus sweep.
    let wallace = multipliers::wallace_multiplier(8);
    let nl = wallace.netlist();
    let (passes, seed) = (32usize, 0xA51Cu64);
    let mut legacy_probs = Vec::new();
    legacy_signal_probabilities(nl, passes, seed, &mut legacy_probs);
    let mut scratch = SimScratch::new();
    let mut tape_probs = Vec::new();
    scratch.signal_probabilities(nl, passes, seed, &mut tape_probs);
    assert_eq!(
        legacy_probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        tape_probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "activity: legacy and tape kernels disagree"
    );
    let act_iters = iters * 20;
    let legacy_us = time_us(act_iters, runs, || {
        legacy_signal_probabilities(
            std::hint::black_box(nl),
            passes,
            seed,
            std::hint::black_box(&mut legacy_probs),
        );
    });
    let tape_us = time_us(act_iters, runs, || {
        scratch.signal_probabilities(
            std::hint::black_box(nl),
            passes,
            seed,
            std::hint::black_box(&mut tape_probs),
        );
    });
    let work = format!("{passes}p");
    push_row(
        &mut rows,
        &mut csv_rows,
        "activity_mul8_wallace",
        &work,
        legacy_us,
        tape_us,
    );

    write_csv(
        "sim_scaling.csv",
        &["case", "work", "legacy_us", "tape_us", "speedup"],
        &csv_rows,
    );
    println!(
        "\n{}",
        table(&["case", "work", "legacy us", "tape us", "speedup"], &rows)
    );
    println!("baseline for regression checks: BENCH_sim.json (repo root)");
}
