//! Per-layer measurements of the traced run: direct, serial calls into
//! each characterization layer over a seeded sample of a workload's
//! circuits, the flow's `Recorder` stage spans, its runtime counters, and
//! the measured-against-modeled Fig. 3 pair.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use afp_circuits::{ArithCircuit, BatchEvaluator};
use afp_ml::MlModelId;
use afp_netlist::{SimTape, LANES};
use afp_obs::Recorder;
use afp_runtime::{CounterSnapshot, Runtime};
use approxfpgas::dataset::characterize_library_with;
use approxfpgas::record::estimate_features;
use approxfpgas::{FeatureLayout, FlowConfig, FlowOutcome};

use crate::common::{median, Out};

/// Pairs per block of the error analysis; the sampled path walks its
/// pairs in blocks of this size, as `afp_error::analyze_with` does.
const BLOCK_PAIRS: usize = 4096;

/// Mean serial time per circuit of each characterize sub-layer.
pub struct LayerTimes {
    pub asic_us: f64,
    pub analyze_us: f64,
    pub sim_us: f64,
    pub map_us: f64,
}

impl LayerTimes {
    /// Serial characterize cost of one circuit: ASIC + error + map.
    pub fn per_circuit_s(&self) -> f64 {
        (self.asic_us + self.analyze_us + self.map_us) * 1e-6
    }
}

/// Time ASIC synthesis, error analysis, the bare simulation pass and LUT
/// mapping of every circuit in `sample`, one call at a time, with the
/// configuration the flow uses. Records the per-circuit means into `out`.
pub fn time_layers(sample: &[&ArithCircuit], config: &FlowConfig, out: &mut Out) -> LayerTimes {
    let serial = Runtime::serial();
    let mut mapper = afp_fpga::Mapper::default();
    let mut asic_scratch = afp_asic::AsicScratch::new();
    let mut got: Vec<u64> = Vec::with_capacity(LANES);
    let (mut asic, mut analyze, mut sim, mut map) = (0.0, 0.0, 0.0, 0.0);
    let mut pairs = 0u64;
    for &circuit in sample {
        let netlist = circuit.netlist();
        let t = Instant::now();
        black_box(afp_asic::synthesize_asic_with(
            netlist,
            &config.asic,
            &mut asic_scratch,
        ));
        asic += t.elapsed().as_secs_f64();

        let t = Instant::now();
        black_box(afp_error::analyze_with(circuit, &config.error, &serial));
        analyze += t.elapsed().as_secs_f64();

        let t = Instant::now();
        pairs += simulate(circuit, &config.error, &mut got);
        sim += t.elapsed().as_secs_f64();

        let t = Instant::now();
        black_box(mapper.synthesize(netlist, &config.fpga));
        map += t.elapsed().as_secs_f64();
    }
    let n = sample.len().max(1) as f64;
    let times = LayerTimes {
        asic_us: asic / n * 1e6,
        analyze_us: analyze / n * 1e6,
        sim_us: sim / n * 1e6,
        map_us: map / n * 1e6,
    };
    out.set("layers.sample_circuits", sample.len() as f64);
    out.set("afp_asic.synth_us", times.asic_us);
    out.set("afp_error.analyze_us", times.analyze_us);
    out.set("afp_netlist.sim_us", times.sim_us);
    out.set("afp_error.fold_us", times.analyze_us - times.sim_us);
    out.set(
        "afp_error.pairs_per_s",
        if analyze > 0.0 {
            pairs as f64 / analyze
        } else {
            0.0
        },
    );
    out.set("afp_fpga.map_us", times.map_us);
    times
}

/// One `BatchEvaluator` pass over exactly the input pairs the error
/// analysis evaluates — exhaustive or the stratified sample — with the
/// error fold left out. Returns the number of pairs simulated.
fn simulate(circuit: &ArithCircuit, config: &afp_error::ErrorConfig, got: &mut Vec<u64>) -> u64 {
    let w = circuit.width();
    let tape = SimTape::compile(circuit.netlist());
    let mut batch = BatchEvaluator::with_tape(circuit, &tape);
    let mut sink = 0u64;
    let pairs = if 2 * w <= config.max_exhaustive_bits {
        let end = 1u64 << (2 * w);
        let mut p = 0u64;
        while p < end {
            let n = ((end - p) as usize).min(LANES);
            got.clear();
            batch.eval_exhaustive_block_into(p, n, got);
            sink ^= got.iter().fold(0, |a, &g| a ^ g);
            p += n as u64;
        }
        end
    } else {
        let pairs = afp_error::stratified_pairs(w, config.samples, config.seed);
        for block in pairs.chunks(BLOCK_PAIRS) {
            for chunk in block.chunks(LANES) {
                got.clear();
                if chunk.len() <= 64 {
                    batch.eval_chunk_into(chunk, got);
                } else {
                    batch.eval_block_into(chunk, got);
                }
                sink ^= got.iter().fold(0, |a, &g| a ^ g);
            }
        }
        pairs.len() as u64
    };
    black_box(sink);
    pairs
}

/// Wall seconds of the recorder stage `name` (0 when it never ran).
pub fn stage_s(recorder: &Recorder, name: &str) -> f64 {
    recorder
        .stages()
        .into_iter()
        .find(|(stage, _)| stage == name)
        .map_or(0.0, |(_, stats)| stats.wall_s())
}

/// Stage spans and runtime counters of one traced flow run.
pub fn record_flow(
    recorder: &Recorder,
    outcome: &FlowOutcome,
    layers: &LayerTimes,
    threads: usize,
    out: &mut Out,
) {
    out.set(
        "afp_circuits.build_s",
        stage_s(recorder, "flow/build_library"),
    );
    let characterize_s = stage_s(recorder, "flow/characterize");
    out.set("approxfpgas.characterize_s", characterize_s);
    out.set(
        "approxfpgas.fidelity.train_s",
        stage_s(recorder, "flow/train_zoo"),
    );
    for model in MlModelId::ALL {
        let label = model.label();
        out.set(
            format!("approxfpgas.fidelity.train.{label}_s"),
            stage_s(recorder, &format!("train/{label}")),
        );
    }
    out.set(
        "approxfpgas.fidelity.estimate_s",
        stage_s(recorder, "flow/select_estimate"),
    );
    out.set(
        "approxfpgas.pareto.fronts_s",
        stage_s(recorder, "flow/fronts"),
    );
    let rt = &outcome.runtime;
    record_counters(rt, out);
    // Share of the characterize stage's thread time spent inside the
    // layers: the serial per-circuit cost of every circuit actually
    // characterized over the stage's wall time on every thread.
    let busy = layers.per_circuit_s() * rt.asic_synths as f64;
    out.set(
        "afp_runtime.characterize_utilization",
        if characterize_s > 0.0 {
            busy / (characterize_s * threads as f64)
        } else {
            0.0
        },
    );
}

/// The runtime counters a flow or the daemon reports.
pub fn record_counters(rt: &CounterSnapshot, out: &mut Out) {
    let lookups = rt.cache_hits + rt.cache_misses;
    out.set("approxfpgas.cache.hits", rt.cache_hits as f64);
    out.set("approxfpgas.cache.misses", rt.cache_misses as f64);
    out.set(
        "approxfpgas.cache.hit_rate",
        if lookups > 0 {
            rt.cache_hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    out.set("afp_fpga.cuts_merged", rt.cuts_merged as f64);
    out.set("afp_runtime.tasks", rt.tasks_executed as f64);
    out.set("afp_runtime.steals", rt.steals as f64);
    out.set("afp_runtime.shards_streamed", rt.shards_streamed as f64);
    out.set(
        "afp_runtime.peak_resident_circuits",
        rt.peak_resident_circuits as f64,
    );
    out.set("afp_runtime.asic_synths", rt.asic_synths as f64);
    out.set("afp_runtime.fpga_synths", rt.fpga_synths as f64);
    out.set("afp_runtime.error_analyses", rt.error_analyses as f64);
    out.set(
        "afp_runtime.structural_dedup_hits",
        rt.structural_dedup_hits as f64,
    );
    out.set("afp_runtime.bytes_simulated", rt.bytes_simulated as f64);
}

/// The host calibration of a run: the median kernel time and the scale
/// it gives (see `host`).
pub fn record_host(kernels: &[f64], out: &mut Out) {
    let kernel_s = median(kernels);
    out.set("host.kernel_ms", kernel_s * 1e3);
    out.set("host.scale", crate::host::NOMINAL_S / kernel_s);
}

/// Tracing overhead from paired untraced and traced walls of one
/// operation: medians, and their difference as a share of untraced.
pub fn record_overhead(untraced: &[f64], traced: &[f64], out: &mut Out) {
    let (u, t) = (median(untraced), median(traced));
    out.set("trace.untraced_wall_s", u);
    out.set("trace.traced_wall_s", t);
    out.set(
        "trace.overhead_pct",
        if u > 0.0 { (t - u) / u * 100.0 } else { 0.0 },
    );
}

/// Fig. 3 measured beside modeled. Ground truth characterizes all of
/// `library` (what scoring coverage costs). The method characterizes only
/// the circuits the flow synthesized; every other circuit still needs its
/// ASIC synthesis (the zoo's features) and its error analysis (its place
/// on the error-vs-parameter fronts); the flow's train and select stages
/// come on top. Both sides run cold, without a cache, on `threads`
/// workers, and skip structurally identical duplicates the way
/// `characterize_library_with` does. The modeled speedup is
/// `TimeAccounting::speedup`, an unvalidated model of synthesis time.
pub fn record_fig3(
    library: &[ArithCircuit],
    config: &FlowConfig,
    outcome: &FlowOutcome,
    recorder: &Recorder,
    threads: usize,
    out: &mut Out,
) {
    let rt = Runtime::new(threads);
    let characterize = |circuits: &[ArithCircuit]| {
        let t = Instant::now();
        black_box(characterize_library_with(
            circuits,
            &config.asic,
            &config.fpga,
            &config.error,
            &rt,
            None,
        ));
        t.elapsed().as_secs_f64()
    };
    let ground_truth_s = characterize(library);
    let (synthesized, rest): (Vec<_>, Vec<_>) = library
        .iter()
        .enumerate()
        .partition(|(i, _)| outcome.synthesized.contains(i));
    let synthesized: Vec<ArithCircuit> = synthesized.into_iter().map(|(_, c)| c.clone()).collect();
    let mut seen = HashSet::new();
    let rest: Vec<&ArithCircuit> = rest
        .into_iter()
        .map(|(_, c)| c)
        .filter(|c| seen.insert((c.kind(), c.width(), c.netlist().structural_hash())))
        .collect();
    let synthesized_s = characterize(&synthesized);
    let layout = FeatureLayout::standard();
    let serial = Runtime::serial();
    let t = Instant::now();
    black_box(rt.par_map(&rest, |_, &circuit| {
        (
            estimate_features(circuit, &config.asic, &layout),
            afp_error::analyze_with(circuit, &config.error, &serial),
        )
    }));
    let unsynthesized_s = t.elapsed().as_secs_f64();
    let method_s = synthesized_s
        + unsynthesized_s
        + stage_s(recorder, "flow/train_zoo")
        + stage_s(recorder, "flow/select_estimate");
    out.set("fig3.ground_truth_s", ground_truth_s);
    out.set("fig3.method_s", method_s);
    out.set("fig3.method_unsynthesized_s", unsynthesized_s);
    out.set("fig3.ground_truth_circuits", library.len() as f64);
    out.set("fig3.method_circuits", synthesized.len() as f64);
    out.set(
        "fig3.measured_speedup",
        if method_s > 0.0 {
            ground_truth_s / method_s
        } else {
            0.0
        },
    );
    out.set(
        "fig3.modeled_speedup",
        outcome.time.speedup().unwrap_or(0.0),
    );
}
