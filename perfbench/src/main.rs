//! The repository benchmark: paper-shaped `Flow` runs and an `afp serve`
//! traffic mix, timed from outside the program.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! Every input is derived from `--seed`. The benchmark sets up, measures
//! for `--seconds`, checks the program's outputs, and prints as its last
//! stdout line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` a separate run reports the per-layer ones: timings of calls
//! into each layer's public functions, the `Recorder` stage spans and the
//! runtime counters. `--tiny` shrinks every input for the benchmark's own
//! tests. Wall time always comes from this harness's clock.

mod common;
mod flows;
mod host;
mod layers;
mod serve;

use std::process::ExitCode;

use common::{Args, Out, WorkDir};

/// End-to-end metrics (`--trace 0`): name and unit, in print order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("circuits_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("pareto_coverage", "ratio"),
    ("synth_reduction", "x"),
];

/// Per-layer metrics (`--trace 1`): name and unit, in print order. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("afp_error.analyze_us", "us"),
    ("afp_netlist.sim_us", "us"),
    ("afp_error.fold_us", "us"),
    ("afp_error.pairs_per_s", "1/s"),
    ("afp_fpga.map_us", "us"),
    ("afp_fpga.cuts_merged", "count"),
    ("afp_asic.synth_us", "us"),
    ("afp_circuits.build_s", "s"),
    ("afp_circuits.stream_s", "s"),
    ("afp_runtime.shards_streamed", "count"),
    ("afp_runtime.peak_resident_circuits", "count"),
    ("approxfpgas.cache.hits", "count"),
    ("approxfpgas.cache.misses", "count"),
    ("approxfpgas.cache.hit_rate", "ratio"),
    ("afp_store.cache_open_s", "s"),
    ("afp_store.cache_bytes", "bytes"),
    ("approxfpgas.fidelity.train_s", "s"),
    ("approxfpgas.fidelity.train.ML1_s", "s"),
    ("approxfpgas.fidelity.train.ML2_s", "s"),
    ("approxfpgas.fidelity.train.ML3_s", "s"),
    ("approxfpgas.fidelity.train.ML4_s", "s"),
    ("approxfpgas.fidelity.train.ML5_s", "s"),
    ("approxfpgas.fidelity.train.ML6_s", "s"),
    ("approxfpgas.fidelity.train.ML7_s", "s"),
    ("approxfpgas.fidelity.train.ML8_s", "s"),
    ("approxfpgas.fidelity.train.ML9_s", "s"),
    ("approxfpgas.fidelity.train.ML10_s", "s"),
    ("approxfpgas.fidelity.train.ML11_s", "s"),
    ("approxfpgas.fidelity.train.ML12_s", "s"),
    ("approxfpgas.fidelity.train.ML13_s", "s"),
    ("approxfpgas.fidelity.train.ML14_s", "s"),
    ("approxfpgas.fidelity.train.ML15_s", "s"),
    ("approxfpgas.fidelity.train.ML16_s", "s"),
    ("approxfpgas.fidelity.train.ML17_s", "s"),
    ("approxfpgas.fidelity.train.ML18_s", "s"),
    ("approxfpgas.fidelity.estimate_s", "s"),
    ("approxfpgas.pareto.fronts_s", "s"),
    ("approxfpgas.characterize_s", "s"),
    ("afp_runtime.tasks", "count"),
    ("afp_runtime.steals", "count"),
    ("afp_runtime.characterize_utilization", "ratio"),
    ("afp_serve.characterize_hit_ms.p50", "ms"),
    ("afp_serve.characterize_hit_ms.p99", "ms"),
    ("afp_serve.characterize_miss_ms.p50", "ms"),
    ("afp_serve.characterize_miss_ms.p99", "ms"),
    ("afp_serve.estimate_ms.p50", "ms"),
    ("afp_serve.estimate_ms.p99", "ms"),
    ("afp_serve.requests_coalesced", "count"),
    ("afp_serve.keepalive_reuses", "count"),
    ("afp_serve.estimates_served", "count"),
    ("afp_serve.model_cache_hits", "count"),
    ("afp_serve.queue_rejections", "count"),
    ("afp_serve.inflight_peak", "count"),
    ("afp_serve.miss_share", "ratio"),
    ("approxfpgas.zoo_store.load_s", "s"),
    ("afp_serve.start_s", "s"),
    ("afp_runtime.asic_synths", "count"),
    ("afp_runtime.fpga_synths", "count"),
    ("afp_runtime.error_analyses", "count"),
    ("afp_runtime.structural_dedup_hits", "count"),
    ("afp_runtime.bytes_simulated", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("fig3.ground_truth_s", "s"),
    ("fig3.method_s", "s"),
    ("fig3.method_unsynthesized_s", "s"),
    ("fig3.measured_speedup", "x"),
    ("fig3.modeled_speedup", "x"),
    ("fig3.ground_truth_circuits", "count"),
    ("fig3.method_circuits", "count"),
    ("layers.sample_circuits", "count"),
    ("latency.samples", "count"),
    ("setup.samples", "count"),
    ("host.kernel_ms", "ms"),
    ("host.scale", "x"),
];

/// The workloads, in the order `BENCHMARK.json` declares them.
pub const WORKLOADS: [&str; 4] = [
    "flow_mul8_cold",
    "flow_mul8_warm",
    "flow_mul16_stream",
    "serve_mixed",
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--tiny]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(&args.workload) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Out::default();
    let run = match args.workload.as_str() {
        "flow_mul8_cold" => flows::run(flows::Kind::Cold, &args, &work, &mut out),
        "flow_mul8_warm" => flows::run(flows::Kind::Warm, &args, &work, &mut out),
        "flow_mul16_stream" => flows::run(flows::Kind::Stream, &args, &work, &mut out),
        "serve_mixed" => serve::run(&args, &work, &mut out),
        other => Err(format!("unknown workload `{other}`")),
    };
    drop(work);
    if let Err(message) = run {
        eprintln!("perfbench: {message}");
        return ExitCode::from(1);
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", out.to_json(declared));
    ExitCode::SUCCESS
}
