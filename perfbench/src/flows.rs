//! The three flow workloads: the paper's 4,494-circuit 8x8 multiplier
//! library against an empty and a populated on-disk cache, and the
//! 1,500-circuit 16x16 multiplier library streamed from a stored corpus.

use std::path::Path;
use std::time::Instant;

use afp_circuits::{
    build_library_with, read_library, write_library, ArithCircuit, ArithKind, LibrarySource,
    LibrarySpec,
};
use afp_obs::{Recorder, Value};
use afp_runtime::Runtime;
use approxfpgas::{run_report, Flow, FlowConfig, FlowOutcome};

use crate::common::{
    check_recorded_digest, derive_seed, dir_bytes, fnv64, median, peak_rss_mib, percentile,
    reset_peak_rss, sample_indices, threads, Args, Out, WorkDir,
};
use crate::host::Host;
use crate::layers;

/// Which flow workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every run starts from an empty on-disk cache.
    Cold,
    /// Every run reads a cache a cold run populated during set-up.
    Warm,
    /// Every run streams a stored `.afps` corpus in shards.
    Stream,
}

/// Circuits per shard of the streamed corpus.
const SHARD: usize = 256;

/// Set-ups per run; `setup_s` is their median. Each takes under a
/// second, so several give a steady median.
const SETUPS: usize = 7;

/// Set-ups of the warm workload: each is a full cold flow of several
/// seconds, and calibration makes two enough for a steady median.
const WARM_SETUPS: usize = 2;

/// Fewest untraced flow runs a run measures, so that the capped
/// `percentile` tail is never below the median.
const MIN_RUNS: usize = 3;

/// The flow configuration of a workload: the library spec and flow seed
/// derived from the benchmark seed, every other setting at its default,
/// and one worker thread per core.
pub fn config(width: usize, size: usize, seed: u64) -> FlowConfig {
    let spec = LibrarySpec::new(ArithKind::Multiplier, width, size);
    let defaults = FlowConfig::default();
    FlowConfig {
        library: LibrarySpec {
            seed: derive_seed(seed, spec.seed),
            ..spec
        },
        threads: threads(),
        seed: derive_seed(seed, defaults.seed),
        ..defaults
    }
}

/// Digest of what a flow computed: its normalized run report without the
/// sections that describe how it ran (runtime counters, cache traffic,
/// thread count), plus every record and the synthesized and final-front
/// sets. Cold, warm, traced and streamed runs of one input agree on it.
pub fn digest(config: &FlowConfig, outcome: &FlowOutcome) -> u64 {
    let report = run_report(config, outcome, &Recorder::disabled());
    let mut report = approxfpgas::report::normalized(&report);
    report
        .sections
        .retain(|s| s.name != "runtime" && s.name != "cache");
    report.set_field("flow", "threads", Value::UInt(0));
    let text = format!(
        "{}{:?}{:?}{:?}",
        report.to_json(),
        outcome.records,
        outcome.synthesized,
        outcome.final_fronts
    );
    fnv64(text.as_bytes())
}

/// One measured flow run.
struct Run {
    flow: Flow,
    outcome: FlowOutcome,
    /// Wall seconds of the run, cache opening included.
    wall_s: f64,
    /// Wall seconds spent opening the cache.
    open_s: f64,
    /// Size of the run's on-disk cache right after the run.
    cache_bytes: u64,
}

/// Open the flow's cache and run it.
fn run_flow(
    config: &FlowConfig,
    corpus: Option<&Path>,
    recorder: &Recorder,
) -> Result<Run, String> {
    let t = Instant::now();
    let flow = Flow::try_new(config.clone()).map_err(|e| format!("opening the cache: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();
    let outcome = match corpus {
        Some(path) => flow
            .run_source_traced(&LibrarySource::Stored(path.to_path_buf()), recorder)
            .map_err(|e| format!("streaming {}: {e}", path.display()))?,
        None => flow.run_traced(recorder),
    };
    Ok(Run {
        flow,
        outcome,
        wall_s: t.elapsed().as_secs_f64(),
        open_s,
        cache_bytes: config.cache_dir.as_deref().map_or(0, dir_bytes),
    })
}

pub fn run(kind: Kind, args: &Args, work: &WorkDir, out: &mut Out) -> Result<(), String> {
    let threads = threads();
    let (width, size) = match (kind, args.tiny) {
        (Kind::Stream, false) => (16, 1500),
        (Kind::Stream, true) => (16, 40),
        (_, false) => (8, 4494),
        (_, true) => (8, 120),
    };
    let mut config = config(width, size, args.seed);
    config.shard_circuits = SHARD;
    let corpus = work.path().join("mul16.afps");
    let mut setup_s: Vec<f64> = Vec::new();
    let mut reference: Option<u64> = None;
    // Every timed span is scaled to the nominal host by the calibration
    // points either side of it (see `host`).
    let mut host = Host::start(threads);

    // Set-up, several times. Both mul8 workloads run a cold flow into a
    // fresh cache directory. The warm workload reads the cache the last
    // one populates. For the cold workload they are warm-ups on a library
    // of the same spec a tenth the size, which let lazy initialization
    // finish before timing (so work moved there shows in `setup_s`).
    // The streamed workload persists its corpus.
    match kind {
        Kind::Cold | Kind::Warm => {
            let mut setup = config.clone();
            if kind == Kind::Cold {
                setup.library.target_size = (size / 10).max(size.min(120));
            }
            let mut setup_reference = None;
            let setups = if kind == Kind::Warm {
                WARM_SETUPS
            } else {
                SETUPS
            };
            for i in 0..setups {
                if let Some(previous) = &setup.cache_dir {
                    let _ = std::fs::remove_dir_all(previous);
                }
                setup.cache_dir = Some(work.path().join(format!("cache-setup-{i}")));
                let t = Instant::now();
                let populated = run_flow(&setup, None, &Recorder::disabled())?;
                setup_s.push(t.elapsed().as_secs_f64() * host.end_span());
                check_run(Kind::Cold, &setup, &populated, &mut setup_reference, out);
            }
            if kind == Kind::Warm {
                config.cache_dir = setup.cache_dir;
                reference = setup_reference;
            } else if let Some(dir) = &setup.cache_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        Kind::Stream => {
            let rt = Runtime::new(threads);
            for _ in 0..SETUPS {
                let t = Instant::now();
                let library = build_library_with(&config.library, &rt);
                write_library(&corpus, &library)
                    .map_err(|e| format!("writing {}: {e}", corpus.display()))?;
                drop(library);
                setup_s.push(t.elapsed().as_secs_f64() * host.end_span());
            }
        }
    }

    eprintln!("perfbench: set-up peak rss {:.1} MiB", peak_rss_mib());
    // Measured phase. A traced run alternates untraced and traced runs
    // so the tracing overhead is measured on the same inputs.
    let start = Instant::now();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    // Peak resident set of each untraced run.
    let mut rss_mib = Vec::new();
    let mut last: Option<Run> = None;
    let mut traced_run: Option<(Run, Recorder)> = None;
    for i in 0.. {
        if kind == Kind::Cold {
            if let Some(previous) = &config.cache_dir {
                let _ = std::fs::remove_dir_all(previous);
            }
            config.cache_dir = Some(work.path().join(format!("cache-{i}")));
        }
        let traced = args.trace && i % 2 == 1;
        let recorder = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        reset_peak_rss();
        let run = run_flow(
            &config,
            (kind == Kind::Stream).then_some(&*corpus),
            &recorder,
        )?;
        let peak_mib = peak_rss_mib();
        let wall_s = run.wall_s * host.end_span();
        check_run(kind, &config, &run, &mut reference, out);
        if traced {
            traced_s.push(wall_s);
            traced_run = Some((run, recorder));
        } else {
            untraced_s.push(wall_s);
            rss_mib.push(peak_mib);
            last = Some(run);
        }
        let done = start.elapsed().as_secs_f64() >= args.seconds && untraced_s.len() >= MIN_RUNS;
        if done && (!args.trace || traced_run.is_some()) {
            break;
        }
    }
    let last = last.expect("the measured loop runs at least once");
    check_rerun(kind, &config, &last, &corpus, reference, out)?;
    if let Some(reference) = reference {
        check_recorded_digest(args, reference, out);
    }

    // Rates from the median run: robust to a run slowed by a busy host.
    let outcome = &last.outcome;
    let per_run_s = median(&untraced_s);
    out.set("setup_s", median(&setup_s));
    out.set("circuits_per_s", outcome.records.len() as f64 / per_run_s);
    out.set("requests_per_s", 1.0 / per_run_s);
    out.set("latency_p50_ms", per_run_s * 1e3);
    out.set("latency_p99_ms", percentile(&untraced_s, 0.99) * 1e3);
    out.set("peak_rss_mib", median(&rss_mib));
    out.set("pareto_coverage", outcome.mean_coverage());
    out.set(
        "synth_reduction",
        outcome.time.synth_reduction().unwrap_or(0.0),
    );
    out.set("latency.samples", untraced_s.len() as f64);
    out.set("setup.samples", setup_s.len() as f64);
    layers::record_host(host.kernels(), out);
    eprintln!(
        "perfbench: {} flow runs of {} circuits, {} set-ups; scaled untraced walls \
         {untraced_s:.3?} s",
        untraced_s.len() + traced_s.len(),
        outcome.records.len(),
        setup_s.len()
    );

    if let Some((run, recorder)) = traced_run {
        let library = match kind {
            Kind::Stream => read_library(&corpus).map_err(|e| format!("reading corpus: {e}"))?,
            _ => build_library_with(&config.library, &Runtime::new(threads)),
        };
        let sample_size = match (kind, args.tiny) {
            (_, true) => 8,
            (Kind::Stream, false) => 64,
            (_, false) => 256,
        };
        let picked = sample_indices(library.len(), sample_size, config.seed);
        let sample: Vec<&ArithCircuit> = picked.iter().map(|&i| &library[i]).collect();
        let times = layers::time_layers(&sample, &config, out);
        layers::record_flow(&recorder, &run.outcome, &times, threads, out);
        layers::record_overhead(&untraced_s, &traced_s, out);
        out.set("afp_store.cache_open_s", run.open_s);
        out.set("afp_store.cache_bytes", run.cache_bytes as f64);
        if kind == Kind::Stream {
            let t = Instant::now();
            let streamed = LibrarySource::Stored(corpus.clone())
                .for_each_shard(SHARD, &Runtime::new(threads), |shard| {
                    std::hint::black_box(shard);
                    Ok(())
                })
                .map_err(|e| format!("streaming {}: {e}", corpus.display()))?;
            out.set("afp_circuits.stream_s", t.elapsed().as_secs_f64());
            out.check(streamed == library.len(), || {
                format!("streamed {streamed} of {} circuits", library.len())
            });
        }
        layers::record_fig3(&library, &config, &run.outcome, &recorder, threads, out);
    }
    Ok(())
}

/// Checks on every measured run: same digest as the first run of this
/// input, and on the warm workload, every circuit a cache hit.
fn check_run(
    kind: Kind,
    config: &FlowConfig,
    run: &Run,
    reference: &mut Option<u64>,
    out: &mut Out,
) {
    let d = digest(config, &run.outcome);
    let want = *reference.get_or_insert(d);
    out.check(d == want, || {
        format!("report digest {d:016x} differs from {want:016x}")
    });
    if kind == Kind::Warm {
        let rt = &run.outcome.runtime;
        out.check(rt.cache_misses == 0 && rt.asic_synths == 0, || {
            format!(
                "warm run missed the cache: {} misses, {} ASIC syntheses",
                rt.cache_misses, rt.asic_synths
            )
        });
    }
}

/// The cold and streamed workloads re-run their last input warm: the
/// cold one from a freshly opened on-disk cache, the streamed one through
/// the same flow's in-memory cache. Every circuit must hit and the digest
/// must not move.
fn check_rerun(
    kind: Kind,
    config: &FlowConfig,
    last: &Run,
    corpus: &Path,
    reference: Option<u64>,
    out: &mut Out,
) -> Result<(), String> {
    let outcome = match kind {
        Kind::Warm => return Ok(()),
        Kind::Cold => run_flow(config, None, &Recorder::disabled())?.outcome,
        Kind::Stream => last
            .flow
            .run_source(&LibrarySource::Stored(corpus.to_path_buf()))
            .map_err(|e| format!("streaming {}: {e}", corpus.display()))?,
    };
    let d = digest(config, &outcome);
    out.check(Some(d) == reference, || {
        format!("warm re-run digest {d:016x} differs from {reference:016x?}")
    });
    let rt = &outcome.runtime;
    out.check(rt.asic_synths == 0 && rt.cache_misses == 0, || {
        format!("warm re-run characterized {} circuits", rt.asic_synths)
    });
    Ok(())
}
