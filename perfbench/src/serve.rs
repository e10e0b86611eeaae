//! The `serve_mixed` workload: an in-process `afp serve` with a persisted
//! `.afpm` zoo, driven as a closed loop by keep-alive clients.
//!
//! Set-up trains the zoo with a flow over a seeded 8x8 multiplier
//! library, saves it, starts the daemon on it and warms the repeat
//! vocabulary. Each client then holds one connection and sends its next
//! request only after the previous reply, so a slower daemon receives
//! less load. The seeded mix is about a third `GET /estimate` over the
//! zoo's covered specs, a few percent first-touch `GET /characterize`
//! misses (`mul8:udm:<mask>` on any target profile) and otherwise
//! repeat `/characterize` hits over the warmed vocabulary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use afp_circuits::{build_library_with, from_spec_ref, ArithCircuit, ArithKind};
use afp_obs::Recorder;
use afp_runtime::{CounterSnapshot, Runtime};
use afp_serve::{ServeConfig, ServerHandle};
use approxfpgas::record::CharacterizeScratch;
use approxfpgas::{
    characterize_request, load_zoo, request_report, save_zoo, Flow, FlowConfig, FlowOutcome,
    RequestConfig,
};

use crate::common::{
    check_recorded_digest, median, peak_rss_mib, reset_peak_rss, sample_indices, splitmix64,
    threads, Args, Hist, Out, WorkDir,
};
use crate::host::Host;
use crate::{flows, layers};

/// Concurrent keep-alive clients.
const CLIENTS: usize = 2;

/// Times the zoo is trained and the daemon started during set-up; each
/// set-up takes under a second, so several give a steady median.
const SETUPS: usize = 7;

/// Share of requests that are `GET /estimate`.
const ESTIMATE_SHARE: f64 = 1.0 / 3.0;

/// Share of requests that are first-touch `/characterize` misses.
const MISS_SHARE: f64 = 0.03;

/// Every client keeps every this-many-th miss body for the direct check.
const MISS_CHECK_STRIDE: u64 = 16;

/// Windows the measured phase is cut into; the host is calibrated
/// between them (see `run`).
const WINDOWS: usize = 10;

/// The warmed repeat vocabulary: every spec on every target.
const HIT_SPECS: [&str; 13] = [
    "add8:rca",
    "add8:cla",
    "add8:csel",
    "add8:cskip",
    "add8:loa:2",
    "add8:trunc:3",
    "add8:nocarry:2",
    "add8:gear:2:2",
    "mul8:array",
    "mul8:wallace",
    "mul8:trunc:4",
    "mul8:broken:6:4",
    "mul8:compressor:3",
];
const TARGETS: [&str; 4] = [
    "lut4-ice40",
    "lut6-7series",
    "lut6-ultrascale",
    "alm-stratix",
];

/// The specs the persisted zoo covers: parameterized 8x8 multipliers.
fn estimate_specs() -> Vec<String> {
    let mut specs = vec!["mul8:array".to_string(), "mul8:wallace".to_string()];
    for k in 0..16 {
        specs.push(format!("mul8:trunc:{k}"));
        specs.push(format!("mul8:compressor:{k}"));
    }
    for vbl in 0..16 {
        for hbl in 0..=8 {
            specs.push(format!("mul8:broken:{vbl}:{hbl}"));
        }
    }
    specs
}

/// The request configuration of a target profile, as the daemon builds it.
fn request_config(target: &str) -> RequestConfig {
    let profile = afp_fpga::target::named(target).expect("target is in the registry");
    RequestConfig::for_target_config(profile.apply(&afp_fpga::FpgaConfig::default()))
}

/// The body the daemon must send for `spec` on `target`, computed
/// directly, without the daemon or its cache.
fn direct_body(spec: &str, target: &str) -> Result<String, String> {
    let circuit = from_spec_ref(spec)?;
    let record = characterize_request(
        &circuit,
        &request_config(target),
        &Runtime::serial(),
        None,
        &mut CharacterizeScratch::default(),
    );
    Ok(format!("{}\n", request_report(&record).to_json()))
}

/// One parsed response.
struct Response {
    status: u16,
    head: String,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().find_map(|line| {
            let (n, v) = line.split_once(':')?;
            n.eq_ignore_ascii_case(name).then_some(v.trim())
        })
    }
}

/// A keep-alive client connection that reconnects when the daemon
/// closes it (after its per-connection request cap).
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn get(&mut self, path: &str) -> Result<Response, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(30))))
                .map_err(|e| format!("socket options: {e}"))?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let result = exchange(conn, path);
        match &result {
            Ok(r) if r.header("connection") != Some("close") => {}
            _ => self.conn = None,
        }
        result
    }
}

fn exchange(conn: &mut BufReader<TcpStream>, path: &str) -> Result<Response, String> {
    conn.get_mut()
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())
        .map_err(|e| format!("{path}: send: {e}"))?;
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = conn
            .read_line(&mut line)
            .map_err(|e| format!("{path}: receive: {e}"))?;
        if n == 0 {
            return Err(format!("{path}: connection closed mid-response"));
        }
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{path}: bad status line"))?;
    let mut response = Response {
        status,
        head,
        body: String::new(),
    };
    let length: usize = response
        .header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: response without Content-Length"))?;
    let mut body = vec![0u8; length];
    conn.read_exact(&mut body)
        .map_err(|e| format!("{path}: receive body: {e}"))?;
    response.body = String::from_utf8(body).map_err(|_| format!("{path}: body is not UTF-8"))?;
    Ok(response)
}

/// What one request asked for.
#[derive(Clone, Copy)]
enum Ask {
    Hit(usize),
    Miss(u64, usize),
    Estimate(usize),
}

/// Latency class of a request, by what the daemon did.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit = 0,
    Miss = 1,
    Estimate = 2,
}

/// What a client saw.
#[derive(Default)]
struct Tally {
    /// Latency per class: hit, miss, estimate.
    latency: [Hist; 3],
    /// Requests sent plus response checks made, and how many failed.
    attempted: u64,
    failed: u64,
    /// Sampled miss answers, checked against a direct computation later.
    miss_bodies: Vec<(u64, usize, String)>,
}

/// What all clients completed in one window of the measured phase.
#[derive(Default)]
struct Window {
    /// Answers: all, and `/characterize` ones.
    answers: u64,
    characterized: u64,
    /// Latency of every answer.
    latency: Hist,
}

/// One closed-loop client: its connection, its seeded request stream and
/// what it saw, kept across the windows of the measured phase.
struct Caller<'a> {
    client: Client,
    state: u64,
    misses: std::slice::Iter<'a, u64>,
    expected: &'a [String],
    estimates: &'a [String],
    tally: Tally,
}

impl Caller<'_> {
    fn next(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Send requests one after another until `deadline`; the answers
    /// count towards `window`.
    fn run_until(&mut self, deadline: Instant, window: &mut Window) {
        while Instant::now() < deadline {
            let draw = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            let pick = self.next();
            let hit = Ask::Hit(pick as usize % (HIT_SPECS.len() * TARGETS.len()));
            let ask = if draw < ESTIMATE_SHARE {
                Ask::Estimate(pick as usize % self.estimates.len())
            } else if draw < ESTIMATE_SHARE + MISS_SHARE {
                match self.misses.next() {
                    Some(&mask) => Ask::Miss(mask, pick as usize % TARGETS.len()),
                    None => hit,
                }
            } else {
                hit
            };
            if let Some((class, latency)) = self.ask(ask) {
                self.tally.latency[class as usize].record(latency);
                window.answers += 1;
                window.characterized += u64::from(class != Class::Estimate);
                window.latency.record(latency);
            }
        }
    }

    /// Send one request and check its answer; the answer's class and
    /// latency, or `None` when it failed.
    fn ask(&mut self, ask: Ask) -> Option<(Class, f64)> {
        let path = match ask {
            Ask::Hit(i) => format!(
                "/characterize?spec={}&target={}",
                HIT_SPECS[i / TARGETS.len()],
                TARGETS[i % TARGETS.len()]
            ),
            Ask::Miss(mask, t) => {
                format!("/characterize?spec=mul8:udm:{mask:x}&target={}", TARGETS[t])
            }
            Ask::Estimate(i) => format!(
                "/estimate?spec={}&target={}",
                self.estimates[i],
                afp_fpga::DEFAULT_TARGET
            ),
        };
        let tally = &mut self.tally;
        tally.attempted += 1;
        let t = Instant::now();
        let response = self.client.get(&path);
        let latency = t.elapsed().as_secs_f64();
        let response = match response {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                tally.failed += 1;
                eprintln!("perfbench: {path}: status {}: {:.120}", r.status, r.body);
                return None;
            }
            Err(e) => {
                tally.failed += 1;
                eprintln!("perfbench: {e}");
                return None;
            }
        };
        let class = match ask {
            Ask::Estimate(_) => {
                tally.attempted += 1;
                if response.header("x-afp-estimate") != Some("model") {
                    tally.failed += 1;
                    eprintln!("perfbench: {path}: not answered by the model");
                }
                Class::Estimate
            }
            Ask::Hit(i) => {
                tally.attempted += 1;
                if response.body != self.expected[i] {
                    tally.failed += 1;
                    eprintln!("perfbench: {path}: body differs from the direct report");
                }
                cache_class(&response)
            }
            Ask::Miss(mask, t) => {
                let class = cache_class(&response);
                if mask.is_multiple_of(MISS_CHECK_STRIDE) {
                    tally.miss_bodies.push((mask, t, response.body));
                }
                class
            }
        };
        Some((class, latency))
    }
}

/// `hit` when the daemon answered from its cache, else `miss`.
fn cache_class(response: &Response) -> Class {
    if response.header("x-afp-cache") == Some("hit") {
        Class::Hit
    } else {
        Class::Miss
    }
}

/// The flow that trains the served zoo.
fn zoo_flow_config(args: &Args) -> FlowConfig {
    flows::config(8, if args.tiny { 80 } else { 600 }, args.seed)
}

/// A started daemon and what its set-up measured.
struct Daemon {
    handle: ServerHandle,
    flow_wall_s: f64,
    outcome: FlowOutcome,
    load_s: f64,
    start_s: f64,
}

/// Set-up: train the zoo with a flow, persist it, start the daemon on
/// it, and answer every repeat request once so later ones hit.
fn start_daemon(
    config: &FlowConfig,
    zoo_path: &Path,
    recorder: &Recorder,
    out: &mut Out,
) -> Result<Daemon, String> {
    let t = Instant::now();
    let outcome = Flow::new(config.clone()).run_traced(recorder);
    let flow_wall_s = t.elapsed().as_secs_f64();
    save_zoo(
        zoo_path,
        &outcome.zoo,
        afp_fpga::DEFAULT_TARGET,
        &[(ArithKind::Multiplier, 8)],
    )
    .map_err(|e| format!("saving the zoo: {e}"))?;
    let t = Instant::now();
    let saved = load_zoo(zoo_path).map_err(|e| format!("loading the zoo: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    out.check(saved.covers(ArithKind::Multiplier, 8), || {
        "the saved zoo does not cover mul8".to_string()
    });
    let t = Instant::now();
    let handle = afp_serve::serve(ServeConfig {
        threads: threads().max(CLIENTS),
        models: vec![zoo_path.to_path_buf()],
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))?;
    let start_s = t.elapsed().as_secs_f64();
    let addr = handle.addr().expect("the daemon listens on TCP");
    let mut client = Client::new(addr);
    for spec in HIT_SPECS {
        for target in TARGETS {
            let path = format!("/characterize?spec={spec}&target={target}");
            let ok = matches!(client.get(&path), Ok(r) if r.status == 200);
            out.check(ok, || format!("warm-up {path} failed"));
        }
    }
    Ok(Daemon {
        handle,
        flow_wall_s,
        outcome,
        load_s,
        start_s,
    })
}

pub fn run(args: &Args, work: &WorkDir, out: &mut Out) -> Result<(), String> {
    let config = zoo_flow_config(args);
    let zoo_path = work.path().join("zoo.afpm");

    // Expected answers of the repeat vocabulary, computed directly, in
    // `Ask::Hit` index order.
    let mut expected = Vec::new();
    for spec in HIT_SPECS {
        for target in TARGETS {
            expected.push(direct_body(spec, target)?);
        }
    }

    // Set-up, several times; the last daemon serves the measured phase.
    // A traced run traces the last set-up's flow and compares it with the
    // untraced ones.
    let mut setup_s = Vec::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut recorder = Recorder::disabled();
    let mut reference: Option<u64> = None;
    let mut daemon: Option<Daemon> = None;
    // Every timed span is scaled to the nominal host by the calibration
    // points either side of it (see `host`).
    let mut host = Host::start(threads());
    for i in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            previous.handle.shutdown();
        }
        if args.trace && i == SETUPS - 1 {
            recorder = Recorder::enabled();
        }
        let t = Instant::now();
        let d = start_daemon(&config, &zoo_path, &recorder, out)?;
        setup_s.push(t.elapsed().as_secs_f64() * host.end_span());
        let digest = flows::digest(&config, &d.outcome);
        let want = *reference.get_or_insert(digest);
        out.check(digest == want, || {
            format!("zoo flow digest {digest:016x} differs from {want:016x}")
        });
        if recorder.is_enabled() {
            traced_s.push(d.flow_wall_s);
        } else {
            untraced_s.push(d.flow_wall_s);
        }
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    if let Some(reference) = reference {
        check_recorded_digest(args, reference, out);
    }

    // Measured phase, in windows. Between windows the clients pause for
    // the host calibration. Rates are the median window's, robust to a
    // few seconds of a busy host; latencies are scaled per window.
    let addr = daemon.handle.addr().expect("the daemon listens on TCP");
    let mut masks: Vec<u64> = (1..=0xFFFF).collect();
    let mut state = splitmix64(args.seed ^ 0x5E21E);
    for i in (1..masks.len()).rev() {
        state = splitmix64(state);
        masks.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let estimates = estimate_specs();
    let own_masks: Vec<Vec<u64>> = (0..CLIENTS)
        .map(|c| masks.iter().copied().skip(c).step_by(CLIENTS).collect())
        .collect();
    let mut callers: Vec<Caller> = own_masks
        .iter()
        .enumerate()
        .map(|(c, own)| Caller {
            client: Client::new(addr),
            state: splitmix64(args.seed.wrapping_mul(31).wrapping_add(c as u64 + 1)),
            misses: own.iter(),
            expected: &expected,
            estimates: &estimates,
            tally: Tally::default(),
        })
        .collect();
    eprintln!("perfbench: set-up peak rss {:.1} MiB", peak_rss_mib());
    let before = daemon.handle.snapshot();
    let window_s = args.seconds / WINDOWS as f64;
    let (mut rates, mut characterize_rates) = (Vec::new(), Vec::new());
    let mut wall = 0.0;
    let mut scaled_latency = Hist::default();
    // Peak resident set of each window.
    let mut rss_mib = Vec::new();
    for _ in 0..WINDOWS {
        reset_peak_rss();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(window_s);
        let windows: Vec<Window> = std::thread::scope(|scope| {
            let handles: Vec<_> = callers
                .iter_mut()
                .map(|caller| {
                    scope.spawn(move || {
                        let mut window = Window::default();
                        caller.run_until(deadline, &mut window);
                        window
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        // The window lasts until its last answer arrived.
        let took = start.elapsed().as_secs_f64();
        wall += took;
        rss_mib.push(peak_rss_mib());
        let scale = host.end_span();
        let mut window = Window::default();
        for w in &windows {
            window.answers += w.answers;
            window.characterized += w.characterized;
            window.latency.merge(&w.latency);
        }
        rates.push(window.answers as f64 / (took * scale));
        characterize_rates.push(window.characterized as f64 / (took * scale));
        scaled_latency.merge_scaled(&window.latency, scale);
    }
    let after = daemon.handle.snapshot();
    let counters = after.since(&before);
    let final_counters = daemon.handle.shutdown();

    // Sampled miss answers against a direct computation.
    let mut latency: [Hist; 3] = Default::default();
    for caller in callers {
        let tally = caller.tally;
        out.count(tally.attempted, tally.failed);
        for (mask, t, body) in tally.miss_bodies {
            let spec = format!("mul8:udm:{mask:x}");
            let want = direct_body(&spec, TARGETS[t])?;
            out.check(body == want, || {
                format!(
                    "{spec} on {}: body differs from the direct report",
                    TARGETS[t]
                )
            });
        }
        for (h, t) in latency.iter_mut().zip(&tally.latency) {
            h.merge(t);
        }
    }
    let [hits, misses, estimated] = &latency;
    let mut all = Hist::default();
    for h in &latency {
        all.merge(h);
    }
    out.check(all.len() > 0, || "no request was answered".to_string());

    out.set("setup_s", median(&setup_s));
    out.set("circuits_per_s", median(&characterize_rates));
    out.set("requests_per_s", median(&rates));
    out.set("latency_p50_ms", scaled_latency.quantile(0.5) * 1e3);
    out.set("latency_p99_ms", scaled_latency.quantile(0.99) * 1e3);
    out.set("peak_rss_mib", median(&rss_mib));
    out.set("pareto_coverage", daemon.outcome.mean_coverage());
    out.set(
        "synth_reduction",
        daemon.outcome.time.synth_reduction().unwrap_or(0.0),
    );
    out.set("latency.samples", all.len() as f64);
    out.set("setup.samples", setup_s.len() as f64);
    eprintln!(
        "perfbench: {} requests ({} hits, {} misses, {} estimates) from {CLIENTS} clients in {wall:.2} s",
        all.len(),
        hits.len(),
        misses.len(),
        estimated.len()
    );

    layers::record_host(host.kernels(), out);
    if args.trace {
        // The zoo flow's layers first: the daemon's own counters then
        // replace the flow's where both report one.
        let threads = threads();
        let library = build_library_with(&config.library, &Runtime::new(threads));
        let picked = sample_indices(library.len(), if args.tiny { 8 } else { 128 }, config.seed);
        let sample: Vec<&ArithCircuit> = picked.iter().map(|&i| &library[i]).collect();
        let times = layers::time_layers(&sample, &config, out);
        layers::record_flow(&recorder, &daemon.outcome, &times, threads, out);
        layers::record_overhead(&untraced_s, &traced_s, out);
        layers::record_fig3(&library, &config, &daemon.outcome, &recorder, threads, out);
        record_serve(&counters, &final_counters, &latency, out);
        out.set("approxfpgas.zoo_store.load_s", daemon.load_s);
        out.set("afp_serve.start_s", daemon.start_s);
    }
    Ok(())
}

/// The daemon's counters over the measured phase, and client-side
/// latency per request class.
fn record_serve(
    delta: &CounterSnapshot,
    total: &CounterSnapshot,
    latency: &[Hist; 3],
    out: &mut Out,
) {
    let [hits, misses, estimates] = latency;
    layers::record_counters(delta, out);
    out.set(
        "afp_serve.characterize_hit_ms.p50",
        hits.quantile(0.5) * 1e3,
    );
    out.set(
        "afp_serve.characterize_hit_ms.p99",
        hits.quantile(0.99) * 1e3,
    );
    out.set(
        "afp_serve.characterize_miss_ms.p50",
        misses.quantile(0.5) * 1e3,
    );
    out.set(
        "afp_serve.characterize_miss_ms.p99",
        misses.quantile(0.99) * 1e3,
    );
    out.set("afp_serve.estimate_ms.p50", estimates.quantile(0.5) * 1e3);
    out.set("afp_serve.estimate_ms.p99", estimates.quantile(0.99) * 1e3);
    out.set(
        "afp_serve.requests_coalesced",
        delta.requests_coalesced as f64,
    );
    out.set("afp_serve.keepalive_reuses", delta.keepalive_reuses as f64);
    out.set("afp_serve.estimates_served", delta.estimates_served as f64);
    out.set("afp_serve.model_cache_hits", delta.model_cache_hits as f64);
    out.set("afp_serve.queue_rejections", delta.queue_rejections as f64);
    out.set("afp_serve.inflight_peak", total.inflight_peak as f64);
    let characterized = hits.len() + misses.len();
    out.set(
        "afp_serve.miss_share",
        if characterized > 0 {
            misses.len() as f64 / characterized as f64
        } else {
            0.0
        },
    );
}
