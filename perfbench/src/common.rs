//! Argument parsing, the result line, statistics and small helpers shared
//! by every workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrink every input (the benchmark's own tests).
    pub tiny: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            tiny: false,
        };
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                args.tiny = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = |what: &str| format!("bad {what} `{value}`");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                        return Err(bad("seconds"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace flag")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        if !crate::WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload `{}`", args.workload));
        }
        Ok(args)
    }
}

/// The benchmark's result: metric values plus the operation and check
/// tally that `correct`, `attempted` and `failed` report.
#[derive(Default)]
pub struct Out {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

impl Out {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Count one operation or output check; a `false` one is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Count `attempted` operations and checks, `failed` of which failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The last stdout line: every `declared` metric by name and unit.
    pub fn to_json(&self, declared: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only when no other run still uses the parent.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in `0..=1`), capped so that at least one
/// sample lies above it when there are two or more, and never below the
/// median. Over the 3 to 16 runs a flow workload measures, a tail
/// percentile is therefore the slowest run but one: one run stalled by
/// the host must not set the tail on its own.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).min(v.len() - 1);
    v[rank.max(1) - 1].max(median(&v))
}

/// SplitMix64: the benchmark's only source of randomness.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A program seed derived from the benchmark seed: seed 0 keeps the
/// program's own default, so the default run explores the library
/// `afp flow` explores.
pub fn derive_seed(seed: u64, default: u64) -> u64 {
    if seed == 0 {
        default
    } else {
        splitmix64(seed ^ default)
    }
}

/// Deterministic sample of `k` distinct indices below `n`, in order.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    let mut state = seed;
    let k = k.min(n);
    for i in 0..k {
        state = splitmix64(state);
        let j = i + (state % (n - i) as u64) as usize;
        all.swap(i, j);
    }
    let mut picked = all[..k].to_vec();
    picked.sort_unstable();
    picked
}

/// FNV-1a, 64 bit, over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Start measuring a peak resident set: return the heap's free pages to
/// the system, so that heap earlier spans freed but the allocator kept
/// does not count, and reset the high-water mark (VmHWM) to the current
/// resident set.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only releases free heap pages.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Worker threads for every parallel stage: one per available core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Report the flow digest of a run and, for the default run (seed 0,
/// full size), check it against the one recorded in `digests.txt`.
pub fn check_recorded_digest(args: &Args, digest: u64, out: &mut Out) {
    eprintln!("perfbench: digest {} {digest:016x}", args.workload);
    if args.seed != 0 || args.tiny {
        return;
    }
    let recorded = include_str!("../digests.txt").lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == args.workload)
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    });
    out.check(recorded == Some(digest), || {
        format!("report digest {digest:016x} differs from the recorded {recorded:016x?}")
    });
}

/// Latency histogram with log-spaced buckets 0.5% wide from 0.1 µs up:
/// constant memory however many requests a run answers, so peak memory
/// does not follow throughput.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

const HIST_FLOOR_S: f64 = 1e-7;
const HIST_GROWTH: f64 = 1.005;
const HIST_BUCKETS: usize = 5000;

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, seconds: f64) {
        let b = ((seconds / HIST_FLOOR_S).ln() / HIST_GROWTH.ln()).floor();
        let b = if b.is_finite() {
            b.clamp(0.0, (HIST_BUCKETS - 1) as f64)
        } else {
            0.0
        };
        self.counts[b as usize] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        self.merge_scaled(other, 1.0);
    }

    /// Merge `other` with every latency multiplied by `scale`, to within
    /// a bucket.
    pub fn merge_scaled(&mut self, other: &Hist, scale: f64) {
        let shift = (scale.ln() / HIST_GROWTH.ln()).round() as i64;
        let last = (HIST_BUCKETS - 1) as i64;
        for (b, &count) in other.counts.iter().enumerate() {
            self.counts[(b as i64 + shift).clamp(0, last) as usize] += count;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile in seconds, placed within its bucket by rank
    /// (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (b, &count) in self.counts.iter().enumerate() {
            if below + count >= rank {
                let within = (rank - below) as f64 - 0.5;
                return HIST_FLOOR_S * HIST_GROWTH.powf(b as f64 + within / count as f64);
            }
            below += count;
        }
        unreachable!("rank is at most the count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.99), 2.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        assert_eq!(percentile(&[1.0, 3.0], 0.99), 2.0);
        assert_eq!(
            percentile(&(1..=200).map(f64::from).collect::<Vec<_>>(), 0.99),
            198.0
        );
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = Hist::default();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-6);
        }
        for (q, want) in [(0.5, 500e-6), (0.99, 990e-6)] {
            let got = h.quantile(q);
            assert!((got / want - 1.0).abs() < 0.006, "{q}: {got} vs {want}");
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
        let mut doubled = Hist::default();
        doubled.merge_scaled(&h, 2.0);
        let got = doubled.quantile(0.5);
        assert!((got / 1000e-6 - 1.0).abs() < 0.006, "{got}");
    }

    #[test]
    fn samples_are_distinct_and_seeded() {
        let a = sample_indices(100, 10, 7);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a, sample_indices(100, 10, 7));
        assert_eq!(sample_indices(5, 10, 7), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn seed_zero_keeps_the_default() {
        assert_eq!(derive_seed(0, 42), 42);
        assert_ne!(derive_seed(1, 42), 42);
    }

    #[test]
    fn arguments() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload serve_mixed --seed 3 --seconds 2 --trace 1").unwrap();
        assert!(args.trace && args.seed == 3 && args.seconds == 2.0);
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve_mixed --trace 2").is_err());
        assert!(parse("--workload serve_mixed --seconds 0").is_err());
    }
}
