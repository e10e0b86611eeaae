//! Host-speed calibration.
//!
//! On a shared host the speed a process gets drifts by tens of percent
//! over minutes: neighbours load the same cores and caches. A wall time
//! measured minutes apart then differs by more than any bound a
//! regression check could use. The harness therefore times a fixed
//! kernel of its own right before and right after every timed span
//! (set-up, flow run, serve window) and scales the span by `NOMINAL_S /
//! kernel time`: the time it would have taken on a host that runs the
//! kernel in `NOMINAL_S`. The kernel is the benchmark's own code, so a
//! change to the program moves the scaled times exactly as much as the
//! raw ones. Metrics are medians over the scaled spans.
//!
//! The kernel mixes the kinds of work the program does — hashing,
//! ordered maps, sorting and bit-parallel netlist simulation — because a
//! busy neighbour slows them by different amounts; its items are shared
//! among as many threads as the workload runs so that every core is
//! sampled.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::common::splitmix64;

/// Kernel seconds on the host the bounds were set on (2 vCPUs of a
/// 2.1 GHz Xeon VM, both threads busy).
pub const NOMINAL_S: f64 = 0.060;

/// Work items per kernel run, shared among the threads.
const ITEMS: usize = 40;
/// Keys inserted into, and looked up in, one item's hash map.
const MAP_KEYS: u64 = 1 << 15;
/// Keys of one item's ordered map and values of its sort.
const TREE_KEYS: u64 = 1 << 12;
const SORT_VALUES: u64 = 1 << 14;
/// Gates, input nets and 64-bit words per net of one item's netlist.
const GATES: usize = 400;
const INPUTS: usize = 16;
const WORDS: usize = 64;

/// One item, in the proportions of the program's own work: hash-map
/// building and lookups (its caches and structural dedup), an ordered
/// map and a sort (fronts and model training), and one pass of a fixed
/// random netlist evaluated bit-parallel (error analysis). Returns a
/// fold of the results.
fn item(seed: u64, nets: &mut Vec<u64>) -> u64 {
    let mut s = seed;
    let mut next = || {
        s = splitmix64(s);
        s
    };
    let mut fold = 0;
    let mut map = HashMap::with_capacity(MAP_KEYS as usize);
    for i in 0..MAP_KEYS {
        map.insert(next() & 0xF_FFFF, i);
    }
    for _ in 0..MAP_KEYS {
        fold += map.get(&(next() & 0xF_FFFF)).copied().unwrap_or(0);
    }
    let tree: BTreeMap<u64, u64> = (0..TREE_KEYS).map(|i| (next(), i)).collect();
    fold += tree.range(..u64::MAX / 2).count() as u64;
    let mut values: Vec<u64> = (0..SORT_VALUES).map(|_| next()).collect();
    values.sort_unstable();
    fold ^= values[values.len() / 2];

    nets.clear();
    nets.resize((GATES + INPUTS) * WORDS, 0);
    for x in &mut nets[..INPUTS * WORDS] {
        *x = next();
    }
    let mut s = 0x5EED;
    for g in INPUTS..INPUTS + GATES {
        s = splitmix64(s);
        let (a, b) = ((s as usize) % g, ((s >> 20) as usize) % g);
        let (done, rest) = nets.split_at_mut(g * WORDS);
        let (x, y) = (&done[a * WORDS..][..WORDS], &done[b * WORDS..][..WORDS]);
        let out = &mut rest[..WORDS];
        match (s >> 40) % 3 {
            0 => out
                .iter_mut()
                .zip(x.iter().zip(y))
                .for_each(|(o, (x, y))| *o = x & y),
            1 => out
                .iter_mut()
                .zip(x.iter().zip(y))
                .for_each(|(o, (x, y))| *o = x ^ y),
            _ => out
                .iter_mut()
                .zip(x.iter().zip(y))
                .for_each(|(o, (x, y))| *o = x | y),
        }
    }
    fold ^ nets[(INPUTS + GATES - 8) * WORDS..]
        .iter()
        .map(|x| u64::from(x.count_ones()))
        .sum::<u64>()
}

/// Kernel runs per calibration point.
const POINT_RUNS: usize = 2;

/// Wall seconds of one kernel run on `threads` threads.
fn kernel_s(threads: usize) -> f64 {
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut nets = Vec::new();
                let mut fold = 0;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ITEMS {
                        break;
                    }
                    fold ^= item(i as u64, &mut nets);
                }
                black_box(fold)
            });
        }
    });
    t.elapsed().as_secs_f64()
}

/// Calibration points spread through one benchmark run: one before
/// the first timed span and one after each.
pub struct Host {
    threads: usize,
    /// Kernel seconds of every run of the kernel so far.
    kernels: Vec<f64>,
    /// The last calibration point: the mean of its kernel runs.
    last_point_s: f64,
}

impl Host {
    /// Take the first calibration point.
    pub fn start(threads: usize) -> Host {
        let mut host = Host {
            threads,
            kernels: Vec::new(),
            last_point_s: 0.0,
        };
        host.last_point_s = host.point_s();
        host
    }

    /// Run the kernel `POINT_RUNS` times; returns their mean.
    fn point_s(&mut self) -> f64 {
        let runs: Vec<f64> = (0..POINT_RUNS).map(|_| kernel_s(self.threads)).collect();
        self.kernels.extend(&runs);
        runs.iter().sum::<f64>() / POINT_RUNS as f64
    }

    /// End a timed span: take a calibration point and return the span's
    /// scale, `NOMINAL_S` over the mean of the points either side of it.
    /// A time measured in the span, times the scale, is what it would
    /// have taken on the nominal host.
    pub fn end_span(&mut self) -> f64 {
        let before = self.last_point_s;
        self.last_point_s = self.point_s();
        NOMINAL_S / ((before + self.last_point_s) / 2.0)
    }

    /// Every kernel run so far.
    pub fn kernels(&self) -> &[f64] {
        &self.kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert_eq!(item(3, &mut a), item(3, &mut b));
        assert_ne!(item(3, &mut a), item(4, &mut b));
    }

    #[test]
    fn spans_are_scaled_by_the_points_around_them() {
        let mut host = Host::start(1);
        assert!(host.end_span() > 0.0);
        assert_eq!(host.kernels().len(), 2 * POINT_RUNS);
    }
}
