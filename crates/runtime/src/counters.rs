//! Shared runtime counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters shared by a [`crate::Runtime`] and the caches attached
/// to a flow run. All increments are `Relaxed`: the values are telemetry,
/// never used for synchronization.
#[derive(Debug, Default)]
pub struct Counters {
    /// Tasks executed by `par_map` (inline or on a worker).
    pub tasks_executed: AtomicU64,
    /// Successful steals (an idle worker taking work from a peer's deque).
    pub steals: AtomicU64,
    /// Characterization cache hits.
    pub cache_hits: AtomicU64,
    /// Characterization cache misses (entries computed and inserted).
    pub cache_misses: AtomicU64,
    /// ASIC synthesis invocations actually performed.
    pub asic_synths: AtomicU64,
    /// FPGA synthesis invocations actually performed.
    pub fpga_synths: AtomicU64,
    /// Behavioural error analyses actually performed.
    pub error_analyses: AtomicU64,
    /// Bytes of operand data pushed through the bit-parallel simulator
    /// (16 bytes per evaluated input pair).
    pub bytes_simulated: AtomicU64,
    /// Cut-pair merges performed by the LUT mapper (post signature filter).
    pub cuts_merged: AtomicU64,
    /// Cut merges rejected O(1) by the leaf-signature popcount filter.
    pub cuts_sig_rejected: AtomicU64,
    /// Candidate cuts dropped by dominance pruning (duplicate or superset
    /// leaf sets).
    pub cuts_dominance_pruned: AtomicU64,
    /// Synthesis calls that reused a worker's warm mapper scratch state.
    pub mapper_reuses: AtomicU64,
    /// Simulation blocks that executed a pre-compiled gate tape instead
    /// of re-lowering the netlist.
    pub sim_tape_reuses: AtomicU64,
    /// Characterizations answered by copying the record of a structurally
    /// identical circuit instead of simulating again.
    pub structural_dedup_hits: AtomicU64,
    /// Shards pulled from a stored corpus (a generated or resident library
    /// is characterized as one shard that is not counted here).
    pub shards_streamed: AtomicU64,
    /// High-water mark of circuits resident at once while streaming a
    /// stored corpus shard-at-a-time (a gauge updated via
    /// [`Counters::max`], not a monotonic count).
    pub peak_resident_circuits: AtomicU64,
    /// Non-finite model estimates quarantined by the flow (excluded from
    /// pseudo-pareto peeling instead of corrupting the ranking).
    pub estimates_quarantined: AtomicU64,
    /// Cache entries whose disk append failed (the run continued with the
    /// in-memory value, but persistence was lost).
    pub cache_write_errors: AtomicU64,
    /// Characterization requests answered by `afp serve` (coalesced
    /// joiners count too — every 200 response is one served request).
    pub requests_served: AtomicU64,
    /// Requests that joined an identical in-flight characterization
    /// instead of starting their own (the coalescing win).
    pub requests_coalesced: AtomicU64,
    /// Connections rejected with a queue-full backpressure response
    /// because the bounded serve queue was at capacity.
    pub queue_rejections: AtomicU64,
    /// High-water mark of distinct characterizations in flight at once in
    /// the serve coalescing map (a gauge updated via [`Counters::max`],
    /// not a monotonic count).
    pub inflight_peak: AtomicU64,
    /// Estimate requests answered from a persisted model zoo (no
    /// synthesis ran — the `afp serve` fast path).
    pub estimates_served: AtomicU64,
    /// Estimate responses reused from the in-memory estimate cache
    /// (the model never even ran).
    pub model_cache_hits: AtomicU64,
    /// Requests after the first answered on an already-open keep-alive
    /// connection (each one saved a TCP handshake).
    pub keepalive_reuses: AtomicU64,
}

impl Counters {
    /// Bump a counter by `n`.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a high-water gauge to at least `n` (for peaks, not counts).
    #[inline]
    pub fn max(counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            asic_synths: self.asic_synths.load(Ordering::Relaxed),
            fpga_synths: self.fpga_synths.load(Ordering::Relaxed),
            error_analyses: self.error_analyses.load(Ordering::Relaxed),
            bytes_simulated: self.bytes_simulated.load(Ordering::Relaxed),
            cuts_merged: self.cuts_merged.load(Ordering::Relaxed),
            cuts_sig_rejected: self.cuts_sig_rejected.load(Ordering::Relaxed),
            cuts_dominance_pruned: self.cuts_dominance_pruned.load(Ordering::Relaxed),
            mapper_reuses: self.mapper_reuses.load(Ordering::Relaxed),
            sim_tape_reuses: self.sim_tape_reuses.load(Ordering::Relaxed),
            structural_dedup_hits: self.structural_dedup_hits.load(Ordering::Relaxed),
            shards_streamed: self.shards_streamed.load(Ordering::Relaxed),
            peak_resident_circuits: self.peak_resident_circuits.load(Ordering::Relaxed),
            estimates_quarantined: self.estimates_quarantined.load(Ordering::Relaxed),
            cache_write_errors: self.cache_write_errors.load(Ordering::Relaxed),
            requests_served: self.requests_served.load(Ordering::Relaxed),
            requests_coalesced: self.requests_coalesced.load(Ordering::Relaxed),
            queue_rejections: self.queue_rejections.load(Ordering::Relaxed),
            inflight_peak: self.inflight_peak.load(Ordering::Relaxed),
            estimates_served: self.estimates_served.load(Ordering::Relaxed),
            model_cache_hits: self.model_cache_hits.load(Ordering::Relaxed),
            keepalive_reuses: self.keepalive_reuses.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value snapshot of [`Counters`], safe to store in results.
///
/// Note: `steals` depends on scheduling and is **not** deterministic
/// across runs or thread counts; everything else is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Tasks executed by `par_map`.
    pub tasks_executed: u64,
    /// Successful steals.
    pub steals: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// ASIC synthesis calls performed.
    pub asic_synths: u64,
    /// FPGA synthesis calls performed.
    pub fpga_synths: u64,
    /// Error analyses performed.
    pub error_analyses: u64,
    /// Bytes of operand data simulated.
    pub bytes_simulated: u64,
    /// Cut-pair merges performed by the LUT mapper.
    pub cuts_merged: u64,
    /// Cut merges rejected by the signature filter.
    pub cuts_sig_rejected: u64,
    /// Candidate cuts dropped by dominance pruning.
    pub cuts_dominance_pruned: u64,
    /// Synthesis calls that reused warm mapper state.
    pub mapper_reuses: u64,
    /// Simulation blocks that reused a pre-compiled gate tape.
    pub sim_tape_reuses: u64,
    /// Characterizations served by structural dedup.
    pub structural_dedup_hits: u64,
    /// Shards pulled from a stored corpus.
    pub shards_streamed: u64,
    /// High-water mark of circuits resident while streaming (a gauge; in
    /// a [`CounterSnapshot::since`] delta it is only meaningful when the
    /// earlier snapshot predates any streaming).
    pub peak_resident_circuits: u64,
    /// Non-finite model estimates quarantined by the flow.
    pub estimates_quarantined: u64,
    /// Cache entries whose disk append failed (persistence lost).
    pub cache_write_errors: u64,
    /// Characterization requests answered by `afp serve`.
    pub requests_served: u64,
    /// Requests that joined an identical in-flight characterization.
    pub requests_coalesced: u64,
    /// Connections rejected by serve queue backpressure.
    pub queue_rejections: u64,
    /// High-water mark of distinct in-flight characterizations (a gauge;
    /// in a [`CounterSnapshot::since`] delta it is only meaningful when
    /// the earlier snapshot predates any serving).
    pub inflight_peak: u64,
    /// Estimate requests answered from a persisted model zoo.
    pub estimates_served: u64,
    /// Estimate responses reused from the in-memory estimate cache.
    pub model_cache_hits: u64,
    /// Keep-alive requests served beyond the first on a connection.
    pub keepalive_reuses: u64,
}

impl CounterSnapshot {
    /// The delta `self - earlier`, counter-wise (saturating).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            steals: self.steals.saturating_sub(earlier.steals),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            asic_synths: self.asic_synths.saturating_sub(earlier.asic_synths),
            fpga_synths: self.fpga_synths.saturating_sub(earlier.fpga_synths),
            error_analyses: self.error_analyses.saturating_sub(earlier.error_analyses),
            bytes_simulated: self.bytes_simulated.saturating_sub(earlier.bytes_simulated),
            cuts_merged: self.cuts_merged.saturating_sub(earlier.cuts_merged),
            cuts_sig_rejected: self
                .cuts_sig_rejected
                .saturating_sub(earlier.cuts_sig_rejected),
            cuts_dominance_pruned: self
                .cuts_dominance_pruned
                .saturating_sub(earlier.cuts_dominance_pruned),
            mapper_reuses: self.mapper_reuses.saturating_sub(earlier.mapper_reuses),
            sim_tape_reuses: self.sim_tape_reuses.saturating_sub(earlier.sim_tape_reuses),
            structural_dedup_hits: self
                .structural_dedup_hits
                .saturating_sub(earlier.structural_dedup_hits),
            shards_streamed: self.shards_streamed.saturating_sub(earlier.shards_streamed),
            peak_resident_circuits: self
                .peak_resident_circuits
                .saturating_sub(earlier.peak_resident_circuits),
            estimates_quarantined: self
                .estimates_quarantined
                .saturating_sub(earlier.estimates_quarantined),
            cache_write_errors: self
                .cache_write_errors
                .saturating_sub(earlier.cache_write_errors),
            requests_served: self.requests_served.saturating_sub(earlier.requests_served),
            requests_coalesced: self
                .requests_coalesced
                .saturating_sub(earlier.requests_coalesced),
            queue_rejections: self
                .queue_rejections
                .saturating_sub(earlier.queue_rejections),
            inflight_peak: self.inflight_peak.saturating_sub(earlier.inflight_peak),
            estimates_served: self
                .estimates_served
                .saturating_sub(earlier.estimates_served),
            model_cache_hits: self
                .model_cache_hits
                .saturating_sub(earlier.model_cache_hits),
            keepalive_reuses: self
                .keepalive_reuses
                .saturating_sub(earlier.keepalive_reuses),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let c = Counters::default();
        Counters::add(&c.tasks_executed, 10);
        Counters::add(&c.cache_hits, 3);
        let a = c.snapshot();
        Counters::add(&c.tasks_executed, 5);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.tasks_executed, 5);
        assert_eq!(d.cache_hits, 0);
        assert_eq!(b.tasks_executed, 15);
    }

    #[test]
    fn max_is_a_high_water_gauge() {
        let c = Counters::default();
        Counters::max(&c.peak_resident_circuits, 40);
        Counters::max(&c.peak_resident_circuits, 12);
        Counters::max(&c.peak_resident_circuits, 64);
        assert_eq!(c.snapshot().peak_resident_circuits, 64);
    }
}
