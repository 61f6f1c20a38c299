//! Serving observability: per-model counters, per-bucket breakdowns,
//! a power-of-two latency histogram for p50/p99, and — on sharded
//! models — per-shard execution counters.
//!
//! Everything is updated with relaxed atomics on the request path (the
//! histogram takes a short mutex only when a request completes) and
//! read via [`ModelStats::snapshot`], which is what
//! [`crate::Model::stats`] and the bench binary's `--stats` dump show.
//!
//! # Per-shard counters
//!
//! A sharded model (DESIGN.md "Sharded execution") registers one
//! [`ShardStats`] per engine shard at load. The shard's executor
//! records every sub-batch it runs (units, padding, execution wall
//! time, panics), and the *fusion* step's overhead — copying request
//! inputs into per-shard tensors and partial outputs back out — is
//! accounted separately in [`StatsSnapshot::fuse_us`], because that
//! copy cost is exactly where shard scaling goes to die on small
//! batches (see the shard-count decision table in DESIGN.md). [`ModelStats::snapshot`]
//! folds all of it into the existing [`StatsSnapshot`], so `model
//! .stats()` is still the single observability entry point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Histogram over power-of-two microsecond buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` µs, bucket 0 covers `[0, 2)` µs. 40 buckets reach
/// ~12.7 days — effectively unbounded for a request latency.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; 40],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; 40],
            total: 0,
        }
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - us.leading_zeros() as usize)
            .saturating_sub(1)
            .min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate quantile in µs: the *lower* edge of the bucket
    /// holding the `q`-th sample (q in [0, 1]), i.e. a value every
    /// sample in the bucket is `>=`. Bucket 0 reports 0. `None` when
    /// empty.
    ///
    /// Reporting the lower edge keeps the estimate conservative: the
    /// upper edge would inflate quantiles by up to 2× (a model whose
    /// every request finishes in under 1 µs would report p50 = 2 µs).
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i == 0 { 0 } else { 1u64 << i });
            }
        }
        Some(1u64 << (self.counts.len() - 1))
    }
}

#[derive(Debug, Default)]
struct BucketCounters {
    batches: AtomicU64,
    requests: AtomicU64,
    rows: AtomicU64,
    padded_rows: AtomicU64,
}

/// Number of bins in the decode batch-occupancy histogram: bin `i`
/// counts iterations whose occupancy (steps executed over session
/// slots in the bucket) fell in `[i*10%, (i+1)*10%)`, except bin 10,
/// which means a completely full batch.
pub const OCCUPANCY_BINS: usize = 11;

#[derive(Debug, Default)]
struct DecodeBucketCounters {
    iterations: AtomicU64,
    steps: AtomicU64,
}

/// Live counters for one engine shard of a sharded model. Created by
/// `shard::EngineShard`, registered on the model's [`ModelStats`], and
/// surfaced as a [`ShardSnapshot`] per shard in every
/// [`StatsSnapshot`].
#[derive(Debug)]
pub struct ShardStats {
    /// Shard index within the model (0-based; display only — the
    /// plan-cache slot is 1-based, see [`crate::cache::PlanKey::shard`]).
    pub(crate) id: usize,
    /// The shard pool's width (cores it keeps busy).
    pub(crate) threads: usize,
    /// Kernel backend of the shard's engine.
    pub(crate) isa: &'static str,
    /// Whether the kernel accepted the shard's core-range pin.
    pub(crate) pinned: bool,
    batches: AtomicU64,
    units: AtomicU64,
    padded_units: AtomicU64,
    exec_ns: AtomicU64,
    panics: AtomicU64,
}

impl ShardStats {
    pub(crate) fn new(id: usize, threads: usize, isa: &'static str, pinned: bool) -> Self {
        ShardStats {
            id,
            threads,
            isa,
            pinned,
            batches: AtomicU64::new(0),
            units: AtomicU64::new(0),
            padded_units: AtomicU64::new(0),
            exec_ns: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// One sub-batch executed on this shard: `units` real units padded
    /// up to `bucket`, in `wall`.
    pub(crate) fn record_exec(&self, units: u64, bucket: u64, wall: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.units.fetch_add(units, Ordering::Relaxed);
        self.padded_units
            .fetch_add(bucket.saturating_sub(units), Ordering::Relaxed);
        self.exec_ns.fetch_add(
            wall.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// A job on this shard's executor panicked (the batch's waiters
    /// were failed; the shard keeps serving).
    pub(crate) fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs that have panicked on this shard so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            id: self.id as u64,
            threads: self.threads as u64,
            isa: self.isa.to_string(),
            pinned: self.pinned,
            batches: self.batches.load(Ordering::Relaxed),
            units: self.units.load(Ordering::Relaxed),
            padded_units: self.padded_units.load(Ordering::Relaxed),
            exec_us: self.exec_ns.load(Ordering::Relaxed) / 1_000,
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// Live counters for one served model.
///
/// The completed-request count is not stored as a separate counter: it
/// is the latency histogram's sample total, so a [`StatsSnapshot`] can
/// never show a request count that disagrees with its own quantiles.
#[derive(Debug, Default)]
pub struct ModelStats {
    fast_path: AtomicU64,
    batches: AtomicU64,
    buckets: Mutex<HashMap<u64, BucketCounters>>,
    latency: Mutex<LatencyHistogram>,
    /// Decode iterations keyed by (cache capacity, row bucket).
    decode_buckets: Mutex<HashMap<(u64, u64), DecodeBucketCounters>>,
    /// Batch-occupancy histogram over decode iterations.
    decode_occupancy: Mutex<[u64; OCCUPANCY_BINS]>,
    /// Per-shard counters, registered once at model load (empty on
    /// unsharded models).
    shards: Mutex<Vec<Arc<ShardStats>>>,
    /// Batches whose units were scattered across more than one shard.
    scattered_batches: AtomicU64,
    /// Wall time spent in the fuse step (the input and output copies of
    /// a batch on a sharded model), outside any shard's own execution.
    fuse_ns: AtomicU64,
}

impl ModelStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        ModelStats::default()
    }

    /// A request bypassed the queue; its execution is still counted by
    /// [`ModelStats::record_batch`] (as a batch of one).
    pub(crate) fn record_fast_path(&self, latency: Duration) {
        self.fast_path.fetch_add(1, Ordering::Relaxed);
        self.latency.lock().unwrap().record(latency);
    }

    /// One engine execution of `requests` coalesced requests. Every
    /// completed request passes through here exactly once; its latency
    /// is recorded separately ([`ModelStats::record_fast_path`] or
    /// [`ModelStats::record_request_latency`]) when its waiter wakes.
    pub(crate) fn record_batch(&self, units: u64, requests: u64, rows: u64, padded: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let map = &mut *self.buckets.lock().unwrap();
        let b = map.entry(units).or_default();
        b.batches.fetch_add(1, Ordering::Relaxed);
        b.requests.fetch_add(requests, Ordering::Relaxed);
        b.rows.fetch_add(rows, Ordering::Relaxed);
        b.padded_rows.fetch_add(padded, Ordering::Relaxed);
    }

    pub(crate) fn record_request_latency(&self, latency: Duration) {
        self.latency.lock().unwrap().record(latency);
    }

    /// One decode-scheduler iteration: `steps` decode steps executed
    /// in one batched plan run at cache capacity `capacity`, row
    /// bucket `rows`, with `slots` session slots available in the
    /// bucket (`steps <= slots`; the difference is padding).
    pub(crate) fn record_decode_iteration(&self, capacity: u64, rows: u64, steps: u64, slots: u64) {
        {
            let map = &mut *self.decode_buckets.lock().unwrap();
            let b = map.entry((capacity, rows)).or_default();
            b.iterations.fetch_add(1, Ordering::Relaxed);
            b.steps.fetch_add(steps, Ordering::Relaxed);
        }
        let bin = ((steps * 10) / slots.max(1)).min(10) as usize;
        self.decode_occupancy.lock().unwrap()[bin] += 1;
    }

    /// Install the sharded runtime's per-shard counters (once, at
    /// load).
    pub(crate) fn register_shards(&self, shards: Vec<Arc<ShardStats>>) {
        *self.shards.lock().unwrap() = shards;
    }

    /// One batch ran on `shards` shards, with `fuse` spent copying
    /// inputs into per-shard tensors and partial outputs back out.
    pub(crate) fn record_scatter(&self, shards: usize, fuse: Duration) {
        if shards > 1 {
            self.scattered_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.fuse_ns.fetch_add(
            fuse.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// Consistent-enough point-in-time copy of every counter.
    ///
    /// The completed-request count is derived from the latency
    /// histogram total (every completed request records exactly one
    /// latency sample), so `requests` always agrees with the quantiles
    /// taken from the same locked histogram. Reading the separate
    /// relaxed atomic instead could disagree with the histogram by
    /// however many requests completed between the two reads.
    ///
    /// `queue_depth` and `busy_rejections` belong to the queue, not to
    /// these counters: they read 0 here and the owning model's batcher
    /// fills them in.
    pub fn snapshot(&self) -> StatsSnapshot {
        let hist = self.latency.lock().unwrap().clone();
        let mut buckets: Vec<BucketSnapshot> = self
            .buckets
            .lock()
            .unwrap()
            .iter()
            .map(|(&units, c)| BucketSnapshot {
                units,
                batches: c.batches.load(Ordering::Relaxed),
                requests: c.requests.load(Ordering::Relaxed),
                rows: c.rows.load(Ordering::Relaxed),
                padded_rows: c.padded_rows.load(Ordering::Relaxed),
            })
            .collect();
        buckets.sort_by_key(|b| b.units);
        let mut decode_buckets: Vec<DecodeBucketSnapshot> = self
            .decode_buckets
            .lock()
            .unwrap()
            .iter()
            .map(|(&(capacity, rows), c)| DecodeBucketSnapshot {
                capacity,
                rows,
                iterations: c.iterations.load(Ordering::Relaxed),
                steps: c.steps.load(Ordering::Relaxed),
            })
            .collect();
        decode_buckets.sort_by_key(|b| (b.capacity, b.rows));
        let decode_occupancy = *self.decode_occupancy.lock().unwrap();
        let shards: Vec<ShardSnapshot> = self
            .shards
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.snapshot())
            .collect();
        StatsSnapshot {
            kernel_dispatch: KernelDispatchSnapshot::current(),
            requests: hist.total(),
            fast_path: self.fast_path.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            busy_rejections: 0,
            queue_depth: 0,
            p50_us: hist.quantile_us(0.50),
            p99_us: hist.quantile_us(0.99),
            buckets,
            decode_buckets,
            decode_occupancy,
            shards,
            scattered_batches: self.scattered_batches.load(Ordering::Relaxed),
            fuse_us: self.fuse_ns.load(Ordering::Relaxed) / 1_000,
        }
    }
}

/// Point-in-time counters for one engine shard (see [`ShardStats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index within the model (0-based).
    pub id: u64,
    /// Pool width the shard runs at.
    pub threads: u64,
    /// Kernel backend (`scalar` / `avx2` / `avx512`) of the shard's
    /// engine, which runs every plan compiled for the shard — may
    /// differ from the process default on heterogeneous shard layouts.
    pub isa: String,
    /// Whether the kernel accepted the shard's core-range pin at spawn.
    pub pinned: bool,
    /// Sub-batches this shard executed.
    pub batches: u64,
    /// Real batching units executed.
    pub units: u64,
    /// Zero-padding units executed (each shard pads its slice to its
    /// own power-of-two bucket).
    pub padded_units: u64,
    /// Wall time inside shard execution (µs), summed over sub-batches.
    pub exec_us: u64,
    /// Jobs that panicked on this shard's executor.
    pub panics: u64,
}

/// Counters for one decode `(capacity, rows)` bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeBucketSnapshot {
    /// Cache capacity (positions) the bucket's plans run at.
    pub capacity: u64,
    /// Row bucket (session slots × heads) of the batched plan.
    pub rows: u64,
    /// Scheduler iterations (= plan executions) at this bucket.
    pub iterations: u64,
    /// Decode steps coalesced into those iterations.
    pub steps: u64,
}

/// Counters for one shape bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// Bucket size in batching units.
    pub units: u64,
    /// Batches executed at this bucket.
    pub batches: u64,
    /// Requests coalesced into those batches.
    pub requests: u64,
    /// Real (request) units executed.
    pub rows: u64,
    /// Zero-padding units executed.
    pub padded_rows: u64,
}

/// Which microkernel backend the process defaults to, and how many
/// kernel calls each (family × ISA) variant has executed. Taken from
/// the process-wide dispatch counters ([`gc_microkernel::dispatch_report`]),
/// so the counts cover every model in the process, not just this one —
/// the point is verifying *which code* served the traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelDispatchSnapshot {
    /// The default backend (`scalar` / `avx2` / `avx512`), after
    /// `GC_FORCE_ISA` clamping — what every engine built without an
    /// explicit ISA runs on.
    pub active: String,
    /// Best backend the CPU supports.
    pub detected: String,
    /// Whether the int8 dot runs on VNNI under the default backend.
    pub vnni: bool,
    /// Cumulative `(family, isa, calls)` counters, family-major,
    /// zero-count variants omitted.
    pub counts: Vec<(String, String, u64)>,
}

impl KernelDispatchSnapshot {
    /// Snapshot the process-wide dispatch state.
    pub fn current() -> Self {
        let r = gc_microkernel::dispatch_report();
        KernelDispatchSnapshot {
            active: r.active.name().to_string(),
            detected: r.detected.name().to_string(),
            vnni: r.vnni,
            counts: r
                .counts
                .iter()
                .map(|c| {
                    (
                        c.family.name().to_string(),
                        c.isa.name().to_string(),
                        c.calls,
                    )
                })
                .collect(),
        }
    }

    /// Total kernel calls recorded on backends other than the default
    /// `active` one. Zero while every engine in the process takes the
    /// default; legitimately non-zero when an engine was given another
    /// backend (a heterogeneous shard's `ShardSpec::isa`) — calls are
    /// counted against the handle that ran them.
    pub fn off_active_calls(&self) -> u64 {
        self.counts
            .iter()
            .filter(|(_, isa, _)| *isa != self.active)
            .map(|(_, _, calls)| calls)
            .sum()
    }
}

/// Point-in-time model statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Process-wide microkernel ISA dispatch state and per-variant call
    /// counts.
    pub kernel_dispatch: KernelDispatchSnapshot,
    /// Requests completed (fast-path + batched). Derived from the
    /// latency histogram total, so it always agrees with `p50_us` /
    /// `p99_us` from the same snapshot.
    pub requests: u64,
    /// Requests served synchronously on an idle model.
    pub fast_path: u64,
    /// Engine executions (coalesced batches, including fast-path
    /// batches of one).
    pub batches: u64,
    /// Requests rejected with [`crate::ServeError::Busy`].
    pub busy_rejections: u64,
    /// Requests queued right now.
    pub queue_depth: u64,
    /// Median request latency (µs, bucket lower edge); `None` if no
    /// samples yet.
    pub p50_us: Option<u64>,
    /// 99th-percentile request latency (µs, bucket lower edge).
    pub p99_us: Option<u64>,
    /// Per-bucket breakdown, smallest bucket first.
    pub buckets: Vec<BucketSnapshot>,
    /// Decode iterations per `(capacity, rows)` bucket, sorted.
    pub decode_buckets: Vec<DecodeBucketSnapshot>,
    /// Decode batch-occupancy histogram ([`OCCUPANCY_BINS`] bins; see
    /// the constant for the binning rule).
    pub decode_occupancy: [u64; OCCUPANCY_BINS],
    /// Per-shard execution counters, shard 0 first. Empty on unsharded
    /// models.
    pub shards: Vec<ShardSnapshot>,
    /// Batches whose units were split across more than one shard (a
    /// batch routed whole to a single shard does not count).
    pub scattered_batches: u64,
    /// Cumulative wall time (µs) in the fuse step — writing each
    /// shard's padded inputs from the requests and each request's
    /// outputs from the shards' partial outputs — outside any shard's
    /// own execution time.
    pub fuse_us: u64,
}

impl StatsSnapshot {
    /// Mean requests per engine execution (1.0 = no coalescing);
    /// `None` before the first execution.
    pub fn coalesce_ratio(&self) -> Option<f64> {
        (self.batches > 0).then(|| self.requests as f64 / self.batches as f64)
    }

    /// Decode scheduler iterations across every bucket.
    pub fn decode_iterations(&self) -> u64 {
        self.decode_buckets.iter().map(|b| b.iterations).sum()
    }

    /// Decode steps executed across every bucket.
    pub fn decode_steps(&self) -> u64 {
        self.decode_buckets.iter().map(|b| b.steps).sum()
    }

    /// Mean decode steps per iteration; `None` before the first one.
    pub fn decode_coalesce_ratio(&self) -> Option<f64> {
        let it = self.decode_iterations();
        (it > 0).then(|| self.decode_steps() as f64 / it as f64)
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests={} fast_path={} batches={} coalesce={} busy={} queued={}",
            self.requests,
            self.fast_path,
            self.batches,
            self.coalesce_ratio()
                .map_or("n/a".into(), |r| format!("{r:.2}")),
            self.busy_rejections,
            self.queue_depth,
        )?;
        writeln!(
            f,
            "latency p50={} p99={}",
            self.p50_us.map_or("n/a".into(), |v| format!("{v}us")),
            self.p99_us.map_or("n/a".into(), |v| format!("{v}us")),
        )?;
        writeln!(
            f,
            "isa active={} detected={} vnni={}",
            self.kernel_dispatch.active, self.kernel_dispatch.detected, self.kernel_dispatch.vnni
        )?;
        for (family, isa, calls) in &self.kernel_dispatch.counts {
            writeln!(f, "kernel[{family} x {isa}] calls={calls}")?;
        }
        for b in &self.buckets {
            writeln!(
                f,
                "bucket[{:>4} units] batches={} requests={} rows={} padded={}",
                b.units, b.batches, b.requests, b.rows, b.padded_rows
            )?;
        }
        for s in &self.shards {
            writeln!(
                f,
                "shard[{}] threads={} isa={} pinned={} batches={} units={} padded={} exec={}us panics={}",
                s.id, s.threads, s.isa, s.pinned, s.batches, s.units, s.padded_units, s.exec_us, s.panics
            )?;
        }
        if !self.shards.is_empty() {
            writeln!(
                f,
                "scatter batches={} fuse={}us",
                self.scattered_batches, self.fuse_us
            )?;
        }
        for b in &self.decode_buckets {
            writeln!(
                f,
                "decode[cap {:>5} x {:>4} rows] iterations={} steps={}",
                b.capacity, b.rows, b.iterations, b.steps
            )?;
        }
        if self.decode_iterations() > 0 {
            write!(f, "decode coalesce=")?;
            match self.decode_coalesce_ratio() {
                Some(r) => write!(f, "{r:.2}")?,
                None => write!(f, "n/a")?,
            }
            write!(f, " occupancy=[")?;
            for (i, c) in self.decode_occupancy.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{c}")?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket [8,16)
        }
        h.record(Duration::from_millis(100)); // far tail: bucket [65536,131072)
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile_us(0.5), Some(8));
        assert_eq!(h.quantile_us(0.999), Some(65_536));
        assert_eq!(LatencyHistogram::new().quantile_us(0.5), None);
    }

    #[test]
    fn zero_latency_lands_in_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        // lower edge of bucket [0, 2): sub-µs requests report 0, not 2
        assert_eq!(h.quantile_us(1.0), Some(0));
    }

    #[test]
    fn quantile_never_exceeds_any_sample_bucket() {
        // the reported quantile must be <= the true latency for every
        // sample at or above that rank (lower-edge conservatism)
        let mut h = LatencyHistogram::new();
        for us in [0u64, 1, 3, 9, 100, 5000] {
            h.record(Duration::from_micros(us));
        }
        assert!(h.quantile_us(0.5).unwrap() <= 9);
        assert!(h.quantile_us(1.0).unwrap() <= 5000);
    }

    #[test]
    fn snapshot_aggregates() {
        let s = ModelStats::new();
        s.record_fast_path(Duration::from_micros(5));
        s.record_batch(1, 1, 1, 0); // the fast-path execution
        s.record_batch(8, 3, 6, 2);
        for _ in 0..3 {
            s.record_request_latency(Duration::from_micros(40));
        }
        let snap = s.snapshot();
        assert_eq!(snap.requests, 4);
        assert_eq!(snap.fast_path, 1);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.coalesce_ratio(), Some(2.0));
        assert_eq!(snap.buckets.len(), 2);
        assert_eq!(snap.buckets[1].padded_rows, 2);
        assert!(snap.p50_us.is_some());
        assert!(format!("{snap}").contains("bucket[   8 units]"));
    }

    #[test]
    fn snapshot_request_count_matches_latency_samples() {
        // Regression: `requests` used to be a separate relaxed atomic
        // bumped by record_batch, read at a different instant than the
        // mutexed histogram — a snapshot could claim N completed
        // requests while its quantiles were computed over fewer (or
        // more) samples. The count is now the histogram total itself.
        let s = ModelStats::new();
        // batch recorded but waiters not yet woken: no latency samples
        s.record_batch(4, 3, 3, 1);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.p50_us, None);
        // waiters wake one by one; requests tracks samples exactly
        s.record_request_latency(Duration::from_micros(7));
        s.record_request_latency(Duration::from_micros(7));
        let snap = s.snapshot();
        assert_eq!(snap.requests, 2);
        assert!(snap.p50_us.is_some());
        s.record_request_latency(Duration::from_micros(7));
        assert_eq!(s.snapshot().requests, 3);
        // per-bucket request attribution is unaffected
        assert_eq!(s.snapshot().buckets[0].requests, 3);
    }

    #[test]
    fn coalesce_ratio_none_before_batches() {
        assert_eq!(ModelStats::new().snapshot().coalesce_ratio(), None);
    }

    #[test]
    fn snapshot_surfaces_kernel_dispatch() {
        // Run one kernel so at least one (family × ISA) counter is
        // non-zero, then check the snapshot carries the dispatch state.
        let mut out = [0f32; 4];
        gc_microkernel::Kernels::default().relu(&[-1.0, 1.0, -2.0, 2.0], &mut out);
        let snap = ModelStats::new().snapshot();
        let kd = &snap.kernel_dispatch;
        assert!(["scalar", "avx2", "avx512"].contains(&kd.active.as_str()));
        assert!(!kd.counts.is_empty());
        // No assertion on off_active_calls(): shard tests in this
        // binary build scalar engines, which legitimately record calls
        // against a non-default backend.
        let shown = format!("{snap}");
        assert!(
            shown.contains(&format!("isa active={}", kd.active)),
            "{shown}"
        );
        assert!(shown.contains("kernel[eltwise x"), "{shown}");
    }

    #[test]
    fn decode_buckets_and_occupancy() {
        let s = ModelStats::new();
        // Two iterations at (cap 16, 8 rows): one full, one at 25%.
        s.record_decode_iteration(16, 8, 4, 4);
        s.record_decode_iteration(16, 8, 1, 4);
        // One iteration after sessions crossed into the 32 bucket.
        s.record_decode_iteration(32, 8, 4, 4);
        let snap = s.snapshot();
        assert_eq!(snap.decode_iterations(), 3);
        assert_eq!(snap.decode_steps(), 9);
        assert_eq!(snap.decode_coalesce_ratio(), Some(3.0));
        assert_eq!(
            snap.decode_buckets,
            vec![
                DecodeBucketSnapshot {
                    capacity: 16,
                    rows: 8,
                    iterations: 2,
                    steps: 5
                },
                DecodeBucketSnapshot {
                    capacity: 32,
                    rows: 8,
                    iterations: 1,
                    steps: 4
                },
            ]
        );
        // Full batches land in the last bin, 25% in bin 2.
        assert_eq!(snap.decode_occupancy[10], 2);
        assert_eq!(snap.decode_occupancy[2], 1);
        let shown = format!("{snap}");
        assert!(shown.contains("decode[cap    16 x    8 rows] iterations=2 steps=5"));
        assert!(shown.contains("decode coalesce=3.00"));
    }

    #[test]
    fn decode_stats_absent_from_display_when_unused() {
        let s = ModelStats::new();
        s.record_batch(4, 1, 1, 3);
        let snap = s.snapshot();
        assert_eq!(snap.decode_coalesce_ratio(), None);
        assert!(!format!("{snap}").contains("decode"));
    }

    #[test]
    fn shard_stats_fold_into_snapshot() {
        let s = ModelStats::new();
        let a = Arc::new(ShardStats::new(0, 4, "avx2", true));
        let b = Arc::new(ShardStats::new(1, 4, "scalar", false));
        s.register_shards(vec![a.clone(), b.clone()]);
        // Shard 0 ran 5 real units padded to an 8 bucket; shard 1 ran
        // 3 padded to 4 and had one job panic.
        a.record_exec(5, 8, Duration::from_micros(120));
        b.record_exec(3, 4, Duration::from_micros(90));
        b.record_panic();
        s.record_scatter(2, Duration::from_micros(15));
        let snap = s.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(
            snap.shards[0],
            ShardSnapshot {
                id: 0,
                threads: 4,
                isa: "avx2".into(),
                pinned: true,
                batches: 1,
                units: 5,
                padded_units: 3,
                exec_us: 120,
                panics: 0,
            }
        );
        assert_eq!(snap.shards[1].isa, "scalar");
        assert_eq!(snap.shards[1].panics, 1);
        assert_eq!(snap.scattered_batches, 1);
        assert_eq!(snap.fuse_us, 15);
        let shown = format!("{snap}");
        assert!(
            shown.contains("shard[0] threads=4 isa=avx2 pinned=true"),
            "{shown}"
        );
        assert!(shown.contains("scatter batches=1 fuse=15us"), "{shown}");
    }

    #[test]
    fn whole_batch_routing_counts_fuse_but_not_scatter() {
        // A small batch routed whole to one shard still pays (tiny)
        // fuse bookkeeping but is not a scattered batch.
        let s = ModelStats::new();
        s.register_shards(vec![Arc::new(ShardStats::new(0, 2, "scalar", false))]);
        s.record_scatter(1, Duration::from_micros(2));
        let snap = s.snapshot();
        assert_eq!(snap.scattered_batches, 0);
        assert_eq!(snap.fuse_us, 2);
    }

    #[test]
    fn unsharded_snapshot_hides_shard_lines() {
        let snap = ModelStats::new().snapshot();
        assert!(snap.shards.is_empty());
        assert!(!format!("{snap}").contains("shard["));
        assert!(!format!("{snap}").contains("scatter "));
    }
}
