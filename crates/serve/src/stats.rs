//! Serving observability: per-model counters, per-bucket breakdowns and
//! a power-of-two latency histogram for p50/p99.
//!
//! Everything is updated with relaxed atomics on the request path (the
//! histogram takes a short mutex only when a request completes) and
//! read via [`ModelStats::snapshot`], which is what
//! [`crate::Model::stats`] and the bench binary's `--stats` dump show.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
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
        }
    }
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
}
