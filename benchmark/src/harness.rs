//! Shared measuring code: the timed window every workload runs its ops
//! in, its summary, and small timing helpers.

use crate::stats::{self, Mark};
use gc_core::CompileOptions;
use gc_machine::MachineDescriptor;
use std::time::{Duration, Instant};

/// Settings of one run, from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every weight and input derives from.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Smoke mode: window and warm-up counts divided by 100, one set-up.
    pub quick: bool,
}

impl RunConfig {
    /// Whether a workload should set itself up from scratch once more,
    /// given the set-up times (s) so far: five times at least, then for
    /// as long as the set-ups fit in [`SETUP_BUDGET_S`], 25 at most.
    /// `setup_s` and `cold_start_ms` are medians over these, and a cold
    /// start of a few ms needs more than five samples to hold still.
    pub fn another_setup(&self, so_far: &[f64]) -> bool {
        if self.quick {
            return so_far.is_empty();
        }
        so_far.len() < 5 || (so_far.len() < 25 && so_far.iter().sum::<f64>() < SETUP_BUDGET_S)
    }

    /// A warm-up or probe count, shrunk in quick mode.
    pub fn count(&self, n: usize) -> usize {
        if self.quick {
            (n / 100).max(1)
        } else {
            n
        }
    }

    /// The fewest ops a probe runs however short its budget: `n`, or a
    /// single one in quick mode.
    pub fn at_least(&self, n: usize) -> usize {
        if self.quick {
            1
        } else {
            n
        }
    }

    /// The timed window, shrunk in quick mode.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.quick {
            self.seconds / 100.0
        } else {
            self.seconds
        })
    }
}

/// The options every workload compiles with: the paper's target machine
/// model, one engine thread. Two-thread timings on a small shared host
/// drift by 2x inside one process; one-thread medians repeat.
pub fn compile_options() -> CompileOptions {
    CompileOptions {
        threads: Some(1),
        ..CompileOptions::new(MachineDescriptor::xeon_8358())
    }
}

/// Time a run spends on set-ups beyond the first five, in seconds.
const SETUP_BUDGET_S: f64 = 3.0;

/// Latency samples kept per window. Fixed and touched up front, so the
/// process's peak RSS does not depend on how many ops fit in the window.
const SAMPLE_CAP: usize = 1 << 19;

/// One caller's timed window: per-op latencies, throughput marks and
/// the failure count.
#[derive(Debug)]
pub struct Window {
    lat_ns: Vec<u32>,
    recorded: usize,
    ops: u64,
    failed: u64,
    marks: Vec<Mark>,
    mark_every: u64,
    start: Instant,
    length: Duration,
}

impl Window {
    /// A window of `length` that drops a throughput mark every
    /// `mark_every` ops.
    pub fn new(length: Duration, mark_every: u64) -> Window {
        Window {
            // a non-zero fill writes every page; a zero fill would map
            // them lazily and RSS would grow with the op count after all
            lat_ns: vec![u32::MAX; SAMPLE_CAP],
            recorded: 0,
            ops: 0,
            failed: 0,
            marks: Vec::with_capacity(4096),
            mark_every: mark_every.max(1),
            start: Instant::now(),
            length,
        }
    }

    /// Start the clock. Call right before the first op.
    pub fn open(&mut self) {
        self.start = Instant::now();
    }

    /// Record one op that ran from `t0` to `t1`; `ok` is false when it
    /// errored, was refused, or its output failed the oracle check.
    /// Returns whether the window is still open.
    pub fn record(&mut self, t0: Instant, t1: Instant, ok: bool) -> bool {
        if self.recorded < SAMPLE_CAP {
            let ns = t1.duration_since(t0).as_nanos();
            self.lat_ns[self.recorded] = u32::try_from(ns).unwrap_or(u32::MAX);
            self.recorded += 1;
        }
        self.ops += 1;
        self.failed += u64::from(!ok);
        let since = t1.duration_since(self.start);
        if self.ops.is_multiple_of(self.mark_every) {
            self.marks.push(Mark {
                ops: self.ops,
                ns: since.as_nanos() as u64,
            });
        }
        since < self.length
    }
}

/// What a timed window measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median op latency, ms.
    pub p50_ms: f64,
    /// 95th percentile, when at least ten samples lie beyond it.
    pub p95_ms: Option<f64>,
    /// 99th percentile, when at least ten samples lie beyond it.
    pub p99_ms: Option<f64>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Wall time from the first op's start to the last op's end, s.
    pub window_s: f64,
    /// Median over ten equal-count blocks of rows completed per second.
    pub rows_per_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were refused, or failed the oracle check.
    pub failed: u64,
}

/// Summarize the windows of every caller of one workload. Blocks are
/// matched by index across callers (closed-loop callers of one batcher
/// finish in lockstep), and their rates add.
pub fn summarize(windows: &[Window], rows_per_op: f64) -> Summary {
    let mut lat: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.lat_ns[..w.recorded].iter().map(|&ns| f64::from(ns) / 1e6))
        .collect();
    lat.sort_by(f64::total_cmp);
    let per_caller: Vec<Vec<f64>> = windows
        .iter()
        .map(|w| stats::block_rates(&w.marks, 10))
        .collect();
    let blocks = per_caller.iter().map(Vec::len).min().unwrap_or(0);
    let rates: Vec<f64> = (0..blocks)
        .map(|b| per_caller.iter().map(|r| r[b]).sum::<f64>() * rows_per_op)
        .collect();
    let window_ns = windows
        .iter()
        .filter_map(|w| w.marks.last().map(|m| m.ns))
        .max()
        .unwrap_or(0);
    Summary {
        p50_ms: stats::percentile_sorted(&lat, 50.0).unwrap_or(0.0),
        p95_ms: stats::tail_percentile(&lat, 95.0),
        p99_ms: stats::tail_percentile(&lat, 99.0),
        samples: lat.len(),
        window_s: window_ns as f64 / 1e9,
        rows_per_s: stats::median(&rates).unwrap_or(0.0),
        attempted: windows.iter().map(|w| w.ops).sum(),
        failed: windows.iter().map(|w| w.failed).sum(),
    }
}

/// Call `op` repeatedly — at least `min_ops` times, then until `budget`
/// is spent — and collect the milliseconds each call reports for the
/// part of itself it timed. For the isolated probes of the traced run.
pub fn time_ops(budget: Duration, min_ops: usize, mut op: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_ops || start.elapsed() < budget {
        out.push(op(out.len()));
    }
    out
}

/// Milliseconds `f` took, and its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counts_marks_and_failures() {
        let mut w = Window::new(Duration::from_secs(3600), 2);
        w.open();
        let t0 = Instant::now();
        for i in 0..5u64 {
            let a = t0 + Duration::from_millis(i * 10);
            let open = w.record(a, a + Duration::from_millis(4), i != 3);
            assert!(open);
        }
        let s = summarize(&[w], 8.0);
        assert_eq!((s.attempted, s.failed, s.samples), (5, 1, 5));
        assert!((s.p50_ms - 4.0).abs() < 1e-9);
        assert_eq!(s.p95_ms, None);
        assert!(s.rows_per_s > 0.0);
    }

    #[test]
    fn window_closes_after_its_length() {
        let mut w = Window::new(Duration::from_millis(5), 1);
        w.open();
        let t0 = Instant::now();
        assert!(w.record(t0, t0 + Duration::from_millis(1), true));
        assert!(!w.record(t0, t0 + Duration::from_secs(1), true));
    }

    #[test]
    fn time_ops_runs_the_minimum_then_stops_at_the_budget() {
        assert_eq!(time_ops(Duration::ZERO, 3, |i| i as f64), [0.0, 1.0, 2.0]);
        let slept = time_ops(Duration::from_millis(20), 1, |_| {
            std::thread::sleep(Duration::from_millis(5));
            5.0
        });
        assert!((2..=5).contains(&slept.len()), "{}", slept.len());
    }

    #[test]
    fn peak_rss_reads_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
