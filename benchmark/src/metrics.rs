//! The benchmark's metric and workload tables. `BENCHMARK.json` is
//! generated from them (`gc-benchmark manifest`), and a unit test fails
//! when the checked-in file differs.

use crate::json::Value;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Share of the base median by which it may worsen before the
    /// change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric from the traced run; recorded, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which way it improves (nominal for descriptive counts).
    pub better: Better,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Workload name.
    pub name: &'static str,
    /// Why it is in the suite, in one line.
    pub why: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics every workload reports from the untraced run.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cold_start_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "rows/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
];

/// The six workloads.
pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "mlp2_f32_b128",
        why: "Table-1 throughput regime: f32 brgemm does most of the work and lowering dominates cold start; gc-serve and the quantization path do nothing",
    },
    WorkloadInfo {
        name: "mlp2_int8_b128",
        why: "Same graph quantized: u8*i8 brgemm, compensation and requant epilogues through the same template and executor; a change that helps f32 and costs int8 shows here",
    },
    WorkloadInfo {
        name: "mha1_f32_b4",
        why: "Batch matmul + softmax: fusible eltwise/reduce/exp ops, anchors and small-K brgemm do the work; the large-tile f32 brgemm does little",
    },
    WorkloadInfo {
        name: "mlp1_f32_b1",
        why: "Latency regime: per-call engine overhead (state checkout, dispatches, barriers, offsets) dominates a few microseconds of arithmetic",
    },
    WorkloadInfo {
        name: "serve_mlp1_rows1_c2",
        why: "Stateless scheduler mechanics: queue, window, gather/pad, scatter, wake for 1-row requests from 2 blocking callers; the window closes by fill, never by timer",
    },
    WorkloadInfo {
        name: "decode_f32_s16",
        why: "The second scheduler and the KV-cache gather/append path: 16 sessions, state carried across steps, capacity buckets 16 to 128",
    },
];

macro_rules! per_layer {
    ($(($name:literal, $unit:literal, $better:ident)),* $(,)?) => {
        &[$(PerLayer { name: $name, unit: $unit, better: $better }),*]
    };
}

/// The per-layer metrics every workload reports from the traced run. A
/// metric whose layer is not on a workload's path reads 0 there.
pub const PER_LAYER: &[PerLayer] = per_layer![
    // gc-graph
    ("graph.optimize_ms", "ms", Lower),
    ("graph.partition_ms", "ms", Lower),
    ("graph.ops_after", "count", Lower),
    ("graph.partitions", "count", Lower),
    ("graph.fused_post_ops", "count", Higher),
    ("graph.merged_groups", "count", Higher),
    // gc-lowering
    ("lowering.lower_ms", "ms", Lower),
    ("lowering.param_choices", "count", Lower),
    ("lowering.ragged_partitions", "count", Lower),
    // gc-tir
    ("tir.plan_build_ms", "ms", Lower),
    ("tir.project_ms", "ms", Lower),
    ("tir.init_ms", "ms", Lower),
    ("tir.exec_ms_p50", "ms", Lower),
    ("tir.interp_exec_ms_p50", "ms", Lower),
    ("tir.plan_speedup_vs_interp", "ratio", Higher),
    ("tir.barriers_per_op", "count", Lower),
    ("tir.func_calls_per_op", "count", Lower),
    ("tir.peak_temp_bytes", "bytes", Lower),
    ("tir.compiled_funcs", "count", Higher),
    ("tir.interpreted_funcs", "count", Lower),
    ("tir.serialized_loops", "count", Higher),
    ("tir.program_offsets", "count", Lower),
    ("tir.plan_dispatches_per_op", "count", Lower),
    ("tir.exec_states", "count", Lower),
    ("tir.non_kernel_share", "ratio", Lower),
    ("tir.exec_ms_p50_t2", "ms", Lower),
    ("tir.parallel_efficiency_t2", "ratio", Higher),
    // gc-microkernel
    ("microkernel.gemm_isolated_ms", "ms", Lower),
    ("microkernel.gemm_gflops", "GFLOP/s", Higher),
    ("microkernel.gemm_share", "ratio", Higher),
    ("microkernel.relu_gbps", "GB/s", Higher),
    ("microkernel.binary_add_gbps", "GB/s", Higher),
    ("microkernel.reduce_sum_gbps", "GB/s", Higher),
    ("microkernel.reduce_max_gbps", "GB/s", Higher),
    ("microkernel.calls_per_op.brgemm_f32", "count", Lower),
    ("microkernel.calls_per_op.brgemm_u8i8", "count", Lower),
    ("microkernel.calls_per_op.tail_f32", "count", Lower),
    ("microkernel.calls_per_op.tail_u8i8", "count", Lower),
    ("microkernel.calls_per_op.eltwise", "count", Lower),
    ("microkernel.calls_per_op.reduce", "count", Lower),
    ("microkernel.calls_per_op.epilogue", "count", Lower),
    // gc-runtime
    ("runtime.parallel_for_us_t1", "us", Lower),
    ("runtime.parallel_for_us_t2", "us", Lower),
    ("runtime.pool_spawn_us", "us", Lower),
    ("runtime.barriers_per_op", "count", Lower),
    ("runtime.chunks_per_op", "count", Lower),
    // gc-machine
    ("machine.projected_ms", "ms", Lower),
    ("machine.projected_over_wall", "ratio", Lower),
    // gc-core
    ("core.compile_ms_p50", "ms", Lower),
    ("core.first_exec_ms", "ms", Lower),
    // gc-baseline
    ("baseline.build_ms", "ms", Lower),
    ("baseline.exec_ms_p50", "ms", Lower),
    ("baseline.primitives", "count", Lower),
    ("baseline.speedup", "ratio", Higher),
    // gc-tensor
    ("tensor.max_abs_err", "abs", Lower),
    ("tensor.mismatched_elems", "count", Lower),
    // gc-serve
    ("serve.load_ms", "ms", Lower),
    ("serve.bucket_compile_ms", "ms", Lower),
    ("serve.plan_cache_hit_us", "us", Lower),
    ("serve.queue_wait_us_p50", "us", Lower),
    ("serve.batch_exec_us_p50", "us", Lower),
    ("serve.overhead_us_p50", "us", Lower),
    ("serve.coalesce_ratio", "ratio", Higher),
    ("serve.batch_rows_mean", "rows", Higher),
    ("serve.padded_rows_share", "ratio", Lower),
    ("serve.fast_path_share", "ratio", Higher),
    ("serve.batches", "count", Lower),
    ("serve.busy_rejections", "count", Lower),
    ("serve.decode_step_us_p50.cap16", "us", Lower),
    ("serve.decode_step_us_p50.cap32", "us", Lower),
    ("serve.decode_step_us_p50.cap64", "us", Lower),
    ("serve.decode_step_us_p50.cap128", "us", Lower),
    ("serve.decode_coalesce_ratio", "ratio", Higher),
    ("serve.decode_iterations", "count", Lower),
    ("serve.decode_occupancy_mean", "ratio", Higher),
    ("serve.session_open_us", "us", Lower),
    // harness
    ("bench.samples", "count", Higher),
    ("bench.timed_window_s", "s", Higher),
    ("bench.latency_ms_p95", "ms", Lower),
    ("bench.latency_ms_p99", "ms", Lower),
    ("bench.trace_overhead_share", "ratio", Lower),
];

/// Named metric values of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// Every per-layer metric at 0 — the reading for a layer that is
    /// not on the workload's path.
    pub fn per_layer_zeroed() -> Metrics {
        Metrics(PER_LAYER.iter().map(|m| (m.name, (0.0, m.unit))).collect())
    }

    /// Set a metric by name.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither [`END_TO_END`] nor
    /// [`PER_LAYER`]: a typo must not silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a benchmark metric"));
        self.0.insert(name, (value, unit));
    }

    /// A metric's value.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.0.iter().map(|(&n, &(v, u))| (n, v, u))
    }

    /// `{"name": {"value": v, "unit": u}, ...}`
    pub fn to_json(&self) -> Value {
        Value::obj(self.iter().map(|(n, v, u)| {
            (
                n,
                Value::obj([("value", Value::Num(v)), ("unit", Value::str(u))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16 && WORKLOADS.len() <= 8);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }

    #[test]
    #[should_panic(expected = "not a benchmark metric")]
    fn a_misspelt_metric_panics() {
        Metrics::per_layer_zeroed().set("tir.exec_ms_p5O", 1.0);
    }
}
