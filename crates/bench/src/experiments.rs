//! Experiment drivers regenerating the paper's figures.
//!
//! Each driver returns structured rows; the `fig7` / `fig8` / ablation
//! binaries print them as the tables behind the paper's plots. Two
//! numbers are reported per configuration:
//!
//! - **projected ms** — cycles from the machine-model projector
//!   (32-core Xeon 8358), the primary, paper-shape-comparable series;
//! - **wall ms** — measured on the host running the binary (secondary;
//!   compiled plans run on the kernel backend CPU detection picks —
//!   AVX-512 where the CPU has it — but on the host's few cores, not
//!   the Xeon's 32).

use crate::workloads::{self, random_inputs, MhaConfig, Precision};
use gc_baseline::{Baseline, BaselineOptions};
use gc_core::{CompileOptions, CompiledPartition, Compiler};
use gc_graph::Graph;
use gc_machine::MachineDescriptor;
use gc_tensor::Tensor;
use std::time::Instant;

/// Which optimization setting a measurement used (the three bars of
/// Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// oneDNN-primitives-style baseline.
    Baseline,
    /// Compiler with coarse-grain fusion disabled (the "middle"
    /// setting).
    NoCoarse,
    /// Full compiler.
    Full,
}

impl std::fmt::Display for Setting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Setting::Baseline => f.write_str("baseline"),
            Setting::NoCoarse => f.write_str("no-coarse"),
            Setting::Full => f.write_str("full"),
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Projected milliseconds on the target machine.
    pub projected_ms: f64,
    /// Median wall milliseconds on the host.
    pub wall_ms: f64,
    /// Barriers per execution.
    pub barriers: u64,
    /// Framework dispatches per execution.
    pub dispatches: usize,
}

/// A Figure-8 style row: one workload/batch/precision across the three
/// settings.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Workload name (MLP_1, MHA_3, ...).
    pub workload: String,
    /// Batch size.
    pub batch: usize,
    /// Precision.
    pub precision: Precision,
    /// Baseline measurement.
    pub baseline: Measurement,
    /// Compiler without coarse-grain fusion.
    pub no_coarse: Measurement,
    /// Full compiler.
    pub full: Measurement,
}

impl Fig8Row {
    /// Full-compiler speedup over the baseline (projected).
    pub fn speedup_full(&self) -> f64 {
        self.baseline.projected_ms / self.full.projected_ms
    }

    /// Middle-setting speedup over the baseline (projected).
    pub fn speedup_no_coarse(&self) -> f64 {
        self.baseline.projected_ms / self.no_coarse.projected_ms
    }
}

/// A Figure-7 row: one individual matmul, compiler vs baseline.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Problem label.
    pub name: String,
    /// Rows, columns, reduction.
    pub mnk: (usize, usize, usize),
    /// Precision.
    pub precision: Precision,
    /// Compiler-generated kernel.
    pub compiler: Measurement,
    /// Expert-tuned primitive.
    pub baseline: Measurement,
}

impl Fig7Row {
    /// Compiler speedup over the primitive (projected).
    pub fn speedup(&self) -> f64 {
        self.baseline.projected_ms / self.compiler.projected_ms
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Target machine for projection and heuristics.
    pub machine: MachineDescriptor,
    /// Worker threads for wall-clock runs.
    pub threads: Option<usize>,
    /// Wall-clock repetitions (median taken).
    pub reps: usize,
    /// Skip wall measurement for problems above this many MACs
    /// (projection still runs).
    pub wall_flop_cap: f64,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            machine: MachineDescriptor::xeon_8358(),
            threads: None,
            reps: 3,
            wall_flop_cap: 1.2e10,
        }
    }
}

impl Harness {
    /// A faster harness for CI / quick runs.
    pub fn quick() -> Self {
        Harness {
            reps: 1,
            wall_flop_cap: 5e9,
            ..Harness::default()
        }
    }

    fn compile(&self, setting: Setting, graph: Graph) -> CompiledOrBaseline {
        match setting {
            Setting::Baseline => {
                let mut o = BaselineOptions::new(self.machine.clone());
                o.threads = self.threads;
                CompiledOrBaseline::Baseline(Baseline::new(o).build(graph).expect("baseline build"))
            }
            Setting::NoCoarse => {
                let mut o = CompileOptions::without_coarse_fusion(self.machine.clone());
                o.threads = self.threads;
                CompiledOrBaseline::Compiled(
                    Compiler::new(o).compile(graph).expect("compile no-coarse"),
                )
            }
            Setting::Full => {
                let mut o = CompileOptions::new(self.machine.clone());
                o.threads = self.threads;
                CompiledOrBaseline::Compiled(Compiler::new(o).compile(graph).expect("compile"))
            }
        }
    }

    /// Measure one graph under one setting.
    pub fn measure(&self, setting: Setting, graph: Graph, flops: f64, seed: u64) -> Measurement {
        // (graph is cloned for input generation when wall runs happen)
        let exe = self.compile(setting, graph.clone());
        let mut walls = vec![0.0f64];
        let mut barriers = 0;
        // very large problems are projection-only (a few host cores take
        // seconds per rep, and that wall time says nothing about the
        // projected 32-core run)
        if flops <= self.wall_flop_cap {
            let inputs = random_inputs(&graph, seed);
            exe.execute(&inputs); // warm the constant cache
            walls.clear();
            let reps = if flops > self.wall_flop_cap / 4.0 {
                1
            } else {
                self.reps
            };
            for _ in 0..reps {
                let t0 = Instant::now();
                barriers = exe.execute(&inputs);
                walls.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            walls.sort_by(f64::total_cmp);
        }
        let cycles = exe.project_cycles();
        Measurement {
            projected_ms: self.machine.cycles_to_ms(cycles),
            wall_ms: walls[walls.len() / 2],
            barriers,
            dispatches: exe.dispatches(),
        }
    }

    /// Figure 7: every individual MLP matmul, compiler vs primitives.
    pub fn fig7(&self, precision: Precision) -> Vec<Fig7Row> {
        let mut rows = Vec::new();
        for (name, m, n, k) in workloads::fig7_problems() {
            let flops = 2.0 * (m * n * k) as f64;
            let g = workloads::single_matmul(m, n, k, precision, 1);
            let compiler = self.measure(Setting::Full, g, flops, 5);
            let g = workloads::single_matmul(m, n, k, precision, 1);
            let baseline = self.measure(Setting::Baseline, g, flops, 5);
            rows.push(Fig7Row {
                name,
                mnk: (m, n, k),
                precision,
                compiler,
                baseline,
            });
        }
        rows
    }

    /// Figure 8, MLP half: both MLP workloads × batch sizes.
    pub fn fig8_mlp(&self, precision: Precision, quick: bool) -> Vec<Fig8Row> {
        let batches = if quick {
            vec![32, 512]
        } else {
            workloads::mlp_batch_sizes()
        };
        let mut rows = Vec::new();
        for (wl, layers) in [
            ("MLP_1", workloads::mlp1_layers()),
            ("MLP_2", workloads::mlp2_layers()),
        ] {
            for &batch in &batches {
                let flops: f64 = layers
                    .windows(2)
                    .map(|w| 2.0 * (batch * w[0] * w[1]) as f64)
                    .sum();
                let build = || match precision {
                    Precision::F32 => workloads::mlp_f32(batch, &layers, 1),
                    Precision::Int8 => workloads::mlp_int8(batch, &layers, 1),
                };
                rows.push(Fig8Row {
                    workload: wl.to_string(),
                    batch,
                    precision,
                    baseline: self.measure(Setting::Baseline, build(), flops, 7),
                    no_coarse: self.measure(Setting::NoCoarse, build(), flops, 7),
                    full: self.measure(Setting::Full, build(), flops, 7),
                });
            }
        }
        rows
    }

    /// Figure 8, MHA half: the four MHA configs × batch sizes.
    pub fn fig8_mha(&self, precision: Precision, quick: bool) -> Vec<Fig8Row> {
        let configs = workloads::mha_configs();
        let configs: Vec<MhaConfig> = if quick {
            configs.into_iter().take(2).collect()
        } else {
            configs
        };
        let batches = if quick {
            vec![32]
        } else {
            workloads::mha_batch_sizes()
        };
        let mut rows = Vec::new();
        for cfg in &configs {
            for &batch in &batches {
                let d = cfg.hidden / cfg.heads;
                let bh = batch * cfg.heads;
                let flops = 2.0 * 2.0 * (bh * cfg.seq * cfg.seq * d) as f64;
                let build = || match precision {
                    Precision::F32 => workloads::mha_f32(batch, cfg).0,
                    Precision::Int8 => workloads::mha_int8(batch, cfg).0,
                };
                rows.push(Fig8Row {
                    workload: cfg.name.to_string(),
                    batch,
                    precision,
                    baseline: self.measure(Setting::Baseline, build(), flops, 9),
                    no_coarse: self.measure(Setting::NoCoarse, build(), flops, 9),
                    full: self.measure(Setting::Full, build(), flops, 9),
                });
            }
        }
        rows
    }
}

enum CompiledOrBaseline {
    Compiled(CompiledPartition),
    Baseline(gc_baseline::BaselineExecutable),
}

impl CompiledOrBaseline {
    fn execute(&self, inputs: &[Tensor]) -> u64 {
        match self {
            CompiledOrBaseline::Compiled(c) => c.execute(inputs).expect("exec").1.barriers,
            CompiledOrBaseline::Baseline(b) => b.execute(inputs).expect("exec").1.barriers,
        }
    }

    fn project_cycles(&self) -> f64 {
        match self {
            CompiledOrBaseline::Compiled(c) => c.project().cycles,
            CompiledOrBaseline::Baseline(b) => b.project().cycles,
        }
    }

    fn dispatches(&self) -> usize {
        match self {
            CompiledOrBaseline::Compiled(c) => c.executable().dispatch_count(),
            CompiledOrBaseline::Baseline(b) => b.executable().dispatch_count(),
        }
    }
}

/// Geometric mean of an iterator of positive ratios.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        return 1.0;
    }
    (log_sum / n as f64).exp()
}

/// Format the Fig-8 rows as an aligned text table.
pub fn format_fig8(rows: &[Fig8Row]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<8} {:>5} {:>5} | {:>12} {:>12} {:>12} | {:>8} {:>8} | {:>10} {:>10}",
        "workload",
        "batch",
        "dtype",
        "base(ms)",
        "no-coarse",
        "full(ms)",
        "spd-nc",
        "spd-full",
        "wall-base",
        "wall-full"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<8} {:>5} {:>5} | {:>12.4} {:>12.4} {:>12.4} | {:>7.2}x {:>7.2}x | {:>10.3} {:>10.3}",
            r.workload,
            r.batch,
            r.precision.to_string(),
            r.baseline.projected_ms,
            r.no_coarse.projected_ms,
            r.full.projected_ms,
            r.speedup_no_coarse(),
            r.speedup_full(),
            r.baseline.wall_ms,
            r.full.wall_ms,
        );
    }
    let _ = writeln!(
        s,
        "geomean speedup: no-coarse {:.2}x, full {:.2}x (projected); wall full {:.2}x",
        geomean(rows.iter().map(Fig8Row::speedup_no_coarse)),
        geomean(rows.iter().map(Fig8Row::speedup_full)),
        geomean(
            rows.iter()
                .filter(|r| r.baseline.wall_ms > 0.0 && r.full.wall_ms > 0.0)
                .map(|r| r.baseline.wall_ms / r.full.wall_ms),
        ),
    );
    s
}

/// Format the Fig-7 rows as an aligned text table.
pub fn format_fig7(rows: &[Fig7Row]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<28} {:>5} | {:>12} {:>12} | {:>8}",
        "problem", "dtype", "compiler(ms)", "primitive", "speedup"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<28} {:>5} | {:>12.4} {:>12.4} | {:>7.2}x",
            r.name,
            r.precision.to_string(),
            r.compiler.projected_ms,
            r.baseline.projected_ms,
            r.speedup(),
        );
    }
    let _ = writeln!(
        s,
        "geomean compiler/primitive speedup: {:.3}x",
        geomean(rows.iter().map(Fig7Row::speedup))
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(Vec::<f64>::new()), 1.0);
    }

    #[test]
    fn measure_runs_one_tiny_config() {
        let mut h = Harness::quick();
        h.threads = Some(1);
        let g = workloads::single_matmul(16, 16, 16, Precision::F32, 1);
        let m = h.measure(Setting::Full, g, 2.0 * 16.0 * 16.0 * 16.0, 1);
        assert!(m.projected_ms > 0.0);
        assert!(m.wall_ms >= 0.0);
        assert_eq!(m.dispatches, 1);
        let g = workloads::single_matmul(16, 16, 16, Precision::F32, 1);
        let b = h.measure(Setting::Baseline, g, 2.0 * 16.0 * 16.0 * 16.0, 1);
        assert!(b.dispatches >= 1);
    }
}
