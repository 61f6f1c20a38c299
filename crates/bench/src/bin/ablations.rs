//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! - `anchors`  — forced post-op anchor (#1 vs #2) and A-pack placement
//!   (anchor #2 vs #4), versus the cost-model choice;
//! - `layout`   — layout propagation on/off;
//! - `const`    — constant-weight caching: first execution (runs the
//!   init stage) vs steady state;
//! - `buffers`  — memory-buffer reuse + tensor-size optimization:
//!   peak temporary footprint and projected cycles;
//! - `ragged`   — pack-time padding of edge tiles on Table 1's
//!   irregular shapes: projected cycles with ragged m/n blocking on vs
//!   the divisor-only blocking (`KB` divides k either way, so MLP_2's
//!   prime k=479 first layer is one whole-depth block on both sides);
//! - `simd`     — the explicit-SIMD microkernel backends vs the
//!   scalar fallback: kernel-level GFLOP/s per family (on explicit
//!   [`gc_microkernel::arch::kernels`] handles) and end-to-end MLP_1
//!   wall time (compiled onto a scalar engine and a best-ISA engine),
//!   all in one process.
//! - `search`   — the template-parameter search: per Table-1 workload
//!   and dtype, the branch-and-bound's traced counts for one
//!   `Compiler::compile`, and the compile's logged queries replayed
//!   through the pruned search next to the exhaustive walk
//!   (`choose_params_ranked(.., 1)`), which must select the same
//!   parameters. Rewrites `results/search.txt`.
//!
//! Usage: `ablations [anchors|layout|const|buffers|ragged|simd|search|all] [--threads N]`
//! (`simd --quick`: only the brgemm rows and their not-slower-than-scalar
//! assert; `search --quick`: only MLP_2, asserting >= 90 % of tiles
//! pruned, and no file written — the forms CI runs).

use gc_bench::workloads::{self, mha_configs, random_inputs};
use gc_core::{CompileOptions, Compiler};
use gc_lowering::anchors::{PackPlacement, PostOpAnchor};
use gc_machine::MachineDescriptor;

fn opts(threads: Option<usize>) -> CompileOptions {
    let mut o = CompileOptions::new(MachineDescriptor::xeon_8358());
    o.threads = threads;
    o
}

fn project_ms(o: CompileOptions, g: gc_graph::Graph) -> f64 {
    let machine = o.machine.clone();
    let c = Compiler::new(o).compile(g).expect("compile");
    machine.cycles_to_ms(c.project().cycles)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    if !matches!(
        what.as_str(),
        "anchors" | "layout" | "const" | "buffers" | "ragged" | "simd" | "search" | "all"
    ) {
        eprintln!(
            "usage: ablations [anchors|layout|const|buffers|ragged|simd|search|all] [--threads N]"
        );
        std::process::exit(2);
    }
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|p| args.get(p + 1))
        .and_then(|v| v.parse().ok());

    let mlp = || workloads::mlp_f32(512, &workloads::mlp1_layers(), 1);
    let mha = || workloads::mha_f32(32, &mha_configs()[0]).0;

    if what == "anchors" || what == "all" {
        println!("== ablation: fusion anchors (projected ms) ==");
        for (name, g) in [("MLP_1 b512", mlp()), ("MHA_1 b32", mha())] {
            let auto = project_ms(opts(threads), g);
            println!("{name:<12} cost-model choice : {auto:.4}");
        }
        for anchor in [PostOpAnchor::P1, PostOpAnchor::P2] {
            for (name, g) in [("MLP_1 b512", mlp()), ("MHA_1 b32", mha())] {
                let mut o = opts(threads);
                o.forced_post_anchor = Some(anchor);
                let ms = project_ms(o, g);
                println!("{name:<12} post-op anchor {anchor:?} : {ms:.4}");
            }
        }
        for pack in [PackPlacement::PerTask, PackPlacement::PerKChunk] {
            for (name, g) in [("MLP_1 b512", mlp()), ("MHA_1 b32", mha())] {
                let mut o = opts(threads);
                o.forced_pack = Some(pack);
                let ms = project_ms(o, g);
                println!("{name:<12} A-pack {pack:?} : {ms:.4}");
            }
        }
        println!();
    }

    if what == "layout" || what == "all" {
        println!("== ablation: layout propagation (projected ms) ==");
        for on in [true, false] {
            let mut o = opts(threads);
            o.propagate_layouts = on;
            let ms = project_ms(o, mlp());
            println!("MLP_1 b512   propagate_layouts={on} : {ms:.4}");
        }
        println!();
    }

    if what == "const" || what == "all" {
        println!("== ablation: constant-weight caching (wall ms on host) ==");
        let g = mlp();
        let inputs = random_inputs(&g, 3);
        let c = Compiler::new(opts(threads)).compile(g).expect("compile");
        let (_, first) = c.execute(&inputs).expect("exec");
        let (_, steady) = c.execute(&inputs).expect("exec");
        println!(
            "MLP_1 b512   first run (init: prepack + compensation): {:.3} ms (init {:.3} ms)",
            first.wall.as_secs_f64() * 1e3,
            first.init_wall.as_secs_f64() * 1e3
        );
        println!(
            "MLP_1 b512   steady state (cached)                   : {:.3} ms",
            steady.wall.as_secs_f64() * 1e3
        );
        assert_eq!(c.executable().init_runs(), 1);
        println!();
    }

    if what == "buffers" || what == "all" {
        println!("== ablation: buffer reuse + tensor shrink ==");
        for (reuse, shrink) in [(true, true), (true, false), (false, true), (false, false)] {
            let mut o = opts(threads);
            o.reuse_buffers = reuse;
            o.shrink_tensors = shrink;
            let machine = o.machine.clone();
            let g = workloads::mlp_f32(512, &workloads::mlp2_layers(), 1);
            let c = Compiler::new(o).compile(g).expect("compile");
            let inputs = random_inputs(&workloads::mlp_f32(512, &workloads::mlp2_layers(), 1), 3);
            let (_, stats) = c.execute(&inputs).expect("exec");
            let ms = machine.cycles_to_ms(c.project().cycles);
            println!(
                "MLP_2 b512   reuse={reuse:<5} shrink={shrink:<5} : peak temp {:>10} bytes, projected {ms:.4} ms",
                stats.peak_temp_bytes
            );
        }
        println!();
    }

    if what == "ragged" || what == "all" {
        println!("== ablation: ragged blocking (pack-time padding only, projected ms) ==");
        // Table 1's irregular workload is MLP_2: its feature chain
        // 479 -> 1024 -> 1024 -> 512 -> 256 -> 1 opens on a prime
        // reduction dim (479, one whole-depth KB on both sides) and
        // closes on an n=1 head.
        for b in [32usize, 128, 256, 512] {
            for prec in [workloads::Precision::F32, workloads::Precision::Int8] {
                let ms_for = |ragged: bool| {
                    let mut o = opts(threads);
                    o.ragged = ragged;
                    let g = match prec {
                        workloads::Precision::F32 => {
                            workloads::mlp_f32(b, &workloads::mlp2_layers(), 1)
                        }
                        workloads::Precision::Int8 => {
                            workloads::mlp_int8(b, &workloads::mlp2_layers(), 1)
                        }
                    };
                    project_ms(o, g)
                };
                let (on, off) = (ms_for(true), ms_for(false));
                println!(
                    "MLP_2 b{b:<4} {prec:?}  ragged {on:.4} | divisor-only {off:.4} | speedup {:.2}x",
                    off / on
                );
            }
        }
        // Isolated irregular single matmuls: the m/n remainders against
        // power-of-two tiles are where divisor-only truly degenerates
        // (nb=1 register tiles). A prime k alone changes nothing: both
        // sides take KB = k.
        let shapes = [
            ("255x255x255 fp32", 255, 255, 255, workloads::Precision::F32),
            ("257x512x512 fp32", 257, 512, 512, workloads::Precision::F32),
            (
                "256x1024x479 fp32",
                256,
                1024,
                479,
                workloads::Precision::F32,
            ),
            (
                "256x1024x479 int8",
                256,
                1024,
                479,
                workloads::Precision::Int8,
            ),
        ];
        for (name, m, n, k, prec) in shapes {
            let ms_for = |ragged: bool| {
                let mut o = opts(threads);
                o.ragged = ragged;
                project_ms(o, workloads::single_matmul(m, n, k, prec, 1))
            };
            let (on, off) = (ms_for(true), ms_for(false));
            println!(
                "{name:<20} ragged {on:.4} | divisor-only {off:.4} | speedup {:.2}x",
                off / on
            );
        }
    }

    if what == "simd" || what == "all" {
        simd_ablation(args.iter().any(|a| a == "--quick"));
    }

    if what == "search" || what == "all" {
        search_ablation(args.iter().any(|a| a == "--quick"));
    }
}

/// Template-parameter search: what one compile's branch-and-bound did
/// (`CompileReport::search`), and its logged queries replayed pruned
/// vs exhaustive. `quick` runs MLP_2 only and asserts the pruning
/// ratio; the full run also rewrites `results/search.txt`.
fn search_ablation(quick: bool) {
    use gc_lowering::{choose_params, choose_params_ranked, ParamLog};
    use std::fmt::Write as _;
    use std::hint::black_box;
    use std::sync::{Arc, Mutex};

    let mut cases: Vec<(String, gc_graph::Graph)> = Vec::new();
    for (wl, layers) in [
        ("MLP_1", workloads::mlp1_layers()),
        ("MLP_2", workloads::mlp2_layers()),
    ] {
        if quick && wl != "MLP_2" {
            continue;
        }
        cases.push((
            format!("{wl} b128 f32"),
            workloads::mlp_f32(128, &layers, 1),
        ));
        cases.push((
            format!("{wl} b128 int8"),
            workloads::mlp_int8(128, &layers, 1),
        ));
    }
    if !quick {
        for cfg in mha_configs() {
            cases.push((
                format!("{} b32 f32", cfg.name),
                workloads::mha_f32(32, &cfg).0,
            ));
            cases.push((
                format!("{} b32 int8", cfg.name),
                workloads::mha_int8(32, &cfg).0,
            ));
        }
    }

    let mut out = String::new();
    writeln!(
        out,
        "== ablation: template-parameter search (xeon_8358 model, 1 thread) ==\n\
         one Compiler::compile: the search counts of its one lowering\n\
         (group_profitable's and plan_tunable's queries); replay: the compile's logged\n\
         (plan_tunable) queries again, exhaustive walk vs branch-and-bound, same picks\n\
         {:<16} {:>7} {:>7} {:>14} {:>7} | {:>6} {:>10} {:>9} {:>8} | {:>10}",
        "workload",
        "queries",
        "tiles",
        "pruned",
        "scored",
        "logged",
        "exh. cand",
        "exh. ms",
        "b&b ms",
        "compile ms"
    )
    .unwrap();
    for (name, g) in cases {
        let log: ParamLog = Arc::new(Mutex::new(Vec::new()));
        let mut o = opts(Some(1));
        o.param_log = Some(log.clone());
        let machine = o.machine.clone();
        let compiled = Compiler::new(o).compile(g.clone()).expect("compile");
        let report = compiled.report().clone();
        let logged = log.lock().unwrap().clone();
        let compile_ms = 1e3
            * best_secs(3, || {
                black_box(
                    Compiler::new(opts(Some(1)))
                        .compile(g.clone())
                        .expect("compile"),
                );
            });

        let mut exhaustive = 0usize;
        for c in &logged {
            let all = choose_params_ranked(&machine, &c.problem, &c.constraints, usize::MAX);
            assert_eq!(
                all[0], c.params,
                "{name}: branch-and-bound and exhaustive walk disagree at {:?} {:?}",
                c.problem, c.constraints
            );
            exhaustive += all.len();
        }
        let exhaustive_ms = 1e3
            * best_secs(3, || {
                for c in &logged {
                    black_box(choose_params_ranked(
                        &machine,
                        &c.problem,
                        &c.constraints,
                        1,
                    ));
                }
            });
        let pruned_ms = 1e3
            * best_secs(3, || {
                for c in &logged {
                    black_box(choose_params(&machine, &c.problem, &c.constraints));
                }
            });
        let s = report.search;
        let pruned_share = 100.0 * s.tiles_pruned as f64 / s.tiles.max(1) as f64;
        writeln!(
            out,
            "{name:<16} {:>7} {:>7} {:>6} ({:>4.1}%) {:>7} | {:>6} {:>10} {:>9.2} {:>8.3} | {:>10.2}",
            s.queries,
            s.tiles,
            s.tiles_pruned,
            pruned_share,
            s.scored,
            logged.len(),
            exhaustive,
            exhaustive_ms,
            pruned_ms,
            compile_ms
        )
        .unwrap();
        if quick {
            assert!(
                s.tiles_pruned * 10 >= s.tiles * 9,
                "{name}: only {pruned_share:.1}% of tiles pruned ({s:?})"
            );
        }
    }
    print!("{out}");
    if !quick {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/search.txt");
        std::fs::write(path, &out).expect("write results/search.txt");
    }
}

/// Deterministic pseudo-random f32 fill in [-1, 1) (no RNG dependency
/// in the hot setup path).
fn xfill(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
        .collect()
}

/// Best-of-reps wall seconds for `f`.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// End-to-end MLP_1 b256 f32 on an engine running `kernels`: compile
/// once for it, best-of-5 execute wall ns.
fn e2e_mlp1_wall_ns(kernels: gc_microkernel::Kernels) -> u64 {
    let g = workloads::mlp_f32(256, &workloads::mlp1_layers(), 1);
    let inputs = random_inputs(&g, 3);
    let pool = std::sync::Arc::new(gc_runtime::ThreadPool::with_host_parallelism());
    let engine = gc_tir::Engine::new(pool).with_kernels(kernels);
    let arts = Compiler::new(opts(None)).compile_artifacts(g, &engine);
    let exe = arts.expect("compile").exe;
    exe.execute(&inputs).expect("warmup");
    (best_secs(5, || {
        exe.execute(&inputs).expect("exec");
    }) * 1e9) as u64
}

/// Seconds per call of `f`, best of `reps` samples; a sample repeats
/// the call until it spans about a millisecond, so sub-microsecond
/// kernels are not timed at clock resolution.
fn secs_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm
    let once = best_secs(3, &mut f).max(1e-9);
    let iters = ((1e-3 / once) as usize).clamp(1, 100_000);
    best_secs(reps, || (0..iters).for_each(|_| f())) / iters as f64
}

/// `quick` times only the brgemm rows (with their assert), on fewer
/// samples: the form CI runs.
fn simd_ablation(quick: bool) {
    use gc_microkernel::arch::{detected_isa, kernels, vnni_active, Isa, Kernels};
    use gc_microkernel::BrgemmShape;

    println!("== ablation: explicit SIMD vs scalar-forced microkernels ==");
    let best = detected_isa();
    println!(
        "detected isa: {best} (vnni int8 dot: {})",
        vnni_active(best)
    );
    let reps = if quick { 3 } else { 7 };
    let scalar = kernels(Isa::Scalar);
    let simd = kernels(best);
    let explicit: Vec<Kernels> = [Isa::Avx2, Isa::Avx512]
        .into_iter()
        .filter(|isa| isa.supported())
        .map(kernels)
        .collect();

    // The calls compiled plans actually make (tile shape x batch, from
    // the benchmark's per-op profile of MLP_2 f32/int8, MHA_1 and the
    // prime-k first layer), then the Table 1 MLP layers at batch 256 as
    // one packed tile each (MLP_1: 13->512->256->128; MLP_2 opens on
    // k=479).
    /// `(label, m, n, k, bs)`.
    type Row = (&'static str, usize, usize, usize, usize);
    let rows: [Row; 9] = [
        ("plan m8 n32 k32 bs8", 8, 32, 32, 8),
        ("plan m8 n32 k16 bs8", 8, 32, 16, 8),
        ("plan m8 n16 k479 bs1", 8, 16, 479, 1),
        ("plan m8 n48 k32 bs4", 8, 48, 32, 4),
        ("plan m8 n32 k13 bs1", 8, 32, 13, 1),
        ("MLP_1 L0 256x512x13", 256, 512, 13, 1),
        ("MLP_1 L1 256x256x512", 256, 256, 512, 1),
        ("MLP_1 L2 256x128x256", 256, 128, 256, 1),
        ("MLP_2 L0 256x1024x479", 256, 1024, 479, 1),
    ];
    // Every explicit backend must at least match scalar on every row —
    // the k=13 layer and the small-k batched tiles used to lose.
    let mut slower: Vec<String> = Vec::new();
    let mut best_f32_speedup = 0f64;
    // `secs` times one call of the row's shape on a backend.
    let mut row = |what: &str, (name, m, n, k, bs): Row, secs: &dyn Fn(&Kernels) -> f64| {
        let gops = |kr: &Kernels| 2.0 * (m * n * k * bs) as f64 / secs(kr) / 1e9;
        let gs = gops(&scalar);
        let mut line = format!("{name:<24} scalar {gs:>7.2}");
        for kr in &explicit {
            let (gv, isa) = (gops(kr), kr.isa());
            line += &format!(" | {isa} {gv:>7.2} ({:.2}x)", gv / gs);
            if gv < gs {
                slower.push(format!("{what} {name} on {isa}: {:.2}x", gv / gs));
            }
            if what == "f32" {
                best_f32_speedup = best_f32_speedup.max(gv / gs);
            }
        }
        println!("{line}");
    };
    // Back-to-back tiles, one per batch element.
    let offsets = |bs: usize, tile: usize| -> Vec<usize> { (0..bs).map(|i| i * tile).collect() };

    println!("-- brgemm f32 kernel (GFLOP/s, single core) --");
    for r in rows {
        let (shape, bs) = (BrgemmShape::new(r.1, r.2, r.3), r.4);
        let (a, b) = (xfill(1, bs * shape.a_len()), xfill(2, bs * shape.b_len()));
        let (a_offs, b_offs) = (offsets(bs, shape.a_len()), offsets(bs, shape.b_len()));
        row("f32", r, &|kr: &Kernels| {
            let mut c = vec![0f32; shape.c_len()];
            secs_per_call(reps, || {
                kr.brgemm_f32(shape, shape.m, &a, &a_offs, &b, &b_offs, &mut c);
            })
        });
    }
    println!("-- brgemm u8xi8 kernel (Gop/s, single core) --");
    for r in rows {
        let (shape, bs) = (BrgemmShape::new(r.1, r.2, r.3), r.4);
        let a: Vec<u8> = xfill(3, bs * shape.a_len())
            .iter()
            .map(|x| (x.abs() * 200.0) as u8)
            .collect();
        let b: Vec<i8> = xfill(4, bs * shape.b_len())
            .iter()
            .map(|x| (x * 100.0) as i8)
            .collect();
        let (a_offs, b_offs) = (offsets(bs, shape.a_len()), offsets(bs, shape.b_len()));
        row("u8xi8", r, &|kr: &Kernels| {
            let mut c = vec![0i32; shape.c_len()];
            secs_per_call(reps, || {
                kr.brgemm_u8i8(shape, shape.m, &a, &a_offs, &b, &b_offs, &mut c);
            })
        });
    }
    assert!(
        slower.is_empty(),
        "explicit-SIMD brgemm slower than scalar: {slower:?}"
    );
    assert!(
        best == Isa::Scalar || best_f32_speedup >= 1.3,
        "explicit-SIMD brgemm f32 must clear 1.3x over scalar on a Table-1 MLP shape \
         (best observed {best_f32_speedup:.2}x)"
    );
    if quick {
        return;
    }

    println!("-- eltwise / reduce kernels (GB/s, single core, 256 KiB slices) --");
    let n = 64 * 1024;
    let a = xfill(5, n);
    let b = xfill(6, n);
    let mut dst = vec![0f32; n];
    let report = |name: &str, gs: f64, gv: f64| {
        println!(
            "{name:<24} scalar {gs:>6.2} | {best} {gv:>6.2} | speedup {:.2}x",
            gv / gs
        );
    };
    let gbs_relu = |k: &Kernels, dst: &mut [f32]| {
        k.relu(&a, dst); // warm
        (n * 4) as f64 / best_secs(64, || k.relu(&a, dst)) / 1e9
    };
    report(
        "relu",
        gbs_relu(&scalar, &mut dst),
        gbs_relu(&simd, &mut dst),
    );
    let gbs_add = |k: &Kernels, dst: &mut [f32]| {
        k.binary_add(&a, &b, dst); // warm
        (n * 4) as f64 / best_secs(64, || k.binary_add(&a, &b, dst)) / 1e9
    };
    report(
        "binary_add",
        gbs_add(&scalar, &mut dst),
        gbs_add(&simd, &mut dst),
    );
    let gbs_sum = |k: &Kernels| {
        let mut acc = 0f64;
        acc += k.reduce_sum(&a) as f64; // warm
        let secs = best_secs(64, || acc += k.reduce_sum(&a) as f64);
        std::hint::black_box(acc);
        (n * 4) as f64 / secs / 1e9
    };
    report("reduce_sum", gbs_sum(&scalar), gbs_sum(&simd));

    // End-to-end: the same graph compiled for, and run on, two engines
    // that differ only in their kernel backend.
    println!("-- end-to-end MLP_1 b256 f32 (wall ms, this host) --");
    let (ns_scalar, ns_simd) = (e2e_mlp1_wall_ns(scalar), e2e_mlp1_wall_ns(simd));
    println!(
        "MLP_1 b256 f32           scalar engine {:.3} | {best} {:.3} | speedup {:.2}x",
        ns_scalar as f64 / 1e6,
        ns_simd as f64 / 1e6,
        ns_scalar as f64 / ns_simd as f64
    );
}
