//! The repo benchmark.
//!
//! ```text
//! gc-benchmark run --all --seed 7                  untraced: end-to-end metrics
//! gc-benchmark run --all --seed 7 --trace          traced: per-layer metrics
//! gc-benchmark run --workload W --seed N --seconds S --trace 0|1
//! gc-benchmark compare BASE.json... [--vs NEW.json...]
//! gc-benchmark selfcheck [--seed N] [--seconds S]
//! gc-benchmark manifest                            print BENCHMARK.json
//! ```
//!
//! `run --all` starts one child process per workload, so peak RSS, the
//! ISA dispatch table and every process-wide cache are per workload.
//! See `README.md` for the metric glossary.

#![warn(missing_docs)]

mod compare;
mod graphs;
mod harness;
mod json;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use harness::RunConfig;
use json::Value;
use metrics::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`: the default timed window.
const RUN_SECONDS: f64 = 8.0;

/// Environment that changes what the crates under test do; a benchmark
/// run must not inherit it.
fn is_scrubbed_var(key: &str) -> bool {
    key == "GC_FORCE_ISA" || key.starts_with("GC_DEBUG_")
}

#[derive(Debug, Clone)]
struct RunArgs {
    workloads: Vec<String>,
    all: bool,
    trace: bool,
    cfg: RunConfig,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        all: false,
        trace: false,
        cfg: RunConfig {
            seed: 7,
            seconds: RUN_SECONDS,
            quick: false,
        },
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => run.workloads.push(value("a workload name")?),
            "--all" => run.all = true,
            "--quick" => run.cfg.quick = true,
            "--seed" => {
                run.cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                run.cfg.seconds = s;
            }
            // bare `--trace` means 1; the driver passes `--trace 0|1`
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if run.all != run.workloads.is_empty() {
        return Err("give either --all or --workload NAME".into());
    }
    if run.all {
        run.workloads = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    }
    for w in &run.workloads {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            let known: Vec<_> = WORKLOADS.iter().map(|k| k.name).collect();
            return Err(format!("unknown workload {w}; known: {}", known.join(", ")));
        }
    }
    Ok(run)
}

/// The result object every run ends with on its last line of output.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> Value {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics.to_json()),
    ])
}

fn print_metric(workload: &str, name: &str, value: f64, unit: &str) {
    println!("{workload} {name} {value} {unit}");
}

/// Run one workload in this process. Prints `workload metric value unit`
/// lines, then the result object on the last line. `Ok(false)` means the
/// run completed but an output was wrong or an op failed.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let (correct, attempted, failed, metrics) = if args.trace {
        let run = layers::run_traced(name, &args.cfg)?;
        for (metric, value, unit) in run.metrics.iter() {
            print_metric(name, metric, value, unit);
        }
        println!("{name} bench.input_hash {:016x} hash", run.input_hash);
        write_out(&format!("{name}.trace.json"), &run.trace.to_json(name))?;
        (run.failed == 0, run.attempted, run.failed, run.metrics)
    } else {
        let run = workloads::run_end_to_end(name, &args.cfg)?;
        let s = &run.summary;
        let mut metrics = Metrics::default();
        metrics.set("setup_s", run.setup_s);
        metrics.set("cold_start_ms", run.cold_start_ms);
        metrics.set("latency_ms_p50", s.p50_ms);
        metrics.set("rows_per_s", s.rows_per_s);
        metrics.set("peak_rss_mb", run.peak_rss_mb);
        for (metric, value, unit) in metrics.iter() {
            print_metric(name, metric, value, unit);
        }
        // recorded beside the gated numbers, never gated themselves
        print_metric(
            name,
            "failed_share",
            run.failed() as f64 / run.attempted() as f64,
            "ratio",
        );
        print_metric(name, "bench.samples", s.samples as f64, "count");
        print_metric(name, "bench.timed_window_s", s.window_s, "s");
        for (metric, value) in [
            ("bench.latency_ms_p95", s.p95_ms),
            ("bench.latency_ms_p99", s.p99_ms),
        ] {
            if let Some(v) = value {
                print_metric(name, metric, v, "ms");
            }
        }
        print_metric(name, "tensor.max_abs_err", run.oracle.max_abs_err, "abs");
        print_metric(
            name,
            "tensor.mismatched_elems",
            run.oracle.mismatched as f64,
            "count",
        );
        println!("{name} bench.input_hash {:016x} hash", run.input_hash);
        (run.failed() == 0, run.attempted(), run.failed(), metrics)
    };
    println!(
        "{}",
        result_json(correct, attempted, failed, &metrics).to_json()
    );
    Ok(correct)
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Where and with what the numbers were taken.
fn host_json() -> Value {
    use gc_microkernel::arch;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("detected_isa", Value::str(arch::detected_isa().name())),
        ("active_isa", Value::str(arch::active_isa().name())),
        ("vnni", Value::Bool(arch::vnni_active(arch::active_isa()))),
        ("rustc", Value::str(command_output("rustc", &["--version"]))),
        (
            "git_rev",
            Value::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Run every requested workload in a child process of its own and write
/// `results[.trace].json`. Returns the results document and whether
/// every workload was correct.
fn run_children(args: &RunArgs) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut per_workload = Vec::new();
    let mut all_correct = true;
    for name in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", name])
            .args(["--seed", &args.cfg.seed.to_string()])
            .args(["--seconds", &args.cfg.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if args.cfg.quick {
            cmd.arg("--quick");
        }
        // children inherit this process's environment, which `main`
        // has already scrubbed; `output` waits for the child and collects its stdout
        let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        lines.iter().for_each(|l| println!("{l}"));
        let result = Value::parse(last).map_err(|e| {
            format!(
                "{name}: child exited with {} and no result line ({e})",
                out.status
            )
        })?;
        all_correct &=
            out.status.success() && result.get("correct").and_then(Value::as_bool) == Some(true);
        per_workload.push((name.clone(), result));
    }
    let doc = Value::obj([
        ("schema", Value::Num(1.0)),
        ("host", host_json()),
        ("seed", Value::Num(args.cfg.seed as f64)),
        ("seconds", Value::Num(args.cfg.seconds)),
        ("quick", Value::Bool(args.cfg.quick)),
        ("trace", Value::Bool(args.trace)),
        ("workloads", Value::obj(per_workload)),
    ]);
    Ok((doc, all_correct))
}

/// Write `doc` to `benchmark/out/<file>`; returns the path.
fn write_out(file: &str, doc: &Value) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, doc.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let run = parse_run(args)?;
    if !run.all && run.workloads.len() == 1 {
        return run_one(&run.workloads[0], &run);
    }
    let (doc, correct) = run_children(&run)?;
    let file = if run.trace {
        "results.trace.json"
    } else {
        "results.json"
    };
    println!("wrote {}", write_out(file, &doc)?.display());
    Ok(correct)
}

fn read_results(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let (base, new): (Vec<&String>, Vec<&String>) = match args.iter().position(|a| a == "--vs") {
        Some(at) => (args[..at].iter().collect(), args[at + 1..].iter().collect()),
        None if args.len() == 2 => (vec![&args[0]], vec![&args[1]]),
        None => {
            return Err(
                "usage: compare BASE.json... --vs NEW.json...  (or: compare A.json B.json)".into(),
            )
        }
    };
    if base.is_empty() || new.is_empty() {
        return Err("compare needs at least one file on each side of --vs".into());
    }
    let load = |paths: &[&String]| {
        paths
            .iter()
            .map(|p| read_results(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let rows = compare::compare(&load(&base)?, &load(&new)?);
    compare::print_rows(&rows);
    Ok(rows
        .iter()
        .all(|r| r.verdict != compare::Verdict::Regression))
}

/// Run the whole suite twice on this build; the two runs must agree
/// within every end-to-end bound, in both directions.
fn cmd_selfcheck(args: &[String]) -> Result<bool, String> {
    let mut run_args = vec!["--all".to_string()];
    run_args.extend_from_slice(args);
    let run = parse_run(&run_args)?;
    let mut docs = Vec::new();
    for half in ["a", "b"] {
        let (doc, correct) = run_children(&run)?;
        write_out(&format!("selfcheck.{half}.json"), &doc)?;
        if !correct {
            return Err(format!(
                "selfcheck run {half}: a workload produced wrong output"
            ));
        }
        docs.push(doc);
    }
    let forward = compare::compare(&docs[..1], &docs[1..]);
    let backward = compare::compare(&docs[1..], &docs[..1]);
    println!("--- b against a");
    compare::print_rows(&forward);
    println!("--- a against b");
    compare::print_rows(&backward);
    Ok(forward
        .iter()
        .chain(&backward)
        .all(|r| r.verdict == compare::Verdict::Ok))
}

/// `BENCHMARK.json`, generated from the tables in `metrics.rs`.
fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let quote = |s: &str| Value::str(s).to_json();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.map(quote).join(", "),
        RUN_SECONDS,
        list(WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
            .collect()),
        list(END_TO_END
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word()),
                m.bound
            ))
            .collect()),
        list(PER_LAYER
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word())
            ))
            .collect()),
    )
}

fn main() -> ExitCode {
    // Before anything resolves the ISA table or starts a thread.
    for (key, _) in std::env::vars_os() {
        if key.to_str().is_some_and(is_scrubbed_var) {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("help", &[][..]),
    };
    if cfg!(debug_assertions) && matches!(cmd, "run" | "selfcheck") {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        return ExitCode::from(2);
    }
    let outcome = match cmd {
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "selfcheck" => cmd_selfcheck(rest),
        "manifest" => {
            print!("{}", manifest());
            Ok(true)
        }
        _ => {
            eprintln!(
                "usage: gc-benchmark run (--all | --workload NAME) [--seed N] [--seconds S] [--trace [0|1]] [--quick]\n       gc-benchmark compare BASE.json... --vs NEW.json...\n       gc-benchmark selfcheck [--seed N] [--seconds S] [--quick]\n       gc-benchmark manifest"
            );
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let run = parse_run(&strings(&[
            "--workload",
            "mha1_f32_b4",
            "--seed",
            "11",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(run.workloads, ["mha1_f32_b4"]);
        assert_eq!((run.cfg.seed, run.cfg.seconds, run.trace), (11, 3.0, false));
        assert!(
            parse_run(&strings(&["--workload", "mha1_f32_b4", "--trace", "1"]))
                .unwrap()
                .trace
        );
        let all = parse_run(&strings(&["--all", "--seed", "7", "--trace"])).unwrap();
        assert!(all.trace && all.workloads.len() == WORKLOADS.len());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--all", "--workload", "mha1_f32_b4"],
            &[],
            &["--all", "--seconds", "0"],
            &["--all", "--seconds", "nan"],
            &["--all", "--seed"],
            &["--all", "--frobnicate"],
        ] {
            assert!(parse_run(&strings(bad)).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn scrubs_only_the_knobs_that_change_behaviour() {
        assert!(is_scrubbed_var("GC_FORCE_ISA") && is_scrubbed_var("GC_DEBUG_COARSE"));
        assert!(!is_scrubbed_var("CARGO_TARGET_DIR") && !is_scrubbed_var("GC_FORCE"));
    }

    #[test]
    fn manifest_is_the_checked_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(std::fs::read_to_string(path).unwrap(), manifest());
        assert!(manifest().len() < 64 * 1024);
    }

    /// Quick smoke over all six workloads, both sides: every named
    /// metric is present with its unit and nothing fails the oracle.
    #[test]
    fn quick_smoke_reports_every_metric() {
        let cfg = RunConfig {
            seed: 7,
            seconds: RUN_SECONDS,
            quick: true,
        };
        for w in WORKLOADS {
            let e2e = workloads::run_end_to_end(w.name, &cfg).unwrap();
            assert_eq!(e2e.failed(), 0, "{}: {:?}", w.name, e2e.oracle);
            assert!(e2e.setup_s > 0.0 && e2e.cold_start_ms > 0.0 && e2e.peak_rss_mb > 0.0);
            assert!(
                e2e.summary.p50_ms > 0.0 && e2e.summary.rows_per_s > 0.0,
                "{}",
                w.name
            );
            let seed8 = RunConfig {
                seed: 8,
                ..cfg.clone()
            };
            assert_ne!(
                workloads::input_hash(w.name, &seed8),
                e2e.input_hash,
                "{}: seed 8 differs",
                w.name
            );

            let traced = layers::run_traced(w.name, &cfg).unwrap();
            assert_eq!(traced.failed, 0, "{}", w.name);
            assert_eq!(
                traced.input_hash, e2e.input_hash,
                "{}: same seed, same inputs",
                w.name
            );
            let got: Vec<_> = traced.metrics.iter().map(|(n, _, u)| (n, u)).collect();
            let mut want: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
            want.sort_unstable();
            assert_eq!(got, want, "{}", w.name);
            assert!(
                traced.metrics.iter().all(|(_, v, _)| v.is_finite()),
                "{}",
                w.name
            );
            for name in [
                "tir.exec_ms_p50",
                "lowering.lower_ms",
                "microkernel.gemm_isolated_ms",
                "bench.samples",
            ] {
                assert!(traced.metrics.get(name).unwrap() > 0.0, "{} {name}", w.name);
            }
            assert!(!traced.trace.spans().is_empty());
        }
    }
}
