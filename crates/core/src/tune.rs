//! Measured autotuning with a persistent tuning database.
//!
//! The analytic heuristic ([`gc_lowering::choose_params`]) is a model,
//! and models are wrong at the margin: the paper's own approach is to
//! use the cost model to *shortlist* and let measurement settle close
//! calls. This module closes that loop:
//!
//! 1. a baseline compile (with a [`gc_lowering::ParamLog`] attached)
//!    discovers every template-parameter choice point the graph
//!    actually exercises;
//! 2. [`gc_lowering::choose_params_ranked`] supplies the analytic
//!    top-k candidates per choice point;
//! 3. [`tune_graph`] measures candidates one choice point at a time —
//!    each trial is a full compile through the *same warm-start path a
//!    database hit uses* (a throwaway in-memory [`TuningDb`] holding
//!    the trial record), projected on the target machine's cache
//!    simulator and timed on the host wall clock;
//! 4. the winning record — the parameter overrides of the winning
//!    plan — is persisted in a [`TuningDb`] keyed by
//!    (graph fingerprint, shape bucket, machine, threads).
//!
//! A later compile with [`crate::CompileOptions::tuning`] set to that
//! database warm-starts: no candidate search at the recorded choice
//! points, zero re-measurement.
//!
//! Winner selection is by *projected* cycles on the target machine
//! model (the host running the tuner is rarely the 32-core target);
//! host wall time is measured and recorded with each winner as
//! corroborating evidence, and reported so a tuner running *on* the
//! target can see both.
//!
//! The on-disk format is a line-oriented text file (this repository
//! uses no serialization dependencies). Floats round-trip bit-exactly
//! via `f64::to_bits` hex.

use crate::{CompileOptions, Compiler, CoreError};
use gc_graph::{Fnv1a, Graph};
use gc_lowering::heuristic::ParamChoice;
use gc_lowering::{choose_params_ranked, Constraints, MatmulParams, MatmulProblem};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identity of a tuning-database entry: which graph, at which leading
/// shape, compiled for which machine, executed with how many threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TuneKey {
    /// Canonical fingerprint of the *optimized* graph
    /// ([`gc_graph::graph_fingerprint`] — weights included).
    pub graph: u64,
    /// Shape bucket: the leading dimension of graph input 0 (batch /
    /// token count — the dimension serving actually varies). The graph
    /// fingerprint already covers all shapes exactly; keeping the
    /// bucket explicit makes entries legible in the database file.
    pub shape_bucket: u64,
    /// FNV-1a of the machine descriptor's debug form *and* the
    /// microkernel ISA of the engine the plan runs on: wall-clock
    /// measurements taken under one backend (say a scalar engine, or
    /// `GC_FORCE_ISA=scalar`) must never warm-start a plan running on
    /// another.
    pub machine: u64,
    /// Worker thread count (0 = host parallelism).
    pub threads: u64,
}

impl TuneKey {
    /// The key for an optimized graph under `opts`, compiled for an
    /// engine whose kernels run on `isa` ([`gc_microkernel::Isa::name`]
    /// of `Engine::kernels`). The only constructor: a key always names
    /// the backend its measurements were, or will be, taken on.
    ///
    /// # Errors
    ///
    /// Propagates fingerprinting errors (cyclic graph, unbound
    /// constant).
    pub fn for_graph(
        graph: &Graph,
        opts: &CompileOptions,
        isa: &str,
    ) -> Result<TuneKey, CoreError> {
        let gfp = gc_graph::graph_fingerprint(graph)?;
        let bucket = graph
            .inputs()
            .first()
            .and_then(|&i| graph.desc(i).shape().first().copied())
            .unwrap_or(1) as u64;
        let mut h = Fnv1a::new();
        h.write_str(&format!("{:?}", opts.machine));
        h.write_str(" isa=");
        h.write_str(isa);
        Ok(TuneKey {
            graph: gfp,
            shape_bucket: bucket,
            machine: h.finish(),
            threads: opts.threads.unwrap_or(0) as u64,
        })
    }
}

/// One tuned compilation plan: the measured parameter winners.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedRecord {
    /// Winning parameters per choice point (exact
    /// `(problem, constraints)` identity).
    pub choices: Vec<ParamChoice>,
    /// Projected steady-state cycles of the winning plan.
    pub projected_cycles: f64,
    /// Best host wall time observed for the winning plan
    /// (nanoseconds per execution).
    pub wall_ns: u64,
}

impl TunedRecord {
    /// The override map lowering consults.
    pub fn overrides(&self) -> gc_lowering::ParamOverrides {
        let mut o = gc_lowering::ParamOverrides::new();
        for c in &self.choices {
            o.insert(c.problem, c.constraints, c.params);
        }
        o
    }
}

/// A persistent (or in-memory) map from [`TuneKey`] to [`TunedRecord`].
///
/// Thread-safe behind a mutex; shared into [`CompileOptions`] as an
/// `Arc`. File-backed databases load eagerly on [`TuningDb::open`] and
/// write only on [`TuningDb::save`] — compilation never touches disk.
#[derive(Debug, Default)]
pub struct TuningDb {
    path: Option<PathBuf>,
    entries: Mutex<HashMap<TuneKey, TunedRecord>>,
}

impl TuningDb {
    /// An empty in-memory database ([`TuningDb::save`] is a no-op).
    pub fn in_memory() -> Self {
        TuningDb::default()
    }

    /// Open (or create) a file-backed database. A missing file yields
    /// an empty database that [`TuningDb::save`] will create.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file, or a malformed database.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let entries = match std::fs::read_to_string(&path) {
            Ok(text) => parse_db(&text)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => HashMap::new(),
            Err(e) => return Err(e),
        };
        Ok(TuningDb {
            path: Some(path),
            entries: Mutex::new(entries),
        })
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The record for `key`, if present.
    pub fn lookup(&self, key: &TuneKey) -> Option<TunedRecord> {
        self.entries.lock().unwrap().get(key).cloned()
    }

    /// Insert (or replace) the record for `key`.
    pub fn insert(&self, key: TuneKey, record: TunedRecord) {
        self.entries.lock().unwrap().insert(key, record);
    }

    /// Number of tuned entries.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the database holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Content fingerprint: FNV-1a over the canonical (key-sorted)
    /// serialized form. Two databases fingerprint equal iff they hold
    /// identical entries — the serving plan cache hashes this so plans
    /// compiled under different tuning data never alias.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(&self.serialize());
        h.finish()
    }

    /// Serialize to the canonical text form (entries key-sorted).
    pub fn serialize(&self) -> String {
        let entries = self.entries.lock().unwrap();
        let mut keys: Vec<TuneKey> = entries.keys().copied().collect();
        keys.sort();
        let mut out = String::from("gc-tunedb v4\n");
        for k in keys {
            write_record(&mut out, &k, &entries[&k]);
        }
        out
    }

    /// Write the database to its backing file (no-op for in-memory).
    ///
    /// # Errors
    ///
    /// I/O errors writing the file.
    pub fn save(&self) -> io::Result<()> {
        match &self.path {
            Some(p) => std::fs::write(p, self.serialize()),
            None => Ok(()),
        }
    }
}

fn opt_usize(v: Option<usize>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "-".to_string(),
    }
}

fn write_record(out: &mut String, key: &TuneKey, r: &TunedRecord) {
    // Exhaustive destructuring throughout: adding a field to the key,
    // the record, or any of the three choice-point structs is a
    // compile error here, forcing the format (and its version tag) to
    // be revisited rather than silently dropping data.
    let TuneKey {
        graph,
        shape_bucket,
        machine,
        threads,
    } = *key;
    let TunedRecord {
        choices,
        projected_cycles,
        wall_ns,
    } = r;
    out.push_str(&format!(
        "record {graph:016x} {shape_bucket} {machine:016x} {threads} {:016x} {wall_ns}\n",
        projected_cycles.to_bits(),
    ));
    for c in choices {
        let MatmulProblem {
            batch,
            m,
            n,
            k,
            elem_bytes,
        } = c.problem;
        let Constraints {
            full_n_per_task,
            fixed_mb,
            fixed_kb,
            fixed_tasks,
            allow_ragged_m,
            allow_ragged_n,
        } = c.constraints;
        let MatmulParams {
            mpn,
            npn,
            mb,
            nb,
            kb,
            bs,
        } = c.params;
        out.push_str(&format!(
            "choice {batch} {m} {n} {k} {elem_bytes} | {} {} {} {} {} {} | \
             {mpn} {npn} {mb} {nb} {kb} {bs}\n",
            u8::from(full_n_per_task),
            opt_usize(fixed_mb),
            opt_usize(fixed_kb),
            opt_usize(fixed_tasks),
            u8::from(allow_ragged_m),
            u8::from(allow_ragged_n),
        ));
    }
    out.push_str("end\n");
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("tunedb: {}", msg.into()),
    )
}

fn parse_usize(s: &str) -> io::Result<usize> {
    s.parse().map_err(|_| bad(format!("bad integer {s:?}")))
}

fn parse_opt_usize(s: &str) -> io::Result<Option<usize>> {
    if s == "-" {
        Ok(None)
    } else {
        parse_usize(s).map(Some)
    }
}

fn parse_bool(s: &str) -> io::Result<bool> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(bad(format!("bad bool {s:?}"))),
    }
}

fn parse_hex(s: &str) -> io::Result<u64> {
    u64::from_str_radix(s, 16).map_err(|_| bad(format!("bad hex {s:?}")))
}

fn parse_choice(rest: &str) -> io::Result<ParamChoice> {
    let sections: Vec<&str> = rest.split('|').map(str::trim).collect();
    let [prob, cons, par] = sections[..] else {
        return Err(bad("choice line needs 3 '|'-separated sections"));
    };
    let p: Vec<&str> = prob.split_whitespace().collect();
    let [batch, m, n, k, eb] = p[..] else {
        return Err(bad("problem section needs 5 fields"));
    };
    let problem = MatmulProblem {
        batch: parse_usize(batch)?,
        m: parse_usize(m)?,
        n: parse_usize(n)?,
        k: parse_usize(k)?,
        elem_bytes: parse_usize(eb)?,
    };
    let c: Vec<&str> = cons.split_whitespace().collect();
    let [fnt, fmb, fkb, ft, rm, rn] = c[..] else {
        return Err(bad("constraints section needs 6 fields"));
    };
    let constraints = Constraints {
        full_n_per_task: parse_bool(fnt)?,
        fixed_mb: parse_opt_usize(fmb)?,
        fixed_kb: parse_opt_usize(fkb)?,
        fixed_tasks: parse_opt_usize(ft)?,
        allow_ragged_m: parse_bool(rm)?,
        allow_ragged_n: parse_bool(rn)?,
    };
    let q: Vec<&str> = par.split_whitespace().collect();
    let [mpn, npn, mb, nb, kb, bs] = q[..] else {
        return Err(bad("params section needs 6 fields"));
    };
    let params = MatmulParams {
        mpn: parse_usize(mpn)?,
        npn: parse_usize(npn)?,
        mb: parse_usize(mb)?,
        nb: parse_usize(nb)?,
        kb: parse_usize(kb)?,
        bs: parse_usize(bs)?,
    };
    Ok(ParamChoice {
        problem,
        constraints,
        params,
    })
}

fn parse_db(text: &str) -> io::Result<HashMap<TuneKey, TunedRecord>> {
    let mut lines = text.lines();
    match lines.next() {
        Some("gc-tunedb v4") => {}
        other => return Err(bad(format!("bad header {other:?}"))),
    }
    let mut entries = HashMap::new();
    let mut current: Option<(TuneKey, TunedRecord)> = None;
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "record" => {
                if current.is_some() {
                    return Err(bad("record without closing end"));
                }
                let f: Vec<&str> = rest.split_whitespace().collect();
                let [graph, bucket, machine, threads, cycles, wall] = f[..] else {
                    return Err(bad("record line needs 6 fields"));
                };
                let key = TuneKey {
                    graph: parse_hex(graph)?,
                    shape_bucket: parse_usize(bucket)? as u64,
                    machine: parse_hex(machine)?,
                    threads: parse_usize(threads)? as u64,
                };
                let rec = TunedRecord {
                    choices: Vec::new(),
                    projected_cycles: f64::from_bits(parse_hex(cycles)?),
                    wall_ns: parse_usize(wall)? as u64,
                };
                current = Some((key, rec));
            }
            "choice" => match &mut current {
                Some((_, rec)) => rec.choices.push(parse_choice(rest)?),
                None => return Err(bad("choice outside record")),
            },
            "end" => match current.take() {
                Some((key, rec)) => {
                    entries.insert(key, rec);
                }
                None => return Err(bad("end outside record")),
            },
            other => return Err(bad(format!("unknown tag {other:?}"))),
        }
    }
    if current.is_some() {
        return Err(bad("unterminated record"));
    }
    Ok(entries)
}

/// Tuning budget and measurement settings.
#[derive(Debug, Clone, Copy)]
pub struct TuneConfig {
    /// Analytic candidates ranked per choice point (including the
    /// analytic winner itself).
    pub top_k: usize,
    /// Maximum measured trials across all choice points.
    pub max_trials: usize,
    /// Host executions per wall-clock measurement (minimum is kept).
    pub wall_reps: usize,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            top_k: 4,
            max_trials: 24,
            wall_reps: 3,
        }
    }
}

/// What one [`tune_graph`] run did.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The database key tuned.
    pub key: TuneKey,
    /// True if the database already held this key (no measurement ran).
    pub warm_start: bool,
    /// Distinct template-parameter choice points the graph exercises.
    pub choice_points: usize,
    /// Measured trials performed (0 on a warm start).
    pub trials: usize,
    /// Projected cycles of the analytic (untuned) plan.
    pub analytic_cycles: f64,
    /// Projected cycles of the winning plan.
    pub best_cycles: f64,
    /// Best host wall time of the winning plan (ns per execution).
    pub wall_ns: u64,
}

impl TuneReport {
    /// Projected speedup of measured tuning over the analytic plan.
    pub fn speedup(&self) -> f64 {
        if self.best_cycles > 0.0 {
            self.analytic_cycles / self.best_cycles
        } else {
            1.0
        }
    }
}

/// Compile + measure one plan: projected cycles on the target machine
/// and best-of-`reps` host wall time.
fn measure(
    opts: &CompileOptions,
    graph: &Graph,
    inputs: &[gc_tensor::Tensor],
    reps: usize,
) -> Result<(f64, u64), CoreError> {
    let compiled = Compiler::new(opts.clone()).compile(graph.clone())?;
    let projected = compiled.project().cycles;
    let mut best_ns = u64::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        compiled.execute(inputs)?;
        best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
    }
    Ok((projected, best_ns))
}

fn random_inputs(
    graph: &Graph,
    opts: &CompileOptions,
) -> Result<Vec<gc_tensor::Tensor>, CoreError> {
    // Descriptors must come from the *optimized* graph (low-precision
    // conversion can retype inputs), exactly as Compiler::compile sees
    // them.
    let mut g = graph.clone();
    crate::pipeline::optimize_graph(&mut g, opts)?;
    Ok(g.inputs()
        .iter()
        .enumerate()
        .map(|(i, &lt)| {
            let d = g.desc(lt);
            gc_tensor::Tensor::random(d.shape(), d.dtype(), 0x5eed + i as u64)
        })
        .collect())
}

/// Measured autotuning: discover the graph's template-parameter choice
/// points, measure the analytic top-k candidates at each, and persist
/// the winning parameters in `db`. Returns immediately (zero trials)
/// if `db` already holds the graph's key.
///
/// `opts` is the compilation configuration to tune *for*; its `tuning`
/// and `param_log` fields are ignored (the tuner manages both).
///
/// # Errors
///
/// Propagates compilation and execution errors.
pub fn tune_graph(
    graph: &Graph,
    opts: &CompileOptions,
    db: &Arc<TuningDb>,
    cfg: &TuneConfig,
) -> Result<TuneReport, CoreError> {
    let mut base = opts.clone();
    base.tuning = None;
    base.param_log = None;

    // The key is computed over the optimized graph, matching the
    // lookup the warm-start path performs inside the pipeline, under
    // the backend `Compiler::compile` — what `measure` runs — uses.
    let key = {
        let mut g = graph.clone();
        crate::pipeline::optimize_graph(&mut g, &base)?;
        TuneKey::for_graph(&g, &base, gc_microkernel::arch::active_isa().name())?
    };
    if let Some(rec) = db.lookup(&key) {
        return Ok(TuneReport {
            key,
            warm_start: true,
            choice_points: rec.choices.len(),
            trials: 0,
            analytic_cycles: rec.projected_cycles,
            best_cycles: rec.projected_cycles,
            wall_ns: rec.wall_ns,
        });
    }

    let inputs = random_inputs(graph, &base)?;

    // Baseline: analytic compile with the decision log attached.
    let log: gc_lowering::ParamLog = Arc::new(Mutex::new(Vec::new()));
    let mut logged_opts = base.clone();
    logged_opts.param_log = Some(log.clone());
    let (analytic_cycles, analytic_wall) = measure(&logged_opts, graph, &inputs, cfg.wall_reps)?;

    // Choice points: first-seen order, deduplicated by identity (two
    // layers of one shape share a point and its choice).
    let mut points: Vec<ParamChoice> = Vec::new();
    for c in log.lock().unwrap().iter() {
        if !points
            .iter()
            .any(|p| p.problem == c.problem && p.constraints == c.constraints)
        {
            points.push(*c);
        }
    }

    let mut best: Vec<ParamChoice> = points.clone();
    let mut best_cycles = analytic_cycles;
    let mut best_wall = analytic_wall;
    let mut trials = 0usize;

    // Coordinate descent, one pass: vary each choice point across its
    // analytic top-k while holding the current best at every other
    // point. Every trial goes through the same warm-start machinery a
    // database hit uses — an in-memory db holding the trial record —
    // so what we measure is exactly what a warm start will replay.
    'outer: for i in 0..best.len() {
        let ranked = choose_params_ranked(
            &base.machine,
            &best[i].problem,
            &best[i].constraints,
            cfg.top_k,
        );
        for cand in ranked {
            if trials >= cfg.max_trials {
                break 'outer;
            }
            if cand == best[i].params {
                continue;
            }
            let mut trial = best.clone();
            trial[i].params = cand;
            let trial_db = Arc::new(TuningDb::in_memory());
            trial_db.insert(
                key,
                TunedRecord {
                    choices: trial.clone(),
                    projected_cycles: 0.0,
                    wall_ns: 0,
                },
            );
            let mut trial_opts = base.clone();
            trial_opts.tuning = Some(trial_db);
            let (cycles, wall) = measure(&trial_opts, graph, &inputs, cfg.wall_reps)?;
            trials += 1;
            if cycles < best_cycles {
                best = trial;
                best_cycles = cycles;
                best_wall = wall;
            }
        }
    }

    db.insert(
        key,
        TunedRecord {
            choices: best,
            projected_cycles: best_cycles,
            wall_ns: best_wall,
        },
    );

    Ok(TuneReport {
        key,
        warm_start: false,
        choice_points: points.len(),
        trials,
        analytic_cycles,
        best_cycles,
        wall_ns: best_wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_choice() -> ParamChoice {
        ParamChoice {
            problem: MatmulProblem::new(256, 1024, 479, 4),
            constraints: Constraints {
                full_n_per_task: true,
                fixed_mb: Some(32),
                fixed_kb: None,
                fixed_tasks: Some(16),
                allow_ragged_m: false,
                allow_ragged_n: true,
            },
            params: MatmulParams {
                mpn: 8,
                npn: 4,
                mb: 32,
                nb: 64,
                kb: 479,
                bs: 1,
            },
        }
    }

    fn sample_record() -> TunedRecord {
        TunedRecord {
            choices: vec![sample_choice()],
            // one ULP above 1234567.0 — no short decimal form, to
            // prove bit-exact round-tripping
            projected_cycles: f64::from_bits(0x4132_D687_0000_0001),
            wall_ns: 987654321,
        }
    }

    #[test]
    fn serialize_parse_round_trips_bit_exact() {
        let db = TuningDb::in_memory();
        let key = TuneKey {
            graph: 0xdead_beef_cafe_f00d,
            shape_bucket: 256,
            machine: 42,
            threads: 0,
        };
        db.insert(key, sample_record());
        let text = db.serialize();
        let parsed = parse_db(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        let rec = &parsed[&key];
        assert_eq!(rec, &sample_record());
        assert_eq!(
            rec.projected_cycles.to_bits(),
            sample_record().projected_cycles.to_bits()
        );
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = TuningDb::in_memory();
        let b = TuningDb::in_memory();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let key = TuneKey {
            graph: 1,
            shape_bucket: 2,
            machine: 3,
            threads: 4,
        };
        a.insert(key, sample_record());
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.insert(key, sample_record());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn malformed_db_is_rejected() {
        assert!(parse_db("not a db").is_err());
        assert!(parse_db("gc-tunedb v4\nrecord 0 0 0 0\n").is_err());
        assert!(parse_db("gc-tunedb v4\nchoice 1 2 3 4 4 | 0 - - - 0 0 | 1 1 1 1 1 1\n").is_err());
        // unterminated record
        assert!(parse_db(
            "gc-tunedb v4\nrecord 0000000000000001 2 0000000000000003 4 0000000000000000 0\n"
        )
        .is_err());
        // well-formed older databases are refused by their header, not
        // half-parsed: v1 (8 constraint and 8 param fields), v2
        // (merge/ragged pins on the record, a ragged-K flag on choices)
        // and v3 (an edge-policy token ending each choice line)
        let v1 = "gc-tunedb v1\n\
                  record 0000000000000001 2 0000000000000003 4 - - 0000000000000000 0\n\
                  choice 1 2 3 4 4 | 0 - - - 0 0 0 0 | 1 1 1 1 1 1 1 pad\n\
                  end\n";
        let v2 = "gc-tunedb v2\n\
                  record 0000000000000001 2 0000000000000003 4 1 - 0000000000000000 0\n\
                  choice 1 2 3 4 4 | 0 - - - 0 0 1 | 1 1 1 1 1 1 pad\n\
                  end\n";
        let v3 = "gc-tunedb v3\n\
                  record 0000000000000001 2 0000000000000003 4 0000000000000000 0\n\
                  choice 1 2 3 4 4 | 0 - - - 0 0 | 1 1 1 1 1 1 tail\n\
                  end\n";
        for old in [v1, v2, v3] {
            let err = parse_db(old).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("bad header"), "{err}");
        }
    }

    #[test]
    fn open_missing_file_is_empty_and_save_creates_it() {
        let dir = std::env::temp_dir().join(format!("gc-tunedb-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.txt");
        let _ = std::fs::remove_file(&path);
        let db = TuningDb::open(&path).unwrap();
        assert!(db.is_empty());
        let key = TuneKey {
            graph: 7,
            shape_bucket: 8,
            machine: 9,
            threads: 1,
        };
        db.insert(key, sample_record());
        db.save().unwrap();
        let reloaded = TuningDb::open(&path).unwrap();
        assert_eq!(reloaded.lookup(&key).unwrap(), sample_record());
        let _ = std::fs::remove_file(&path);
    }
}
