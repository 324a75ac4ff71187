//! `perf`: the repository's performance benchmark.
//!
//! Four workloads, each one process; end-to-end metrics from an
//! untraced run, per-layer metrics from a separate traced run. See
//! `README.md` beside this package for the glossary and the rules the
//! load generator keeps.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1     the driver's form: one JSON line
//! perf run     --workload W|--all [--seed N] [--seconds S] [--runs R] [--quick] [--out FILE]
//! perf trace   --workload W|--all [--seed N] [--seconds S] [--quick] [--out FILE] [--spans FILE]
//! perf compare A.json B.json
//! perf list    [--benchmark-json]
//! ```

mod compare;
mod json;
mod rng;
mod span;
mod spec;
mod stats;
mod surface;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use spec::{Shape, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use workloads::{Ctx, Outcome};

/// Parsed `--flag value` arguments.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

const SWITCHES: [&str; 3] = ["--all", "--quick", "--benchmark-json"];

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if SWITCHES.contains(&arg.as_str()) {
                flags.insert(arg.clone(), String::new());
            } else if arg.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.insert(arg.clone(), value.clone());
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{flag}: cannot read {raw:?}")),
        }
    }

    fn ctx(&self, work_dir: PathBuf) -> Result<Ctx, String> {
        let seconds: f64 = self.get("--seconds", RUN_SECONDS as f64)?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds {seconds} is outside (0, 60]"));
        }
        Ok(Ctx {
            seed: self.get("--seed", DEFAULT_SEED)?,
            shape: Shape {
                seconds,
                quick: self.has("--quick"),
            },
            work_dir,
        })
    }

    fn workload(&self) -> Result<&'static str, String> {
        let name = self
            .flags
            .get("--workload")
            .ok_or("--workload W (or --all) is required; `perf list` names them")?;
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .find(|w| w == name)
            .ok_or_else(|| format!("unknown workload {name:?}; `perf list` names them"))
    }
}

/// A scratch directory beside the executable: inside the build
/// directory, so inside the checkout the driver runs in, and never in
/// the source tree. Removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = exe
            .parent()
            .ok_or("executable has no directory")?
            .join("perf-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metrics_json(values: &BTreeMap<&'static str, f64>) -> Value {
    Value::metrics(values, spec::unit_of)
}

/// One run as it is stored in a result file.
fn run_entry(
    workload: &str,
    outcome: &Outcome,
    layers: Option<&BTreeMap<&'static str, f64>>,
) -> Value {
    let mut pairs = vec![
        ("workload", Value::str(workload)),
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Num(outcome.tally.attempted as f64)),
        ("failed", Value::Num(outcome.tally.failed() as f64)),
        ("canary_rejected", Value::Bool(outcome.canary_rejected)),
        ("full_pass", Value::Bool(outcome.full_pass)),
        ("latency_samples", Value::Num(outcome.samples as f64)),
        ("metrics", metrics_json(&outcome.metrics)),
        ("aux", metrics_json(&outcome.aux)),
    ];
    if let Some(layers) = layers {
        pairs.push(("layers", metrics_json(layers)));
    }
    Value::obj(pairs)
}

fn document(kind: &str, ctx: &Ctx, runs: Vec<Value>) -> Value {
    Value::obj([
        ("benchmark", Value::str("lvq-perfbench")),
        ("kind", Value::str(kind)),
        ("seed", Value::Num(ctx.seed as f64)),
        ("seconds", Value::Num(ctx.shape.seconds)),
        ("quick", Value::Bool(ctx.shape.quick)),
        (
            "available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("runs", Value::Arr(runs)),
    ])
}

fn print_outcome(workload: &str, outcome: &Outcome) {
    let fail_ratio = outcome.tally.failed() as f64 / outcome.tally.attempted.max(1) as f64;
    println!(
        "{workload}: {} attempted, {} failed (fail_ratio {fail_ratio}), canary {}, {} latency samples{}",
        outcome.tally.attempted,
        outcome.tally.failed(),
        if outcome.canary_rejected { "rejected" } else { "ACCEPTED" },
        outcome.samples,
        if outcome.full_pass { "" } else { ", request list not completed once" },
    );
    if outcome.tally.failed() > 0 {
        println!("  failures: {:?}", outcome.tally);
    }
    for metric in &END_TO_END {
        if let Some(value) = outcome.metrics.get(metric.name) {
            println!("  {:<24} {value:>16.6} {}", metric.name, metric.unit);
        }
    }
}

fn print_layers(layers: &BTreeMap<&'static str, f64>) {
    for metric in &PER_LAYER {
        if let Some(value) = layers.get(metric.name) {
            println!("  {:<36} {value:>16.6} {}", metric.name, metric.unit);
        }
    }
}

/// Re-invokes this executable once per workload, so each workload's
/// peak RSS is its own, and gathers the children's result files.
fn fan_out(kind: &str, args: &Args, ctx: &Ctx) -> Result<(Vec<Value>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let runs: usize = args.get("--runs", 1)?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for round in 0..runs {
        for workload in &WORKLOADS {
            let out = ctx
                .work_dir
                .join(format!("{kind}-{}-{round}.json", workload.name));
            let mut child = std::process::Command::new(&exe);
            child
                .arg(kind)
                .args(["--workload", workload.name])
                .args(["--seed", &ctx.seed.to_string()])
                .args(["--seconds", &ctx.shape.seconds.to_string()])
                .arg("--out")
                .arg(&out);
            if ctx.shape.quick {
                child.arg("--quick");
            }
            if kind == "trace" {
                if let Some(spans) = args.flags.get("--spans") {
                    child.args(["--spans", &format!("{spans}.{}", workload.name)]);
                }
            }
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&out)
                .map_err(|e| format!("{} produced no result: {e}", workload.name))?;
            let doc = json::parse(&text)?;
            entries.extend(
                doc.get("runs")
                    .and_then(Value::as_arr)
                    .ok_or("child result has no runs")?
                    .iter()
                    .cloned(),
            );
        }
    }
    Ok((entries, all_correct))
}

fn write_out(args: &Args, doc: &Value) -> Result<(), String> {
    if let Some(path) = args.flags.get("--out") {
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn cmd_run(args: &Args, work: &WorkDir) -> Result<bool, String> {
    let ctx = args.ctx(work.0.clone())?;
    let (entries, correct) = if args.has("--all") {
        fan_out("run", args, &ctx)?
    } else {
        let workload = args.workload()?;
        let outcome = workloads::run(workload, &ctx)?;
        print_outcome(workload, &outcome);
        (vec![run_entry(workload, &outcome, None)], outcome.correct())
    };
    write_out(args, &document("run", &ctx, entries))?;
    Ok(correct)
}

fn cmd_trace(args: &Args, work: &WorkDir) -> Result<bool, String> {
    let ctx = args.ctx(work.0.clone())?;
    let (entries, correct) = if args.has("--all") {
        fan_out("trace", args, &ctx)?
    } else {
        let workload = args.workload()?;
        let traced = workloads::trace(workload, &ctx)?;
        println!(
            "{workload}: traced ({} spans); end-to-end numbers come only from `perf run`",
            traced.spans.spans().len()
        );
        print_layers(&traced.layers);
        if let Some(path) = args.flags.get("--spans") {
            std::fs::write(path, traced.spans.to_json().to_line())
                .map_err(|e| format!("{path}: {e}"))?;
        }
        (
            vec![run_entry(workload, &traced.outcome, Some(&traced.layers))],
            traced.outcome.correct(),
        )
    };
    write_out(args, &document("trace", &ctx, entries))?;
    Ok(correct)
}

/// The driver's form: `--workload W --seed N --seconds S --trace 0|1`,
/// one JSON object as the last line of standard output.
fn cmd_driver(args: &Args, work: &WorkDir) -> Result<bool, String> {
    let ctx = args.ctx(work.0.clone())?;
    let workload = args.workload()?;
    let traced: u8 = args.get("--trace", 0)?;
    let (outcome, metrics) = match traced {
        0 => {
            let outcome = workloads::run(workload, &ctx)?;
            let metrics = outcome.metrics.clone();
            (outcome, metrics)
        }
        1 => {
            let traced = workloads::trace(workload, &ctx)?;
            (traced.outcome, traced.layers)
        }
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let expected = if traced == 0 {
        END_TO_END.len()
    } else {
        PER_LAYER.len()
    };
    if metrics.len() != expected {
        return Err(format!(
            "{} metrics measured, {expected} declared",
            metrics.len()
        ));
    }
    let line = Value::obj([
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Num(outcome.tally.attempted as f64)),
        ("failed", Value::Num(outcome.tally.failed() as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", line.to_line());
    // The line carries `correct`; the exit code stays 0 so it is read.
    Ok(true)
}

fn cmd_list(args: &Args) {
    if args.has("--benchmark-json") {
        print!("{}", spec::benchmark_json().to_pretty());
        return;
    }
    println!("workloads");
    for w in &WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (perf run)");
    for m in &END_TO_END {
        println!(
            "  {:<22} {:<6} {:<6} bound {:>3.0}%{}  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            if m.exact { " exact" } else { "      " },
            m.what
        );
    }
    println!("\nper-layer metrics (perf trace)");
    for m in &PER_LAYER {
        println!(
            "  {:<34} {:<6} {:<6}{}  {}  -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            if m.exact { " exact" } else { "      " },
            m.source,
            m.moves
        );
    }
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &raw[1..]),
        Some(_) => ("driver", raw),
        None => return Err("no arguments; see the usage at the top of src/main.rs".into()),
    };
    let args = Args::parse(rest)?;
    match command {
        "list" => {
            cmd_list(&args);
            Ok(true)
        }
        "compare" => match args.positional.as_slice() {
            [a, b] => compare::compare(a, b),
            _ => Err("compare needs exactly two result files".into()),
        },
        "run" | "trace" | "driver" => {
            let work = WorkDir::create()?;
            match command {
                "run" => cmd_run(&args, &work),
                "trace" => cmd_trace(&args, &work),
                _ => cmd_driver(&args, &work),
            }
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
