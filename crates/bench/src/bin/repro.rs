//! Regenerates the LVQ paper's evaluation tables and figures.
//!
//! ```text
//! repro <experiment> [--scale small|paper] [--seed N]
//!
//! experiments: all, table1, table2, table3, fig12, fig13, fig14,
//!              fig15, fig16, storage, ksweep, quorum, chaos,
//!              crashloop, reorg
//! ```
//!
//! `fig13`/`fig14`/`fig15` share one filter-size sweep; asking for any
//! of them prints all three (they are views of the same runs).
//!
//! The paper experiments report result bytes; `quorum`, `chaos`,
//! `crashloop` and `reorg` hard-assert serving invariants and exit
//! nonzero on a violation. Wall-clock numbers come from the
//! `perfbench` package, not from here.

use std::process::ExitCode;
use std::time::Instant;

use lvq_bench::experiments::{
    bf_sweep, chaos, crashloop, fig12, fig16, k_sweep, quorum, reorg, storage, tables,
};
use lvq_bench::Scale;

struct Options {
    experiment: String,
    scale: Scale,
    seed: u64,
}

/// Parses the command line; `Ok(None)` asks for the usage text.
fn parse_args() -> Result<Option<Options>, String> {
    let mut args = std::env::args().skip(1);
    let mut experiment = None;
    let mut scale = Scale::Small;
    let mut seed = 0x1_5EED;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&v).ok_or(format!("unknown scale '{v}'"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--help" | "-h" => return Ok(None),
            other if experiment.is_none() => experiment = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(Some(Options {
        experiment: experiment.unwrap_or_else(|| "all".to_string()),
        scale,
        seed,
    }))
}

const USAGE: &str =
    "usage: repro <all|table1|table2|table3|fig12|fig13|fig14|fig15|fig16|storage|ksweep|quorum|chaos|crashloop|reorg> \
                     [--scale small|paper] [--seed N]";

fn main() -> ExitCode {
    // The crash-loop experiment re-invokes this binary as its serving
    // child; intercept that role before normal argument parsing.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("crashloop-child") {
        return match crashloop::child_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("crashloop-child: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let scale_name = match opts.scale {
        Scale::Small => "small",
        Scale::Paper => "paper",
    };
    println!(
        "# LVQ evaluation reproduction — experiment '{}', scale '{}', seed {}",
        opts.experiment, scale_name, opts.seed
    );
    println!(
        "# chain: {} blocks, per-block BF {} B, BMT BF {} B, k = {}",
        opts.scale.blocks(),
        opts.scale.per_block_bf(),
        opts.scale.bmt_bf(),
        opts.scale.hashes()
    );
    println!();

    let started = Instant::now();
    let want = |name: &str| opts.experiment == "all" || opts.experiment == name;
    let mut matched = false;

    if want("table1") {
        matched = true;
        println!("Table I — blocks to be merged");
        println!("{}", tables::table1());
    }
    if want("table2") {
        matched = true;
        println!("Table II — segment division (M = 256)");
        println!("{}", tables::table2());
    }
    if want("table3") {
        matched = true;
        println!("Table III — probe addresses (planted and verified)");
        println!("{}", tables::table3(opts.scale, opts.seed));
    }
    if want("fig12") {
        matched = true;
        println!("{}", fig12::run(opts.scale, opts.seed));
    }
    if want("fig13") || want("fig14") || want("fig15") {
        matched = true;
        println!("{}", bf_sweep::run(opts.scale, opts.seed));
    }
    if want("fig16") {
        matched = true;
        let result = fig16::run(opts.scale, opts.seed);
        println!("{result}");
        if let Some(best) = result.best_m_for("Addr6") {
            println!("(Addr6 endpoint minimum at M = {best})");
        }
        println!();
    }
    if want("storage") {
        matched = true;
        println!("{}", storage::run(opts.scale, opts.seed));
    }
    if want("ksweep") {
        matched = true;
        println!("{}", k_sweep::run(opts.scale, opts.seed));
    }
    if want("quorum") {
        matched = true;
        println!("{}", quorum::run(opts.scale, opts.seed));
        println!();
    }
    if want("chaos") {
        matched = true;
        println!("{}", chaos::run(opts.scale, opts.seed));
        println!();
    }
    if want("crashloop") {
        matched = true;
        let exe = std::env::current_exe().expect("own executable path");
        println!("{}", crashloop::run(opts.scale, opts.seed, &exe));
        println!();
    }
    if want("reorg") {
        matched = true;
        println!("{}", reorg::run(opts.scale, opts.seed));
        println!();
    }

    if !matched {
        eprintln!("unknown experiment '{}'\n{USAGE}", opts.experiment);
        return ExitCode::FAILURE;
    }
    println!("# completed in {:.1?}", started.elapsed());
    ExitCode::SUCCESS
}
