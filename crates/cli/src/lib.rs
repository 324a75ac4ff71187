//! Implementation of the `lvq` command-line tool.
//!
//! Split from the binary so the command logic is unit-testable: every
//! command takes parsed arguments and writes to any `io::Write`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod error;

pub use args::{
    parse_probe_spec, FsckOptions, GenerateOptions, IngestOptions, QueryOptions, QuerySource,
    RemoteEndpoint, ServeOptions, ServeSource,
};
pub use error::CliError;

use std::io::Write;

/// The tool's usage text.
pub const USAGE: &str = "\
usage:
  lvq generate --out FILE [--blocks N] [--scheme lvq|no-bmt|no-smt|strawman]
               [--bf BYTES] [--k N] [--segment M] [--seed S] [--txs N]
               [--probe ADDR:TXS:BLOCKS]...
  lvq info FILE
  lvq validate FILE
  lvq query FILE ADDRESS [--range LO:HI] [--breakdown]
  lvq query ADDRESS --addr HOST:PORT --segment M [--scheme NAME] [--bf BYTES]
            [--k N] [--range LO:HI] [--retries N] [--backoff-ms MS]
            [--chaos-seed S] [--connect-timeout-ms MS] [--pipeline WINDOW]
  lvq serve (FILE [--trust-file] | --store DIR [--block-cache BYTES]
            [--index [--index-cache BYTES]] [--follow FILE [--max-reorg-depth N]])
            [--addr HOST:PORT] [--max-requests N] [--workers N]
            [--queue N] [--deadline-ms MS] [--max-in-flight N]
            [--filter-cache BYTES] [--smt-cache BYTES]
  lvq ingest FILE --store DIR [--trust-file] [--segment-bytes N] [--index]
  lvq fsck --store DIR [--index]
  lvq balance FILE ADDRESS";

/// Dispatches a full command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed invocations and other
/// [`CliError`] variants for runtime failures.
pub fn run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    match command.as_str() {
        "generate" => commands::generate(&args::GenerateOptions::parse(rest)?, out),
        "info" => match rest {
            [file] => commands::info(file, out),
            _ => Err(CliError::Usage("info takes exactly one file".into())),
        },
        "validate" => match rest {
            [file] => commands::validate(file, out),
            _ => Err(CliError::Usage("validate takes exactly one file".into())),
        },
        "query" => commands::query(&args::QueryOptions::parse(rest)?, out),
        "serve" => commands::serve(&args::ServeOptions::parse(rest)?, out),
        "ingest" => commands::ingest(&args::IngestOptions::parse(rest)?, out),
        "fsck" => commands::fsck(&args::FsckOptions::parse(rest)?, out),
        "balance" => match rest {
            [file, address] => commands::balance(file, address, out),
            _ => Err(CliError::Usage(
                "balance takes a file and an address".into(),
            )),
        },
        "--help" | "-h" | "help" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}
