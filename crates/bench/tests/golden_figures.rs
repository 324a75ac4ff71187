//! The paper's metric must not drift: Fig. 12 (result size by scheme),
//! Fig. 13–15 (size, BMT share and endpoint count against filter size)
//! and Fig. 16 (endpoint count against segment length) at small scale,
//! seed 89837, compared cell by cell with `tests/golden/*.txt`.
//!
//! Every cell is deterministic per seed except Fig. 16's wall-clock
//! `prove+verify` column, which is cut from both sides. The golden
//! files are `repro`'s own output without its `#` lines:
//!
//! ```text
//! repro fig12 --scale small --seed 89837 | sed -e 1,3d -e '/^# completed/d'
//! repro fig13 …                                          # → fig13-15.txt
//! repro fig16 … | sed -E -e '/^\(Addr6/d' -e '/^\|/s/\|[^|]*\|$/|/'
//! ```
//!
//! A change that moves a cell on purpose regenerates them and says so.
//!
//! The `#[ignore]`d tests pin the same figures, plus Tables I–III, at
//! paper scale against the committed logs `repro_paper.txt` (above its
//! `# log cut here` line) and `repro_fig16.txt`. They take minutes even
//! optimised:
//!
//! ```text
//! cargo test --release -p lvq-bench --test golden_figures -- --ignored
//! ```

use std::fmt::Write;

use lvq_bench::experiments::{bf_sweep, fig12, fig16, tables};
use lvq_bench::Scale;

const SEED: u64 = 89837;

fn assert_golden(name: &str, rendered: &str, golden: &str) {
    let (rendered, golden) = (rendered.trim_end(), golden.trim_end());
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "{name}, line {}", i + 1);
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "{name}: line count"
    );
}

/// Cuts the last column off every table row.
fn without_last_column(table: &str) -> String {
    table
        .lines()
        .map(|line| match line.strip_suffix('|') {
            Some(row) if line.starts_with('|') => {
                let cut = row.rfind('|').expect("a row has two bars");
                format!("{}\n", &row[..=cut])
            }
            _ => format!("{line}\n"),
        })
        .collect()
}

#[test]
fn fig12_result_sizes_match_golden() {
    let result = fig12::run(Scale::Small, SEED);
    assert_golden(
        "fig12",
        &result.to_string(),
        include_str!("golden/fig12.txt"),
    );
}

#[test]
fn fig13_to_15_bf_sweep_matches_golden() {
    let result = bf_sweep::run(Scale::Small, SEED);
    assert_golden(
        "fig13-15",
        &result.to_string(),
        include_str!("golden/fig13-15.txt"),
    );
}

#[test]
fn fig16_endpoints_match_golden() {
    let result = fig16::run(Scale::Small, SEED);
    assert_golden(
        "fig16",
        &without_last_column(&result.to_string()),
        include_str!("golden/fig16.txt"),
    );
}

/// A committed `repro` log above its `# log cut here` line, without the
/// `#` lines and the blank line that follows the banner.
fn logged(log: &str) -> String {
    let kept = log
        .split_once("# log cut here")
        .map_or(log, |(kept, _)| kept);
    let lines: String = kept
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect();
    lines.trim_start().to_string()
}

#[test]
#[ignore = "paper scale: minutes even in release"]
fn paper_tables_and_fig12_to_15_match_the_committed_log() {
    // What `repro all --scale paper` prints before Fig. 16.
    let mut out = String::new();
    writeln!(out, "Table I — blocks to be merged\n{}", tables::table1()).unwrap();
    writeln!(
        out,
        "Table II — segment division (M = 256)\n{}",
        tables::table2()
    )
    .unwrap();
    writeln!(
        out,
        "Table III — probe addresses (planted and verified)\n{}",
        tables::table3(Scale::Paper, SEED)
    )
    .unwrap();
    writeln!(out, "{}", fig12::run(Scale::Paper, SEED)).unwrap();
    writeln!(out, "{}", bf_sweep::run(Scale::Paper, SEED)).unwrap();
    assert_golden(
        "paper tables, fig12-15",
        &out,
        &logged(include_str!("../../../repro_paper.txt")),
    );
}

#[test]
#[ignore = "paper scale: minutes even in release"]
fn paper_fig16_matches_the_committed_log() {
    let result = fig16::run(Scale::Paper, SEED);
    let best = result.best_m_for("Addr6").expect("Addr6 is probed");
    let out = format!("{result}\n(Addr6 endpoint minimum at M = {best})\n");
    assert_golden(
        "paper fig16",
        &without_last_column(&out),
        &without_last_column(&logged(include_str!("../../../repro_fig16.txt"))),
    );
}
