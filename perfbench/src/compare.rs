//! `perf compare A.json B.json`: per (workload, metric) medians,
//! quartiles, delta against the bound, and a verdict. The tool for the
//! A/A acceptance check and for any later before/after claim.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats;

/// How one (workload, metric) pair came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound: the sets cannot
    /// resolve a change of that size either way.
    Unresolved,
    /// An exact metric differs between two sets of the same seed.
    Differs,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Differs)
    }
}

/// Judges one timing metric. `a` and `b` are the two sets' values.
/// Returns `(median a, median b, signed share by which b is worse,
/// widest spread, verdict)`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, f64, f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread_of = |v: &[f64]| if v.len() >= 2 { stats::spread(v) } else { 0.0 };
    let spread = spread_of(a).max(spread_of(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (ma, mb, worse, spread, verdict)
}

/// One parsed result file: `workload → metric → values`, one value per
/// run.
struct Set {
    kind: String,
    seed: f64,
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_set(path, &text)
}

fn parse_set(path: &str, text: &str) -> Result<Set, String> {
    let doc = crate::json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("quick") != Some(&Value::Bool(false)) {
        return Err(format!(
            "{path}: a --quick result (or not a result file) is a smoke test, not a measurement"
        ));
    }
    let kind = doc
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: no \"kind\""))?
        .to_string();
    let section = if kind == "trace" { "layers" } else { "metrics" };
    let mut values: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\""))?
    {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a run without a workload"))?;
        let metrics = run
            .get(section)
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{path}: a run without {section:?}"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: {workload}/{name} has no value"))?;
            values
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(Set {
        kind,
        seed: doc.get("seed").and_then(Value::as_f64).unwrap_or(-1.0),
        values,
    })
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    if a.kind != b.kind {
        return Err(format!(
            "cannot compare a {} set with a {} set",
            a.kind, b.kind
        ));
    }
    let same_seed = a.seed == b.seed;
    println!(
        "{:<12} {:<32} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
    let mut clean = true;
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            println!("{workload:<12} only in {path_a}");
            continue;
        };
        for (name, values_a) in metrics_a {
            let Some(values_b) = metrics_b.get(name) else {
                continue;
            };
            let e2e = END_TO_END.iter().find(|m| m.name == name);
            let layer = PER_LAYER.iter().find(|m| m.name == name);
            let (better, bound, exact) = match (e2e, layer) {
                (Some(m), _) => (m.better, Some(m.bound), m.exact),
                (_, Some(m)) => (m.better, None, m.exact),
                _ => continue,
            };
            if exact && same_seed {
                let first = values_a[0].to_bits();
                let equal = values_a
                    .iter()
                    .chain(values_b)
                    .all(|v| v.to_bits() == first);
                let verdict = if equal { Verdict::Ok } else { Verdict::Differs };
                clean &= !verdict.fails();
                println!(
                    "{workload:<12} {name:<32} {:>12.6} {:>12.6} {:>8} {:>8} {:>6}  {}",
                    stats::median(values_a),
                    stats::median(values_b),
                    "",
                    "",
                    "exact",
                    verdict.as_str()
                );
                continue;
            }
            let (ma, mb, worse, spread, verdict) =
                judge(values_a, values_b, better, bound.unwrap_or(f64::INFINITY));
            clean &= !verdict.fails();
            let quartiles = |v: &[f64]| {
                if v.len() >= 2 {
                    let (q1, q3) = stats::quartiles(v);
                    format!("[{q1:.4}, {q3:.4}]")
                } else {
                    "[single run]".to_string()
                }
            };
            println!(
                "{workload:<12} {name:<32} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>7.1}% {:>6}  {}  A {} B {}",
                worse * 100.0,
                spread * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                if bound.is_some() { verdict.as_str() } else { "-" },
                quartiles(values_a),
                quartiles(values_b),
            );
        }
    }
    if !same_seed {
        println!("seeds differ: exact metrics were compared as timings, not bit for bit");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound.
        let (.., v) = judge(
            &steady,
            &[104.0, 105.0, 103.0, 104.5, 103.5],
            Better::Lower,
            0.1,
        );
        assert_eq!(v, Verdict::Ok);
        // Worse by more than the bound, in the metric's own direction.
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let (_, _, worse, _, v) = judge(&steady, &slow, Better::Lower, 0.1);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.2).abs() < 1e-9);
        let (.., v) = judge(&steady, &slow, Better::Higher, 0.1);
        assert_eq!(v, Verdict::Ok, "higher is better: more is no regression");
        let (.., v) = judge(&slow, &steady, Better::Higher, 0.1);
        assert_eq!(v, Verdict::Regressed);
        // A spread wider than the bound resolves nothing.
        let noisy = [100.0, 140.0, 70.0, 120.0, 90.0];
        let (.., v) = judge(&noisy, &slow, Better::Lower, 0.1);
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn quick_results_are_refused() {
        let quick = r#"{"kind":"run","quick":true,"seed":1,"runs":[]}"#;
        let err = parse_set("quick.json", quick).err().expect("refused");
        assert!(err.contains("smoke test"), "{err}");
        let full = r#"{"kind":"run","quick":false,"seed":1,"runs":[
            {"workload":"light-tcp","metrics":{"setup_s":{"value":1.5,"unit":"s"}}},
            {"workload":"light-tcp","metrics":{"setup_s":{"value":1.7,"unit":"s"}}}]}"#;
        let set = parse_set("full.json", full).unwrap();
        assert_eq!(set.values["light-tcp"]["setup_s"], vec![1.5, 1.7]);
    }
}
