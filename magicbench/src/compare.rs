//! `magicbench compare <a> <b>`: two sets of run records (the files
//! `--out` appends to), one row per workload and metric.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// workload → metric → one value per run.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Default)]
struct RunSet {
    /// Untraced runs: end-to-end metrics and workload details.
    timed: Table,
    /// Traced runs: per-layer metrics.
    layers: Table,
}

fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let traced = record.get("trace") == Some(&Json::Bool(true));
        let table = if traced {
            &mut set.layers
        } else {
            &mut set.timed
        };
        for section in ["metrics", "detail"] {
            let Some(metrics) = record.get(section).and_then(Json::as_obj) else {
                continue;
            };
            for (name, metric) in metrics {
                if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                    table
                        .entry(workload.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(set)
}

/// Quartile distance over the median; the whole range under four runs.
fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = if values.len() >= 4 {
        (percentile(values, 25.0), percentile(values, 75.0))
    } else {
        (percentile(values, 0.0), percentile(values, 100.0))
    };
    (hi - lo) / median(values)
}

/// The verdict on one row: how much `b` is worse than `a` as a fraction of
/// `a`, against `bound`, unless either side's own runs disagree by more.
fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> (&'static str, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let word = if spread(a).max(spread(b)) > bound {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else {
        "ok"
    };
    (word, worse)
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("magicbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = false;
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "iqr a", "iqr b"
    );
    let rows = spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound, &spec::WORKLOADS[..]))
        .chain(
            spec::DETAIL
                .iter()
                .map(|m| (m.name, m.unit, m.better, m.bound, m.workloads)),
        );
    for (name, unit, better, bound, workloads) in rows {
        for workload in workloads {
            let side = |set: &RunSet| set.timed.get(*workload).and_then(|w| w.get(name)).cloned();
            let (Some(va), Some(vb)) = (side(&a), side(&b)) else {
                continue;
            };
            let (word, _) = verdict(&va, &vb, better, bound);
            bad |= word == "regressed";
            println!(
                "{workload:<12} {name:<22} {:>14.4} {:>14.4} {:>8.4} {:>6.1}% {:>6.1}%  {word} \
                 ({unit}, bound {:.0}%, n={}/{})",
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                bound * 100.0,
                va.len(),
                vb.len()
            );
        }
    }

    // Counts the program makes must repeat exactly, within and across sides.
    let mut moved = Vec::new();
    for metric in spec::per_layer().iter().filter(|m| m.exact) {
        let mut seen: Vec<f64> = Vec::new();
        for set in [&a, &b] {
            for table in set.layers.values() {
                seen.extend(table.get(&metric.name).into_iter().flatten());
            }
        }
        seen.sort_by(f64::total_cmp);
        seen.dedup();
        if seen.len() > 1 {
            moved.push(format!("{} takes values {seen:?}", metric.name));
        }
    }
    match moved.is_empty() {
        true => println!("exact counts: equal on both sides"),
        false => {
            bad = true;
            for m in &moved {
                println!("exact count moved: {m}");
            }
        }
    }
    for (label, set) in [("a", &a), ("b", &b)] {
        let spins: Vec<f64> = set
            .timed
            .values()
            .chain(set.layers.values())
            .flat_map(|w| w.get("host.spin_ms").into_iter().flatten().copied())
            .collect();
        if !spins.is_empty() {
            println!(
                "host.spin_ms {label}: median {:.3} ms, spread {:.1}% over {} runs",
                median(&spins),
                spread(&spins) * 100.0,
                spins.len()
            );
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let noisy = [100.0, 140.0, 80.0, 100.0, 125.0];
        assert_eq!(verdict(&steady, &steady, Better::Lower, 0.1).0, "ok");
        assert_eq!(verdict(&steady, &slower, Better::Lower, 0.1).0, "regressed");
        assert_eq!(verdict(&steady, &slower, Better::Higher, 0.1).0, "ok");
        assert_eq!(
            verdict(&slower, &steady, Better::Higher, 0.1).0,
            "regressed"
        );
        // Runs of one side that disagree by more than the bound settle nothing.
        assert_eq!(verdict(&steady, &noisy, Better::Lower, 0.1).0, "unresolved");
    }
}
