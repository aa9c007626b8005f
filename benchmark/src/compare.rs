//! `compare <base.json> <new.json>`: one row per workload × end-to-end
//! metric, judged by the metric's direction and bound.

use crate::json::Json;
use crate::workloads::{Better, MetricDef, Workload, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, identical value.
    Same,
    /// Within the bound, and both runs' spreads are narrower than it.
    Unchanged,
    /// Within the bound, but a run's own inter-quartile range is wider than
    /// the bound, so "no change" cannot be told from a change.
    Unresolved,
    Improved,
    Regression,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// One side's reading of a metric: the value and, when it is a median of
/// several windows, their inter-quartile range as a share of the median.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

fn reading(metric: &Json) -> Option<Reading> {
    let value = metric.get("value")?.as_f64()?;
    let q = |k: &str| metric.get(k).and_then(Json::as_f64);
    let spread = match (q("q1"), q("q3"), q("median")) {
        (Some(q1), Some(q3), Some(m)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    };
    Some(Reading { value, spread })
}

/// How much worse `new` is than `base`, as a share of `base` (negative when
/// better), in the metric's own direction.
fn worse_by(def: &MetricDef, base: f64, new: f64) -> f64 {
    let change = (new - base) / base.abs();
    match def.better {
        Better::Lower => change,
        Better::Higher => 0.0 - change, // not `-change`: no "-0.00%" rows
    }
}

/// Judges one metric. `same_seed` lets exact metrics compare exactly.
pub fn judge(def: &MetricDef, base: Reading, new: Reading, same_seed: bool) -> Verdict {
    if def.exact && same_seed {
        return match worse_by(def, base.value, new.value) {
            w if w > 0.0 => Verdict::Regression,
            w if w < 0.0 => Verdict::Improved,
            _ if base.value == new.value => Verdict::Same,
            _ => Verdict::Regression, // NaN: a metric went missing
        };
    }
    let w = worse_by(def, base.value, new.value);
    if !w.is_finite() || w > def.bound {
        Verdict::Regression
    } else if w < -def.bound {
        Verdict::Improved
    } else if base.spread.max(new.spread) > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(name)
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare_files(base_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    let seed = |d: &Json| d.get("seed").and_then(Json::as_f64);
    let same_seed = seed(&base).is_some() && seed(&base) == seed(&new);
    if !same_seed {
        println!("seeds differ: simulated and counted metrics are held to their bounds, not compared exactly");
    }
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    let mut ok = true;
    let mut counts = [0usize; 5];
    for w in Workload::ALL {
        let (Some(b), Some(n)) = (workload(&base, w.name()), workload(&new, w.name())) else {
            println!("{:<16} missing from one of the files", w.name());
            ok = false;
            continue;
        };
        // A missing count is an infinite one: it can only make things worse.
        let failed = |d: &Json| {
            d.get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::INFINITY)
        };
        if failed(n) > failed(b) || failed(n).is_infinite() {
            println!(
                "{:<16} failed operations rose from {} to {}  REGRESSION",
                w.name(),
                failed(b),
                failed(n)
            );
            ok = false;
        }
        for def in END_TO_END {
            let side = |d: &Json| d.get("metrics")?.get(def.name).and_then(reading);
            let (Some(rb), Some(rn)) = (side(b), side(n)) else {
                println!("{:<16} {:<22} missing  REGRESSION", w.name(), def.name);
                ok = false;
                continue;
            };
            let verdict = judge(def, rb, rn, same_seed);
            counts[verdict as usize] += 1;
            ok &= verdict != Verdict::Regression;
            let bound = if def.exact && same_seed {
                "exact".to_owned()
            } else {
                format!("{:.0}%", def.bound * 100.0)
            };
            println!(
                "{:<16} {:<22} {:>16.6} {:>16.6} {:>+8.2}% {:>7}  {}",
                w.name(),
                def.name,
                rb.value,
                rn.value,
                100.0 * worse_by(def, rb.value, rn.value),
                bound,
                verdict.as_str()
            );
        }
    }
    println!(
        "same {}, unchanged {}, unresolved {}, improved {}, regressions {}",
        counts[0], counts[1], counts[2], counts[3], counts[4]
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn host_metrics_are_judged_by_direction_and_bound() {
        let speed = def("sim_cycles_per_s"); // higher is better, 25 %
        assert_eq!(
            judge(speed, r(100.0, 0.01), r(95.0, 0.01), true),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(speed, r(100.0, 0.01), r(70.0, 0.01), true),
            Verdict::Regression
        );
        assert_eq!(
            judge(speed, r(100.0, 0.01), r(130.0, 0.01), true),
            Verdict::Improved
        );
        assert_eq!(
            judge(speed, r(100.0, 0.30), r(95.0, 0.01), true),
            Verdict::Unresolved,
            "a spread wider than the bound cannot show 'unchanged'"
        );
        let setup = def("setup_s"); // lower is better
        assert_eq!(
            judge(setup, r(1.0, 0.0), r(1.5, 0.0), true),
            Verdict::Regression
        );
        assert_eq!(
            judge(setup, r(1.0, 0.0), r(f64::NAN, 0.0), true),
            Verdict::Regression
        );
    }

    #[test]
    fn exact_metrics_compare_exactly_on_the_same_seed_only() {
        let gbps = def("dev_gbps");
        assert_eq!(
            judge(gbps, r(128.0, 0.0), r(128.0, 0.0), true),
            Verdict::Same
        );
        assert_eq!(
            judge(gbps, r(128.0, 0.0), r(127.999, 0.0), true),
            Verdict::Regression
        );
        assert_eq!(
            judge(gbps, r(128.0, 0.0), r(127.999, 0.0), false),
            Verdict::Unchanged
        );
        let allocs = def("allocs_per_pkt");
        assert_eq!(
            judge(allocs, r(7.01, 0.0), r(6.0, 0.0), true),
            Verdict::Improved
        );
    }

    #[test]
    fn readings_take_the_spread_from_the_quartiles() {
        let m = Json::parse(
            r#"{"value": 10.0, "unit": "s", "n": 9, "median": 10.0, "q1": 9.0, "q3": 12.0}"#,
        )
        .unwrap();
        let got = reading(&m).unwrap();
        assert_eq!((got.value, got.spread), (10.0, 0.3));
        let bare = Json::parse(r#"{"value": 3, "unit": "MB"}"#).unwrap();
        assert_eq!(reading(&bare).unwrap().spread, 0.0);
    }
}
