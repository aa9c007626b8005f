//! What one run of one workload produced, and how it is written out.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::span::SpanRec;
use crate::stats::Quartiles;
use crate::workloads::{MetricDef, Workload, END_TO_END, PER_LAYER};

/// A metric's value, with the per-window samples behind it when it is the
/// median of several.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: Option<Quartiles>,
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    /// Operations: frames offered to the device, over all phases.
    pub attempted: u64,
    /// Operations that failed a check (see "Operations and failures" in
    /// `README.md`).
    pub failed: u64,
    /// One line per failed check, for a person.
    pub notes: Vec<String>,
    pub values: BTreeMap<&'static str, Value>,
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    pub fn new(workload: Workload, seed: u64, traced: bool) -> Self {
        Self {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            values: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    /// Records `n` failed operations (at least one) for the reason given.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n.max(1);
        self.notes.push(why.into());
    }

    /// Checks a condition; a violation fails `n` operations.
    pub fn check(&mut self, ok: bool, n: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(n, why());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(
            name,
            Value {
                // An empty float sum is −0.0; print it as the zero it is.
                value: value + 0.0,
                samples: None,
            },
        );
    }

    /// Sets a metric to the median of `samples`.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let q = Quartiles::of(samples);
        self.values.insert(
            name,
            Value {
                value: q.median,
                samples: Some(q),
            },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metric table this run reports: end-to-end untraced, per-layer
    /// traced.
    pub fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The one-line result the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly `value` and `unit`. A
    /// per-layer metric the workload does not exercise reads 0.
    pub fn result_line(&self) -> String {
        let metrics = self.table().iter().map(|def| {
            (
                def.name,
                Json::obj([
                    ("value", Json::Num(self.get(def.name))),
                    ("unit", Json::str(def.unit)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The same, with sample counts and quartiles, for `results.json`.
    pub fn detail(&self) -> Json {
        let metrics = self.table().iter().map(|def| {
            let v = self.values.get(def.name);
            let mut fields = vec![
                ("value", Json::Num(v.map_or(0.0, |v| v.value))),
                ("unit", Json::str(def.unit)),
            ];
            if let Some(q) = v.and_then(|v| v.samples) {
                fields.extend([
                    ("n", Json::Int(q.n as i64)),
                    ("median", Json::Num(q.median)),
                    ("q1", Json::Num(q.q1)),
                    ("q3", Json::Num(q.q3)),
                ]);
            }
            (def.name, Json::obj(fields))
        });
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Int(self.seed as i64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(n)).collect()),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The span file of a traced run.
    pub fn trace_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Int(self.seed as i64)),
            (
                "spans",
                Json::Arr(self.spans.iter().map(SpanRec::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new(Workload::Fwd64Sat, 1, false);
        o.attempted = 10;
        for def in END_TO_END {
            o.set(def.name, 1.5);
        }
        let parsed = Json::parse(&o.result_line()).unwrap();
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap().fields();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (_, m) in metrics {
            let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));

        o.check(false, 0, || "a failed check counts at least once".into());
        assert_eq!((o.failed, o.correct()), (1, false));
    }

    #[test]
    fn traced_runs_report_every_per_layer_metric_and_zero_when_unexercised() {
        let mut o = Outcome::new(Workload::Ids800Attack, 1, true);
        o.set_median("core.tick_ns_per_cycle", &[3.0, 1.0, 2.0]);
        let parsed = Json::parse(&o.result_line()).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), PER_LAYER.len());
        let of = |name| metrics.get(name).unwrap().get("value").unwrap().as_f64();
        assert_eq!(of("core.tick_ns_per_cycle"), Some(2.0));
        assert_eq!(of("shell.step_ns_per_cycle"), Some(0.0));
        let detail = o.detail();
        let tick = detail.get("metrics").unwrap().get("core.tick_ns_per_cycle");
        assert_eq!(tick.unwrap().get("n"), Some(&Json::Int(3)));
    }
}
