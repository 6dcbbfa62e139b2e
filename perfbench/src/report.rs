//! The result line and the human-readable table.

use rowfpga_obs::Json;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Every layout passed the output check and quality repeated exactly.
    pub correct: bool,
    /// Operations attempted (one flow on one design).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Measurements shown in the table but left out of the result line.
    pub extra: Vec<Metric>,
}

impl Report {
    /// Looks a reported metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result:
    /// `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string_compact()
    }

    /// Every metric, one per line, with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "correct {}  attempted {}  failed {}\n",
            self.correct, self.attempted, self.failed
        );
        for m in self.metrics.iter().chain(&self.extra) {
            out.push_str(&format!("  {:<34} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("layout_s", 1.25, "s")],
            extra: vec![Metric::new("unrouted_nets", 0.0, "count")],
        };
        let line = r.json_line();
        let parsed = rowfpga_obs::json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(3));
        let m = parsed.get("metrics").unwrap();
        assert_eq!(
            m.get("layout_s")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        assert!(m.get("unrouted_nets").is_none());
        assert_eq!(r.get("unrouted_nets"), Some(0.0));
    }
}
