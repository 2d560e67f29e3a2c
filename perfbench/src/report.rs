//! The metric catalogue and the result line.
//!
//! The catalogue is `BENCHMARK.json` itself, compiled in: its
//! `end_to_end` and `per_layer` lists name every metric, its unit, its
//! better direction and (end-to-end only) its bound. Every end-to-end
//! metric is printed by every untraced run and every per-layer metric
//! by every traced run, whatever the workload. A per-layer metric a
//! workload does not exercise reads 0: that layer did no work there,
//! which is itself the prediction for that workload.

use collsel_support::Json;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// One metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Whether a higher value is better.
    pub higher: bool,
    /// The share by which the median may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer metrics, in `BENCHMARK.json` order.
#[derive(Debug)]
pub struct Catalogue {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn parse_catalogue(text: &str) -> Result<Catalogue, String> {
    let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Metric>, String> {
        let entries = json
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?;
        entries
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str);
                match (s("name"), s("unit"), s("better")) {
                    (Some(name), Some(unit), Some(better)) => Ok(Metric {
                        name: name.to_string(),
                        unit: unit.to_string(),
                        higher: better == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    }),
                    _ => Err(format!("malformed {key} entry in BENCHMARK.json")),
                }
            })
            .collect()
    };
    Ok(Catalogue {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// The catalogue compiled in from `BENCHMARK.json`.
///
/// # Panics
///
/// Panics if `BENCHMARK.json` does not describe its metrics.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        parse_catalogue(include_str!("../../BENCHMARK.json")).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// What one run found: operations attempted and failed, and every
/// metric it measured.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<(&'static str, f64)>,
    layers: Vec<(&'static str, f64)>,
}

fn listed(table: &[Metric], name: &str) -> bool {
    table.iter().any(|m| m.name == name)
}

impl Report {
    /// Counts `attempted` operations, `failed` of which were wrong.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records an end-to-end metric, in the unit the catalogue gives it.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not list.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(listed(&catalogue().end_to_end, name), "metric {name}");
        self.end_to_end.push((name, value));
    }

    /// Records a per-layer metric (kept only by traced runs), in the
    /// unit the catalogue gives it.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not list.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(listed(&catalogue().per_layer, name), "layer metric {name}");
        self.layers.push((name, value));
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The result line: the end-to-end metrics untraced, the per-layer
    /// ones traced. A value that is not finite was not measured and is
    /// written as `null`, never as a number that could read as a good
    /// figure.
    ///
    /// # Panics
    ///
    /// Panics if an untraced run left an end-to-end metric unmeasured
    /// or measured it twice.
    pub fn line(&self, traced: bool) -> String {
        let (table, recorded) = if traced {
            (&catalogue().per_layer, &self.layers)
        } else {
            (&catalogue().end_to_end, &self.end_to_end)
        };
        let mut metrics = String::new();
        for (i, m) in table.iter().enumerate() {
            let mut values = recorded
                .iter()
                .filter(|(n, _)| *n == m.name)
                .map(|&(_, v)| v);
            let value = match (values.next(), values.next()) {
                (Some(v), None) => v,
                (None, None) if traced => 0.0,
                _ => panic!("{} must be measured exactly once", m.name),
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(line: &str, name: &str) -> Option<Json> {
        let json = Json::parse(line).expect("result line is JSON");
        json.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .cloned()
    }

    #[test]
    fn catalogue_lists_bounds_for_end_to_end_metrics_only() {
        let c = catalogue();
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(c.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn traced_line_fills_unexercised_layers_with_zero() {
        let mut r = Report::default();
        r.ops(3, 1);
        r.layer("core.tune_s", 0.5);
        let line = r.line(true);
        let json = Json::parse(&line).expect("result line is JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(value(&line, "core.tune_s"), Some(Json::Num(0.5)));
        assert_eq!(value(&line, "select.swaps"), Some(Json::Num(0.0)));
    }

    #[test]
    fn unmeasured_value_is_null() {
        let mut r = Report::default();
        r.layer("replay.jct_tuned_ms", f64::NAN);
        assert_eq!(
            value(&r.line(true), "replay.jct_tuned_ms"),
            Some(Json::Null)
        );
    }

    #[test]
    #[should_panic(expected = "measured exactly once")]
    fn untraced_line_needs_every_end_to_end_metric() {
        Report::default().line(false);
    }
}
