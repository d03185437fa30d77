//! Named metrics with units, printed for people and as the result line.

use crate::stats::{Summary, Tally};

/// One reported metric.
pub struct Metric {
    /// Metric name, e.g. `seq.ns_per_iter`.
    pub name: String,
    /// Value as measured (the median for sampled timings).
    pub value: f64,
    /// Unit, e.g. `ns/iter`.
    pub unit: &'static str,
    /// The samples' summary, for sampled timings.
    pub summary: Option<Summary>,
}

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Report {
    /// Every metric so far.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Record a single measured or computed value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            summary: None,
        });
    }

    /// Record the median of `samples`; nothing when there are none.
    pub fn put_samples(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if let Some(s) = Summary::of(samples) {
            self.metrics.push(Metric {
                name: name.to_string(),
                value: s.median,
                unit,
                summary: Some(s),
            });
        }
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One line per metric: name, value, unit and, for sampled timings,
    /// quartiles, sample count and tail.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| match &m.summary {
                Some(s) => format!("{:<36} {}", m.name, s.describe(m.unit)),
                None => format!("{:<36} {:.4} {}", m.name, m.value, m.unit),
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric with its value (all digits) and unit.
    pub fn result_json(&self, tally: &Tally) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 in JSON; a value that is not finite is written as 0 (the
/// runs that could produce one fail their checks first).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut r = Report::default();
        r.put("setup_s", 0.8127, "s");
        r.put_samples("seq.ns_per_iter", &[3.0, 1.0, 2.0], "ns/iter");
        r.put_samples("empty", &[], "ns");
        let tally = Tally {
            attempted: 4,
            failed: 0,
        };
        assert_eq!(
            r.result_json(&tally),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"seq.ns_per_iter\": {\"value\": 2.0, \"unit\": \"ns/iter\"}}}"
        );
        assert_eq!(r.get("seq.ns_per_iter"), Some(2.0));
        assert_eq!(r.lines().len(), 2);
    }
}
