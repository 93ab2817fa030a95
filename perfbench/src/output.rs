//! The result line: one JSON object, the last line of standard output.

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            self.entries.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n)
            .collect()
    }
}

/// Renders the result object.  Values print with every digit (`{:?}` is the
/// shortest representation that round-trips); a non-finite value — which the
/// gate already turned into a failure — prints as 0 to keep the line valid JSON.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_json_object_with_full_digits() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.2034567891, "ms");
        m.put("model_cycles", 5.0, "count");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"model_cycles\": {\"value\": 5.0, \"unit\": \"count\"}}}"
        );
    }
}
