//! Metric names and units, and the result line the benchmark prints.

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// End-to-end metrics (the `--trace 0` result), in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str); 3] =
    [("gbps", "Gbit/s"), ("rx_gbps", "Gbit/s"), ("setup_s", "s")];

/// Per-layer metrics (the `--trace 1` result), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("nic.ingest.cycles_per_pkt", "cycles"),
    ("nic.rss.cycles_per_pkt", "cycles"),
    ("nic.hw_rule.cycles_per_pkt", "cycles"),
    ("nic.rx_poll.cycles_per_pkt", "cycles"),
    ("wire.parse.cycles_per_pkt", "cycles"),
    ("filter.packet.cycles_per_pkt", "cycles"),
    ("core.bypass.cycles_per_pkt", "cycles"),
    ("core.tracker.process.cycles_per_call", "cycles"),
    ("core.tracker.advance.cycles_per_pkt", "cycles"),
    ("core.tracker.drain.cycles_per_pkt", "cycles"),
    ("core.deliver.cycles_per_output", "cycles"),
    ("conntrack.table.cycles_per_op", "cycles"),
    ("support.rematch.cycles_per_match", "cycles"),
    ("traced.cycles_per_pkt", "cycles"),
    ("unattributed.cycles_per_pkt", "cycles"),
    ("trace_overhead_frac", "ratio"),
    ("filter.packet.pass_frac", "ratio"),
    ("filter.conn.discard_frac", "ratio"),
    ("filter.session.runs", "count"),
    ("filter.session.discard_frac", "ratio"),
    ("conntrack.conns_created", "count"),
    ("conntrack.conns_peak", "count"),
    ("conntrack.conns_expired", "count"),
    ("conntrack.reassembly.runs", "count"),
    ("conntrack.arena_mb", "MB"),
    ("protocols.parse.runs", "count"),
    ("nic.hw_drop_frac", "ratio"),
    ("nic.mbuf_high_water", "count"),
    ("core.deliver.outputs.frames", "count"),
    ("core.deliver.outputs.tls", "count"),
    ("core.deliver.outputs.http", "count"),
    ("core.deliver.outputs.dns", "count"),
    ("core.deliver.outputs.conns", "count"),
];

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Picks `names` out of `measured`, in order.
///
/// # Errors
/// Fails if a name was not measured, or a value is not a finite number.
pub fn select(measured: &[Metric], names: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|(name, unit)| {
            let m = measured
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != *unit {
                return Err(format!("metric {name} measured in {} not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            Ok(m.clone())
        })
        .collect()
}

/// Escapes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number, with the shortest digits that read
/// back as the same value (`{:?}` prints `1.5`, `3.0` or `1e-7`, all
/// valid JSON).
///
/// # Panics
/// Panics on a non-finite value (callers check with [`select`]).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "JSON numbers are finite");
    format!("{v:?}")
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, SUB_NAMES};

    #[test]
    fn every_emitted_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_name(name), "invalid metric name {name:?}");
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "metric names repeat");
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
    }

    #[test]
    fn every_subscription_has_an_output_metric() {
        for w in Workload::ALL {
            for sub in w.subs() {
                assert!(SUB_NAMES.contains(&sub.name));
                let name = format!("core.deliver.outputs.{}", sub.name);
                assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} missing");
            }
        }
    }

    #[test]
    fn valid_name_rejects_what_the_contract_forbids() {
        assert!(valid_name("gbps"));
        assert!(valid_name("core.deliver.outputs.tls"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "gbps".into(),
                unit: "Gbit/s",
                value: 1.25,
            }],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"gbps": {"value": 1.25, "unit": "Gbit/s"}}}"#
        );
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }

    #[test]
    fn select_rejects_missing_and_non_finite_metrics() {
        let m = |v| Metric {
            name: "gbps".into(),
            unit: "Gbit/s",
            value: v,
        };
        assert!(select(&[m(1.0)], &[("gbps", "Gbit/s")]).is_ok());
        assert!(select(&[m(f64::NAN)], &[("gbps", "Gbit/s")]).is_err());
        assert!(select(&[m(1.0)], &[("rx_gbps", "Gbit/s")]).is_err());
        assert!(select(&[m(1.0)], &[("gbps", "s")]).is_err());
    }

    /// Names in the order `BENCHMARK.json` lists them.
    fn benchmark_json_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        text.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let expected: Vec<String> = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .map(String::from)
            .collect();
        assert_eq!(benchmark_json_names(), expected);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
