//! Exporters: JSON-lines for events and snapshots, Prometheus text
//! exposition for metrics, and the one reader of that exposition
//! ([`parse_prometheus`]). Hand-rolled — the grammar is tiny and this
//! keeps the observability crate dependency-free.

use crate::event::{Event, Field};
use crate::metrics::{MetricId, SampleValue, Snapshot};
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON double-quoted literal.
fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Encodes a string as a JSON double-quoted literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    json_escape_into(s, &mut out);
    out.push('"');
    out
}

fn field_json_into(f: &Field, out: &mut String) {
    match f {
        Field::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Field::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Field::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v:?}");
        }
        Field::F64(_) => out.push_str("null"),
        Field::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Field::Str(s) => {
            out.push('"');
            json_escape_into(s, out);
            out.push('"');
        }
    }
}

/// Encodes one event as a single-line JSON object.
fn event_to_json(ev: &Event) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "{{\"seq\":{},\"wall_unix_ns\":{},\"level\":\"{}\",\"target\":\"{}\",\"name\":\"{}\"",
        ev.seq,
        ev.wall_unix_ns,
        ev.level.as_str(),
        ev.target,
        ev.name
    );
    if let Some(sim) = ev.sim {
        let _ = write!(out, ",\"sim_us\":{}", sim.as_micros());
    }
    if !ev.fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in ev.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(k, &mut out);
            out.push_str("\":");
            field_json_into(v, &mut out);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Encodes events as JSON lines (one object per line, trailing newline
/// after each).
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_to_json(ev));
        out.push('\n');
    }
    out
}

/// Renders an event as a single human-readable line (the stderr sink
/// format used by the bench binaries).
pub fn event_to_line(ev: &Event) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(out, "[{}] {} {}", ev.level.as_str(), ev.target, ev.name);
    if let Some(sim) = ev.sim {
        let _ = write!(out, " sim_us={}", sim.as_micros());
    }
    for (k, v) in &ev.fields {
        let _ = write!(out, " {k}=");
        match v {
            Field::U64(x) => {
                let _ = write!(out, "{x}");
            }
            Field::I64(x) => {
                let _ = write!(out, "{x}");
            }
            Field::F64(x) => {
                let _ = write!(out, "{x}");
            }
            Field::Bool(x) => {
                let _ = write!(out, "{x}");
            }
            Field::Str(x) => {
                let _ = write!(out, "{x:?}");
            }
        }
    }
    out
}

fn prom_labels_into(id: &MetricId, extra: Option<(&str, &str)>, out: &mut String) {
    if id.labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in &id.labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"");
        // Prometheus label escaping matches JSON's for our character set.
        json_escape_into(v, out);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

/// Encodes a metrics snapshot in Prometheus text exposition format.
/// Histograms emit `_bucket` (with `le` in microseconds), `_count`, and
/// quantile gauges `_p50_us` / `_p99_us`.
pub fn snapshot_to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_typed: Option<(String, &'static str)> = None;
    for (id, value) in &snap.samples {
        let kind = match value {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "histogram",
        };
        if last_typed.as_ref().map(|(n, k)| (n.as_str(), *k)) != Some((id.name.as_str(), kind)) {
            let _ = writeln!(out, "# TYPE {} {}", id.name, kind);
            last_typed = Some((id.name.clone(), kind));
        }
        match value {
            SampleValue::Counter(v) => {
                out.push_str(&id.name);
                prom_labels_into(id, None, &mut out);
                let _ = writeln!(out, " {v}");
            }
            SampleValue::Gauge(v) => {
                out.push_str(&id.name);
                prom_labels_into(id, None, &mut out);
                let _ = writeln!(out, " {v}");
            }
            SampleValue::Histogram(h) => {
                for &(le_us, cum) in &h.buckets {
                    let _ = write!(out, "{}_bucket", id.name);
                    prom_labels_into(id, Some(("le", &le_us.to_string())), &mut out);
                    let _ = writeln!(out, " {cum}");
                }
                let _ = write!(out, "{}_bucket", id.name);
                prom_labels_into(id, Some(("le", "+Inf")), &mut out);
                let _ = writeln!(out, " {}", h.count);
                let _ = write!(out, "{}_count", id.name);
                prom_labels_into(id, None, &mut out);
                let _ = writeln!(out, " {}", h.count);
                for (suffix, q) in [("p50_us", h.p50_us), ("p99_us", h.p99_us)] {
                    if let Some(v) = q {
                        let _ = write!(out, "{}_{suffix}", id.name);
                        prom_labels_into(id, None, &mut out);
                        let _ = writeln!(out, " {v}");
                    }
                }
            }
        }
    }
    out
}

/// One sample line of a Prometheus text exposition: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// The series name, with any `_bucket` / `_count` / `_p50_us` suffix.
    pub name: String,
    /// Label pairs in exposition order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if the sample has it.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition, as [`snapshot_to_prometheus`]
/// writes it, back into samples. Comment lines are skipped; malformed
/// lines are dropped rather than failing the page (a dashboard scrape
/// racing a registry update beats a dead dashboard).
pub fn parse_prometheus(text: &str) -> Vec<PromSample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match key.split_once('{') {
            None => (key, Vec::new()),
            Some((name, rest)) => match rest.strip_suffix('}').and_then(parse_labels) {
                Some(labels) => (name, labels),
                None => continue,
            },
        };
        out.push(PromSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    out
}

/// Parses `k="v",k2="v2"`, undoing the escapes [`json_escape_into`]
/// writes inside values.
fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        let key: String = chars.by_ref().take_while(|c| *c != '=').collect();
        if chars.next() != Some('"') {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '"' => break,
                '\\' => match chars.next()? {
                    'n' => value.push('\n'),
                    'r' => value.push('\r'),
                    't' => value.push('\t'),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        value.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    c => value.push(c),
                },
                c => value.push(c),
            }
        }
        labels.push((key, value));
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    Some(labels)
}

/// Encodes a metrics snapshot as one JSON object: `{"metric{k=v}": value}`
/// with histograms expanded to summary objects. Used by the bench
/// telemetry manifests.
pub fn snapshot_to_json(snap: &Snapshot) -> String {
    let mut out = String::from("{");
    for (i, (id, value)) in snap.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut key = id.name.clone();
        if !id.labels.is_empty() {
            key.push('{');
            for (j, (k, v)) in id.labels.iter().enumerate() {
                if j > 0 {
                    key.push(',');
                }
                let _ = write!(key, "{k}={v}");
            }
            key.push('}');
        }
        out.push('"');
        json_escape_into(&key, &mut out);
        out.push_str("\":");
        match value {
            SampleValue::Counter(v) => {
                let _ = write!(out, "{v}");
            }
            SampleValue::Gauge(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            SampleValue::Gauge(_) => out.push_str("null"),
            SampleValue::Histogram(h) => {
                let _ = write!(out, "{{\"count\":{}", h.count);
                for (k, v) in [
                    ("min_us", h.min_us),
                    ("max_us", h.max_us),
                    ("mean_us", h.mean_us),
                    ("p50_us", h.p50_us),
                    ("p99_us", h.p99_us),
                    ("p999_us", h.p999_us),
                ] {
                    if let Some(v) = v {
                        let _ = write!(out, ",\"{k}\":{v}");
                    }
                }
                out.push('}');
            }
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{wall_unix_ns, Level};
    use crate::metrics::Registry;

    fn sample_event() -> Event {
        Event {
            seq: 3,
            wall_unix_ns: 1_700_000_000_000_000_000,
            sim: Some(pingmesh_types::SimTime(42)),
            level: Level::Warn,
            target: "agent.upload",
            name: "retry \"quoted\"",
            fields: vec![
                ("attempt", Field::U64(2)),
                ("reason", Field::Str("conn\nreset".into())),
                ("gave_up", Field::Bool(false)),
            ],
        }
    }

    #[test]
    fn event_json_is_well_formed() {
        let s = event_to_json(&sample_event());
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"seq\":3"));
        assert!(s.contains("\"sim_us\":42"));
        assert!(s.contains("\\n"), "newline escaped: {s}");
        assert!(!s.contains('\n'), "single line: {s}");
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let evs = vec![sample_event(), sample_event()];
        let s = events_to_jsonl(&evs);
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn prometheus_format_basics() {
        let r = Registry::new();
        r.counter_with("pingmesh_test_reqs_total", &[("code", "200")])
            .add(7);
        r.gauge("pingmesh_test_depth").set(3.5);
        let h = r.histogram("pingmesh_test_rtt_us");
        h.record_micros(100);
        h.record_micros(10_000);
        let text = snapshot_to_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE pingmesh_test_reqs_total counter"));
        assert!(text.contains("pingmesh_test_reqs_total{code=\"200\"} 7"));
        assert!(text.contains("pingmesh_test_depth 3.5"));
        assert!(text.contains("pingmesh_test_rtt_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("pingmesh_test_rtt_us_count 2"));
        assert!(text.contains("pingmesh_test_rtt_us_p50_us"));
    }

    #[test]
    fn prometheus_text_parses_back_to_every_sample() {
        let r = Registry::new();
        let odd = "a \"quoted\" \\ path\nwith\ttabs, {braces} = and \u{1}";
        r.counter_with("pingmesh_test_reqs_total", &[("code", "200"), ("odd", odd)])
            .add(7);
        r.counter("pingmesh_test_plain_total").add(3);
        r.gauge_with("pingmesh_test_depth", &[("q", "x y")])
            .set(-3.25);
        let h = r.histogram_with("pingmesh_test_rtt_us", &[("route", odd)]);
        for us in [100, 250, 10_000] {
            h.record_micros(us);
        }
        let snap = r.snapshot();
        let parsed = parse_prometheus(&snapshot_to_prometheus(&snap));
        let parsed: Vec<_> = parsed
            .into_iter()
            .map(|s| (s.name, s.labels, s.value))
            .collect();
        let mut expected = Vec::new();
        for (id, value) in &snap.samples {
            let name = |suffix: &str| format!("{}{suffix}", id.name);
            let labels = &id.labels;
            match value {
                SampleValue::Counter(v) => expected.push((name(""), labels.clone(), *v as f64)),
                SampleValue::Gauge(v) => expected.push((name(""), labels.clone(), *v)),
                SampleValue::Histogram(h) => {
                    let le = h.buckets.iter().map(|&(le, cum)| (le.to_string(), cum));
                    for (le, cum) in le.chain([("+Inf".to_string(), h.count)]) {
                        let bucket = [labels.clone(), vec![("le".into(), le)]].concat();
                        expected.push((name("_bucket"), bucket, cum as f64));
                    }
                    expected.push((name("_count"), labels.clone(), h.count as f64));
                    for (suffix, q) in [("_p50_us", h.p50_us), ("_p99_us", h.p99_us)] {
                        let q = q.expect("a recorded histogram has quantiles");
                        expected.push((name(suffix), labels.clone(), q as f64));
                    }
                }
            }
        }
        assert_eq!(snap.samples.len(), 4);
        assert_eq!(parsed, expected);
    }

    #[test]
    fn snapshot_json_parses_shape() {
        let r = Registry::new();
        r.counter("pingmesh_test_a_total").add(2);
        r.histogram("pingmesh_test_h_us").record_micros(500);
        let s = snapshot_to_json(&r.snapshot());
        assert!(s.contains("\"pingmesh_test_a_total\":2"));
        assert!(s.contains("\"count\":1"));
    }

    #[test]
    fn event_line_is_single_line() {
        let line = event_to_line(&sample_event());
        assert!(!line.contains('\n'));
        assert!(line.starts_with("[warn] agent.upload"));
    }

    #[test]
    fn wall_clock_is_sane() {
        // After 2020-01-01 in unix nanoseconds.
        assert!(wall_unix_ns() > 1_577_836_800_000_000_000);
    }
}
