//! Validators for the exporter artifacts `expgen trace` writes:
//! `BENCH_trace.json` (Chrome-trace/Perfetto JSON) and `BENCH_metrics.prom`
//! (OpenMetrics text). `expgen --validate` and the CI trace-smoke job run
//! [`validate_artifact`] on both.

use crate::json::{parse, Value};

/// Structural validation of a Chrome-trace/Perfetto JSON artifact (what
/// [`tcvs_obs::render_chrome_trace`] emits): a JSON object with a
/// `traceEvents` array whose every entry carries a string `name`/`ph`/`cat`
/// and numeric `ts`/`pid`/`tid`.
pub fn validate_chrome_trace(json: &str) -> Result<(), String> {
    let doc = parse(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("'traceEvents' must be an array")?;
    for (i, ev) in events.iter().enumerate() {
        for field in ["name", "ph", "cat"] {
            if ev.get(field).and_then(Value::as_str).is_none() {
                return Err(format!("traceEvents[{i}]: '{field}' must be a string"));
            }
        }
        for field in ["ts", "pid", "tid"] {
            if !matches!(ev.get(field), Some(Value::Num(_))) {
                return Err(format!("traceEvents[{i}]: '{field}' must be a number"));
            }
        }
    }
    Ok(())
}

fn openmetrics_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
}

/// Line-level validation of an OpenMetrics text exposition (what
/// [`tcvs_obs::render_openmetrics`] emits): every line is a `# TYPE` /
/// `# EOF` comment or a `name[{labels}] value` sample with a legal metric
/// name and a numeric value, and the document is `# EOF`-terminated.
pub fn validate_openmetrics(text: &str) -> Result<(), String> {
    if !text.ends_with("# EOF\n") {
        return Err("document must end with '# EOF\\n'".into());
    }
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            return Err(format!("line {}: empty line", i + 1));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if rest == "EOF" {
                continue;
            }
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some("TYPE"), Some(name), Some(kind), None)
                    if openmetrics_name_ok(name)
                        && matches!(kind, "counter" | "gauge" | "summary") => {}
                _ => return Err(format!("line {}: bad comment '{line}'", i + 1)),
            }
            continue;
        }
        // A sample: `name value` or `name{label="v"} value`.
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value in '{line}'", i + 1))?;
        let name = name_part.split('{').next().unwrap_or(name_part);
        if !openmetrics_name_ok(name) {
            return Err(format!("line {}: bad metric name '{name}'", i + 1));
        }
        if value.parse::<f64>().is_err() {
            return Err(format!("line {}: non-numeric value '{value}'", i + 1));
        }
    }
    Ok(())
}

/// Validates either exporter artifact, dispatching on shape: OpenMetrics
/// text starts with a `#` comment line, anything else must be a Chrome
/// trace.
pub fn validate_artifact(content: &str) -> Result<(), String> {
    if content.trim_start().starts_with('#') {
        validate_openmetrics(content)
    } else {
        validate_chrome_trace(content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_validator_pinpoints_shape_errors() {
        let err = validate_artifact(r#"{"traceEvents": 7}"#).unwrap_err();
        assert!(err.contains("'traceEvents' must be an array"), "{err}");
        let err = validate_artifact(
            r#"{"traceEvents": [{"name": "op", "ph": "X", "cat": "net", "ts": "0", "pid": 1, "tid": 1}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("traceEvents[0]: 'ts'"), "{err}");
        let err = validate_artifact("# TYPE ops counter\nops many\n# EOF\n").unwrap_err();
        assert!(err.contains("line 2: non-numeric value"), "{err}");
        let err = validate_artifact("# TYPE ops histogram\n# EOF\n").unwrap_err();
        assert!(err.contains("line 1: bad comment"), "{err}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_artifact("{").is_err());
        assert!(validate_artifact("{}").is_err()); // no traceEvents
        assert!(validate_artifact("# TYPE ops counter\nops 1\n").is_err()); // no EOF
        validate_artifact(r#"{"traceEvents": []}"#).unwrap();
        validate_artifact("# TYPE ops counter\nops 1\n# EOF\n").unwrap();
    }
}
