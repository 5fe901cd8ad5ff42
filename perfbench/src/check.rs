//! Output comparators: a workload's answers against a reference answer.

use trainbox_sim::json::Value;

/// Compare two JSON documents leaf by leaf. Numbers may differ by at most
/// `rel_tol` relative to the larger magnitude (0 demands equality); keys
/// listed in `skip` are left out at the top level of both documents.
pub fn compare(got: &str, want: &str, skip: &[&str], rel_tol: f64) -> Result<(), String> {
    let got = trainbox_sim::json::parse(got).map_err(|e| format!("unparsable answer: {e}"))?;
    let want = trainbox_sim::json::parse(want).map_err(|e| format!("unparsable reference: {e}"))?;
    compare_docs(&got, &want, skip, rel_tol)
}

/// [`compare`] on parsed documents.
pub fn compare_docs(got: &Value, want: &Value, skip: &[&str], rel_tol: f64) -> Result<(), String> {
    compare_values(&without(got, skip), &without(want, skip), rel_tol, "$")
}

fn without(v: &Value, skip: &[&str]) -> Value {
    match v {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| !skip.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The leaf-by-leaf comparison behind [`compare`]; `path` names the
/// position for the error message.
fn compare_values(got: &Value, want: &Value, rel_tol: f64, path: &str) -> Result<(), String> {
    match (got, want) {
        (Value::Number(a), Value::Number(b)) => {
            let scale = a.abs().max(b.abs());
            if a == b || (a - b).abs() <= rel_tol * scale {
                Ok(())
            } else {
                Err(format!("{path}: {a} != {b}"))
            }
        }
        (Value::Array(a), Value::Array(b)) => {
            if a.len() != b.len() {
                return Err(format!("{path}: length {} != {}", a.len(), b.len()));
            }
            a.iter()
                .zip(b)
                .enumerate()
                .try_for_each(|(i, (x, y))| compare_values(x, y, rel_tol, &format!("{path}[{i}]")))
        }
        (Value::Object(a), Value::Object(b)) => {
            let keys = |o: &[(String, Value)]| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            if keys(a) != keys(b) {
                return Err(format!("{path}: keys {:?} != {:?}", keys(a), keys(b)));
            }
            a.iter().zip(b).try_for_each(|((k, x), (_, y))| {
                compare_values(x, y, rel_tol, &format!("{path}.{k}"))
            })
        }
        (a, b) if a == b => Ok(()),
        (a, b) => Err(format!("{path}: {a:?} != {b:?}")),
    }
}

/// Provenance fields of a `/simulate` answer: they say who answered and how
/// long it took, not what the answer is.
pub const PROVENANCE: [&str; 3] = ["git_describe", "version", "wall_ms"];

/// Compare a served `/simulate` body with the in-process answer to the same
/// request, provenance left out.
pub fn same_answer(served: &str, in_process: &str) -> Result<(), String> {
    compare(served, in_process, &PROVENANCE, 0.0)
}

/// [`same_answer`] on parsed documents (a `/sweep` line's `response`).
pub fn same_answer_values(served: &Value, in_process: &Value) -> Result<(), String> {
    compare_docs(served, in_process, &PROVENANCE, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = r#"{"config_hash":"ab","outcome":{"Des":{"samples_per_sec":100.0,"batch_done_at":[1,2]}},"git_describe":"v1","version":"0.1.0","wall_ms":3.5,"degraded":false,"trace":null}"#;

    #[test]
    fn provenance_is_left_out() {
        let b = A
            .replace("\"v1\"", "\"unknown\"")
            .replace("3.5", "812.25")
            .replace("0.1.0", "9.9.9");
        assert_eq!(same_answer(A, &b), Ok(()));
    }

    #[test]
    fn any_answer_change_is_a_mismatch() {
        for (from, to) in [
            ("100.0", "100.00000001"),
            ("[1,2]", "[1,3]"),
            ("false", "true"),
            ("\"ab\"", "\"ac\""),
        ] {
            let b = A.replacen(from, to, 1);
            assert!(same_answer(A, &b).is_err(), "{from} -> {to} went unnoticed");
        }
        let extra = A.replace("\"trace\":null", "\"trace\":null,\"x\":1");
        assert!(same_answer(A, &extra).is_err());
    }

    #[test]
    fn relative_tolerance_bounds_numeric_drift() {
        let want = r#"{"rc_bytes":1000000000.0,"faults":{"injected":0}}"#;
        let near = r#"{"rc_bytes":1000000000.5,"faults":{"injected":0}}"#;
        let far = r#"{"rc_bytes":1000000002.0,"faults":{"injected":0}}"#;
        assert_eq!(compare(near, want, &[], 1e-9), Ok(()));
        assert!(compare(far, want, &[], 1e-9).is_err());
        assert!(compare(near, want, &[], 0.0).is_err());
        assert_eq!(
            compare(
                r#"{"events":5,"a":1}"#,
                r#"{"events":6,"a":1}"#,
                &["events"],
                0.0
            ),
            Ok(())
        );
    }
}
