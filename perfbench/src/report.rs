//! Metrics, run metadata and the result line.

use std::fmt::Write as _;

/// A JSON number, or `null` for a non-finite value (which the result
/// line treats as a failed run).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An ordered JSON object assembled field by field.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// Adds a number field.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Obj {
        self.0.push((key.to_string(), json_num(v)));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Obj {
        self.0.push((key.to_string(), json_str(v)));
        self
    }

    /// Adds a field holding already-encoded JSON.
    pub fn raw(&mut self, key: &str, json: String) -> &mut Obj {
        self.0.push((key.to_string(), json));
        self
    }

    /// The encoded object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// FNV-1a digest over the bit patterns of a run's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the exact bits of `values` into the digest.
    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in print order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Output checks that failed, with what went wrong.
    pub check_failures: Vec<String>,
    /// Run metadata and input properties, written with the result.
    pub info: Obj,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records the outcome of an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Whether every check passed, nothing failed, and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
            && self.failed == 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.5, "s");
        assert!(o.correct());
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.metric("bad", f64::NAN, "ms");
        assert!(!o.correct());
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.f32s(&[0.0, 1.0]);
        let mut b = Digest::default();
        b.f32s(&[-0.0, 1.0]);
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
