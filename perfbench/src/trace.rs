//! Spans and counters recorded around the benchmark's calls into each
//! layer. Kept in memory while the run measures and written out at the
//! end; a disabled tracer records nothing and only calls through.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u32,
    parent: u32,
    request: u64,
    start_us: f64,
    end_us: f64,
}

/// Span and counter recorder. Span ids start at 1; parent 0 is the root.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, child of `parent`, belonging
    /// to `request`. `f` receives the span's id to parent its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            let id = spans.len() as u32 + 1;
            spans.push(Span {
                name,
                id,
                parent,
                request,
                start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
                end_us: f64::NAN,
            });
            id
        };
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.lock().expect("span list poisoned")[id as usize - 1].end_us = end;
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self
                .counts
                .lock()
                .expect("counter map poisoned")
                .entry(name)
                .or_insert(0.0) += value;
        }
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("counter map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Total duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Writes every span and counter as JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        // Time each span's direct children cover, by span id.
        let mut covered = vec![0.0; spans.len() + 1];
        for c in spans.iter() {
            covered[c.parent as usize] += c.end_us - c.start_us;
        }
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"request\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}{sep}",
                s.name,
                s.id,
                s.parent,
                s.request,
                s.start_us,
                s.end_us,
                s.end_us - s.start_us - covered[s.id as usize],
            );
        }
        out.push_str("], \"counters\": {");
        let counts = self.counts.lock().expect("counter map poisoned");
        let body: Vec<String> = counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", crate::report::json_num(*v)))
            .collect();
        out.push_str(&body.join(", "));
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("a", 0, 0, |id| {
            assert_eq!(id, 0);
            t.count("n", 3.0);
            5
        });
        assert_eq!(v, 5);
        assert_eq!(t.calls("a"), 0);
        assert_eq!(t.counter("n"), 0.0);
    }

    #[test]
    fn spans_nest_and_are_written_with_self_time() {
        let t = Tracer::new(true);
        t.span("outer", 0, 1, |outer| {
            std::thread::sleep(std::time::Duration::from_millis(4));
            t.span("inner", outer, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(6))
            });
        });
        t.count("n", 2.0);
        assert_eq!(t.calls("outer"), 1);
        assert!(t.total_ms("outer") >= t.total_ms("inner") + 4.0);
        let path =
            std::env::temp_dir().join(format!("perfbench-spans-{}.json", std::process::id()));
        t.write(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans");
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("\"name\": \"inner\", \"id\": 2, \"parent\": 1"));
        assert!(text.contains("\"n\": 2"));
    }
}
