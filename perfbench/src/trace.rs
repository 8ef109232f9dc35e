//! Span recorder and the small statistics the metrics are reduced with.
//!
//! A span is `(name, start, end, parent)` around one call into a layer's
//! public function, recorded from the outside by the workload client. Spans
//! live in memory (one thread: the client's) and are written out once, when
//! the run ends. With tracing off, [`span`] is a direct call.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let idx = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        r.open.push(idx);
        idx
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans[idx].end_ns = end_ns;
        r.open.pop();
    });
    out
}

/// Durations in seconds of every closed span named `name`.
pub fn durations(name: &str) -> Vec<f64> {
    RECORDER.with(|r| {
        r.borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    })
}

pub fn span_count() -> usize {
    RECORDER.with(|r| r.borrow().spans.len())
}

/// Writes every span as tab-separated `index name start_ns end_ns parent`.
pub fn write_out(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
    RECORDER.with(|r| {
        for (i, s) in r.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok::<(), std::io::Error>(())
    })?;
    out.flush()
}

/// Times `f`, returning its output and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Nearest-rank percentile (`p` in 0..=1) of `values`; 0 for an empty set.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn spans_nest_and_record_parents() {
        enable();
        span("outer", || span("inner", || ()));
        let inner = RECORDER.with(|r| {
            let r = r.borrow();
            r.spans
                .iter()
                .rev()
                .find(|s| s.name == "inner")
                .cloned()
                .unwrap()
        });
        let parent = RECORDER.with(|r| r.borrow().spans[inner.parent.unwrap()].name);
        assert_eq!(parent, "outer");
        assert_eq!(durations("outer").len(), 1);
    }
}
