//! The benchmark's own span recorder: one span around every call into a
//! layer's public functions, kept in memory and written out when the
//! process ends.
//!
//! A span has a name, a start and an end (microseconds since the
//! recorder's epoch), the span that caused it, and the id of the job it
//! belongs to. A disabled recorder runs the closure and records nothing,
//! so the untraced run pays one branch per layer call.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to (0 for set-up and probes).
    pub job: u64,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

/// A per-thread recorder. Threads [`fork`](Recorder::fork) their own and
/// the owner [`absorb`](Recorder::absorb)s them afterwards, so recording
/// takes no lock.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// An empty recorder on the same epoch, for another thread.
    pub fn fork(&self) -> Recorder {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            inner: RefCell::default(),
        }
    }

    /// Appends a forked recorder's spans, keeping their parent links.
    pub fn absorb(&self, other: Recorder) {
        let mut inner = self.inner.borrow_mut();
        let base = inner.spans.len();
        inner
            .spans
            .extend(other.inner.into_inner().spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name` of job `job`; nested calls
    /// become children.
    pub fn span<T>(&self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut inner = self.inner.borrow_mut();
            let index = inner.spans.len();
            let parent = inner.stack.last().copied();
            let start_us = self.now_us();
            inner.spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent,
                job,
            });
            inner.stack.push(index);
            index
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.spans[index].end_us = self.now_us();
        inner.stack.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Writes the spans as JSON lines: name, start, end, parent, job.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.inner.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_us":{},"end_us":{},"parent":{parent},"job":{}}}"#,
                s.name, s.start_us, s.end_us, s.job
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_us, spans[p].end_us);
            children[p].push((s.start_us.clamp(lo, hi), s.end_us.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut frontier = s.start_us;
            for (start, end) in kids {
                if end > frontier {
                    covered += end - start.max(frontier);
                    frontier = end;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Median duration, in ms, of the spans named `name`.
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_us() as f64 / 1e3)
        .collect();
    crate::stats::median(&ms)
}

/// Over the `job` spans that `keep` selects: their total duration and the
/// part of it no child span covers, both in microseconds.
pub fn job_cover_us(spans: &[Span], keep: impl Fn(&Span) -> bool) -> (f64, f64) {
    let own = self_times_us(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == "job" && keep(s))
        .fold((0.0, 0.0), |(total, uncovered), (s, own_us)| {
            (total + s.duration_us() as f64, uncovered + own_us as f64)
        })
}
