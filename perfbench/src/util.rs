//! Shared helpers: order statistics, the host fingerprint, peak memory,
//! and the in-memory span ledger of the traced run.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported figure: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Percentile `p` (0..=100) of `values` with linear interpolation between
/// order statistics; `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `part / whole`, or 0 when nothing was measured.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Host fingerprint recorded with every run: hardware threads and the
/// time of a fixed integer calibration loop, so figures from different
/// hosts can be read against each other.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub nproc: usize,
    /// Median of five timings of [`calibration_loop`], in milliseconds.
    pub calib_ms: f64,
}

/// A fixed dependent chain of 20M multiply-xorshift steps.
fn calibration_loop() -> u64 {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000_000u32 {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    x
}

/// Measures the host fingerprint.
pub fn host() -> Host {
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(calibration_loop());
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        calib_ms: median(&times),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One timed call into a layer, kept in memory until the run ends.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the ledger was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload round (or router) the span belongs to.
    pub round: u64,
}

/// The span ledger of a traced run. Spans are recorded around the calls
/// the benchmark makes into each layer's public functions, so the ledger
/// is measured from outside the program.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn open(&mut self, name: &'static str, round: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, round: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, round);
        let out = f();
        self.close(id);
        out
    }

    /// Total duration in nanoseconds of every span named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per-name `(total, self)` nanoseconds, in first-seen order. Self time
    /// is a span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: Vec<(&'static str, f64, f64)> = Vec::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let total = (s.end - s.start) as f64;
            let own = (s.end - s.start).saturating_sub(children) as f64;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(entry) => {
                    entry.1 += total;
                    entry.2 += own;
                }
                None => out.push((s.name, total, own)),
            }
        }
        out
    }

    /// Renders every span as tab-separated `id name start_ns end_ns parent
    /// round` lines under a header.
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\tround\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.round
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut l = Ledger::new();
        let outer = l.open("outer", 0);
        l.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        l.close(outer);
        let times = l.self_times();
        let (_, total, own) = times[0];
        assert!(own < total);
        assert_eq!(l.count("inner"), 1);
        assert!(l.render_tsv().lines().count() == 3);
    }
}
