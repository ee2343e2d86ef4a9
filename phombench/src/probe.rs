//! Measurement helpers: CPU and memory read from `/proc`, order
//! statistics, and the in-memory span recorder of the traced run.

use std::fmt::Write as _;
use std::time::Instant;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/*/stat` (`USER_HZ`, 100 on every Linux architecture the
/// workspace builds for).
const TICKS_PER_SEC: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `utime + stime` in ticks from a `/proc/.../stat` line. The fields after
/// the parenthesised command name are space separated; utime and stime
/// are fields 14 and 15 of the whole line.
fn stat_ticks(path: &str) -> u64 {
    let text = read(path);
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime/stime sit at 11 and 12.
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// CPU time of the calling thread in nanoseconds (first field of
/// `/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// User+system CPU of the whole process (live and exited threads).
pub fn process_cpu_ms() -> f64 {
    stat_ticks("/proc/self/stat") as f64 * 1e3 / TICKS_PER_SEC
}

/// User+system CPU of the calling thread, at the same tick resolution
/// as [`process_cpu_ms`] so the two subtract cleanly.
pub fn thread_cpu_ms() -> f64 {
    stat_ticks("/proc/thread-self/stat") as f64 * 1e3 / TICKS_PER_SEC
}

/// Peak resident set (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// CPU accounting for the measured phase. The main thread's CPU is taken
/// at nanosecond resolution around each timed call only, so the
/// benchmark's own input building and checking are left out. CPU of every
/// other thread (router workers, pools) is the process total minus the
/// main thread's total over the phase.
pub struct CpuMeter {
    process_start_ms: f64,
    main_start_ms: f64,
    in_calls_ns: u64,
}

impl CpuMeter {
    /// Starts the meter on the calling (main) thread.
    pub fn start() -> Self {
        CpuMeter {
            process_start_ms: process_cpu_ms(),
            main_start_ms: thread_cpu_ms(),
            in_calls_ns: 0,
        }
    }

    /// Adds the main thread's CPU between two [`thread_cpu_ns`] readings.
    pub fn add_call(&mut self, before_ns: u64, after_ns: u64) {
        self.in_calls_ns += after_ns.saturating_sub(before_ns);
    }

    /// Total CPU milliseconds attributed to program calls.
    pub fn finish_ms(&self) -> f64 {
        let process = process_cpu_ms() - self.process_start_ms;
        let main = thread_cpu_ms() - self.main_start_ms;
        self.in_calls_ns as f64 / 1e6 + (process - main).max(0.0)
    }
}

/// Nearest-rank percentile of an unsorted sample (`p` in `0..=100`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean, 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One recorded span: a timed call made by the benchmark into a layer.
struct SpanRec {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// Spans of the traced run, kept in memory and written once at the end.
pub struct Spans {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.origin.elapsed().as_nanos();
        self.spans.push(SpanRec {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in microseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.origin.elapsed().as_nanos();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e3
    }

    /// Times `f` as a span and returns its result and duration in µs.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, op, parent);
        let out = std::hint::black_box(f());
        (out, self.close(id))
    }

    /// Writes the spans as JSON lines (one span per line, times in µs
    /// from the start of the run).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
