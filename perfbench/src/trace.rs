//! Spans recorded by the benchmark around its calls into the program's
//! public functions. Nothing is traced inside the program: a span covers
//! one call from the outside, and a layer's self time is its spans'
//! duration minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are µs since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: usize,
    /// Layer-qualified call name, e.g. `sgd.hogwild_epoch_tiled`.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<usize>,
}

/// In-memory span recorder, written out when the run ends.
pub struct Tracer {
    t0: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, for a span whose children are recorded before
    /// it ends.
    pub fn reserve(&self) -> usize {
        // ordering: Relaxed — the counter only hands out unique ids.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &self,
        id: usize,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.reserve();
        self.record_as(id, name, parent, start, end);
        id
    }

    /// Runs `f` inside a span; `f` gets the span's id to parent children.
    /// Returns `f`'s result and the span's duration in seconds.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> (R, f64) {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.record_as(id, name, parent, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// A copy of every span recorded so far, by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Writes one JSON object per span: name, start, end, parent, workload
    /// and run id.
    pub fn write_jsonl(&self, path: &Path, workload: &str, run_id: &str) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{},\"workload\":\"{}\",\"run_id\":\"{}\"}}",
                s.id, s.name, s.start_us, s.end_us, parent, workload, run_id
            )?;
        }
        out.flush()
    }
}

/// Per-name totals derived from spans.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: usize,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child coverage), seconds.
    pub self_s: f64,
}

/// Self time per span name. A span's self time is its duration minus the
/// union of its children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = (s.end_us - s.start_us).max(0.0);
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_us), b.min(s.end_us));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += dur * 1e-6;
        e.self_s += (dur - covered).max(0.0) * 1e-6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &'static str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            id,
            name,
            start_us: a,
            end_us: b,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, "root", 0.0, 100.0, None),
            // Overlapping children cover 10..40; a disjoint one 60..70; one
            // spilling past the parent is clipped to 95..100. 45 µs covered.
            span(1, "kid", 10.0, 30.0, Some(0)),
            span(2, "kid", 20.0, 40.0, Some(0)),
            span(3, "kid", 60.0, 70.0, Some(0)),
            span(4, "kid", 95.0, 120.0, Some(0)),
        ];
        let t = self_times(&spans);
        let root = t["root"];
        assert_eq!(root.count, 1);
        assert!((root.total_s - 100e-6).abs() < 1e-12);
        assert!((root.self_s - 55e-6).abs() < 1e-12, "{}", root.self_s);
        let kid = t["kid"];
        assert_eq!(kid.count, 4);
        assert!((kid.self_s - kid.total_s).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_through_ids_and_write_out() {
        let tr = Tracer::new();
        let ((), _) = tr.span("outer", None, |id| {
            let now = Instant::now();
            tr.record("inner", Some(id), now, now);
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let path = std::env::temp_dir().join(format!("perfbench-spans-{}", std::process::id()));
        tr.write_jsonl(&path, "w", "r").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"workload\":\"w\"") && text.contains("\"run_id\":\"r\""));
        std::fs::remove_file(&path).unwrap();
    }
}
