//! Spans recorded by the benchmark around its own calls into each layer's
//! public API, and the per-layer self-time table computed from them.
//!
//! A span's layer is the part of its name before the first `.`
//! (`driver.commit` belongs to `driver`). Spans stay in memory until the run
//! ends; [`chrome_json`] then renders them as a Chrome-trace document that
//! Perfetto loads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's shared epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Transaction the call belongs to (0 for none); shared by every span
    /// of one transaction, including its replay.
    pub txn: u64,
    /// Thread lane in the rendered trace.
    pub lane: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. A disabled recorder times nothing, so the
/// untraced runs pay one branch per call.
pub struct Recorder {
    epoch: Instant,
    lane: u32,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, lane: u32, on: bool) -> Recorder {
        Recorder { epoch, lane, on, spans: Vec::new() }
    }

    /// Turn recording on or off for the calls that follow.
    pub fn enable(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`]. `None` when off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, txn: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, txn, lane: self.lane });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        txn: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, txn);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate span lists from several recorders, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent, overlaps
/// among children counted once). A grandchild's time is already inside its
/// parent's interval, so it is subtracted only from that parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(a, s.end_ns);
                covered += b - a;
                reach = reach.max(b);
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time summed per layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub spans: u64,
    pub self_ns: u64,
}

pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.layer()).or_default();
        e.spans += 1;
        e.self_ns += own;
    }
    out
}

/// Durations in microseconds of every span called `name`, ascending.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut v: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Chrome-trace JSON (complete events, microsecond timestamps).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"txn\":{}}}}}",
            s.name,
            s.layer(),
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.txn
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, txn: 1, lane: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("bench.txn", 0, 100, None),
            span("driver.execute", 10, 30, Some(0)),
            // Overlaps the previous child: 25..30 must not count twice.
            span("driver.execute", 25, 40, Some(0)),
            // Runs past the parent's end: clipped at 100.
            span("driver.commit", 90, 120, Some(0)),
            // Grandchild: subtracted from its parent only.
            span("sql.parse", 12, 20, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 30 - 10, 20 - 8, 15, 30, 8]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], LayerTime { spans: 1, self_ns: 60 });
        assert_eq!(by_layer["driver"], LayerTime { spans: 3, self_ns: 12 + 15 + 30 });
        assert_eq!(by_layer["sql"], LayerTime { spans: 1, self_ns: 8 });
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("bench.txn", 0, 10, None), span("driver.commit", 1, 2, Some(0))];
        let b = vec![span("bench.txn", 0, 10, None), span("driver.commit", 3, 4, Some(0))];
        let m = merge(vec![a, b]);
        assert_eq!(m[3].parent, Some(2));
        assert_eq!(self_times(&m), vec![9, 1, 9, 1]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(Instant::now(), 0, false);
        let v = r.timed("driver.ping", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(r.into_spans().is_empty());
    }
}
