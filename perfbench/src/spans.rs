//! The benchmark's own spans: one per call into a layer's public
//! function, kept in memory and written out when the run ends. Spans of
//! one request share its id; a span's self time is its duration minus
//! the time its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Single-threaded span recorder (the traced replays run in sequence).
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

pub struct Guard<'a> {
    tracer: Option<&'a Tracer>,
    id: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            let end = t.now_ns();
            t.spans.borrow_mut()[self.id].end_ns = end;
            let popped = t.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close in stack order");
        }
    }
}

/// Opens `name` for request `req` under the innermost open span; a no-op
/// without a tracer.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str, req: u64) -> Guard<'a> {
    match tracer {
        Some(t) => {
            let start_ns = t.now_ns();
            let mut spans = t.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                name,
                req,
                parent: t.open.borrow().last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            t.open.borrow_mut().push(id);
            Guard { tracer, id }
        }
        None => Guard {
            tracer: None,
            id: usize::MAX,
        },
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let spans = self.spans.borrow();
        let intervals: Vec<(Option<usize>, u64)> = spans
            .iter()
            .map(|s| (s.parent, s.end_ns - s.start_ns))
            .collect();
        let names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
        aggregate_by_name(&names, &intervals)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name,
                s.req,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns - s.start_ns,
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time by name for spans given as `(parent, duration)` pairs.
pub fn aggregate_by_name<N: Ord + Copy>(
    names: &[N],
    spans: &[(Option<usize>, u64)],
) -> BTreeMap<N, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    for &(parent, dur) in spans {
        if let Some(p) = parent {
            child_ns[p] += dur;
        }
    }
    let mut out: BTreeMap<N, Agg> = BTreeMap::new();
    for (i, &(_, dur)) in spans.iter().enumerate() {
        let a = out.entry(names[i]).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// Self time by name of the spans a `tagnn_obs::Recorder` collected.
pub fn engine_self_times(trace: &tagnn_obs::Trace) -> BTreeMap<String, Agg> {
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    let intervals: Vec<(Option<usize>, u64)> = trace
        .spans
        .iter()
        .map(|s| (s.parent, s.dur_ns.unwrap_or(0)))
        .collect();
    aggregate_by_name(&names, &intervals)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let names = ["a", "b", "b"];
        let spans = [(None, 100), (Some(0), 30), (Some(0), 20)];
        let agg = aggregate_by_name(&names, &spans);
        assert_eq!(agg["a"].self_ns, 50);
        assert_eq!(agg["b"].self_ns, 50);
        assert_eq!(agg["b"].count, 2);
    }
}
