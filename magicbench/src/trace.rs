//! Benchmark-side spans around every call into a layer: kept in memory,
//! written out when the run ends.  A layer's self time is its spans'
//! duration minus the part their child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The crates under measurement, plus the harness itself (root spans and
/// whatever time no layer call covers).
pub const LAYERS: [&str; 8] = [
    "datalog", "storage", "engine", "core", "incr", "durable", "serve", "harness",
];

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// One id per request or op; every span of it shares the id.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer.
pub struct Tracer {
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Tracers of one run share `epoch`, so their spans share a clock.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            parent,
            op,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Append another thread's spans, re-basing their parent indexes.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Run `f` inside a span when tracing, bare otherwise.
pub fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    layer: &'static str,
    parent: Option<usize>,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let span = t.begin(name, layer, parent, op);
            let out = f();
            t.end(span);
            out
        }
        None => f(),
    }
}

/// Self time per layer in ns, and the summed duration of the root spans
/// (which the self times add up to).
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut covered = vec![0u64; spans.len()];
    let mut roots = 0u64;
    for span in spans {
        let duration = span.end_ns - span.start_ns;
        match span.parent {
            Some(p) => covered[p] += duration,
            None => roots += duration,
        }
    }
    let mut by_layer: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
    for (span, child) in spans.iter().zip(&covered) {
        *by_layer.entry(span.layer).or_default() +=
            (span.end_ns - span.start_ns).saturating_sub(*child);
    }
    (by_layer, roots)
}

/// The span file: one array per span, `[name, layer, parent, op, start_ns,
/// end_ns]`, parent `-1` for roots, under a header naming the columns.
pub fn render(spans: &[Span], workload: &str, seed: u64) -> String {
    let (by_layer, roots) = self_times(spans);
    let header = Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        (
            "columns",
            Json::Arr(
                ["name", "layer", "parent", "op", "start_ns", "end_ns"]
                    .map(|c| Json::Str(c.into()))
                    .to_vec(),
            ),
        ),
        ("root_ns", Json::Num(roots as f64)),
        (
            "self_ns",
            Json::obj(by_layer.iter().map(|(l, ns)| (*l, Json::Num(*ns as f64)))),
        ),
    ]);
    let mut out = header.render();
    out.truncate(out.len() - 1);
    out.push_str(", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "[\"{}\", \"{}\", {parent}, {}, {}, {}]{}\n",
            s.name,
            s.layer,
            s.op,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |layer, parent, start_ns, end_ns| Span {
            name: "s",
            layer,
            parent,
            op: 1,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("harness", None, 0, 100),
            span("core", Some(0), 10, 30),
            span("engine", Some(0), 30, 90),
            span("storage", Some(2), 40, 50),
        ];
        let (by_layer, roots) = self_times(&spans);
        assert_eq!(roots, 100);
        assert_eq!(by_layer["harness"], 20);
        assert_eq!(by_layer["core"], 20);
        assert_eq!(by_layer["engine"], 50);
        assert_eq!(by_layer["storage"], 10);
        assert_eq!(by_layer.values().sum::<u64>(), roots);
        let file = Json::parse(&render(&spans, "w", 1)).unwrap();
        assert!(matches!(file.get("spans"), Some(Json::Arr(spans)) if spans.len() == 4));
    }
}
