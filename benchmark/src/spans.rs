//! Host-clock spans recorded by the benchmark around every call it makes
//! into the product (build, warm-up, each simulated-second slice, each
//! replay loop). Kept in memory; written once, when the run ends, in the
//! Chrome trace-event shape `obs::trace` exports, so the same viewer
//! (Perfetto) opens both.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// The recorder. Off in untraced runs, where `scope` only calls through.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of whichever span is
    /// open. `f` gets the recorder back to open children of its own.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Closed spans whose name starts with `prefix`, in start order.
    pub fn named<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.name.starts_with(prefix) && s.end_us.is_finite())
    }

    /// A span's own time: its duration less what its children cover.
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::wall_s)
            .sum();
        self.spans[id].wall_s() - children
    }

    /// Chrome trace-event JSON: one `"X"` event per span, `ts`/`dur` in
    /// µs, `pid` 1, `tid` 0, the span id and parent in `args` (parent 0 =
    /// root, ids 1-based), and `workload` as the shared identifier.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let mut events = vec![Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(0.0)),
            (
                "args",
                Json::obj([("name", Json::Str(format!("spire-benchmark {workload}")))]),
            ),
        ])];
        for (id, span) in self.spans.iter().enumerate() {
            let closed = span.end_us.is_finite();
            events.push(Json::obj([
                ("name", Json::Str(span.name.clone())),
                (
                    "cat",
                    Json::str(if closed { "span" } else { "span.unclosed" }),
                ),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_us.round())),
                (
                    "dur",
                    Json::Num(if closed {
                        (span.end_us - span.start_us).round()
                    } else {
                        0.0
                    }),
                ),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(0.0)),
                (
                    "args",
                    Json::obj([
                        ("span", Json::Num(id as f64 + 1.0)),
                        (
                            "parent",
                            Json::Num(span.parent.map_or(0.0, |p| p as f64 + 1.0)),
                        ),
                        ("workload", Json::str(workload)),
                        ("self_us", Json::Num((self.self_s(id) * 1e6).round())),
                    ]),
                ),
            ]));
        }
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.scope("outer", |s| {
            s.scope("slice.0", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            s.scope("slice.1", |_| ());
        });
        let slices: Vec<_> = spans.named("slice.").collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].parent, Some(0));
        assert!(slices[0].wall_s() >= 0.005);
        let outer = spans.named("outer").next().expect("outer recorded");
        assert!(spans.self_s(0) <= outer.wall_s() - slices[0].wall_s() + 1e-9);
        let trace = spans.chrome_trace("w");
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 4, "metadata + three spans");
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Num(1.0))
        );
    }

    #[test]
    fn recorder_that_is_off_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.scope("x", |_| 7), 7);
        assert_eq!(spans.named("").count(), 0);
    }
}
