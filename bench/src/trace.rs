//! Spans recorded by the harness around every call it makes into the
//! system: kept in memory with name, start, end and parent, and written at
//! exit as Chrome trace-event JSON (opens in Perfetto or `chrome://tracing`)
//! plus a self-time table. Spans *inside* the runtime are a later issue;
//! these only bracket its public entry points.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle of an open span; `Tracer::end` closes it.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off (one traced run also takes an untraced draw,
    /// to put a number on its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = now;
    }

    /// Record a child of the just-closed span `parent` whose length is
    /// known but whose position inside the parent is not observable from
    /// outside (the timed window inside `job.run`): drawn centred.
    pub fn child_of_length(&mut self, parent: SpanId, name: &str, length_ns: u64) {
        let Some(p) = parent.0 else { return };
        let (start, end) = (self.spans[p].start_ns, self.spans[p].end_ns);
        let length = length_ns.min(end - start);
        let child_start = start + (end - start - length) / 2;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: child_start,
            end_ns: child_start + length,
            parent: Some(p),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its length minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// One row of the self-time table: all spans of one name.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRow {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Spans aggregated by name, largest self time first.
pub fn ledger(spans: &[Span]) -> Vec<LedgerRow> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, LedgerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = by_name.entry(&s.name).or_insert_with(|| LedgerRow {
            name: s.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += self_ns;
    }
    let mut rows: Vec<LedgerRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows
}

pub fn render_ledger(rows: &[LedgerRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>7} {:>12.3} {:>12.3}",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
    out
}

/// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span, in
/// microseconds, with the parent's index in `args`.
pub fn chrome_json(spans: &[Span], process_name: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
        crate::json::quote(process_name)
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"name\":{},\"cat\":\"harness\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            crate::json::quote(&s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("job.run", 10, 90, Some(0)),
            span("window", 20, 70, Some(1)),
            span("verify", 92, 98, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 80 - 6, 80 - 50, 50, 6]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)), // overlaps a by 10
            span("c", 190, 250, Some(0)), // overhangs the parent by 50
            span("d", 120, 130, Some(0)), // inside a
        ];
        // Covered: [110,160) and [190,200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn ledger_groups_by_name_and_sorts_by_self_time() {
        let spans = vec![
            span("run", 0, 100, None),
            span("probe", 0, 30, Some(0)),
            span("probe", 30, 70, Some(0)),
        ];
        let rows = ledger(&spans);
        assert_eq!(
            rows[0],
            LedgerRow {
                name: "probe".into(),
                count: 2,
                total_ns: 70,
                self_ns: 70
            }
        );
        assert_eq!(
            rows[1],
            LedgerRow {
                name: "run".into(),
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        // Self times of a tree add up to the root's length.
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_can_be_switched_off() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        t.child_of_length(outer, "window", 0);
        t.set_enabled(false);
        let off = t.begin("ignored");
        t.end(off);
        t.child_of_length(off, "ignored", 5);
        let names: Vec<(&str, Option<usize>)> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("window", Some(0))]
        );
        let s = t.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn child_of_length_is_centred_and_clipped() {
        let mut t = Tracer::new(true);
        let id = t.begin("job.run");
        t.end(id);
        t.spans[0].start_ns = 1_000;
        t.spans[0].end_ns = 2_000;
        t.child_of_length(id, "window", 600);
        t.child_of_length(id, "too-long", 5_000);
        assert_eq!((t.spans[1].start_ns, t.spans[1].end_ns), (1_200, 1_800));
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (1_000, 2_000));
    }

    #[test]
    fn chrome_json_parses_and_keeps_every_span() {
        let spans = vec![
            span("run \"x\"", 0, 2_500, None),
            span("job.run", 500, 1_500, Some(0)),
        ];
        let text = chrome_json(&spans, "vb-wide");
        let doc = crate::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("run \"x\""));
        assert_eq!(events[2].get("ts").unwrap().as_f64(), Some(0.5));
        assert_eq!(events[2].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
