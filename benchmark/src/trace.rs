//! The benchmark's own spans: one per call (or per batch of calls) into a
//! layer's public functions, recorded from the outside and kept in memory
//! until the run ends.
//!
//! A span's name is `<layer>.<function>`; its layer is the part before the
//! first dot. Spans nest strictly (they are recorded on the generator
//! thread only), so a span's self time is its duration minus its direct
//! children's durations.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is the index of the enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<u32>);

/// Self time and call count of every span name.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64)>;

/// Span recorder. While disabled, `enter`/`exit` cost one branch.
#[derive(Debug)]
pub struct Tracer {
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { enabled: false, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent: self.stack.last().copied(), name, start_ns, end_ns: 0 });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span.
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` under a span; for calls that do not need the tracer.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span:
    /// `{id, parent, name, workload, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, workload, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time (duration minus direct children) and call count per name,
/// over the spans named `root` and everything beneath them.
pub fn self_times_under(spans: &[Span], root: &str) -> SelfTimes {
    // Parents precede their children, so one forward pass marks subtrees.
    let mut inside = vec![false; spans.len()];
    for s in spans {
        inside[s.id as usize] = s.name == root || s.parent.is_some_and(|p| inside[p as usize]);
    }
    accumulate(spans, |s| inside[s.id as usize])
}

fn accumulate(spans: &[Span], keep: impl Fn(&Span) -> bool) -> SelfTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = SelfTimes::new();
    for s in spans.iter().filter(|s| keep(s)) {
        let entry = out.entry(s.name).or_insert((0, 0));
        entry.0 += (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
        entry.1 += 1;
    }
    out
}

/// The layer a span name belongs to (the part before the first dot).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(0, None, "bench.window", 0, 1000),
            span(1, Some(0), "engine.replay", 100, 600),
            span(2, Some(1), "ftl.read", 200, 300),
            span(3, Some(1), "ftl.read", 300, 450),
            span(4, Some(0), "engine.advance", 700, 900),
        ];
        let st = accumulate(&spans, |_| true);
        // window: 1000 - (500 + 200); replay: 500 - (100 + 150); grandchildren
        // are charged to their own parent only.
        assert_eq!(st["bench.window"], (300, 1));
        assert_eq!(st["engine.replay"], (250, 1));
        assert_eq!(st["ftl.read"], (250, 2));
        assert_eq!(st["engine.advance"], (200, 1));
        let total: u64 = st.values().map(|v| v.0).sum();
        assert_eq!(total, 1000, "self times partition the root span");
    }

    #[test]
    fn subtree_self_times_ignore_spans_outside_the_root() {
        let spans = [
            span(0, None, "bench.setup", 0, 100),
            span(1, Some(0), "engine.new", 10, 60),
            span(2, None, "bench.window", 100, 400),
            span(3, Some(2), "engine.replay", 150, 350),
            span(4, None, "engine.new", 400, 500),
        ];
        let st = self_times_under(&spans, "bench.window");
        assert_eq!(st.len(), 2);
        assert_eq!(st["bench.window"], (100, 1));
        assert_eq!(st["engine.replay"], (200, 1));
        assert_eq!(self_times_under(&spans, "bench.setup")["engine.new"], (50, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let mut t = Tracer::default();
        let open = t.enter("engine.x");
        t.exit(open);
        assert!(t.spans().is_empty());
        t.enabled = true;
        let outer = t.enter("bench.window");
        let got = t.span("engine.x", || 7);
        t.exit(outer);
        assert_eq!(got, 7);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(layer_of("engine.x"), "engine");
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn exit_out_of_order_panics() {
        let mut t = Tracer { enabled: true, ..Tracer::default() };
        let a = t.enter("a.a");
        let _b = t.enter("b.b");
        t.exit(a);
    }
}
