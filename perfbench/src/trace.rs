//! Spans the traced run records around its calls into the program.
//!
//! Spans live in memory and are written out once, when the run ends.
//! Every span belongs to one op of one pass; spans of one op nest
//! strictly on the client thread, so a span's self time is its duration
//! minus the durations of its direct children.

use crate::host::process_cpu_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub pass: &'static str,
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU time across all threads during the span, recorded
    /// only for spans opened with [`Probe::enter_cpu`].
    pub cpu_ns: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span measures: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span hooks op code calls: a [`Tracer`] records them, [`Off`]
/// compiles them away for the untraced runs.
pub trait Probe {
    /// Whether spans are recorded.
    fn on(&self) -> bool;
    fn enter(&mut self, name: &'static str, op: usize) -> usize;
    fn enter_cpu(&mut self, name: &'static str, op: usize) -> usize;
    fn exit(&mut self, id: usize);
}

/// Tracing off.
#[derive(Debug)]
pub struct Off;

impl Probe for Off {
    fn on(&self) -> bool {
        false
    }

    fn enter(&mut self, _: &'static str, _: usize) -> usize {
        0
    }

    fn enter_cpu(&mut self, _: &'static str, _: usize) -> usize {
        0
    }

    fn exit(&mut self, _: usize) {}
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pass: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            pass: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Labels the spans recorded from now on.
    pub fn set_pass(&mut self, pass: &'static str) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Duration of span `id` in nanoseconds.
    pub fn dur_ns(&self, id: usize) -> u64 {
        self.spans[id].dur_ns()
    }

    /// Every closed span of `pass` named `name`.
    pub fn named<'a>(
        &'a self,
        pass: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.pass == pass && s.name == name)
    }

    /// Self time per `(pass, layer)`: the total of span durations minus
    /// the durations of their direct children, with the span count.
    pub fn self_time(&self) -> BTreeMap<(&'static str, &'static str), (u64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry((s.pass, s.layer())).or_insert((0, 0));
            e.0 += s.dur_ns().saturating_sub(children);
            e.1 += 1;
        }
        out
    }

    /// Writes every span, one JSON object per line inside a `spans`
    /// array, after a `header` of ready-made JSON members.
    pub fn write(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{{header},\n\"spans\": [")?;
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\": {i}, \"pass\": \"{}\", \"name\": \"{}\", \"op\": {}, \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"cpu_ns\": {}}}",
                s.pass,
                s.name,
                s.op,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.cpu_ns.map_or("null".to_owned(), |c| c.to_string()),
            );
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(out, "{line}{sep}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

impl Probe for Tracer {
    fn on(&self) -> bool {
        true
    }

    /// Opens a span nested in the innermost open one.
    fn enter(&mut self, name: &'static str, op: usize) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            pass: self.pass,
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            cpu_ns: None,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// [`Probe::enter`], also recording process CPU time.
    fn enter_cpu(&mut self, name: &'static str, op: usize) -> usize {
        let cpu = process_cpu_ns();
        let id = self.enter(name, op);
        self.spans[id].cpu_ns = Some(cpu);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        if let Some(start) = span.cpu_ns {
            span.cpu_ns = Some(process_cpu_ns() - start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new();
        tr.set_pass("p");
        let op = tr.enter("op", 0);
        let a = tr.enter("parser.parse", 0);
        tr.exit(a);
        let b = tr.enter("eval.plain", 0);
        tr.exit(b);
        tr.exit(op);
        let st = tr.self_time();
        let total: u64 = st.values().map(|v| v.0).sum();
        assert_eq!(total, tr.dur_ns(op), "self times add up to the op");
        assert_eq!(st[&("p", "parser")].1, 1);
        assert_eq!(tr.spans[b].parent, Some(op));
    }
}
