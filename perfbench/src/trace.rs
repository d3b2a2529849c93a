//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers.
//!
//! A span is a name, a start, an end, the span that was open when it
//! began, and the operation it belongs to. Each operation of a traced
//! replay has one root span named [`ROOT`]; the layer calls it makes are
//! its children. Calls that run after an operation's root has closed
//! (probes that re-time a layer buried inside another call) have no
//! parent and count toward neither the root nor the coverage.

use std::io::Write as _;
use std::time::Instant;

/// Name of an operation's root span.
pub const ROOT: &str = "op";

/// One recorded span; times are nanoseconds since the tracer began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `kernel.run`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation id.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A span recorder; a disabled tracer runs the same calls and records
/// nothing, which is how the untraced replay is timed.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under until [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let index = self.open.pop().expect("exit without enter");
        self.spans[index].end = self.now();
    }

    /// Runs `call` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, call: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = call();
        self.exit();
        out
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.dur());
            }
        }
        own
    }

    /// Durations of the spans named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Share of the operations' root time that their layer spans' self
    /// times account for; the rest is the benchmark's own glue between
    /// calls and the cost of recording.
    pub fn coverage(&self) -> f64 {
        let own = self.self_times();
        let (mut layers, mut roots) = (0u64, 0u64);
        for (span, &own) in self.spans.iter().zip(&own) {
            match span.parent {
                None if span.name == ROOT => roots += span.dur(),
                Some(_) => layers += own,
                None => {}
            }
        }
        layers as f64 / roots.max(1) as f64
    }

    /// Writes the spans as CSV (`name,op,parent,start_ns,end_ns`).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,op,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(out, "{},{},{parent},{},{}", s.name, s.op, s.start, s.end)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_skips_probes() {
        let mut tr = Tracer::new(true);
        tr.enter(ROOT, 0);
        tr.span("a", 0, || spin(200_000));
        tr.span("b", 0, || spin(100_000));
        tr.exit();
        tr.span("probe", 0, || spin(300_000));
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        let own = tr.self_times();
        assert_eq!(own[0], spans[0].dur() - spans[1].dur() - spans[2].dur());
        assert_eq!(own[1], spans[1].dur());
        let coverage = tr.coverage();
        assert!(coverage > 0.9 && coverage <= 1.0, "{coverage}");
        assert_eq!(tr.durations("probe").len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.enter(ROOT, 0);
        assert_eq!(tr.span("a", 0, || 7), 7);
        tr.exit();
        assert!(tr.spans().is_empty());
    }
}
