//! Spans: the benchmark's own trace of calls into each layer.
//!
//! A span is recorded *by the benchmark*, around a call into a public
//! function of one simulator crate: name, start, end, the span that
//! was open when it started, and the id of the rep it belongs to
//! (0 = set-up). Spans live in memory and are written out once, when
//! the run ends. Nothing here reaches inside the simulator — the only
//! exception is [`Recorder::aggregate`], which files the totals of the
//! simulator's own public `TickProfile` under the run span that
//! produced them so that self-time arithmetic accounts for the run.
//!
//! Counts are recorded at the same boundaries: additive counters keyed
//! by metric name, read from a layer's public statistics right after
//! the call the span covers, collected per rep.
//!
//! A disabled recorder records nothing and reads no clock: timed
//! (untraced) runs use one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Additive counters of one traced rep, keyed by per-layer metric name
/// (plus a few `_`-prefixed partial sums that [`crate::run`] turns into
/// ratios).
pub type Counts = BTreeMap<String, f64>;

/// How a span's interval was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured: `start`/`end` are clock reads around one call.
    Call,
    /// Aggregated: a total accumulated over many short intervals
    /// inside the parent (a `TickProfile` phase), laid out end to end
    /// from the parent's start. Only its duration is meaningful.
    Aggregate,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in the recorder's list.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// Rep the span belongs to (0 = set-up, timed-order reps from 1).
    pub run: u64,
    /// Metric-style name, `<layer>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Measured or aggregated.
    pub kind: Kind,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory trace: spans, and the counters of the current rep.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Counts,
}

impl Recorder {
    /// A recorder; when `enabled` is false every method is a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Counts::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the rep id stamped on spans recorded from now on.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Runs `f` inside a span called `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name,
            start_ns,
            end_ns: start_ns,
            kind: Kind::Call,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Files an already-measured interval (the caller read the clock
    /// because it needs the duration whether or not tracing is on) as a
    /// child of the currently open span, and returns its id.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name,
            start_ns: self.ns_since_epoch(start),
            end_ns: self.ns_since_epoch(end),
            kind: Kind::Call,
        });
        Some(id)
    }

    /// Files accumulated totals (`name`, nanoseconds) as aggregate
    /// children of span `parent`, laid end to end from its start.
    pub fn aggregate(&mut self, parent: Option<usize>, parts: &[(&'static str, u64)]) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent].start_ns;
        for &(name, ns) in parts {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: Some(parent),
                run: self.spans[parent].run,
                name,
                start_ns: at,
                end_ns: at + ns,
                kind: Kind::Aggregate,
            });
            at += ns;
        }
    }

    /// Adds `v` to counter `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        if self.enabled {
            *self.counts.entry(key.to_string()).or_insert(0.0) += v;
        }
    }

    /// Raises counter `key` to at least `v` (for high-water marks).
    pub fn max(&mut self, key: &str, v: f64) {
        if self.enabled {
            let e = self.counts.entry(key.to_string()).or_insert(0.0);
            *e = e.max(v);
        }
    }

    /// Hands over the counters gathered since the last call.
    pub fn take_counts(&mut self) -> Counts {
        std::mem::take(&mut self.counts)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends the recording and hands over the spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        self.ns_since_epoch(Instant::now())
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (children are clipped to
/// the parent and overlapping children are counted once). Indexed like
/// `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total duration of the spans of rep `run` called `name`.
pub fn total_ns(spans: &[Span], run: u64, name: &str) -> u64 {
    spans.iter().filter(|s| s.run == run && s.name == name).map(Span::duration_ns).sum()
}

/// Total self time of the spans of rep `run` called `name`.
pub fn total_self_ns(spans: &[Span], run: u64, name: &str) -> u64 {
    let selfs = self_times(spans);
    spans.iter().filter(|s| s.run == run && s.name == name).map(|s| selfs[s.id]).sum()
}

/// The span dump: one tab-separated line per span, header first.
pub fn dump_tsv(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("id\tparent\trun\tname\tstart_ns\tend_ns\tself_ns\tkind\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let kind = match s.kind {
            Kind::Call => "call",
            Kind::Aggregate => "aggregate",
        };
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{kind}",
            s.id, s.run, s.name, s.start_ns, s.end_ns, selfs[s.id]
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, lo: u64, hi: u64) -> Span {
        Span { id, parent, run: 1, name, start_ns: lo, end_ns: hi, kind: Kind::Call }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let v = r.scope("a.b", |r| {
            r.record("c.d", Instant::now(), Instant::now());
            r.add("n", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(r.spans().is_empty() && r.take_counts().is_empty());
    }

    #[test]
    fn scopes_nest_and_carry_the_run_id() {
        let mut r = Recorder::new(true);
        r.set_run(3);
        r.scope("outer.x", |r| {
            r.scope("inner.y", |_| ());
            let t = Instant::now();
            let id = r.record("inner.z", t, t);
            r.aggregate(id, &[("phase.p", 5), ("phase.q", 7)]);
            r.add("n", 2.0);
            r.add("n", 3.0);
            r.max("hw", 4.0);
            r.max("hw", 1.0);
        });
        assert_eq!(r.take_counts(), Counts::from([("hw".into(), 4.0), ("n".into(), 5.0)]));
        assert!(r.take_counts().is_empty(), "counters are per rep");
        let s = r.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[3].parent, s[3].kind), (Some(2), Kind::Aggregate));
        assert_eq!(s[4].start_ns, s[3].end_ns);
        assert_eq!(s[4].duration_ns(), 7);
        assert!(s.iter().all(|s| s.run == 3));
        assert!(s[0].end_ns >= s[1].end_ns);
    }

    #[test]
    fn dump_has_one_line_per_span() {
        let spans = [span(0, None, "a.b", 0, 10), span(1, Some(0), "c.d", 2, 4)];
        let dump = dump_tsv(&spans);
        assert_eq!(dump.lines().count(), 3);
        assert!(dump.lines().nth(2).unwrap().starts_with("1\t0\t1\tc.d\t2\t4\t2\tcall"));
    }
}
