//! Span recording for the traced run.
//!
//! The benchmark records its own spans (name, start, end, parent, request
//! id) around every public call it makes, and attaches a `BufferedSink`
//! through the program's existing `Obs` hooks. [`Recorder::finish`] drains
//! the program's stage spans and folds each one under the innermost span
//! that contains it on its track — or, for spans recorded on serve-worker
//! tracks, under the benchmark span that contains it in time. Everything
//! stays in memory until the run ends.

use crate::alloc;
use ctg_obs::{BufferedSink, EventKind, Obs, Stage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Track numbering. Serve workers record on tracks `0..workers`; the
/// benchmark keeps its own tracks clear of them.
pub struct Tracks;

impl Tracks {
    /// The benchmark's span around `Runner::serve`.
    pub const SERVE: u32 = 1_000_000;
    /// Clock calibration instant.
    const CALIBRATE: u32 = 1_000_001;

    /// The track of device `d`: its manager's telemetry and the
    /// benchmark's spans around its calls share it.
    pub fn device(d: usize) -> u32 {
        1000 + d as u32
    }
}

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Benchmark span name or program stage name.
    pub name: &'static str,
    /// Recording track.
    pub track: u32,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id: a device instance (its simulate and its observe, with
    /// any decision it triggers) or the whole serve call.
    pub req: u64,
    /// Allocations made on any thread while the span was open (benchmark
    /// spans only).
    pub allocs: u64,
    /// Whether the program, not the benchmark, recorded the span.
    pub program: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// Records benchmark spans and owns the program's telemetry sink.
pub struct Recorder {
    epoch: Instant,
    obs: Obs,
    sink: Arc<BufferedSink>,
    calibrated_at: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with a fresh sink, its clock calibrated against the
    /// sink's epoch.
    pub fn new() -> Self {
        let sink = Arc::new(BufferedSink::new(16));
        let epoch = Instant::now();
        let obs = Obs::with_sink(sink.clone());
        let calibrated_at = epoch.elapsed().as_nanos() as u64;
        obs.instant(Tracks::CALIBRATE, Stage::Run, 0);
        Recorder {
            epoch,
            obs,
            sink,
            calibrated_at,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The telemetry handle to attach to managers and serve configs.
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, track: u32, req: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            track,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            req,
            allocs: alloc::allocations(),
            program: false,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        span.allocs = alloc::allocations() - span.allocs;
        debug_assert_eq!(self.stack.last(), Some(&id));
        self.stack.pop();
    }

    /// Drains the program's spans and folds them under the benchmark's.
    pub fn finish(self) -> Trace {
        let events = self.sink.drain_sorted();
        // The sink's epoch is a few ns after ours: measure the offset.
        let offset = events
            .iter()
            .find(|e| e.track == Tracks::CALIBRATE)
            .map_or(0, |e| self.calibrated_at.saturating_sub(e.ts_ns));
        let mut spans = self.spans;
        let bench = spans.len();
        spans.extend(
            events
                .iter()
                .filter(|e| e.kind == EventKind::Span && e.track != Tracks::CALIBRATE)
                .map(|e| Span {
                    name: e.stage.name(),
                    track: e.track,
                    start: e.ts_ns + offset,
                    end: e.ts_ns + offset + e.dur_ns,
                    parent: None,
                    req: 0,
                    allocs: 0,
                    program: true,
                }),
        );
        fold(&mut spans, bench);
        Trace::new(spans)
    }
}

/// Assigns parents to the program spans (indices `bench..`) by track and
/// time containment, then propagates request ids down.
fn fold(spans: &mut [Span], bench: usize) {
    let mut by_track: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_track.entry(s.track).or_default().push(i);
    }
    for idx in by_track.values_mut() {
        idx.sort_by_key(|&i| {
            let s = &spans[i];
            (s.start, std::cmp::Reverse(s.end), s.program)
        });
        let mut stack: Vec<usize> = Vec::new();
        for &i in idx.iter() {
            while let Some(&top) = stack.last() {
                if spans[top].contains(&spans[i]) {
                    break;
                }
                stack.pop();
            }
            if i >= bench {
                spans[i].parent = stack.last().copied();
            }
            stack.push(i);
        }
    }
    // Program spans with no container on their own track (serve workers)
    // go under the benchmark root span that contains them in time. The
    // benchmark runs on one thread, so its root spans follow each other
    // without overlap, in start order: only the last root starting before
    // a span can contain it.
    let roots: Vec<usize> = (0..bench).filter(|&i| spans[i].parent.is_none()).collect();
    for i in bench..spans.len() {
        if spans[i].parent.is_none() {
            let before = roots.partition_point(|&r| spans[r].start <= spans[i].start);
            spans[i].parent = before
                .checked_sub(1)
                .map(|k| roots[k])
                .filter(|&r| spans[r].contains(&spans[i]));
        }
    }
    // Parents start no later than their children, so one pass in start
    // order sees every parent's request id before its children.
    let mut order: Vec<usize> = (bench..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].start);
    for i in order {
        if let Some(p) = spans[i].parent {
            spans[i].req = spans[p].req;
        }
    }
}

/// The folded spans of one traced round.
pub struct Trace {
    /// Benchmark spans first (in open order), then program spans.
    pub spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl Trace {
    fn new(spans: Vec<Span>) -> Self {
        // Self time = duration minus what the children cover. Children on
        // one track never overlap; a span with children on several tracks
        // (the serve call, whose workers run in parallel) is charged once
        // per child track, so its self time is worker time outside any
        // child span.
        let mut covered: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                *covered[p].entry(s.track).or_default() += s.dur();
            }
        }
        let self_ns = spans
            .iter()
            .zip(&covered)
            .map(|(s, cov)| {
                if cov.is_empty() {
                    s.dur()
                } else {
                    cov.values().map(|&c| s.dur().saturating_sub(c)).sum()
                }
            })
            .collect();
        Trace { spans, self_ns }
    }

    /// Self time of span `i` in nanoseconds.
    pub fn self_ns(&self, i: usize) -> u64 {
        self.self_ns[i]
    }

    /// Program spans no benchmark span contains (should be 0).
    pub fn orphans(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.program && s.parent.is_none())
            .count()
    }

    /// Indices of the spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// The spans as tab-separated lines under a header: id, name, track,
    /// start and end (ns), parent id (-1 for none), request id, self time
    /// (ns), allocations, and whether the program recorded the span.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "id\tname\ttrack\tstart_ns\tend_ns\tparent\treq\tself_ns\tallocs\tprogram\n",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.name,
                s.track,
                s.start,
                s.end,
                s.req,
                self.self_ns[i],
                s.allocs,
                u8::from(s.program)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, track: u32, start: u64, end: u64, program: bool) -> Span {
        Span {
            name,
            track,
            start,
            end,
            parent: None,
            req: if program { 0 } else { 7 },
            allocs: 0,
            program,
        }
    }

    #[test]
    fn program_spans_fold_by_track_then_time() {
        let mut spans = vec![
            span("core.adaptive", 1000, 0, 100, false),
            span("sim.serve", Tracks::SERVE, 200, 400, false),
            span("solve", 1000, 10, 90, true),
            span("stretch", 1000, 50, 80, true),
            span("dequeue", 0, 210, 300, true),
            span("dequeue", 1, 220, 390, true),
        ];
        fold(&mut spans, 2);
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, Some(1));
        assert_eq!(spans[5].parent, Some(1));
        assert!(spans[2..].iter().all(|s| s.req == 7));
        let trace = Trace::new(spans);
        assert_eq!(trace.self_ns(0), 20);
        assert_eq!(trace.self_ns(2), 50);
        // Two worker tracks under a 200 ns serve call: 400 worker-ns,
        // 90 + 170 of them in dequeues.
        assert_eq!(trace.self_ns(1), 140);
        assert_eq!(trace.orphans(), 0);
    }
}
