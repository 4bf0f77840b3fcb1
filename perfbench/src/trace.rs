//! In-memory spans for the traced run: run → round or step → layer call.
//!
//! The benchmark opens a `run` span around each driver call and a `step`
//! span around each simulator step. On the synchronous and net drivers the
//! rounds happen inside one call, so the [`Tracer`] also serves as an obs
//! recorder and opens a `round` span at every `RoundAdvanced` event. When
//! a round or step closes, the cipher calls made during it become child
//! spans, one per operation (`paillier.<op>`), carrying their call count
//! and busy time; the churn workload adds its `store.append` calls the
//! same way. Everything stays in memory until [`Tracer::write_jsonl`].

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use gridmine_obs::{Event, Recorder};

use crate::cipher::{OpStats, OpTotals, OP_NAMES};
use crate::report::json_str;

/// One closed span. Aggregate layer spans cover their parent's interval
/// and carry the count and summed busy time of the calls inside it.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

/// A span that has been opened and not yet closed.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    ops_before: OpTotals,
}

#[derive(Default)]
struct State {
    next_id: u64,
    spans: Vec<Span>,
    run: Option<OpenSpan>,
    round: Option<OpenSpan>,
}

pub struct Tracer {
    origin: Instant,
    ops: Arc<OpStats>,
    /// Open `round` spans on `RoundAdvanced` events (mining drivers only;
    /// the simulator workloads open their `step` spans themselves).
    rounds_from_events: bool,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(ops: Arc<OpStats>, rounds_from_events: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            ops,
            rounds_from_events,
            state: Mutex::default(),
        })
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("tracer lock poisoned: a traced call panicked")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&self, st: &mut State, name: &'static str, parent: Option<u64>) -> OpenSpan {
        st.next_id += 1;
        OpenSpan {
            id: st.next_id,
            parent,
            name,
            start_ns: self.now_ns(),
            ops_before: self.ops.totals(),
        }
    }

    /// Closes `span` and attaches one child per cipher operation called
    /// while it was open.
    fn close(&self, st: &mut State, span: OpenSpan) {
        let end_ns = self.now_ns();
        let delta = self.ops.totals().since(&span.ops_before);
        for (i, op) in OP_NAMES.iter().enumerate() {
            if delta.calls[i] > 0 {
                st.next_id += 1;
                let id = st.next_id;
                st.spans.push(Span {
                    id,
                    parent: Some(span.id),
                    name: format!("paillier.{op}"),
                    start_ns: span.start_ns,
                    end_ns,
                    calls: delta.calls[i],
                    busy_ns: delta.nanos[i],
                });
            }
        }
        st.spans.push(Span {
            id: span.id,
            parent: span.parent,
            name: span.name.to_string(),
            start_ns: span.start_ns,
            end_ns,
            calls: 1,
            busy_ns: end_ns - span.start_ns,
        });
    }

    /// Opens the `run` span of one driver call.
    pub fn begin_run(&self) {
        let mut st = self.state();
        let run = self.open(&mut st, "run", None);
        st.run = Some(run);
    }

    /// Closes the open round (if any) and the `run` span.
    pub fn end_run(&self) {
        let mut st = self.state();
        if let Some(round) = st.round.take() {
            self.close(&mut st, round);
        }
        if let Some(run) = st.run.take() {
            self.close(&mut st, run);
        }
    }

    /// Opens a `step` span under the current run.
    pub fn begin_step(&self) -> OpenSpan {
        let mut st = self.state();
        let parent = st.run.map(|r| r.id);
        self.open(&mut st, "step", parent)
    }

    /// Closes a `step` span.
    pub fn end_step(&self, step: OpenSpan) {
        let mut st = self.state();
        self.close(&mut st, step);
    }

    /// Records an aggregate layer span under `parent` (e.g. the
    /// `store.append` calls of one step).
    pub fn layer(&self, parent: &OpenSpan, name: &str, calls: u64, busy_ns: u64) {
        let end_ns = self.now_ns();
        let mut st = self.state();
        st.next_id += 1;
        let id = st.next_id;
        st.spans.push(Span {
            id,
            parent: Some(parent.id),
            name: name.to_string(),
            start_ns: parent.start_ns,
            end_ns,
            calls,
            busy_ns,
        });
    }

    /// Every closed span so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Writes every closed span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.state().spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}}}",
                s.id,
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                s.calls,
                s.busy_ns
            )?;
        }
        out.flush()
    }
}

impl Recorder for Tracer {
    fn record(&self, event: &Event) {
        if !self.rounds_from_events || !matches!(event, Event::RoundAdvanced { .. }) {
            return;
        }
        let mut st = self.state();
        if let Some(round) = st.round.take() {
            self.close(&mut st, round);
        }
        let parent = st.run.map(|r| r.id);
        let round = self.open(&mut st, "round", parent);
        st.round = Some(round);
    }
}
