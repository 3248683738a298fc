//! Building the call-loop graph from an execution trace (the paper's
//! ATOM profiling run).

use crate::error::{FrameLabel, ProfileError};
use crate::graph::{CallLoopGraph, EdgeId, NodeId, NodeKey};
use spm_sim::{TraceEvent, TraceObserver};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    ProcHead,
    ProcBody,
    LoopHead,
    LoopBody,
}

impl FrameKind {
    fn label(self) -> FrameLabel {
        match self {
            FrameKind::ProcHead => FrameLabel::ProcHead,
            FrameKind::ProcBody => FrameLabel::ProcBody,
            FrameKind::LoopHead => FrameLabel::LoopHead,
            FrameKind::LoopBody => FrameLabel::LoopBody,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    kind: FrameKind,
    from: NodeId,
    to: NodeId,
    /// The edge `from -> to` once it exists: set on a loop-body frame
    /// that continues the previous iteration's, so closing it needs no
    /// lookup.
    edge: Option<EdgeId>,
    start: u64,
}

// `IncrementalSelector::mem_estimate` charges 40 bytes per open frame.
const _: () = assert!(std::mem::size_of::<Frame>() <= 40);

/// Trace observer that constructs the [`CallLoopGraph`] of one execution.
///
/// Maintains a shadow stack of active procedure activations and loop
/// nests. Each activation/entry/iteration contributes one traversal of
/// the corresponding graph edge, annotated with the hierarchical
/// instruction count elapsed until the matching return/exit/next
/// iteration:
///
/// * `Call p` (from context `c`): traverses `c -> head(p)` and
///   `head(p) -> body(p)`, both closed at the matching `Return`;
/// * `LoopEnter l` (from context `c`): traverses `c -> head(l)`, closed
///   at `LoopExit`;
/// * `LoopIter l`: traverses `head(l) -> body(l)`, closed at the next
///   iteration or at `LoopExit`.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct CallLoopProfiler {
    graph: CallLoopGraph,
    stack: Vec<Frame>,
    /// Events seen so far (for error context).
    events: u64,
    /// First corruption observed. The [`TraceObserver`] interface has
    /// no error channel, so a corrupted event stream poisons the
    /// profiler: subsequent events are still consumed safely, and the
    /// error surfaces from [`into_graph`](Self::into_graph).
    fault: Option<ProfileError>,
    /// In lenient mode, structural damage is tolerated (counted in
    /// `tolerated`) instead of poisoning the profiler.
    lenient: bool,
    /// Mismatched closes dropped and frames left dangling (lenient
    /// mode only).
    tolerated: u64,
}

impl Default for CallLoopProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl CallLoopProfiler {
    /// Creates a profiler with an empty graph (root node only).
    pub fn new() -> Self {
        Self {
            graph: CallLoopGraph::new(),
            stack: Vec::new(),
            events: 0,
            fault: None,
            lenient: false,
            tolerated: 0,
        }
    }

    /// Creates a profiler that tolerates a structurally damaged event
    /// stream — e.g. one replayed from a store with skipped blocks,
    /// where close events may arrive without their opens (and vice
    /// versa). Mismatched closes are dropped and frames left open at
    /// the end are discarded, both counted in
    /// [`tolerated`](Self::tolerated) instead of poisoning the graph.
    pub fn lenient() -> Self {
        Self {
            lenient: true,
            ..Self::new()
        }
    }

    /// Structural mismatches tolerated so far (always 0 in strict
    /// mode, which poisons instead).
    pub fn tolerated(&self) -> u64 {
        self.tolerated
    }

    /// Frames currently open on the shadow stack. Mid-run this is the
    /// live nesting depth; at end-of-trace a nonzero value means closes
    /// were lost (lenient mode discards these frames in
    /// [`into_graph`](Self::into_graph), strict mode errors). Exposed so
    /// long-running sessions can report per-session degradation while
    /// the profiler is still live, not only at end-of-trace.
    pub fn dangling_frames(&self) -> usize {
        self.stack.len()
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Finishes profiling and returns the graph.
    ///
    /// # Errors
    ///
    /// Returns a [`ProfileError`] if the event stream was corrupted —
    /// a close event that did not match the innermost open frame
    /// (first corruption wins), or frames left open at the end of the
    /// trace. A complete engine run never produces either.
    pub fn into_graph(mut self) -> Result<CallLoopGraph, ProfileError> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        if !self.stack.is_empty() {
            if !self.lenient {
                return Err(ProfileError::UnbalancedStack {
                    depth: self.stack.len(),
                    at_event: self.events.saturating_sub(1),
                });
            }
            // Lenient: frames still open at end-of-trace (their closes
            // were lost) are discarded without recording traversals.
            self.tolerated += self.stack.len() as u64;
            self.stack.clear();
        }
        if self.tolerated > 0 && spm_obs::enabled() {
            spm_obs::counter("graph/tolerated_events", self.tolerated);
        }
        if spm_obs::enabled() {
            let graph = &self.graph;
            spm_obs::counter("graph/nodes", graph.nodes().len() as u64);
            spm_obs::counter_with(
                "graph/edges",
                graph.edges().len() as u64,
                &[("profile_events", self.events.into())],
            );
            let mut out_degree = spm_stats::LogHistogram::new();
            for node in graph.nodes() {
                out_degree.record(graph.out_edges(node.id).len() as u64);
            }
            spm_obs::histogram("graph/out_degree", &out_degree);
        }
        Ok(self.graph)
    }

    /// The first corruption observed, if any (available mid-run).
    pub fn fault(&self) -> Option<ProfileError> {
        self.fault
    }

    /// The graph built so far (useful mid-run in tests).
    pub fn graph(&self) -> &CallLoopGraph {
        &self.graph
    }

    fn context(&self) -> NodeId {
        self.stack.last().map_or(self.graph.root(), |f| f.to)
    }

    fn push(&mut self, kind: FrameKind, from: NodeId, to: NodeId, start: u64) {
        self.stack.push(Frame {
            kind,
            from,
            to,
            edge: None,
            start,
        });
    }

    /// Closes the innermost frame, which must be of `kind`, and returns
    /// it with its edge set (the edge is created on its first close).
    /// On mismatch records the corruption (keeping the frame intact so
    /// later events keep some context) and returns `None` without
    /// recording a traversal.
    fn pop(&mut self, kind: FrameKind, icount: u64) -> Option<Frame> {
        match self.stack.last() {
            Some(frame) if frame.kind == kind => {
                let mut frame = *frame;
                self.stack.pop();
                let edge = match frame.edge {
                    Some(edge) => edge,
                    None => self.graph.intern_edge(frame.from, frame.to),
                };
                self.graph
                    .record_on(edge, icount.saturating_sub(frame.start));
                frame.edge = Some(edge);
                Some(frame)
            }
            found => {
                if self.lenient {
                    // The matching open was lost (skipped block):
                    // drop the close, keep the stack as-is.
                    self.tolerated += 1;
                    return None;
                }
                let found = found.map(|f| f.kind.label());
                self.poison(ProfileError::MismatchedFrame {
                    closing: kind.label(),
                    found,
                    at_event: self.events.saturating_sub(1),
                });
                None
            }
        }
    }

    fn poison(&mut self, error: ProfileError) {
        if self.fault.is_none() {
            self.fault = Some(error);
        }
    }
}

impl TraceObserver for CallLoopProfiler {
    fn on_event(&mut self, icount: u64, event: &TraceEvent) {
        self.events += 1;
        match *event {
            TraceEvent::Call { proc } => {
                let ctx = self.context();
                let head = self.graph.intern(NodeKey::ProcHead(proc));
                let body = self.graph.intern(NodeKey::ProcBody(proc));
                self.push(FrameKind::ProcHead, ctx, head, icount);
                self.push(FrameKind::ProcBody, head, body, icount);
            }
            TraceEvent::Return { .. } => {
                self.pop(FrameKind::ProcBody, icount);
                self.pop(FrameKind::ProcHead, icount);
            }
            TraceEvent::LoopEnter { loop_id } => {
                let ctx = self.context();
                let head = self.graph.intern(NodeKey::LoopHead(loop_id));
                self.push(FrameKind::LoopHead, ctx, head, icount);
            }
            TraceEvent::LoopIter { loop_id } => {
                let closed = if self
                    .stack
                    .last()
                    .is_some_and(|f| f.kind == FrameKind::LoopBody)
                {
                    self.pop(FrameKind::LoopBody, icount)
                } else {
                    None
                };
                match closed {
                    // The previous iteration of this loop: the next one
                    // traverses the same `head -> body` edge.
                    Some(frame) if self.graph.node(frame.to).key == NodeKey::LoopBody(loop_id) => {
                        self.stack.push(Frame {
                            start: icount,
                            ..frame
                        });
                    }
                    _ => {
                        let head = self.graph.intern(NodeKey::LoopHead(loop_id));
                        let body = self.graph.intern(NodeKey::LoopBody(loop_id));
                        self.push(FrameKind::LoopBody, head, body, icount);
                    }
                }
            }
            TraceEvent::LoopExit { .. } => {
                if self
                    .stack
                    .last()
                    .is_some_and(|f| f.kind == FrameKind::LoopBody)
                {
                    self.pop(FrameKind::LoopBody, icount);
                }
                self.pop(FrameKind::LoopHead, icount);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_ir::{Input, LoopId, ProcId, Program, ProgramBuilder, Trip};
    use spm_sim::run;

    fn profile(program: &Program, input: &Input) -> CallLoopGraph {
        let mut profiler = CallLoopProfiler::new();
        run(program, input, &mut [&mut profiler]).unwrap();
        profiler.into_graph().unwrap()
    }

    /// The paper's Figure 1/2 structure: foo with a loop calling X or Y,
    /// then X after the loop; X calls Z.
    fn figure1_program() -> Program {
        let mut b = ProgramBuilder::new("fig1");
        b.proc("main", |p| {
            p.call("foo");
        });
        b.proc("foo", |p| {
            p.loop_(Trip::Fixed(50), |body| {
                body.if_prob(0.7, |t| t.call("x"), |e| e.call("y"));
            });
            p.call("x");
        });
        b.proc("x", |p| {
            p.block(30).done();
            p.call("z");
        });
        b.proc("y", |p| {
            p.block(70).done();
        });
        b.proc("z", |p| {
            p.block(50).done();
        });
        b.build("main").unwrap()
    }

    #[test]
    fn figure1_graph_shape() {
        let program = figure1_program();
        let graph = profile(&program, &Input::new("t", 42));
        let id = |name: &str| program.proc_by_name(name).unwrap().id;

        let foo_body = graph.node_by_key(NodeKey::ProcBody(id("foo"))).unwrap();
        let loop_head = graph.node_by_key(NodeKey::LoopHead(LoopId(0))).unwrap();
        let loop_body = graph.node_by_key(NodeKey::LoopBody(LoopId(0))).unwrap();
        let x_head = graph.node_by_key(NodeKey::ProcHead(id("x"))).unwrap();
        let x_body = graph.node_by_key(NodeKey::ProcBody(id("x"))).unwrap();
        let z_head = graph.node_by_key(NodeKey::ProcHead(id("z"))).unwrap();

        // foo body -> loop head: entered once.
        let e = graph.edge_between(foo_body, loop_head).unwrap();
        assert_eq!(e.count(), 1);

        // loop head -> loop body: 50 iterations.
        let e = graph.edge_between(loop_head, loop_body).unwrap();
        assert_eq!(e.count(), 50);

        // Calls to x come from both the loop body and foo's body.
        let from_loop = graph.edge_between(loop_body, x_head).unwrap();
        let from_foo = graph.edge_between(foo_body, x_head).unwrap();
        assert_eq!(from_foo.count(), 1);
        assert!(from_loop.count() > 10);

        // x body -> z head aggregates all x activations.
        let e = graph.edge_between(x_body, z_head).unwrap();
        assert_eq!(e.count(), from_loop.count() + from_foo.count());
    }

    #[test]
    fn hierarchical_counts_include_callees() {
        // main calls f once; f runs a block then calls g (block of 100).
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| p.call("f"));
        b.proc("f", |p| {
            p.block(10).done();
            p.call("g");
        });
        b.proc("g", |p| p.block(100).done());
        let program = b.build("main").unwrap();
        let graph = profile(&program, &Input::new("t", 1));
        let id = |name: &str| program.proc_by_name(name).unwrap().id;

        let root = graph.root();
        let f_head = graph.node_by_key(NodeKey::ProcHead(id("f"))).unwrap();
        let e = graph.edge_between(root, f_head).unwrap();
        assert_eq!(e.avg(), 110.0, "call edge must count callee instructions");

        let f_body = graph.node_by_key(NodeKey::ProcBody(id("f"))).unwrap();
        let g_head = graph.node_by_key(NodeKey::ProcHead(id("g"))).unwrap();
        let e = graph.edge_between(f_body, g_head).unwrap();
        assert_eq!(e.avg(), 100.0);
    }

    #[test]
    fn loop_head_vs_body_counts() {
        // Loop entered 4 times with 10 iterations of a 7-instruction block.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(4), |outer| {
                outer.loop_(Trip::Fixed(10), |inner| {
                    inner.block(7).done();
                });
            });
        });
        let program = b.build("main").unwrap();
        let graph = profile(&program, &Input::new("t", 1));

        let outer_body = graph.node_by_key(NodeKey::LoopBody(LoopId(0))).unwrap();
        let inner_head = graph.node_by_key(NodeKey::LoopHead(LoopId(1))).unwrap();
        let inner_body = graph.node_by_key(NodeKey::LoopBody(LoopId(1))).unwrap();

        let entry = graph.edge_between(outer_body, inner_head).unwrap();
        assert_eq!(entry.count(), 4);
        assert_eq!(entry.avg(), 70.0, "entry-to-exit counts the whole nest");
        assert_eq!(entry.cov(), 0.0, "perfectly regular loop");

        let iter = graph.edge_between(inner_head, inner_body).unwrap();
        assert_eq!(iter.count(), 40);
        assert_eq!(iter.avg(), 7.0, "per-iteration count");
    }

    #[test]
    fn recursion_distinguishes_head_and_body() {
        // A procedure that recurses a fixed number of times via a
        // periodic branch would be complex; instead use direct recursion
        // guarded by probability 1 until the depth limit truncates it.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| p.call("rec"));
        b.proc("rec", |p| {
            p.block(10).done();
            p.if_periodic(4, 1, |_| {}, |e| e.call("rec"));
        });
        let program = b.build("main").unwrap();
        let graph = profile(&program, &Input::new("t", 1));
        let rec = program.proc_by_name("rec").unwrap().id;

        let head = graph.node_by_key(NodeKey::ProcHead(rec)).unwrap();
        let body = graph.node_by_key(NodeKey::ProcBody(rec)).unwrap();
        // The recursive call edge body -> head exists.
        let rec_edge = graph.edge_between(body, head).unwrap();
        assert!(rec_edge.count() >= 1);
        // head -> body aggregates every activation (outer + recursive).
        let hb = graph.edge_between(head, body).unwrap();
        let root_edge = graph.edge_between(graph.root(), head).unwrap();
        assert_eq!(hb.count(), root_edge.count() + rec_edge.count());
        // The outermost activation contains the recursive ones.
        assert!(root_edge.avg() > rec_edge.avg());
    }

    #[test]
    fn zero_trip_loops_record_zero_length_entry() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(0), |body| {
                body.block(1).done();
            });
            p.block(5).done();
        });
        let program = b.build("main").unwrap();
        let graph = profile(&program, &Input::new("t", 1));
        let head = graph.node_by_key(NodeKey::LoopHead(LoopId(0))).unwrap();
        let e = graph.edge_between(graph.root(), head).unwrap();
        assert_eq!(e.count(), 1);
        assert_eq!(e.avg(), 0.0);
        assert!(graph.node_by_key(NodeKey::LoopBody(LoopId(0))).is_none());
    }

    #[test]
    fn variable_work_shows_up_as_cov() {
        // A loop whose per-iteration work alternates between 10 and 1000
        // instructions has high body CoV, but entry-to-exit is stable.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(10), |outer| {
                outer.loop_(Trip::Fixed(20), |inner| {
                    inner.if_periodic(2, 0, |t| t.block(1000).done(), |e| e.block(10).done());
                });
            });
        });
        let program = b.build("main").unwrap();
        let graph = profile(&program, &Input::new("t", 1));
        let inner_head = graph.node_by_key(NodeKey::LoopHead(LoopId(1))).unwrap();
        let inner_body = graph.node_by_key(NodeKey::LoopBody(LoopId(1))).unwrap();
        let outer_body = graph.node_by_key(NodeKey::LoopBody(LoopId(0))).unwrap();

        let iter = graph.edge_between(inner_head, inner_body).unwrap();
        assert!(
            iter.cov() > 0.5,
            "alternating work must show high CoV, got {}",
            iter.cov()
        );

        let entry = graph.edge_between(outer_body, inner_head).unwrap();
        assert_eq!(entry.cov(), 0.0, "entry-to-exit totals are identical");
    }

    #[test]
    fn unbalanced_trace_is_a_typed_error() {
        let mut profiler = CallLoopProfiler::new();
        profiler.on_event(0, &TraceEvent::Call { proc: ProcId(0) });
        // A call opens two frames (head + body), both left open.
        assert_eq!(
            profiler.into_graph().unwrap_err(),
            ProfileError::UnbalancedStack {
                depth: 2,
                at_event: 0
            }
        );
    }

    #[test]
    fn spurious_return_is_a_typed_error() {
        let mut profiler = CallLoopProfiler::new();
        profiler.on_event(0, &TraceEvent::Return { proc: ProcId(0) });
        let err = profiler.into_graph().unwrap_err();
        assert!(
            matches!(
                err,
                ProfileError::MismatchedFrame {
                    found: None,
                    at_event: 0,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn mismatched_close_is_a_typed_error_not_a_panic() {
        // A Return arriving while a loop iteration is the innermost
        // frame: the stream is corrupted (dropped LoopExit).
        let mut profiler = CallLoopProfiler::new();
        profiler.on_event(0, &TraceEvent::Call { proc: ProcId(0) });
        profiler.on_event(5, &TraceEvent::LoopEnter { loop_id: LoopId(0) });
        profiler.on_event(5, &TraceEvent::LoopIter { loop_id: LoopId(0) });
        profiler.on_event(9, &TraceEvent::Return { proc: ProcId(0) });
        let err = profiler.into_graph().unwrap_err();
        assert!(
            matches!(
                err,
                ProfileError::MismatchedFrame {
                    closing: crate::error::FrameLabel::ProcBody,
                    found: Some(crate::error::FrameLabel::LoopBody),
                    at_event: 3,
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn lenient_mode_tolerates_lost_opens_and_closes() {
        // Simulates a replay that lost a block: the Return for an
        // unseen Call arrives first (lost open), and a Call's Return is
        // never seen (lost close).
        let mut profiler = CallLoopProfiler::lenient();
        profiler.on_event(3, &TraceEvent::Return { proc: ProcId(7) });
        profiler.on_event(4, &TraceEvent::Call { proc: ProcId(0) });
        profiler.on_event(9, &TraceEvent::Return { proc: ProcId(0) });
        profiler.on_event(10, &TraceEvent::Call { proc: ProcId(1) });
        assert!(profiler.fault().is_none(), "lenient mode never poisons");
        // Dropped: body+head closes for the spurious Return (counted
        // once), plus the two frames ProcId(1) left open.
        let graph = profiler.into_graph().unwrap();
        // The completed call recorded its traversals.
        let head = graph.node_by_key(NodeKey::ProcHead(ProcId(0))).unwrap();
        let e = graph.edge_between(graph.root(), head).unwrap();
        assert_eq!(e.count(), 1);
        assert_eq!(e.avg(), 5.0);
    }

    #[test]
    fn lenient_mode_matches_strict_on_clean_traces() {
        let program = figure1_program();
        let input = Input::new("t", 42);
        let mut strict = CallLoopProfiler::new();
        let mut lenient = CallLoopProfiler::lenient();
        run(&program, &input, &mut [&mut strict]).unwrap();
        run(&program, &input, &mut [&mut lenient]).unwrap();
        assert_eq!(lenient.tolerated(), 0);
        let strict = strict.into_graph().unwrap();
        let lenient = lenient.into_graph().unwrap();
        assert_eq!(strict.nodes().len(), lenient.nodes().len());
        assert_eq!(strict.edges().len(), lenient.edges().len());
    }

    #[test]
    fn first_corruption_wins_and_poisons() {
        let mut profiler = CallLoopProfiler::new();
        profiler.on_event(0, &TraceEvent::Return { proc: ProcId(0) });
        let first = profiler.fault().unwrap();
        profiler.on_event(1, &TraceEvent::LoopExit { loop_id: LoopId(9) });
        assert_eq!(
            profiler.fault(),
            Some(first),
            "later faults do not overwrite"
        );
        assert_eq!(profiler.into_graph().unwrap_err(), first);
    }
}
