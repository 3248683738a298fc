//! Exactness oracle for the observer hot path.
//!
//! [`CallLoopProfiler`] and [`MarkerRuntime`] reuse a loop's edge and
//! markers from one iteration to the next instead of looking them up per
//! event. The reference observers below keep the lookup-per-event bodies
//! (the profiler's verbatim; the runtime's without the loop-context
//! `debug_assert`, i.e. its release-build behaviour), and the properties
//! check that both produce bit-identical results on clean engine traces
//! and on damaged streams.

use crate::error::{FrameLabel, ProfileError};
use crate::graph::{CallLoopGraph, NodeId, NodeKey};
use crate::marker::{Marker, MarkerFiring, MarkerRuntime, MarkerSet};
use crate::profile::CallLoopProfiler;
use proptest::prelude::*;
use spm_ir::{estimate_work, Input, LoopId, Program, ProgramBuilder, Trip};
use spm_sim::{run, SplitMix64, TraceEvent, TraceObserver};

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
    start: u64,
}

/// The call-loop profiler with every node and edge looked up per event.
struct ReferenceProfiler {
    graph: CallLoopGraph,
    stack: Vec<Frame>,
    events: u64,
    fault: Option<ProfileError>,
    lenient: bool,
    tolerated: u64,
}

impl ReferenceProfiler {
    fn new(lenient: bool) -> Self {
        Self {
            graph: CallLoopGraph::new(),
            stack: Vec::new(),
            events: 0,
            fault: None,
            lenient,
            tolerated: 0,
        }
    }

    fn into_graph(self) -> Result<CallLoopGraph, ProfileError> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        if !self.stack.is_empty() && !self.lenient {
            return Err(ProfileError::UnbalancedStack {
                depth: self.stack.len(),
                at_event: self.events.saturating_sub(1),
            });
        }
        Ok(self.graph)
    }

    fn context(&self) -> NodeId {
        self.stack.last().map_or(self.graph.root(), |f| f.to)
    }

    fn push(&mut self, kind: FrameKind, from: NodeId, to: NodeId, start: u64) {
        self.stack.push(Frame {
            kind,
            from,
            to,
            start,
        });
    }

    fn pop(&mut self, kind: FrameKind, icount: u64) {
        match self.stack.last() {
            Some(frame) if frame.kind == kind => {
                let frame = *frame;
                self.stack.pop();
                self.graph.record_traversal(
                    frame.from,
                    frame.to,
                    icount.saturating_sub(frame.start),
                );
            }
            found => {
                if self.lenient {
                    // The matching open was lost (skipped block):
                    // drop the close, keep the stack as-is.
                    self.tolerated += 1;
                    return;
                }
                let found = found.map(|f| f.kind.label());
                self.poison(ProfileError::MismatchedFrame {
                    closing: kind.label(),
                    found,
                    at_event: self.events.saturating_sub(1),
                });
            }
        }
    }

    fn poison(&mut self, error: ProfileError) {
        if self.fault.is_none() {
            self.fault = Some(error);
        }
    }
}

impl TraceObserver for ReferenceProfiler {
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
                if self
                    .stack
                    .last()
                    .is_some_and(|f| f.kind == FrameKind::LoopBody)
                {
                    self.pop(FrameKind::LoopBody, icount);
                }
                let head = self.graph.intern(NodeKey::LoopHead(loop_id));
                let body = self.graph.intern(NodeKey::LoopBody(loop_id));
                self.push(FrameKind::LoopBody, head, body, icount);
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

#[derive(Debug, Clone)]
enum ContextFrame {
    Proc(spm_ir::ProcId),
    Loop {
        id: LoopId,
        in_iteration: bool,
        iters: u64,
    },
}

/// The marker runtime with every marker looked up per event.
struct ReferenceRuntime<'m> {
    markers: &'m MarkerSet,
    stack: Vec<ContextFrame>,
    firings: Vec<MarkerFiring>,
}

impl<'m> ReferenceRuntime<'m> {
    fn new(markers: &'m MarkerSet) -> Self {
        Self {
            markers,
            stack: Vec::new(),
            firings: Vec::new(),
        }
    }

    fn context(&self) -> NodeKey {
        match self.stack.last() {
            None => NodeKey::Root,
            Some(ContextFrame::Proc(p)) => NodeKey::ProcBody(*p),
            Some(ContextFrame::Loop {
                id,
                in_iteration: true,
                ..
            }) => NodeKey::LoopBody(*id),
            Some(ContextFrame::Loop {
                id,
                in_iteration: false,
                ..
            }) => NodeKey::LoopHead(*id),
        }
    }

    fn check_edge(&mut self, icount: u64, from: NodeKey, to: NodeKey) {
        if let Some(id) = self.markers.edge_marker(from, to) {
            self.firings.push(MarkerFiring { icount, marker: id });
        }
    }
}

impl TraceObserver for ReferenceRuntime<'_> {
    fn on_event(&mut self, icount: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::Call { proc } => {
                let ctx = self.context();
                self.check_edge(icount, ctx, NodeKey::ProcHead(proc));
                self.check_edge(icount, NodeKey::ProcHead(proc), NodeKey::ProcBody(proc));
                self.stack.push(ContextFrame::Proc(proc));
            }
            TraceEvent::Return { .. } => {
                self.stack.pop();
            }
            TraceEvent::LoopEnter { loop_id } => {
                let ctx = self.context();
                self.check_edge(icount, ctx, NodeKey::LoopHead(loop_id));
                self.stack.push(ContextFrame::Loop {
                    id: loop_id,
                    in_iteration: false,
                    iters: 0,
                });
            }
            TraceEvent::LoopIter { loop_id } => {
                self.check_edge(
                    icount,
                    NodeKey::LoopHead(loop_id),
                    NodeKey::LoopBody(loop_id),
                );
                let group = self.markers.group_marker(loop_id);
                if let Some(ContextFrame::Loop {
                    in_iteration,
                    iters,
                    ..
                }) = self.stack.last_mut()
                {
                    if let Some((g, marker)) = group {
                        if *iters % g.max(1) == 0 {
                            self.firings.push(MarkerFiring { icount, marker });
                        }
                    }
                    *in_iteration = true;
                    *iters += 1;
                }
            }
            TraceEvent::LoopExit { .. } => {
                self.stack.pop();
            }
            _ => {}
        }
    }
}

/// A random program: up to three procedures (calls go forward, plus
/// self-recursion behind a biased coin), loops nested up to three deep
/// with fixed and random trip counts up to 8, and branches.
fn random_program(seed: u64) -> Program {
    fn stmts(
        b: &mut spm_ir::BodyBuilder<'_>,
        rng: &mut SplitMix64,
        depth: u32,
        proc_idx: usize,
        nprocs: usize,
    ) {
        let top = depth == 3;
        for i in 0..1 + rng.below(3) {
            // Every procedure opens with a loop.
            let kind = match (top, i, depth) {
                (true, 0, _) => 2,
                (_, _, 0) => rng.below(2),
                _ => rng.below(6),
            };
            match kind {
                0 => b.block(1 + rng.below(40) as u32).done(),
                1 => {
                    let target = proc_idx + rng.below(3) as usize;
                    // Recursion only outside loops and branches, so an
                    // activation expects fewer than one recursive call.
                    if target == proc_idx && top {
                        b.if_prob(0.3, |t| t.call(&format!("p{target}")), |_| {});
                    } else if target > proc_idx && target < nprocs {
                        b.call(&format!("p{target}"));
                    } else {
                        b.block(1).done();
                    }
                }
                2..=4 => {
                    let trip = match rng.below(3) {
                        0 => Trip::Fixed(rng.below(9)),
                        1 => Trip::Uniform {
                            lo: 0,
                            hi: rng.below(9),
                        },
                        _ => Trip::Fixed(1),
                    };
                    let mut inner = SplitMix64::new(rng.next_u64());
                    b.loop_(trip, |l| stmts(l, &mut inner, depth - 1, proc_idx, nprocs));
                }
                _ => {
                    let mut then_rng = SplitMix64::new(rng.next_u64());
                    let mut else_rng = SplitMix64::new(rng.next_u64());
                    b.if_prob(
                        0.5,
                        |t| stmts(t, &mut then_rng, depth - 1, proc_idx, nprocs),
                        |e| stmts(e, &mut else_rng, depth - 1, proc_idx, nprocs),
                    );
                }
            }
        }
    }

    let mut rng = SplitMix64::new(seed);
    let nprocs = 1 + rng.below(3) as usize;
    let mut b = ProgramBuilder::new("oracle");
    for i in 0..nprocs {
        let mut body_rng = SplitMix64::new(rng.next_u64());
        b.proc(&format!("p{i}"), |p| {
            stmts(p, &mut body_rng, 3, i, nprocs);
        });
    }
    b.build("p0").expect("generated programs are well-formed")
}

/// The events of one engine run.
fn engine_tape(program: &Program, seed: u64) -> Vec<(u64, TraceEvent)> {
    let mut tape = Vec::new();
    run(program, &Input::new("t", seed), &mut [&mut tape]).expect("small regions");
    tape
}

/// Whether one engine run stays small: nested loops multiply, so a few
/// generated programs run far longer than the rest and are skipped. The
/// static estimate keeps the counting run itself short.
fn small_enough(program: &Program, seed: u64) -> bool {
    let input = Input::new("t", seed);
    let work = estimate_work(program, &input);
    if work.instrs + work.calls > 1e6 {
        return false;
    }
    let mut events = 0u64;
    let mut count = |_: u64, _: &TraceEvent| events += 1;
    run(program, &input, &mut [&mut count]).expect("small regions");
    events <= 200_000
}

/// `tape` with about one control-flow event in `1 / rate` dropped,
/// duplicated, or given another loop id (one of `loops` ids, or one past
/// them).
fn damage(tape: &[(u64, TraceEvent)], loops: u32, seed: u64, rate: u64) -> Vec<(u64, TraceEvent)> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(tape.len());
    for &(icount, event) in tape {
        let control = matches!(
            event,
            TraceEvent::Call { .. }
                | TraceEvent::Return { .. }
                | TraceEvent::LoopEnter { .. }
                | TraceEvent::LoopIter { .. }
                | TraceEvent::LoopExit { .. }
        );
        if !control || rng.below(rate) != 0 {
            out.push((icount, event));
            continue;
        }
        let other = LoopId(rng.below(u64::from(loops) + 1) as u32);
        match (rng.below(3), event) {
            (0, _) => {}
            (1, _) => {
                out.push((icount, event));
                out.push((icount, event));
            }
            (_, TraceEvent::LoopEnter { .. }) => {
                out.push((icount, TraceEvent::LoopEnter { loop_id: other }))
            }
            (_, TraceEvent::LoopIter { .. }) => {
                out.push((icount, TraceEvent::LoopIter { loop_id: other }))
            }
            (_, TraceEvent::LoopExit { .. }) => {
                out.push((icount, TraceEvent::LoopExit { loop_id: other }))
            }
            (_, event) => out.push((icount, event)),
        }
    }
    out
}

/// A marker set over the edges of `graph` (about half of them) plus
/// merged-iteration markers (group sizes 0..4) on about half the loops.
fn random_markers(graph: &CallLoopGraph, loops: u32, seed: u64) -> MarkerSet {
    let mut rng = SplitMix64::new(seed);
    let mut set = MarkerSet::new();
    for edge in graph.edges() {
        if rng.below(2) == 0 {
            set.insert(Marker::Edge {
                from: graph.node(edge.from).key,
                to: graph.node(edge.to).key,
            });
        }
    }
    for l in 0..loops {
        if rng.below(2) == 0 {
            set.insert(Marker::LoopGroup {
                loop_id: LoopId(l),
                group: rng.below(5),
            });
        }
    }
    set
}

/// Feeds `tape` to every observer in batches of seed-chosen sizes.
fn feed(tape: &[(u64, TraceEvent)], seed: u64, observers: &mut [&mut dyn TraceObserver]) {
    let mut rng = SplitMix64::new(seed);
    let mut rest = tape;
    while !rest.is_empty() {
        let n = (1 + rng.below(1024) as usize).min(rest.len());
        let (batch, tail) = rest.split_at(n);
        for obs in observers.iter_mut() {
            obs.on_batch(batch);
        }
        rest = tail;
    }
}

type GraphBits = (
    Vec<NodeKey>,
    Vec<(NodeId, NodeId, (u64, u64, u64, u64, u64))>,
    Vec<Vec<u32>>,
);

/// Everything observable about a graph, with statistics as bits.
fn graph_bits(graph: &CallLoopGraph) -> GraphBits {
    let nodes = graph.nodes().iter().map(|n| n.key).collect();
    let edges = graph
        .edges()
        .iter()
        .map(|e| {
            let (count, mean, m2, min, max) = e.stats.into_parts();
            let bits = (
                count,
                mean.to_bits(),
                m2.to_bits(),
                min.to_bits(),
                max.to_bits(),
            );
            (e.from, e.to, bits)
        })
        .collect();
    let adjacency = graph
        .nodes()
        .iter()
        .flat_map(|n| [graph.out_edges(n.id), graph.in_edges(n.id)])
        .map(|ids| ids.iter().map(|e| e.0).collect())
        .collect();
    (nodes, edges, adjacency)
}

/// Asserts the profiler and its reference agree mid-run and after
/// `into_graph`.
fn same_profile(new: CallLoopProfiler, reference: ReferenceProfiler) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.fault(), reference.fault);
    prop_assert_eq!(new.tolerated(), reference.tolerated);
    prop_assert_eq!(new.dangling_frames(), reference.stack.len());
    prop_assert_eq!(new.events(), reference.events);
    prop_assert_eq!(graph_bits(new.graph()), graph_bits(&reference.graph));
    match (new.into_graph(), reference.into_graph()) {
        (Ok(got), Ok(want)) => prop_assert_eq!(graph_bits(&got), graph_bits(&want)),
        (got, want) => prop_assert_eq!(got.err(), want.err()),
    }
    Ok(())
}

/// Runs the new and reference profilers (strict and lenient) and
/// runtimes over `tape` and compares everything they expose.
fn check_tape(
    tape: &[(u64, TraceEvent)],
    markers: &MarkerSet,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut strict = CallLoopProfiler::new();
    let mut strict_ref = ReferenceProfiler::new(false);
    let mut lenient = CallLoopProfiler::lenient();
    let mut lenient_ref = ReferenceProfiler::new(true);
    let mut runtime = MarkerRuntime::new(markers);
    let mut runtime_ref = ReferenceRuntime::new(markers);
    feed(
        tape,
        seed,
        &mut [
            &mut strict,
            &mut strict_ref,
            &mut lenient,
            &mut lenient_ref,
            &mut runtime,
            &mut runtime_ref,
        ],
    );
    same_profile(strict, strict_ref)?;
    same_profile(lenient, lenient_ref)?;
    prop_assert_eq!(runtime.into_firings(), runtime_ref.firings);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_traces_match_the_reference_observers(seed in any::<u64>()) {
        let program = random_program(seed);
        prop_assume!(small_enough(&program, seed));
        let loops = program.loop_count() as u32;
        let mut profiler = CallLoopProfiler::new();
        let mut reference = ReferenceProfiler::new(false);
        let mut tape = Vec::new();
        run(&program, &Input::new("t", seed), &mut [&mut profiler, &mut reference, &mut tape])
            .expect("small regions");
        let graph = reference.graph.clone();
        same_profile(profiler, reference)?;
        let markers = random_markers(&graph, loops, seed);
        let mut runtime = MarkerRuntime::new(&markers);
        let mut runtime_ref = ReferenceRuntime::new(&markers);
        run(&program, &Input::new("t", seed), &mut [&mut runtime, &mut runtime_ref])
            .expect("small regions");
        prop_assert_eq!(runtime.into_firings(), runtime_ref.firings);
        check_tape(&tape, &markers, seed)?;
    }

    #[test]
    fn damaged_streams_match_the_reference_observers(seed in any::<u64>(), rate in 2u64..24) {
        let program = random_program(seed);
        prop_assume!(small_enough(&program, seed));
        let loops = program.loop_count() as u32;
        let tape = engine_tape(&program, seed);
        let mut profiler = CallLoopProfiler::new();
        profiler.on_batch(&tape);
        let graph = profiler.into_graph().expect("engine traces are well-formed");
        let markers = random_markers(&graph, loops, seed ^ 1);
        let damaged = damage(&tape, loops, seed ^ 2, rate);
        check_tape(&damaged, &markers, seed ^ 3)?;
    }
}
