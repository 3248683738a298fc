//! Software phase markers, the runtime that detects them, and
//! variable-length interval (VLI) partitioning.

use crate::graph::NodeKey;
use spm_ir::LoopId;
use spm_sim::{TraceEvent, TraceObserver};
use std::collections::HashMap;
use std::fmt;

/// One software phase marker: a point in the binary that, when executed,
/// signals the start of an interval of repeating behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Marker {
    /// A call-loop graph edge: fires when the target head/body is
    /// activated from exactly this context (a specific call site, loop
    /// entry, or loop iteration).
    Edge {
        /// Context node of the traversal.
        from: NodeKey,
        /// Activated head or body node.
        to: NodeKey,
    },
    /// A merged-iteration marker (paper Section 5.2): fires every
    /// `group`-th iteration of the loop, counting from each entry.
    LoopGroup {
        /// The loop.
        loop_id: LoopId,
        /// Number of consecutive iterations per interval.
        group: u64,
    },
}

impl fmt::Display for Marker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Marker::Edge { from, to } => write!(f, "{from}->{to}"),
            Marker::LoopGroup { loop_id, group } => write!(f, "{loop_id}x{group}"),
        }
    }
}

/// An ordered set of markers; the position of a marker is its id, and an
/// interval's **phase id** is the id of the marker that started it plus
/// one (phase [`PRELUDE_PHASE`] is execution before the first firing).
#[derive(Debug, Clone, Default)]
pub struct MarkerSet {
    markers: Vec<Marker>,
    edge_index: HashMap<(NodeKey, NodeKey), usize>,
    group_index: HashMap<LoopId, (u64, usize)>,
}

impl MarkerSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a marker, returning its id; adding an identical marker again
    /// returns the existing id.
    pub fn insert(&mut self, marker: Marker) -> usize {
        match marker {
            Marker::Edge { from, to } => {
                if let Some(&id) = self.edge_index.get(&(from, to)) {
                    return id;
                }
                let id = self.markers.len();
                self.markers.push(marker);
                self.edge_index.insert((from, to), id);
                id
            }
            Marker::LoopGroup { loop_id, group } => {
                if let Some(&(g, id)) = self.group_index.get(&loop_id) {
                    if g == group {
                        return id;
                    }
                }
                let id = self.markers.len();
                self.markers.push(marker);
                self.group_index.insert(loop_id, (group, id));
                id
            }
        }
    }

    /// The markers, in id order.
    pub fn markers(&self) -> &[Marker] {
        &self.markers
    }

    /// Number of markers.
    pub fn len(&self) -> usize {
        self.markers.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.markers.is_empty()
    }

    /// Looks up an edge marker.
    pub fn edge_marker(&self, from: NodeKey, to: NodeKey) -> Option<usize> {
        self.edge_index.get(&(from, to)).copied()
    }

    /// Looks up the merged-iteration marker of a loop.
    pub fn group_marker(&self, loop_id: LoopId) -> Option<(u64, usize)> {
        self.group_index.get(&loop_id).copied()
    }

    /// Iterates over `(id, marker)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Marker)> + '_ {
        self.markers.iter().copied().enumerate()
    }
}

impl FromIterator<Marker> for MarkerSet {
    fn from_iter<I: IntoIterator<Item = Marker>>(iter: I) -> Self {
        let mut set = MarkerSet::new();
        for m in iter {
            set.insert(m);
        }
        set
    }
}

/// One marker execution observed at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerFiring {
    /// Instruction count at which the marker fired.
    pub icount: u64,
    /// Id of the marker within its [`MarkerSet`].
    pub marker: usize,
}

#[derive(Debug, Clone)]
enum ContextFrame {
    Proc(spm_ir::ProcId),
    Loop {
        id: LoopId,
        in_iteration: bool,
        iters: u64,
        /// The marker on this loop's `head -> body` edge and its
        /// merged-iteration marker, resolved once at `LoopEnter`.
        iter_marker: Option<usize>,
        group: Option<(u64, usize)>,
    },
}

/// Trace observer that detects marker executions during a run.
///
/// This is the software-only runtime the paper envisions: the marker set
/// corresponds to instrumentation inserted at call sites and loop
/// branches, and firing requires no hardware support. The runtime tracks
/// only the current call/loop context (a shadow stack), so detecting
/// markers is O(1) per control-flow event; a loop's own markers are
/// resolved once per entry, so its iterations need no lookup.
#[derive(Debug, Clone)]
pub struct MarkerRuntime<'m> {
    markers: &'m MarkerSet,
    stack: Vec<ContextFrame>,
    firings: Vec<MarkerFiring>,
}

impl<'m> MarkerRuntime<'m> {
    /// Creates a runtime detecting the given marker set.
    pub fn new(markers: &'m MarkerSet) -> Self {
        Self {
            markers,
            stack: Vec::new(),
            firings: Vec::new(),
        }
    }

    /// The firings observed so far, in execution order.
    pub fn firings(&self) -> Vec<MarkerFiring> {
        self.firings.clone()
    }

    /// Consumes the runtime, returning the firings.
    pub fn into_firings(self) -> Vec<MarkerFiring> {
        self.firings
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

impl TraceObserver for MarkerRuntime<'_> {
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
                    iter_marker: self
                        .markers
                        .edge_marker(NodeKey::LoopHead(loop_id), NodeKey::LoopBody(loop_id)),
                    group: self.markers.group_marker(loop_id),
                });
            }
            TraceEvent::LoopIter { loop_id } => {
                let (iter_marker, group) = match self.stack.last() {
                    Some(ContextFrame::Loop {
                        id,
                        iter_marker,
                        group,
                        ..
                    }) if *id == loop_id => (*iter_marker, *group),
                    // A damaged stream: the innermost frame is another
                    // loop, or no loop at all.
                    _ => (
                        self.markers
                            .edge_marker(NodeKey::LoopHead(loop_id), NodeKey::LoopBody(loop_id)),
                        self.markers.group_marker(loop_id),
                    ),
                };
                if let Some(marker) = iter_marker {
                    self.firings.push(MarkerFiring { icount, marker });
                }
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

/// Phase id of execution before the first marker firing.
pub const PRELUDE_PHASE: usize = 0;

/// One variable-length interval of execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vli {
    /// First instruction of the interval.
    pub begin: u64,
    /// One past the last instruction.
    pub end: u64,
    /// Phase id: [`PRELUDE_PHASE`] before the first firing, otherwise
    /// `marker_id + 1` of the marker that started the interval.
    pub phase: usize,
}

impl Vli {
    /// Instructions in the interval.
    pub fn len(&self) -> u64 {
        self.end - self.begin
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.end == self.begin
    }
}

/// Splits an execution of `total_instrs` instructions into variable
/// length intervals at marker firings.
///
/// Every firing starts a new interval whose phase id is derived from the
/// firing marker; firings at the same instruction count (or at 0 /
/// `total_instrs`) produce no empty intervals — the *first* marker to
/// fire at a boundary names the phase.
///
/// # Examples
///
/// ```
/// use spm_core::{partition, MarkerFiring, PRELUDE_PHASE};
///
/// let firings = vec![
///     MarkerFiring { icount: 100, marker: 0 },
///     MarkerFiring { icount: 250, marker: 1 },
///     MarkerFiring { icount: 250, marker: 0 }, // same boundary: ignored
/// ];
/// let vlis = partition(&firings, 400);
/// assert_eq!(vlis.len(), 3);
/// assert_eq!(vlis[0].phase, PRELUDE_PHASE);
/// assert_eq!((vlis[1].begin, vlis[1].end, vlis[1].phase), (100, 250, 1));
/// assert_eq!((vlis[2].begin, vlis[2].end, vlis[2].phase), (250, 400, 2));
/// ```
pub fn partition(firings: &[MarkerFiring], total_instrs: u64) -> Vec<Vli> {
    let mut vlis = Vec::new();
    let mut begin = 0u64;
    let mut phase = PRELUDE_PHASE;
    // Whether a firing has already named the phase starting at `begin`
    // (the first marker to fire at a boundary wins).
    let mut boundary_named = false;
    for firing in firings {
        let at = firing.icount.min(total_instrs);
        debug_assert!(at >= begin, "firings must be in execution order");
        if at > begin {
            vlis.push(Vli {
                begin,
                end: at,
                phase,
            });
            begin = at;
            phase = firing.marker + 1;
            boundary_named = true;
        } else if !boundary_named {
            phase = firing.marker + 1;
            boundary_named = true;
        }
    }
    if begin < total_instrs {
        vlis.push(Vli {
            begin,
            end: total_instrs,
            phase,
        });
    }
    vlis
}

/// Why [`partition_with_fallback`] abandoned variable-length intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Selection produced no markers at all (e.g. `ilower` larger than
    /// every edge's average, or an empty graph).
    NoMarkers,
    /// Markers exist but none fired during this run (the profiled input
    /// exercised code the measured input never reached).
    NoFirings,
    /// Selection flagged its CoV statistics as degenerate
    /// ([`SelectionOutcome::degenerate_cov`](crate::SelectionOutcome)):
    /// the marker set is untrustworthy.
    DegenerateCov,
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FallbackReason::NoMarkers => "no-markers",
            FallbackReason::NoFirings => "no-firings",
            FallbackReason::DegenerateCov => "degenerate-cov",
        };
        f.write_str(s)
    }
}

/// Record of a fixed-length-interval fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FliFallback {
    /// Why VLI partitioning was abandoned.
    pub reason: FallbackReason,
    /// The fixed interval length used, in instructions.
    pub interval: u64,
}

/// Result of [`partition_with_fallback`]: the intervals, plus a record
/// of the fallback if one was taken.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutcome {
    /// The intervals tiling the execution.
    pub vlis: Vec<Vli>,
    /// `Some` when the intervals are fixed-length rather than
    /// marker-delimited.
    pub fallback: Option<FliFallback>,
}

/// Tiles `total_instrs` instructions with fixed-length intervals of
/// `interval` instructions (the last one partial). Every interval gets
/// [`PRELUDE_PHASE`]: fixed-length intervals carry no phase information.
///
/// `interval == 0` is treated as 1 so the tiling always terminates.
pub fn fixed_length_intervals(total_instrs: u64, interval: u64) -> Vec<Vli> {
    let interval = interval.max(1);
    let mut vlis = Vec::new();
    let mut begin = 0u64;
    while begin < total_instrs {
        let end = begin.saturating_add(interval).min(total_instrs);
        vlis.push(Vli {
            begin,
            end,
            phase: PRELUDE_PHASE,
        });
        begin = end;
    }
    vlis
}

/// [`partition`], hardened: degrades to fixed-length intervals at
/// `ilower` when the marker pipeline produced nothing usable, instead
/// of returning one giant unclassified interval.
///
/// The fallback triggers when (in priority order) selection flagged its
/// CoV statistics as degenerate (`degenerate_cov`), the marker set is
/// empty, or no marker fired during a non-empty execution. The returned
/// [`PartitionOutcome::fallback`] says which, so drivers can emit a
/// machine-readable warning.
pub fn partition_with_fallback(
    markers: &MarkerSet,
    firings: &[MarkerFiring],
    total_instrs: u64,
    ilower: u64,
    degenerate_cov: bool,
) -> PartitionOutcome {
    let reason = if degenerate_cov {
        Some(FallbackReason::DegenerateCov)
    } else if markers.is_empty() {
        Some(FallbackReason::NoMarkers)
    } else if firings.is_empty() && total_instrs > 0 {
        Some(FallbackReason::NoFirings)
    } else {
        None
    };
    let outcome = match reason {
        Some(reason) => PartitionOutcome {
            vlis: fixed_length_intervals(total_instrs, ilower),
            fallback: Some(FliFallback {
                reason,
                interval: ilower.max(1),
            }),
        },
        None => PartitionOutcome {
            vlis: partition(firings, total_instrs),
            fallback: None,
        },
    };
    if spm_obs::enabled() {
        let mut lengths = spm_stats::LogHistogram::new();
        for vli in &outcome.vlis {
            lengths.record(vli.len());
        }
        spm_obs::histogram("partition/vli_lengths", &lengths);
        spm_obs::counter("partition/intervals", outcome.vlis.len() as u64);
        spm_obs::counter("partition/phases", phase_count(&outcome.vlis) as u64);
        // Per-phase homogeneity of interval lengths (the paper's
        // quality lens, consumed by `spm report`): one gauge per phase.
        // Lengths are positive so the mean cannot vanish, but guard
        // non-finite anyway — the JSONL schema rejects NaN/Inf.
        let mut phases: Vec<usize> = outcome.vlis.iter().map(|v| v.phase).collect();
        phases.sort_unstable();
        phases.dedup();
        for phase in phases {
            let mut stats = spm_stats::Running::new();
            for vli in outcome.vlis.iter().filter(|v| v.phase == phase) {
                stats.push(vli.len() as f64);
            }
            let cov = if stats.count() < 2 { 0.0 } else { stats.cov() };
            if cov.is_finite() {
                spm_obs::gauge_with(
                    "partition/phase_len_cov",
                    cov,
                    &[("phase", phase.into()), ("intervals", stats.count().into())],
                );
            }
        }
    }
    outcome
}

/// Number of distinct phase ids among the intervals.
pub fn phase_count(vlis: &[Vli]) -> usize {
    let mut ids: Vec<usize> = vlis.iter().map(|v| v.phase).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// Average interval length in instructions (`0.0` when empty).
pub fn avg_interval_len(vlis: &[Vli]) -> f64 {
    if vlis.is_empty() {
        0.0
    } else {
        vlis.iter().map(Vli::len).sum::<u64>() as f64 / vlis.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_ir::ProcId;

    #[test]
    fn marker_set_dedups() {
        let mut set = MarkerSet::new();
        let a = set.insert(Marker::Edge {
            from: NodeKey::Root,
            to: NodeKey::ProcHead(ProcId(0)),
        });
        let b = set.insert(Marker::Edge {
            from: NodeKey::Root,
            to: NodeKey::ProcHead(ProcId(0)),
        });
        assert_eq!(a, b);
        assert_eq!(set.len(), 1);
        let c = set.insert(Marker::LoopGroup {
            loop_id: LoopId(0),
            group: 4,
        });
        assert_eq!(c, 1);
        assert_eq!(set.group_marker(LoopId(0)), Some((4, 1)));
    }

    #[test]
    fn damaged_loop_streams_do_not_panic() {
        // Mismatched (an iteration of L2 inside L1), duplicated (L2's
        // entry) and dropped (an iteration with no loop open) loop events,
        // as a replay with skipped blocks can deliver them.
        let (l1, l2) = (LoopId(1), LoopId(2));
        let events = [
            TraceEvent::LoopEnter { loop_id: l1 },
            TraceEvent::LoopIter { loop_id: l2 },
            TraceEvent::LoopIter { loop_id: l1 },
            TraceEvent::LoopIter { loop_id: l1 },
            TraceEvent::LoopEnter { loop_id: l2 },
            TraceEvent::LoopEnter { loop_id: l2 },
            TraceEvent::LoopIter { loop_id: l2 },
            TraceEvent::LoopExit { loop_id: l2 },
            TraceEvent::LoopIter { loop_id: l1 },
            TraceEvent::LoopExit { loop_id: l2 },
            TraceEvent::LoopExit { loop_id: l1 },
            TraceEvent::LoopIter { loop_id: l1 },
            TraceEvent::Finish,
        ];
        let markers: MarkerSet = [
            Marker::Edge {
                from: NodeKey::LoopHead(l2),
                to: NodeKey::LoopBody(l2),
            },
            Marker::LoopGroup {
                loop_id: l1,
                group: 2,
            },
            Marker::LoopGroup {
                loop_id: l2,
                group: 1,
            },
        ]
        .into_iter()
        .collect();
        let mut runtime = MarkerRuntime::new(&markers);
        let mut profiler = crate::CallLoopProfiler::lenient();
        for (i, event) in events.iter().enumerate() {
            runtime.on_event(i as u64 * 10, event);
            profiler.on_event(i as u64 * 10, event);
        }
        // A mismatched iteration fires its own loop's markers and counts
        // on the innermost loop frame (L2's group at 10, L1's at 80); one
        // with no loop open fires nothing.
        let fired: Vec<(u64, usize)> = runtime
            .into_firings()
            .iter()
            .map(|f| (f.icount, f.marker))
            .collect();
        assert_eq!(
            fired,
            [(10, 0), (10, 2), (30, 1), (60, 0), (60, 2), (80, 1)]
        );

        assert_eq!(profiler.fault(), None);
        assert_eq!(
            profiler.dangling_frames(),
            1,
            "the last iteration never closes"
        );
        let graph = profiler.into_graph().unwrap();
        let count = |l: LoopId| {
            let head = graph.node_by_key(NodeKey::LoopHead(l)).unwrap();
            let body = graph.node_by_key(NodeKey::LoopBody(l)).unwrap();
            graph.edge_between(head, body).unwrap().count()
        };
        assert_eq!((count(l1), count(l2)), (3, 2));
    }

    #[test]
    fn partition_empty_firings_single_interval() {
        let vlis = partition(&[], 1000);
        assert_eq!(
            vlis,
            vec![Vli {
                begin: 0,
                end: 1000,
                phase: PRELUDE_PHASE
            }]
        );
        assert_eq!(phase_count(&vlis), 1);
        assert_eq!(avg_interval_len(&vlis), 1000.0);
    }

    #[test]
    fn partition_basic() {
        let firings = vec![
            MarkerFiring {
                icount: 10,
                marker: 3,
            },
            MarkerFiring {
                icount: 30,
                marker: 3,
            },
            MarkerFiring {
                icount: 70,
                marker: 5,
            },
        ];
        let vlis = partition(&firings, 100);
        assert_eq!(
            vlis,
            vec![
                Vli {
                    begin: 0,
                    end: 10,
                    phase: PRELUDE_PHASE
                },
                Vli {
                    begin: 10,
                    end: 30,
                    phase: 4
                },
                Vli {
                    begin: 30,
                    end: 70,
                    phase: 4
                },
                Vli {
                    begin: 70,
                    end: 100,
                    phase: 6
                },
            ]
        );
        assert_eq!(phase_count(&vlis), 3);
    }

    #[test]
    fn partition_firing_at_zero_names_first_phase() {
        let firings = vec![MarkerFiring {
            icount: 0,
            marker: 1,
        }];
        let vlis = partition(&firings, 50);
        assert_eq!(
            vlis,
            vec![Vli {
                begin: 0,
                end: 50,
                phase: 2
            }]
        );
    }

    #[test]
    fn partition_firing_at_end_is_dropped() {
        let firings = vec![MarkerFiring {
            icount: 100,
            marker: 0,
        }];
        let vlis = partition(&firings, 100);
        assert_eq!(vlis.len(), 1);
        assert_eq!(vlis[0].end, 100);
    }

    #[test]
    fn partition_covers_execution_exactly() {
        let firings: Vec<MarkerFiring> = (1..20)
            .map(|i| MarkerFiring {
                icount: i * 37 % 500,
                marker: i as usize % 3,
            })
            .collect();
        let mut sorted = firings.clone();
        sorted.sort_by_key(|f| f.icount);
        let vlis = partition(&sorted, 500);
        assert_eq!(vlis.first().unwrap().begin, 0);
        assert_eq!(vlis.last().unwrap().end, 500);
        for pair in vlis.windows(2) {
            assert_eq!(pair[0].end, pair[1].begin, "intervals must tile");
            assert!(!pair[0].is_empty());
        }
    }

    #[test]
    fn fixed_length_intervals_tile_exactly() {
        let vlis = fixed_length_intervals(2_500, 1_000);
        assert_eq!(
            vlis,
            vec![
                Vli {
                    begin: 0,
                    end: 1000,
                    phase: PRELUDE_PHASE
                },
                Vli {
                    begin: 1000,
                    end: 2000,
                    phase: PRELUDE_PHASE
                },
                Vli {
                    begin: 2000,
                    end: 2500,
                    phase: PRELUDE_PHASE
                },
            ]
        );
        assert!(fixed_length_intervals(0, 1_000).is_empty());
        // Zero interval must not loop forever.
        assert_eq!(fixed_length_intervals(3, 0).len(), 3);
    }

    #[test]
    fn fallback_on_empty_marker_set() {
        let markers = MarkerSet::new();
        let out = partition_with_fallback(&markers, &[], 5_000, 2_000, false);
        assert_eq!(
            out.fallback,
            Some(FliFallback {
                reason: FallbackReason::NoMarkers,
                interval: 2_000
            })
        );
        assert_eq!(out.vlis.len(), 3);
        assert_eq!(out.vlis.last().unwrap().end, 5_000);
    }

    #[test]
    fn fallback_on_no_firings() {
        let mut markers = MarkerSet::new();
        markers.insert(Marker::Edge {
            from: NodeKey::Root,
            to: NodeKey::ProcHead(ProcId(0)),
        });
        let out = partition_with_fallback(&markers, &[], 5_000, 2_000, false);
        assert_eq!(out.fallback.unwrap().reason, FallbackReason::NoFirings);
        // But an empty execution is not a fallback: there is nothing to
        // partition either way.
        let out = partition_with_fallback(&markers, &[], 0, 2_000, false);
        assert_eq!(out.fallback, None);
        assert!(out.vlis.is_empty());
    }

    #[test]
    fn fallback_on_degenerate_cov_overrides_firings() {
        let mut markers = MarkerSet::new();
        markers.insert(Marker::Edge {
            from: NodeKey::Root,
            to: NodeKey::ProcHead(ProcId(0)),
        });
        let firings = vec![MarkerFiring {
            icount: 100,
            marker: 0,
        }];
        let out = partition_with_fallback(&markers, &firings, 1_000, 300, true);
        assert_eq!(out.fallback.unwrap().reason, FallbackReason::DegenerateCov);
        assert!(out.vlis.iter().all(|v| v.phase == PRELUDE_PHASE));
    }

    #[test]
    fn no_fallback_when_markers_fire() {
        let mut markers = MarkerSet::new();
        markers.insert(Marker::Edge {
            from: NodeKey::Root,
            to: NodeKey::ProcHead(ProcId(0)),
        });
        let firings = vec![MarkerFiring {
            icount: 100,
            marker: 0,
        }];
        let out = partition_with_fallback(&markers, &firings, 1_000, 300, false);
        assert_eq!(out.fallback, None);
        assert_eq!(out.vlis, partition(&firings, 1_000));
    }

    #[test]
    fn fallback_reasons_render() {
        for r in [
            FallbackReason::NoMarkers,
            FallbackReason::NoFirings,
            FallbackReason::DegenerateCov,
        ] {
            assert!(!r.to_string().is_empty());
            assert!(!r.to_string().contains(' '), "machine-readable token");
        }
    }

    #[test]
    fn marker_display() {
        let m = Marker::Edge {
            from: NodeKey::LoopBody(LoopId(1)),
            to: NodeKey::ProcHead(ProcId(2)),
        };
        assert_eq!(m.to_string(), "L1.body->p2.head");
        assert_eq!(
            Marker::LoopGroup {
                loop_id: LoopId(3),
                group: 8
            }
            .to_string(),
            "L3x8"
        );
    }
}
