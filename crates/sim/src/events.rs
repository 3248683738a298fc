//! The trace event stream and the observer interface.

use spm_ir::{BlockId, BranchId, LoopId, ProcId};

/// One event in the execution trace.
///
/// Events are delivered in program order together with the instruction
/// count *after* the event (see [`TraceObserver::on_event`]). Only
/// [`BlockExec`](TraceEvent::BlockExec) advances the instruction count;
/// control constructs (calls, loops, branches) are instantaneous, so the
/// instruction totals seen by every analysis agree exactly with the sum
/// of basic-block sizes — the same accounting the paper's BBVs use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A basic block executed.
    BlockExec {
        /// The block.
        block: BlockId,
        /// Its instruction count.
        instrs: u32,
        /// Its base CPI (for the timing model).
        base_cpi: f64,
    },
    /// One data access issued by the current block.
    MemAccess {
        /// Byte address.
        addr: u64,
        /// Whether the access is a write.
        write: bool,
    },
    /// A conditional branch resolved.
    Branch {
        /// The branch.
        branch: BranchId,
        /// Whether it was taken.
        taken: bool,
    },
    /// A procedure was called (event fires before its body runs).
    Call {
        /// The callee.
        proc: ProcId,
    },
    /// A procedure returned.
    Return {
        /// The procedure returning.
        proc: ProcId,
    },
    /// A loop was entered (before the first iteration, if any).
    LoopEnter {
        /// The loop.
        loop_id: LoopId,
    },
    /// One loop iteration is about to run (fires once per iteration,
    /// including the first — the "loop back edge" view of the paper).
    LoopIter {
        /// The loop.
        loop_id: LoopId,
    },
    /// The loop exited.
    LoopExit {
        /// The loop.
        loop_id: LoopId,
    },
    /// Execution finished; always the last event.
    Finish,
}

/// Consumes the trace stream of one execution.
///
/// Implementations are the reproduction's equivalent of ATOM analysis
/// routines; several observers are driven from a single pass.
///
/// Every producer — the engine ([`run`](crate::run)), store replay and
/// the streaming service — delivers the stream through [`on_batch`],
/// as runs of consecutive events in order. Batch boundaries carry no
/// meaning, so an observer implements [`on_event`]
/// and inherits the default [`on_batch`], which forwards each event in
/// order. The default is compiled separately for every observer type,
/// so its call to `on_event` is a direct call, not a virtual one.
///
/// [`on_event`]: TraceObserver::on_event
/// [`on_batch`]: TraceObserver::on_batch
pub trait TraceObserver {
    /// Consumes one event, with `icount` = total instructions executed
    /// up to and including this event.
    fn on_event(&mut self, icount: u64, event: &TraceEvent);

    /// Consumes a run of consecutive events.
    ///
    /// Override this only when a whole batch can be handled more
    /// cheaply than event by event (counting, copying); an override
    /// must leave the observer in exactly the state that calling
    /// [`on_event`] for each event in order would.
    ///
    /// [`on_event`]: TraceObserver::on_event
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.on_event(*icount, event);
        }
    }
}

/// Blanket implementation so plain closures can observe traces in tests
/// and examples.
impl<F: FnMut(u64, &TraceEvent)> TraceObserver for F {
    fn on_event(&mut self, icount: u64, event: &TraceEvent) {
        self(icount, event)
    }
}

/// A vector observer is an event tape: it records the stream verbatim.
impl TraceObserver for Vec<(u64, TraceEvent)> {
    fn on_event(&mut self, icount: u64, event: &TraceEvent) {
        self.push((icount, *event));
    }

    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        self.extend_from_slice(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_observers() {
        let mut seen = Vec::new();
        {
            let mut obs = |icount: u64, ev: &TraceEvent| {
                seen.push((icount, matches!(ev, TraceEvent::Finish)));
            };
            obs.on_event(5, &TraceEvent::Finish);
        }
        assert_eq!(seen, vec![(5, true)]);
    }

    #[test]
    fn default_batch_delivery_forwards_in_order() {
        let mut seen = Vec::new();
        {
            let mut obs = |icount: u64, ev: &TraceEvent| {
                seen.push((icount, *ev));
            };
            let batch = vec![
                (3, TraceEvent::Call { proc: ProcId(1) }),
                (3, TraceEvent::Return { proc: ProcId(1) }),
                (9, TraceEvent::Finish),
            ];
            obs.on_batch(&batch);
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 3);
        assert_eq!(seen[2], (9, TraceEvent::Finish));
    }
}
