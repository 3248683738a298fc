//! Incremental-vs-batch equivalence: feeding a trace to
//! [`IncrementalSelector`] in arbitrary batch partitions must end on a
//! marker set byte-identical (as a `markers v1` file) to one batch
//! [`select_markers`] run over the whole trace — the property the
//! `spm serve` online path relies on. The CLI e2e half of this gate
//! (committed workloads through a real server) lives in
//! `crates/cli/tests/serve.rs`.

use proptest::prelude::*;
use spm_core::text::write_markers;
use spm_core::{select_markers, CallLoopProfiler, IncrementalSelector, SelectConfig};
use spm_ir::{Input, Program, ProgramBuilder, Trip};
use spm_sim::{run, TraceEvent, TraceObserver};

/// Calls, nested loops, branchy control flow — enough structure for a
/// nonempty candidate set at small `ilower`.
fn program() -> Program {
    let mut b = ProgramBuilder::new("equiv");
    b.proc("main", |p| {
        p.loop_(Trip::Fixed(40), |outer| {
            outer.if_prob(0.6, |t| t.call("work"), |e| e.call("rest"));
        });
        p.call("work");
    });
    b.proc("work", |p| {
        p.loop_(Trip::Fixed(25), |inner| {
            inner.block(31).done();
        });
        p.call("leaf");
    });
    b.proc("rest", |p| {
        p.block(210).done();
    });
    b.proc("leaf", |p| {
        p.block(5).done();
    });
    b.build("main").expect("valid program")
}

fn trace(seed: u64) -> Vec<(u64, TraceEvent)> {
    let mut tape = Vec::new();
    run(&program(), &Input::new("t", seed), &mut [&mut tape]).expect("sim run");
    tape
}

/// Batch reference: strict profiler over the whole trace, one
/// selection.
fn batch_markers(events: &[(u64, TraceEvent)], config: &SelectConfig) -> String {
    let mut profiler = CallLoopProfiler::new();
    profiler.on_batch(events);
    let graph = profiler.into_graph().expect("clean trace");
    write_markers(&select_markers(&graph, config).markers)
}

/// Splits `events` into chunks whose sizes cycle through `sizes`
/// (deterministic but irregular partitions).
fn partitions<'a>(
    events: &'a [(u64, TraceEvent)],
    sizes: &'a [usize],
) -> Vec<&'a [(u64, TraceEvent)]> {
    let mut out = Vec::new();
    let mut at = 0usize;
    let mut i = 0usize;
    while at < events.len() {
        let n = sizes[i % sizes.len()].max(1).min(events.len() - at);
        out.push(&events[at..at + n]);
        at += n;
        i += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any block partition of the trace ends on the batch marker set.
    #[test]
    fn incremental_equals_batch_for_any_partition(
        seed in 0u64..500,
        a in 1usize..400,
        b in 1usize..4000,
        ilower in 1u64..4,
    ) {
        let events = trace(seed);
        let config = SelectConfig::new(ilower * 1_000);
        let expected = batch_markers(&events, &config);

        let mut sel = IncrementalSelector::new(config, 3);
        for part in partitions(&events, &[a, b]) {
            sel.update(part);
        }
        prop_assert_eq!(write_markers(sel.markers()), expected);
    }

    /// The limit (SimPoint) variant — cuts plus merged loop-iteration
    /// groups — holds under the same equivalence.
    #[test]
    fn incremental_equals_batch_with_limit(
        seed in 0u64..200,
        chunk in 1usize..2500,
    ) {
        let events = trace(seed);
        let config = SelectConfig::with_limit(2_000, 60_000);
        let expected = batch_markers(&events, &config);

        let mut sel = IncrementalSelector::new(config, 3);
        for part in events.chunks(chunk) {
            sel.update(part);
        }
        prop_assert_eq!(write_markers(sel.markers()), expected);
    }
}

/// One-update degenerate case: the whole trace in a single batch.
#[test]
fn single_update_is_exactly_batch() {
    let events = trace(11);
    let config = SelectConfig::new(5_000);
    let mut sel = IncrementalSelector::new(config, 3);
    let delta = sel.update(&events);
    assert_eq!(delta.update, 1);
    assert_eq!(
        write_markers(sel.markers()),
        batch_markers(&events, &config)
    );
}
