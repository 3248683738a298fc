//! The fault-injection matrix: every workload in the suite, under every
//! injected corruption, must come out the other end as a *typed* error
//! or a documented fixed-length-interval fallback — never a panic.
//!
//! Two corruption levels are exercised, mirroring where damage happens
//! in practice:
//!
//! * **event-stream faults** ([`FaultObserver`]): dropped `Return`s,
//!   dropped `LoopExit`s, duplicated `LoopIter` back-edges — the
//!   profiler must either still produce a graph or report a
//!   [`ProfileError`](spm::core::ProfileError);
//! * **byte-level faults** ([`TraceCorruptor`]): truncated and
//!   bit-flipped `spmstk01` trace stores — a torn store must recover
//!   exactly the committed prefix of the clean stream, and a flipped
//!   bit must cost its block (a typed
//!   [`DecodeError`](spm::sim::record::DecodeError) in the replay
//!   report) without any of that block's events reaching an observer.

use spm::core::{
    partition_with_fallback, select_markers, CallLoopProfiler, FallbackReason, SelectConfig,
};
use spm::sim::{run, FaultKind, FaultObserver, TraceCorruptor, TraceEvent};
use spm::workloads::suite;
use spm_store::format::{BlockMeta, FRAME_LEN, HEADER_LEN};
use spm_store::{StoreReader, StoreReplayReport, StoreWriter};
use std::io::Cursor;

/// Seeds tried per (workload, fault) cell. Small, but combined with 16
/// workloads and 3+2 fault kinds this covers hundreds of distinct
/// corruption placements deterministically.
const SEEDS: [u64; 2] = [1, 2];

fn event_faults() -> Vec<FaultKind> {
    vec![
        FaultKind::DropReturns { one_in: 50 },
        FaultKind::DropLoopExits { one_in: 50 },
        FaultKind::DuplicateLoopIters { one_in: 50 },
    ]
}

/// Runs `w` under `fault` and pushes the perturbed stream through the
/// whole analysis pipeline: profile -> select -> partition. Returns
/// whether the profiler rejected the stream (vs. absorbing the fault).
fn pipeline_survives(w: &spm::workloads::Workload, fault: FaultKind, seed: u64) -> bool {
    let mut profiler = CallLoopProfiler::new();
    let mut faulty = FaultObserver::new(&mut profiler, fault, seed);
    run(&w.program, &w.train_input, &mut [&mut faulty])
        .expect("the engine itself is not under test");

    match profiler.into_graph() {
        Err(_) => true, // typed ProfileError: acceptable outcome
        Ok(graph) => {
            // The graph may be oddly shaped (duplicated iterations skew
            // averages) but every downstream stage must stay total.
            let outcome = select_markers(&graph, &SelectConfig::new(10_000));
            let partition = partition_with_fallback(
                &outcome.markers,
                &[],
                1_000_000,
                10_000,
                outcome.degenerate_cov,
            );
            // With no firings the partition must degrade, not panic,
            // and must still tile the full range.
            let fb = partition.fallback.expect("no firings forces a fallback");
            assert!(matches!(
                fb.reason,
                FallbackReason::NoMarkers
                    | FallbackReason::NoFirings
                    | FallbackReason::DegenerateCov
            ));
            assert_eq!(partition.vlis.last().map(|v| v.end), Some(1_000_000));
            false
        }
    }
}

#[test]
fn event_faults_yield_typed_errors_or_fallback_across_the_suite() {
    let mut rejected = 0u32;
    let mut absorbed = 0u32;
    for w in suite() {
        for fault in event_faults() {
            for seed in SEEDS {
                if pipeline_survives(&w, fault, seed) {
                    rejected += 1;
                } else {
                    absorbed += 1;
                }
            }
        }
    }
    // The matrix must actually exercise both outcomes somewhere: faults
    // that always get absorbed would mean the injector is a no-op, and
    // faults that always reject would mean selection never ran.
    assert!(
        rejected > 0,
        "no fault was ever detected ({absorbed} absorbed)"
    );
}

#[test]
fn dropped_returns_are_reported_with_event_context() {
    // One workload in detail: the typed error must carry localization.
    let w = spm::workloads::build("gzip").expect("known workload");
    let mut profiler = CallLoopProfiler::new();
    let mut faulty = FaultObserver::new(&mut profiler, FaultKind::DropReturns { one_in: 1 }, 7);
    run(&w.program, &w.train_input, &mut [&mut faulty]).expect("engine runs");
    assert!(faulty.injected() > 0);
    let err = profiler
        .into_graph()
        .expect_err("dropping every return must be caught");
    let text = err.to_string();
    assert!(
        text.contains("event"),
        "error should localize the fault: {text}"
    );
}

/// Block budget of the recorded stores: small, so one fault hits one
/// block of many.
const BLOCK_BUDGET: usize = 4096;

/// An event stream, as recorded by a `Vec` observer.
type Events = Vec<(u64, TraceEvent)>;

/// Records `w`'s train run into an in-memory store, returning the store
/// bytes and the clean event stream.
fn record_workload(w: &spm::workloads::Workload) -> (Vec<u8>, Events) {
    let mut live = Vec::new();
    let mut writer = StoreWriter::with_block_budget(Vec::new(), BLOCK_BUDGET);
    run(&w.program, &w.train_input, &mut [&mut live, &mut writer]).expect("engine runs");
    let outcome = writer.finish_with_sink();
    outcome.result.expect("in-memory store writes");
    (outcome.sink, live)
}

/// Opens `bytes` and replays every event, returning what was delivered.
fn replay_store(bytes: &[u8]) -> (StoreReader<Cursor<&[u8]>>, StoreReplayReport, Events) {
    let mut reader = StoreReader::new(Cursor::new(bytes)).expect("header intact: store opens");
    let mut sink = Vec::new();
    let report = reader.replay(&mut [&mut sink]).expect("in-memory replay");
    (reader, report, sink)
}

/// The clean stream minus the events of the given blocks.
fn without_blocks(
    clean: &[(u64, TraceEvent)],
    index: &[BlockMeta],
    report: &StoreReplayReport,
) -> Vec<(u64, TraceEvent)> {
    let mut keep = vec![true; clean.len()];
    for s in &report.skipped {
        let meta = index[s.block as usize];
        keep[meta.first_seq as usize..meta.end_seq() as usize].fill(false);
    }
    clean
        .iter()
        .zip(keep)
        .filter_map(|(event, kept)| kept.then_some(*event))
        .collect()
}

#[test]
fn corrupted_record_files_are_detected_across_the_suite() {
    for w in suite() {
        let (store, clean) = record_workload(&w);
        let (reader, _, _) = replay_store(&store);
        let index = reader.index().to_vec();
        assert!(
            index.len() > 1,
            "{}: one fault must hit one of many blocks",
            w.name
        );
        let blocks_end = HEADER_LEN
            + index
                .iter()
                .map(|m| FRAME_LEN + m.payload_len as usize)
                .sum::<usize>();
        for seed in SEEDS {
            let corruptor = TraceCorruptor::new(seed);

            // Truncation: the footer is gone, so the reader recovers by
            // walking frames, and replay delivers exactly the committed
            // prefix of the clean stream.
            let cut = corruptor.truncate(&store, HEADER_LEN);
            let (reader, report, sink) = replay_store(&cut);
            assert!(
                reader.info().recovered_index,
                "{}: truncation hidden",
                w.name
            );
            assert!(
                report.is_clean(),
                "{}: recovered blocks must verify",
                w.name
            );
            assert_eq!(report.events, reader.info().events);
            assert_eq!(
                sink[..],
                clean[..sink.len()],
                "{}: recovered prefix diverged from the clean stream",
                w.name
            );

            // Bit flips in the blocks: each costs its block, reported
            // with a typed error, and none of that block's events may
            // reach an observer.
            let mut flipped = corruptor.bit_flip(&store[..blocks_end], HEADER_LEN, 2);
            flipped.extend_from_slice(&store[blocks_end..]);
            let (_, report, sink) = replay_store(&flipped);
            assert!(
                !report.skipped.is_empty(),
                "{}: bit flips went unnoticed",
                w.name
            );
            for skip in &report.skipped {
                assert!(!skip.error.to_string().is_empty());
            }
            assert_eq!(
                sink,
                without_blocks(&clean, &index, &report),
                "{}: events of a damaged block leaked",
                w.name
            );
        }
    }
}

#[test]
fn prefix_recovery_matches_the_uncorrupted_stream() {
    // The recovered prefix must be event-for-event the same replay the
    // intact store produces, just shorter.
    let w = spm::workloads::build("mgrid").expect("known workload");
    let (store, clean) = record_workload(&w);
    let (_, report, full) = replay_store(&store);
    assert!(report.is_clean());
    assert_eq!(full, clean, "intact store replays the live stream");

    let cut = TraceCorruptor::new(3).truncate(&store, HEADER_LEN);
    let (reader, report, prefix) = replay_store(&cut);
    assert!(reader.info().recovered_index);
    assert!(report.is_clean());
    let n = prefix.len();
    assert!(n <= full.len());
    assert_eq!(n as u64, reader.info().events);
    assert_eq!(
        prefix[..],
        full[..n],
        "prefix diverged from the intact stream"
    );
}
