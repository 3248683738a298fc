//! Multithreaded sampler stress: threads spawning and exiting in waves
//! under an active sampler must never produce a torn folded stack —
//! every emitted `prof/sample` stack is exactly one of the paths a
//! thread actually held.
//!
//! The allocator wrapper is installed for the whole test binary, so the
//! allocation totals the session reports are exercised under real
//! multithreaded load too.

use spm_obs::{EventKind, MemorySink, Value};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: spm_prof::CountingAllocator = spm_prof::CountingAllocator;

/// Profiler state is process-global; the harness runs tests on
/// concurrent threads, so serialize them.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// The only stacks any worker ever holds (relative names, `;`-joined).
fn valid_stacks() -> HashSet<String> {
    let mut ok = HashSet::new();
    for w in 0..4 {
        ok.insert(format!("worker{w}"));
        ok.insert(format!("worker{w};inner"));
        ok.insert(format!("worker{w};inner;leaf"));
    }
    ok.insert("main_stage".to_string());
    ok.insert("main_stage;tail".to_string());
    ok
}

#[test]
fn sampling_across_thread_churn_never_tears_stacks() {
    let _x = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let sink = Arc::new(MemorySink::new());
    spm_obs::install(sink.clone());
    spm_prof::enable(997);

    let deadline = Instant::now() + Duration::from_millis(250);
    // Waves of short-lived threads: each opens nested spans, burns a
    // little time, allocates, and exits while the sampler is running.
    let mut wave = 0u32;
    while Instant::now() < deadline {
        let handles: Vec<_> = (0..4)
            .map(|w| {
                std::thread::spawn(move || {
                    let _root = spm_obs::span(&format!("worker{w}"));
                    let _buf = vec![wave; 256];
                    for _ in 0..3 {
                        let _inner = spm_obs::span("inner");
                        let _leaf = spm_obs::span("leaf");
                        std::thread::sleep(Duration::from_micros(300));
                    }
                })
            })
            .collect();
        {
            let _main = spm_obs::span("main_stage");
            let _tail = spm_obs::span("tail");
            std::thread::sleep(Duration::from_micros(500));
        }
        for h in handles {
            h.join().unwrap();
        }
        wave += 1;
    }

    let summary = spm_prof::finish();
    spm_obs::uninstall();
    assert!(summary.ticks > 0, "sampler never ticked");
    assert!(
        summary.samples > 0,
        "sampler saw no stacks across {wave} waves"
    );
    assert!(summary.allocs > 0, "allocator hooks counted nothing");
    assert!(summary.alloc_bytes > 0);

    let ok = valid_stacks();
    let mut emitted = 0u64;
    for e in sink.events().iter() {
        let EventKind::Sample { count } = e.kind else {
            continue;
        };
        emitted += count;
        let Some(Value::Str(stack)) = e.field("stack") else {
            panic!("sample without stack field: {e:?}");
        };
        assert!(ok.contains(stack.as_str()), "torn/unknown stack {stack:?}");
    }
    assert_eq!(emitted, summary.samples, "sample events must sum to total");
}

#[test]
fn disabled_profiler_adds_no_events_and_no_counts() {
    // Overhead guard at the library level: with no session, spans emit
    // exactly what they did pre-profiler and the allocator counts
    // nothing, even though the counting allocator is installed.
    let _x = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    // The harness may have allocated on this thread while the other
    // test held accounting on; only what happens from here counts.
    let before = spm_prof::thread_alloc_counts();
    let sink = Arc::new(MemorySink::new());
    spm_obs::install(sink.clone());
    {
        let _s = spm_obs::span("plain");
        let _v = vec![0u8; 4096];
    }
    spm_obs::uninstall();
    let events = sink.events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].name, "plain");
    assert_eq!(events[0].field("allocs"), None);
    assert_eq!(events[0].field("alloc_bytes"), None);
    assert_eq!(
        spm_prof::thread_alloc_counts(),
        before,
        "counters ticked while disabled"
    );
}
