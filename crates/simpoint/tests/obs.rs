//! The SimPoint stage events: `simpoint/pick` splits into a
//! `simpoint/project` span and per-`k` `simpoint/kmeans` and
//! `simpoint/bic` spans, and every fit reports `simpoint/kmeans_iters`
//! with its cycle period.

use spm_obs::{Event, EventKind, MemorySink, Value};
use spm_simpoint::{pick_simpoints, SimPointConfig};
use std::sync::Arc;

fn field(event: &Event, key: &str) -> u64 {
    match event.field(key) {
        Some(Value::U64(v)) => *v,
        other => panic!("{} has {key} = {other:?}", event.name),
    }
}

#[test]
fn pick_emits_stage_spans_and_cycle_periods() {
    // Three distinct vectors repeated, fitted at k up to 8: the regime
    // where Lloyd's loop cycles until the iteration cap.
    let vectors: Vec<Vec<f64>> = (0..90)
        .map(|i| {
            let mut v = vec![0.0; 3];
            v[i % 3] = 1.0;
            v
        })
        .collect();
    let weights: Vec<f64> = (0..90).map(|i| 1.0 + (i % 7) as f64).collect();
    let sink = Arc::new(MemorySink::new());
    // Serial fits keep every span on this thread, nested under the pick.
    spm_par::set_default_jobs(1);
    spm_obs::install(sink.clone());
    let sp = pick_simpoints(&vectors, &weights, &SimPointConfig::new(8, 3, 1)).unwrap();
    spm_obs::uninstall();
    assert_eq!(sp.k, 3);

    let events = sink.events();
    let spans = |name: &str| -> Vec<&Event> {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Span { .. }) && e.name == name)
            .collect()
    };
    assert_eq!(spans("simpoint/pick").len(), 1);
    assert_eq!(spans("simpoint/pick/simpoint/project").len(), 1);
    let fits: Vec<u64> = spans("simpoint/pick/simpoint/kmeans")
        .iter()
        .map(|e| field(e, "k"))
        .collect();
    assert_eq!(fits, (1..=8).collect::<Vec<_>>());
    assert_eq!(spans("simpoint/pick/simpoint/bic").len(), 8);

    let iters: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "simpoint/kmeans_iters")
        .collect();
    assert_eq!(iters.len(), 8);
    for e in &iters {
        let EventKind::Counter { value } = e.kind else {
            panic!("{e:?} is not a counter");
        };
        let period = field(e, "cycle_period");
        if period > 0 {
            assert_eq!(value, 100, "a cycling fit reports the full cap");
            assert_eq!(e.field("converged"), Some(&Value::Bool(false)));
        }
    }
    assert!(
        iters.iter().any(|e| field(e, "cycle_period") > 0),
        "some k > 3 fit must cycle: {iters:?}"
    );
}
