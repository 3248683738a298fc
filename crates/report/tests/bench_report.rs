//! The committed bench report must validate against the executable
//! schema — the same check CI runs, so a hand-edited or stale artifact
//! fails before it merges.

use spm_obs::jsonl::{parse, Json};
use spm_report::bench::{validate_bench_report, BENCH_REPORT_SCHEMA};
use std::path::PathBuf;

fn committed_report() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_report.json");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed artifact {}: {e}", path.display()))
}

#[test]
fn committed_bench_report_validates() {
    let text = committed_report();
    validate_bench_report(&text).expect("results/BENCH_report.json matches the current schema");
    assert!(text.contains(BENCH_REPORT_SCHEMA));
}

#[test]
fn committed_bench_report_covers_the_full_suite() {
    // The figure list is the fixed suite, in run order; a shorter or
    // reordered list means a figure silently dropped out of the timed
    // run.
    let doc = parse(&committed_report()).expect("report parses");
    let Some(Json::Arr(figures)) = doc.get("figures") else {
        panic!("report has no `figures` array");
    };
    let names: Vec<&str> = figures
        .iter()
        .map(|fig| fig.get("name").and_then(Json::as_str).expect("figure name"))
        .collect();
    assert_eq!(
        names,
        [
            "fig03",
            "fig04",
            "fig05_fig06",
            "fig789_compute",
            "fig07",
            "fig08",
            "fig09",
            "fig09_missrate",
            "fig10",
            "fig1112_compute",
            "fig11",
            "fig12",
            "ablations",
            "supp_classifiers",
            "robustness",
            "ingest",
        ]
    );
}
