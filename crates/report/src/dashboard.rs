//! Phase-quality dashboard: the CGO'06 pipeline's health metrics
//! summarized per run.
//!
//! Where the flame view answers "where did the time go", the dashboard
//! answers "how good are the phases the pipeline picked":
//!
//! * the CoV-threshold inputs (`avg_cov`/`std_cov`/`cov_floor`) that
//!   drive marker selection,
//! * marker/candidate counts and the limit variant's cut/merge
//!   counters,
//! * partition shape (interval and phase counts),
//! * per-phase CoV of interval lengths (`partition/phase_len_cov`) —
//!   the paper's homogeneity lens: low CoV means the marker produces
//!   same-length variable-length intervals, i.e. a stable phase,
//! * the VLI-length histogram rendered with the repo's ASCII `#` bars,
//! * throughput gauges and any structured warnings (e.g. fixed-length
//!   fallback).
//!
//! Everything is derived from the ingested stream alone; a run that
//! never emitted a section simply omits it.

use crate::flame::fmt_duration;
use crate::ingest::{Payload, Run};

fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(values[(values.len() - 1) / 2])
}

fn push_line(out: &mut String, line: &str) {
    out.push_str(line);
    out.push('\n');
}

/// Formats a byte count with binary-ish units (powers of 1000 keep the
/// arithmetic honest for I/O counters).
fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1_000_000_000 {
        format!("{:.2} GB", bytes as f64 / 1e9)
    } else if bytes >= 1_000_000 {
        format!("{:.1} MB", bytes as f64 / 1e6)
    } else if bytes >= 1_000 {
        format!("{:.1} kB", bytes as f64 / 1e3)
    } else {
        format!("{bytes} B")
    }
}

/// Renders the dashboard for one run.
pub fn render(run: &Run) -> String {
    let mut out = format!("== {} ==\n", run.label);

    // Headline: total instrumented wall-clock and event volume.
    let span_total: u64 = run.spans().map(|(_, d)| d).sum();
    push_line(
        &mut out,
        &format!(
            "events: {}   instrumented time: {}",
            run.events.len(),
            fmt_duration(span_total)
        ),
    );

    // Simulator throughput gauge (median across occurrences).
    let mut values = run.gauges("sim/events_per_sec");
    if let Some(m) = median(&mut values) {
        push_line(
            &mut out,
            &format!("sim/events_per_sec: median {m:.0} (n={})", values.len()),
        );
    }

    // Selection: marker counts and the CoV-threshold inputs.
    let sum = |name: &str| -> Option<u64> {
        let v = run.counters(name);
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum())
        }
    };
    if let (Some(markers), Some(candidates)) = (sum("select/markers"), sum("select/candidates")) {
        push_line(
            &mut out,
            &format!("selection: {markers} marker(s) from {candidates} candidate(s)"),
        );
    }
    if let Some(threshold) =
        run.events.iter().rev().find(|e| {
            e.name == "select/cov_threshold" && matches!(e.payload, Payload::Gauge { .. })
        })
    {
        let Payload::Gauge { value } = threshold.payload else {
            unreachable!("filtered to gauges");
        };
        let part = |key: &str| {
            threshold
                .field_num(key)
                .map(|v| format!(" {key}={v:.4}"))
                .unwrap_or_default()
        };
        push_line(
            &mut out,
            &format!(
                "cov threshold: {value:.4}{}{}{}",
                part("avg_cov"),
                part("std_cov"),
                part("cov_floor")
            ),
        );
    }
    match (sum("select/limit_cuts"), sum("select/limit_merges")) {
        (None, None) => {}
        (cuts, merges) => push_line(
            &mut out,
            &format!(
                "limit variant: {} cut(s), {} merge(s)",
                cuts.unwrap_or(0),
                merges.unwrap_or(0)
            ),
        ),
    }

    // Partition shape and per-phase homogeneity.
    if let (Some(intervals), Some(phases)) = (sum("partition/intervals"), sum("partition/phases")) {
        push_line(
            &mut out,
            &format!("partition: {intervals} interval(s) across {phases} phase(s)"),
        );
    }
    let phase_covs: Vec<(u64, u64, f64)> = run
        .events
        .iter()
        .filter(|e| e.name == "partition/phase_len_cov")
        .filter_map(|e| match e.payload {
            Payload::Gauge { value } => Some((
                e.field_num("phase").unwrap_or(-1.0) as u64,
                e.field_num("intervals").unwrap_or(0.0) as u64,
                value,
            )),
            _ => None,
        })
        .collect();
    if !phase_covs.is_empty() {
        push_line(&mut out, "per-phase interval-length CoV:");
        for (phase, intervals, cov) in &phase_covs {
            let bar = "#".repeat(((cov * 20.0).round() as usize).clamp(1, 40));
            push_line(
                &mut out,
                &format!("  phase {phase:>3}  cov {cov:.3}  ({intervals} intervals)  {bar}"),
            );
        }
        let mut covs: Vec<f64> = phase_covs.iter().map(|p| p.2).collect();
        if let Some(m) = median(&mut covs) {
            push_line(
                &mut out,
                &format!("  median phase CoV: {m:.3} over {} phase(s)", covs.len()),
            );
        }
    }

    // VLI-length histogram (last snapshot wins: it is cumulative).
    if let Some(hist) =
        run.events.iter().rev().find(|e| {
            e.name == "partition/vli_lengths" && matches!(e.payload, Payload::Hist { .. })
        })
    {
        let Payload::Hist { count, ref buckets } = hist.payload else {
            unreachable!("filtered to hists");
        };
        push_line(
            &mut out,
            &format!("VLI length histogram ({count} intervals):"),
        );
        let widest = buckets.iter().map(|b| b.2).max().unwrap_or(1).max(1);
        for (lo, hi, n) in buckets {
            let bar = "#".repeat(((n * 32) / widest).max(1) as usize);
            push_line(&mut out, &format!("  [{lo:>10}, {hi:>10})  {n:>6}  {bar}"));
        }
    }

    // Profiler output (DESIGN.md §13): per-stage allocation / OS
    // resource rows for every root stage the profiler snapshotted,
    // plus the process-wide heap totals.
    let os_rows: Vec<&crate::ingest::ReportEvent> = run
        .events
        .iter()
        .filter(|e| e.name == "prof/os" && matches!(e.payload, Payload::Gauge { .. }))
        .collect();
    if !os_rows.is_empty() {
        push_line(&mut out, "profile: per-stage resources:");
        push_line(
            &mut out,
            &format!(
                "  {:<24} {:>10} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10}",
                "stage", "allocs", "bytes", "peak RSS", "utime", "stime", "io read", "io write"
            ),
        );
        for row in &os_rows {
            let stage = row.field_str("stage").unwrap_or("?");
            let span_field_sum = |key: &str| -> u64 {
                run.events
                    .iter()
                    .filter(|e| e.name == stage && matches!(e.payload, Payload::Span { .. }))
                    .filter_map(|e| e.field_num(key))
                    .sum::<f64>() as u64
            };
            let n = |key: &str| row.field_num(key).unwrap_or(0.0) as u64;
            push_line(
                &mut out,
                &format!(
                    "  {:<24} {:>10} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10}",
                    stage,
                    span_field_sum("allocs"),
                    fmt_bytes(span_field_sum("alloc_bytes")),
                    fmt_bytes(n("peak_rss_kb").saturating_mul(1024)),
                    fmt_duration(n("utime_us")),
                    fmt_duration(n("stime_us")),
                    fmt_bytes(n("read_bytes")),
                    fmt_bytes(n("write_bytes")),
                ),
            );
        }
    }
    if let (Some(&allocs), Some(&bytes)) = (
        run.counters("prof/allocs").last(),
        run.counters("prof/alloc_bytes").last(),
    ) {
        let peak = run
            .counters("prof/heap_peak_bytes")
            .last()
            .copied()
            .unwrap_or(0);
        push_line(
            &mut out,
            &format!(
                "heap: {allocs} allocation(s), {} allocated, peak {} live",
                fmt_bytes(bytes),
                fmt_bytes(peak)
            ),
        );
    }

    // Structured warnings, verbatim.
    let warnings: Vec<&crate::ingest::ReportEvent> = run
        .events
        .iter()
        .filter(|e| matches!(e.payload, Payload::Warning))
        .collect();
    if !warnings.is_empty() {
        push_line(&mut out, &format!("warnings ({}):", warnings.len()));
        for w in warnings {
            let fields: Vec<String> = w.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            push_line(&mut out, &format!("  {} {}", w.name, fields.join(" ")));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::load_str;
    use spm_obs::jsonl::encode;
    use spm_obs::{histogram_kind, Event, EventKind};

    fn run_from(events: &[Event]) -> Run {
        let text: String = events.iter().map(|e| format!("{}\n", encode(e))).collect();
        load_str("gzip", &text).unwrap()
    }

    #[test]
    fn full_pipeline_stream_renders_every_section() {
        let mut hist = spm_stats::LogHistogram::new();
        hist.extend([40_000_000u64, 41_000_000, 200_000_000]);
        let run = run_from(&[
            Event::new("cli/select", EventKind::Span { dur_us: 9_000 }),
            Event::new("sim/events_per_sec", EventKind::Gauge { value: 2.0e8 }),
            Event::new("select/candidates", EventKind::Counter { value: 40 }),
            Event::new("select/markers", EventKind::Counter { value: 3 }),
            Event::new("select/cov_threshold", EventKind::Gauge { value: 0.07 })
                .with("avg_cov", 0.05)
                .with("std_cov", 0.02)
                .with("cov_floor", 0.01),
            Event::new("select/limit_cuts", EventKind::Counter { value: 2 }),
            Event::new("select/limit_merges", EventKind::Counter { value: 1 }),
            Event::new("partition/intervals", EventKind::Counter { value: 12 }),
            Event::new("partition/phases", EventKind::Counter { value: 3 }),
            Event::new("partition/phase_len_cov", EventKind::Gauge { value: 0.12 })
                .with("phase", 0u64)
                .with("intervals", 7u64),
            Event::new("partition/phase_len_cov", EventKind::Gauge { value: 0.55 })
                .with("phase", 1u64)
                .with("intervals", 5u64),
            Event::new("partition/vli_lengths", histogram_kind(&hist)),
            Event::new("fallback/fixed-length", EventKind::Warning).with("reason", "no-markers"),
        ]);
        let text = render(&run);
        assert!(text.contains("== gzip =="), "{text}");
        assert!(text.contains("3 marker(s) from 40 candidate(s)"), "{text}");
        assert!(
            text.contains("cov threshold: 0.0700 avg_cov=0.0500 std_cov=0.0200 cov_floor=0.0100"),
            "{text}"
        );
        assert!(
            text.contains("limit variant: 2 cut(s), 1 merge(s)"),
            "{text}"
        );
        assert!(text.contains("12 interval(s) across 3 phase(s)"), "{text}");
        assert!(
            text.contains("phase   0  cov 0.120  (7 intervals)"),
            "{text}"
        );
        assert!(
            text.contains("phase   1  cov 0.550  (5 intervals)"),
            "{text}"
        );
        assert!(
            text.contains("median phase CoV: 0.120 over 2 phase(s)"),
            "{text}"
        );
        assert!(
            text.contains("VLI length histogram (3 intervals):"),
            "{text}"
        );
        assert!(
            text.contains("sim/events_per_sec: median 200000000 (n=1)"),
            "{text}"
        );
        assert!(text.contains("warnings (1):"), "{text}");
        assert!(
            text.contains("fallback/fixed-length reason=no-markers"),
            "{text}"
        );
        assert!(text.contains('#'), "{text}");
    }

    #[test]
    fn sparse_stream_omits_missing_sections() {
        let run = run_from(&[Event::new("cli/run", EventKind::Span { dur_us: 10 })]);
        let text = render(&run);
        assert!(text.contains("events: 1"), "{text}");
        assert!(!text.contains("selection:"), "{text}");
        assert!(!text.contains("VLI length histogram"), "{text}");
        assert!(!text.contains("warnings"), "{text}");
        assert!(!text.contains("limit variant"), "{text}");
        assert!(!text.contains("profile:"), "{text}");
        assert!(!text.contains("heap:"), "{text}");
    }

    #[test]
    fn profiled_stream_renders_alloc_and_rss_table() {
        let run = run_from(&[
            Event::new("cli/select", EventKind::Span { dur_us: 9_000 })
                .with("allocs", 1200u64)
                .with("alloc_bytes", 5_500_000u64),
            Event::new("prof/os", EventKind::Gauge { value: 34_000.0 })
                .with("stage", "cli/select")
                .with("utime_us", 8_000u64)
                .with("stime_us", 1_000u64)
                .with("rss_kb", 30_000u64)
                .with("peak_rss_kb", 34_000u64)
                .with("read_bytes", 4_096u64)
                .with("write_bytes", 0u64),
            Event::new("prof/allocs", EventKind::Counter { value: 1300 }),
            Event::new("prof/alloc_bytes", EventKind::Counter { value: 6_000_000 }),
            Event::new(
                "prof/heap_peak_bytes",
                EventKind::Counter { value: 2_000_000 },
            ),
        ]);
        let text = render(&run);
        assert!(text.contains("profile: per-stage resources:"), "{text}");
        assert!(text.contains("cli/select"), "{text}");
        assert!(text.contains("1200"), "{text}");
        assert!(text.contains("5.5 MB"), "{text}");
        assert!(text.contains("34.8 MB"), "{text}"); // 34_000 kB peak RSS
        assert!(text.contains("8.00ms"), "{text}"); // utime
        assert!(text.contains("4.1 kB"), "{text}"); // io read
        assert!(
            text.contains("heap: 1300 allocation(s), 6.0 MB allocated, peak 2.0 MB live"),
            "{text}"
        );
    }
}
