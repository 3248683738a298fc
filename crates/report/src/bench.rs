//! Validation of the committed bench artifact
//! (`results/BENCH_report.json`, schema `spm-bench/report/v7`).
//!
//! The report carries the current measurement — for each figure of the
//! suite the repeat count and the median/min/total wall-clock across
//! repeats, the suite-wide simulation throughput, and the per-decoder
//! ingest throughput of the `spmstk01` store figure (batched vs
//! parallel vs compressed vs crash-recovered decode) — plus (since v5) the
//! `trajectory`: the per-decoder ingest medians of *previous* committed
//! reports, carried forward and appended to by `all_figures` on each
//! regeneration, so ingest-throughput history accumulates in-repo
//! instead of being overwritten. v6 adds the statistical profiler
//! (DESIGN.md §13): a suite-level `profile` object (sampling rate,
//! total samples, allocation totals, heap peak) and a per-figure
//! `profile` object (samples landing in the figure, allocs/bytes
//! attributed to its span, peak RSS at its close) — the before/after
//! evidence the ingest-optimization work gates on. Like the JSONL
//! stream schema, the validator here is the *executable* schema: CI
//! runs it against the committed file, and the writer (`all_figures`)
//! is tested against it, so producer and consumer cannot drift apart
//! silently.

use spm_obs::jsonl::{parse, Json};

/// Schema identifier of the bench report artifact.
pub const BENCH_REPORT_SCHEMA: &str = "spm-bench/report/v7";

/// The previous schema identifier. The writer still *reads* v6 files
/// (to carry their ingest trajectory forward across the format bump)
/// but always writes, and the validator only accepts, v7.
pub const PREV_BENCH_REPORT_SCHEMA: &str = "spm-bench/report/v6";

/// Most trajectory points a report may carry (the writer drops the
/// oldest beyond this).
pub const TRAJECTORY_CAP: usize = 64;

/// Validates one decoder entry (`{name, median_events_per_sec, n}`),
/// shared by the `ingest` section and every trajectory point.
fn check_decoders(decoders: &[Json], at: impl Fn(String) -> String) -> Result<(), String> {
    for (i, dec) in decoders.iter().enumerate() {
        let at = |message: String| at(format!("decoders[{i}]: {message}"));
        let name = dec
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing `name`".into()))?;
        if name.is_empty() {
            return Err(at("`name` is empty".into()));
        }
        let median = finite_num(dec, "median_events_per_sec").map_err(&at)?;
        if median < 0.0 {
            return Err(at(format!(
                "`median_events_per_sec` is negative ({median})"
            )));
        }
        let n = finite_num(dec, "n").map_err(&at)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(at("`n` must be a non-negative integer".into()));
        }
    }
    Ok(())
}

fn finite_num(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        Some(Json::Num(n)) if n.is_finite() => Ok(*n),
        Some(Json::Num(_)) => Err(format!("`{key}` is not finite")),
        Some(_) => Err(format!("`{key}` is not a number")),
        None => Err(format!("missing `{key}`")),
    }
}

fn positive_int(doc: &Json, key: &str) -> Result<u64, String> {
    let n = finite_num(doc, key)?;
    if n >= 1.0 && n.fract() == 0.0 {
        Ok(n as u64)
    } else {
        Err(format!("`{key}` must be a positive integer, got {n}"))
    }
}

fn nonneg_int(doc: &Json, key: &str) -> Result<u64, String> {
    let n = finite_num(doc, key)?;
    if n >= 0.0 && n.fract() == 0.0 {
        Ok(n as u64)
    } else {
        Err(format!("`{key}` must be a non-negative integer, got {n}"))
    }
}

/// Validates a `profile` object. Suite-level and per-figure profiles
/// share the integer-field convention; only the key set differs.
fn check_profile(doc: &Json, keys: &[&str], at: impl Fn(String) -> String) -> Result<(), String> {
    let profile = match doc.get("profile") {
        Some(obj @ Json::Obj(_)) => obj,
        Some(_) => return Err(at("`profile` is not an object".into())),
        None => return Err(at("missing `profile` object".into())),
    };
    for key in keys {
        nonneg_int(profile, key).map_err(|m| at(format!("profile: {m}")))?;
    }
    Ok(())
}

/// Validates a [`BENCH_REPORT_SCHEMA`] document.
///
/// # Errors
///
/// A human-readable description of the first violation: wrong schema
/// tag, missing or mistyped keys, non-finite numbers, empty figure or
/// ingest-decoder lists, or per-figure stats that contradict each
/// other (`min > median` or `median > total`).
pub fn validate_bench_report(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(BENCH_REPORT_SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "schema is `{other}`, expected `{BENCH_REPORT_SCHEMA}`"
            ))
        }
        None => return Err("missing `schema`".into()),
    }
    positive_int(&doc, "host_parallelism")?;
    positive_int(&doc, "jobs")?;
    let repeats = positive_int(&doc, "repeats")?;

    let Some(Json::Obj(_)) = doc.get("events_per_sec") else {
        return Err("missing `events_per_sec` object".into());
    };
    let eps = doc
        .get("events_per_sec")
        .ok_or("missing `events_per_sec`")?;
    let median = finite_num(eps, "median")?;
    if median < 0.0 {
        return Err("`events_per_sec.median` is negative".into());
    }
    let n = finite_num(eps, "n")?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err("`events_per_sec.n` must be a non-negative integer".into());
    }

    // v6: the suite-level profiler summary.
    check_profile(
        &doc,
        &[
            "sample_hz",
            "samples",
            "allocs",
            "alloc_bytes",
            "heap_peak_bytes",
        ],
        |m| m,
    )?;

    let ingest = match doc.get("ingest") {
        Some(obj @ Json::Obj(_)) => obj,
        Some(_) => return Err("`ingest` is not an object".into()),
        None => return Err("missing `ingest` object".into()),
    };
    match ingest.get("workload").and_then(Json::as_str) {
        Some(w) if !w.is_empty() => {}
        _ => return Err("`ingest.workload` must be a non-empty string".into()),
    }
    let Some(Json::Arr(decoders)) = ingest.get("decoders") else {
        return Err("missing `ingest.decoders` array".into());
    };
    if decoders.is_empty() {
        return Err("`ingest.decoders` is empty".into());
    }
    check_decoders(decoders, |message| format!("ingest.{message}"))?;

    // The trajectory may be empty (a fresh v5 file has no history yet)
    // but must be present, each point well-formed, and its sequence
    // numbers strictly increasing.
    let Some(Json::Arr(trajectory)) = doc.get("trajectory") else {
        return Err("missing `trajectory` array".into());
    };
    if trajectory.len() > TRAJECTORY_CAP {
        return Err(format!(
            "`trajectory` has {} points, cap is {TRAJECTORY_CAP}",
            trajectory.len()
        ));
    }
    let mut last_seq = 0u64;
    for (i, point) in trajectory.iter().enumerate() {
        let at = |message: String| format!("trajectory[{i}]: {message}");
        let seq = positive_int(point, "seq").map_err(&at)?;
        if seq <= last_seq {
            return Err(at(format!("`seq` {seq} not above predecessor {last_seq}")));
        }
        last_seq = seq;
        positive_int(point, "jobs").map_err(&at)?;
        positive_int(point, "repeats").map_err(&at)?;
        let Some(Json::Arr(decoders)) = point.get("decoders") else {
            return Err(at("missing `decoders` array".into()));
        };
        if decoders.is_empty() {
            return Err(at("`decoders` is empty".into()));
        }
        check_decoders(decoders, at)?;
    }

    let Some(Json::Arr(figures)) = doc.get("figures") else {
        return Err("missing `figures` array".into());
    };
    if figures.is_empty() {
        return Err("`figures` is empty".into());
    }
    for (i, fig) in figures.iter().enumerate() {
        let at = |message: String| format!("figures[{i}]: {message}");
        let name = fig
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing `name`".into()))?;
        if name.is_empty() {
            return Err(at("`name` is empty".into()));
        }
        let reps = positive_int(fig, "repeats").map_err(&at)?;
        if reps != repeats {
            return Err(at(format!(
                "`repeats` is {reps}, suite-level says {repeats}"
            )));
        }
        let median_us = finite_num(fig, "median_us").map_err(&at)?;
        let min_us = finite_num(fig, "min_us").map_err(&at)?;
        let total_us = finite_num(fig, "total_us").map_err(&at)?;
        if min_us < 0.0 {
            return Err(at(format!("`min_us` is negative ({min_us})")));
        }
        if min_us > median_us {
            return Err(at(format!("min_us {min_us} > median_us {median_us}")));
        }
        if median_us > total_us {
            return Err(at(format!("median_us {median_us} > total_us {total_us}")));
        }
        // v6: every figure carries its profiler summary.
        check_profile(
            fig,
            &["samples", "allocs", "alloc_bytes", "peak_rss_kb"],
            at,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        format!(
            r#"{{
  "schema": "{BENCH_REPORT_SCHEMA}",
  "host_parallelism": 4,
  "jobs": 4,
  "repeats": 2,
  "events_per_sec": {{"median": 150000000, "n": 12}},
  "profile": {{"sample_hz": 7, "samples": 420, "allocs": 120000, "alloc_bytes": 90000000, "heap_peak_bytes": 30000000}},
  "ingest": {{"workload": "gzip", "decoders": [
    {{"name": "flat", "median_events_per_sec": 90000000, "n": 2}},
    {{"name": "store", "median_events_per_sec": 85000000, "n": 2}},
    {{"name": "store-par", "median_events_per_sec": 160000000, "n": 2}},
    {{"name": "store-faulted", "median_events_per_sec": 70000000, "n": 2}}
  ]}},
  "trajectory": [
    {{"seq": 1, "jobs": 4, "repeats": 2, "decoders": [
      {{"name": "flat", "median_events_per_sec": 88000000, "n": 2}}
    ]}},
    {{"seq": 2, "jobs": 4, "repeats": 2, "decoders": [
      {{"name": "flat", "median_events_per_sec": 90000000, "n": 2}}
    ]}}
  ],
  "figures": [
    {{"name": "fig03", "repeats": 2, "median_us": 60000, "min_us": 55000, "total_us": 125000, "profile": {{"samples": 4, "allocs": 900, "alloc_bytes": 500000, "peak_rss_kb": 40000}}}},
    {{"name": "fig04", "repeats": 2, "median_us": 1500000, "min_us": 1400000, "total_us": 2900000, "profile": {{"samples": 110, "allocs": 52000, "alloc_bytes": 41000000, "peak_rss_kb": 52000}}}}
  ]
}}"#
        )
    }

    #[test]
    fn valid_report_passes() {
        validate_bench_report(&sample()).unwrap();
    }

    #[test]
    fn wrong_schema_tag_fails() {
        let text = sample().replace("report/v7", "timings/v2");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("timings/v2"), "{err}");
        // The previous major version is rejected too: a stale committed
        // artifact must fail, not slide through.
        let text = sample().replace(BENCH_REPORT_SCHEMA, PREV_BENCH_REPORT_SCHEMA);
        assert!(validate_bench_report(&text).is_err());
    }

    #[test]
    fn missing_profile_sections_fail() {
        // Suite-level profile is mandatory at v6.
        let start = sample().find("  \"profile\"").unwrap();
        let mut text = sample();
        let end = text.find("  \"ingest\"").unwrap();
        text.replace_range(start..end, "");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("profile"), "{err}");

        // So is every figure's.
        let text = sample().replace(
            ", \"profile\": {\"samples\": 4, \"allocs\": 900, \"alloc_bytes\": 500000, \"peak_rss_kb\": 40000}",
            "",
        );
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("figures[0]"), "{err}");
        assert!(err.contains("profile"), "{err}");

        // And profile integers must be non-negative integers.
        let text = sample().replace("\"samples\": 420", "\"samples\": -1");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let text = sample().replace("\"peak_rss_kb\": 40000", "\"peak_rss_kb\": 1.5");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("figures[0]"), "{err}");
    }

    #[test]
    fn missing_trajectory_fails_but_empty_passes() {
        let start = sample().find("  \"trajectory\"").unwrap();
        let mut text = sample();
        let end = text.find("  \"figures\"").unwrap();
        text.replace_range(start..end, "");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("trajectory"), "{err}");

        // A fresh v5 file starts with no history.
        let mut text = sample();
        let start = text.find("\"trajectory\": [").unwrap() + "\"trajectory\": ".len();
        let end = start + text[start..].find("],").unwrap();
        text.replace_range(start..end + 1, "[]");
        validate_bench_report(&text).unwrap();
    }

    #[test]
    fn trajectory_points_are_checked() {
        // Non-increasing sequence numbers fail.
        let text = sample().replace("\"seq\": 2", "\"seq\": 1");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("trajectory[1]"), "{err}");
        assert!(err.contains("not above predecessor"), "{err}");
        // A malformed decoder inside a point fails with its location.
        let text = sample().replace(
            "{\"name\": \"flat\", \"median_events_per_sec\": 88000000, \"n\": 2}",
            "{\"median_events_per_sec\": 88000000, \"n\": 2}",
        );
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("trajectory[0]"), "{err}");
        assert!(err.contains("decoders[0]"), "{err}");
    }

    #[test]
    fn missing_keys_fail_with_location() {
        let text = sample().replace("\"min_us\": 55000, ", "");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("figures[0]"), "{err}");
        assert!(err.contains("min_us"), "{err}");
    }

    #[test]
    fn inconsistent_stats_fail() {
        let text = sample().replace("\"min_us\": 55000", "\"min_us\": 65000");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("min_us 65000 > median_us 60000"), "{err}");
    }

    #[test]
    fn repeat_count_mismatch_fails() {
        let text = sample().replace(
            "\"name\": \"fig04\", \"repeats\": 2",
            "\"name\": \"fig04\", \"repeats\": 3",
        );
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("suite-level says 2"), "{err}");
    }

    #[test]
    fn non_finite_numbers_fail() {
        let text = sample().replace("\"median_us\": 60000", "\"median_us\": 1e999");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("not finite"), "{err}");
    }

    #[test]
    fn empty_figures_fail() {
        let mut text = sample();
        let start = text.find("\"figures\": [").unwrap() + "\"figures\": ".len();
        let end = text.rfind(']').unwrap();
        text.replace_range(start..=end, "[]");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn missing_ingest_section_fails() {
        let start = sample().find("  \"ingest\"").unwrap();
        let mut text = sample();
        let end = text.find("  \"figures\"").unwrap();
        text.replace_range(start..end, "");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("ingest"), "{err}");
    }

    #[test]
    fn bad_ingest_decoders_fail() {
        let text = sample().replace(
            "\"median_events_per_sec\": 85000000",
            "\"median_events_per_sec\": -1",
        );
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("ingest.decoders[1]"), "{err}");
        assert!(err.contains("negative"), "{err}");

        let text = sample().replace("\"name\": \"store-par\", ", "");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("ingest.decoders[2]"), "{err}");
        assert!(err.contains("name"), "{err}");
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(validate_bench_report("not json").is_err());
        assert!(validate_bench_report("[]").is_err());
    }
}
