//! End-to-end tests of the `spmstk01` store through the binary:
//! `pack`/`record`, `info`, `replay`, store auto-detection on the
//! analysis commands, byte-identity with the engine paths, and
//! corruption degradation.

use std::path::PathBuf;
use std::process::{Command, Output};

fn spm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spm"))
        .args(args)
        .output()
        .expect("spm binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spm-store-test-{}-{name}", std::process::id()));
    p
}

/// The committed workload corpus the CI gate also runs over.
const WORKLOAD_FILES: &[&str] = &[
    "workloads/art.spm",
    "workloads/example.spm",
    "workloads/gzip.spm",
    "workloads/streamjoin.spm",
];

fn workload_path(rel: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push(rel);
    assert!(p.is_file(), "missing committed workload {rel}");
    p.to_str().expect("utf8 path").to_string()
}

/// Packs `workload` (with the given input) and returns the store path.
fn pack(workload: &str, input: &str, name: &str) -> PathBuf {
    let store = tmp(name);
    let out = spm(&[
        "pack",
        workload,
        "--input",
        input,
        "--out",
        store.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "pack failed: {}", stderr(&out));
    store
}

#[test]
fn pack_and_info_over_committed_workloads() {
    for (i, rel) in WORKLOAD_FILES.iter().enumerate() {
        let wl = workload_path(rel);
        let store = pack(&wl, "train", &format!("golden-{i}.spmstk"));
        let err = stderr(&spm(&[
            "pack",
            &wl,
            "--input",
            "train",
            "--out",
            store.to_str().expect("utf8"),
        ]));
        assert!(err.starts_with("packed "), "{rel}: {err}");
        assert!(err.contains("blocks"), "{rel}: {err}");

        let out = spm(&["info", store.to_str().expect("utf8")]);
        assert!(out.status.success(), "{rel}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("format:        spmstk01"), "{rel}: {text}");
        for field in ["blocks:", "events:", "instructions:", "block dims:"] {
            assert!(text.contains(field), "{rel}: info missing {field}");
        }
        // info is deterministic: two packs of the same run describe
        // the same container byte-for-byte.
        let again = spm(&["info", store.to_str().expect("utf8")]);
        assert_eq!(stdout(&again), text, "{rel}: info not deterministic");
        std::fs::remove_file(&store).ok();
    }
}

#[test]
fn select_from_store_is_byte_identical_to_engine() {
    for (i, rel) in WORKLOAD_FILES.iter().enumerate() {
        let wl = workload_path(rel);
        let store = pack(&wl, "train", &format!("sel-{i}.spmstk"));
        let engine = spm(&["select", &wl]);
        assert!(engine.status.success(), "{rel}: {}", stderr(&engine));
        for jobs in ["1", "4"] {
            let stored = spm(&[
                "select",
                "--store",
                store.to_str().expect("utf8"),
                "--jobs",
                jobs,
            ]);
            assert!(stored.status.success(), "{rel}: {}", stderr(&stored));
            assert_eq!(
                stdout(&stored),
                stdout(&engine),
                "{rel}: store select differs at --jobs {jobs}"
            );
            assert_eq!(
                stderr(&stored),
                stderr(&engine),
                "{rel}: store select stderr differs at --jobs {jobs}"
            );
        }
        std::fs::remove_file(&store).ok();
    }
}

#[test]
fn simpoint_from_store_matches_engine() {
    let wl = workload_path("workloads/example.spm");
    let store = pack(&wl, "ref", "simpoint.spmstk");
    let engine = spm(&["simpoint", &wl]);
    assert!(engine.status.success(), "{}", stderr(&engine));
    let stored = spm(&["simpoint", store.to_str().expect("utf8")]);
    assert!(stored.status.success(), "{}", stderr(&stored));
    assert_eq!(stdout(&stored), stdout(&engine));
    std::fs::remove_file(&store).ok();
}

#[test]
fn partition_from_store_produces_intervals() {
    let wl = workload_path("workloads/gzip.spm");
    let store = pack(&wl, "ref", "partition.spmstk");
    let out = spm(&["partition", store.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("begin\tend\tphase"), "{text}");
    assert!(lines.len() > 1, "no intervals: {text}");
    for line in &lines[1..] {
        assert_eq!(line.split('\t').count(), 5, "bad row: {line}");
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn corrupt_block_degrades_to_warning_and_exit_zero() {
    let wl = workload_path("workloads/art.spm");
    let store = pack(&wl, "train", "corrupt.spmstk");
    let mut bytes = std::fs::read(&store).expect("read store");
    // Flip a byte inside the first block's payload (past the 16-byte
    // header and 40-byte frame).
    bytes[16 + 40 + 64] ^= 0x55;
    std::fs::write(&store, &bytes).expect("write corrupted store");

    let out = spm(&["select", "--store", store.to_str().expect("utf8")]);
    assert!(
        out.status.success(),
        "corrupt block must degrade, not fail: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("store=degraded") && err.contains("skipped_blocks=1"),
        "missing degradation warning: {err}"
    );
    assert!(
        stdout(&out).starts_with("markers v1"),
        "still produces markers"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn replay_rejects_non_stores_with_one_typed_error_line() {
    // Bytes in the retired flat-trace layout: magic, then the event
    // count, payload length, and checksum words, then a payload.
    let mut flat = b"spmtrc02".to_vec();
    flat.extend([0u8; 24]);
    flat.extend([11, 0]);
    let file = tmp("old-flat.bin");
    std::fs::write(&file, &flat).expect("write non-store");
    let out = spm(&["replay", file.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(8), "trace-decode exit code");
    let err = stderr(&out);
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one stderr line: {err}");
    assert!(lines[0].starts_with("error[trace-decode]: "), "{err}");
    assert!(lines[0].contains("spmstk01"), "must name the format: {err}");
    assert!(
        !err.contains("recovered"),
        "no recovery on a non-store: {err}"
    );
    assert!(stdout(&out).is_empty());
    std::fs::remove_file(&file).ok();
}

#[test]
fn record_and_pack_write_identical_stores() {
    let wl = workload_path("workloads/example.spm");
    let packed = pack(&wl, "train", "via-pack.spmstk");
    let recorded = tmp("via-record.spmstk");
    let out = spm(&[
        "record",
        &wl,
        "--input",
        "train",
        "--out",
        recorded.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(&recorded).expect("read recorded"),
        std::fs::read(&packed).expect("read packed"),
        "record is pack under another name"
    );
    std::fs::remove_file(&packed).ok();
    std::fs::remove_file(&recorded).ok();
}

#[test]
fn pack_reads_workloads_only() {
    // Trace files are no longer a pack source: a file argument is a
    // workload in the text DSL, and these bytes do not parse as one.
    let file = tmp("pack-source.bin");
    std::fs::write(&file, b"spmtrc02 not a workload").expect("write file");
    let store = tmp("pack-source.spmstk");
    let out = spm(&[
        "pack",
        file.to_str().expect("utf8"),
        "--out",
        store.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("error[workload-parse]"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&store).ok();
}

fn spm_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spm"));
    cmd.args(args);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output().expect("spm binary runs")
}

/// Packs `workload` through the `SPM_PACK_FAULT` failpoint disk with a
/// crash scheduled, leaving a torn store at the returned path.
fn pack_torn(workload: &str, name: &str, fault: &str) -> PathBuf {
    let store = tmp(name);
    let out = spm_env(
        &[
            "pack",
            workload,
            "--input",
            "train",
            "--out",
            store.to_str().expect("utf8"),
            "--block-size",
            "2048",
        ],
        &[("SPM_PACK_FAULT", fault)],
    );
    assert!(!out.status.success(), "crashed pack must fail");
    assert_eq!(out.status.code(), Some(3), "crash is an I/O error");
    let err = stderr(&out);
    assert!(
        err.contains("pack died after committing"),
        "missing crash report: {err}"
    );
    assert!(store.is_file(), "surviving image must be written");
    store
}

#[test]
fn interrupted_pack_leaves_a_store_the_analyses_consume() {
    let wl = workload_path("workloads/example.spm");
    // Crash late enough that several 2 KiB blocks were committed.
    let store = pack_torn(&wl, "torn.spmstk", "seed=3,crash-at-op=40");
    let path = store.to_str().expect("utf8");

    // select: exit 0, recovery warning, identical output at any --jobs.
    let mut selects = Vec::new();
    for jobs in ["1", "4"] {
        let out = spm(&["select", "--store", path, "--jobs", jobs]);
        assert!(
            out.status.success(),
            "torn store must degrade, not fail (--jobs {jobs}): {}",
            stderr(&out)
        );
        let err = stderr(&out);
        assert!(
            err.contains("store=recovered"),
            "missing recovery warning at --jobs {jobs}: {err}"
        );
        assert!(
            stdout(&out).starts_with("markers v1"),
            "still produces markers at --jobs {jobs}"
        );
        selects.push((stdout(&out), err));
    }
    assert_eq!(selects[0], selects[1], "recovery must not depend on --jobs");

    // partition and simpoint consume the same torn store.
    let out = spm(&["partition", path]);
    assert!(out.status.success(), "partition: {}", stderr(&out));
    assert!(stderr(&out).contains("store=recovered"), "{}", stderr(&out));
    assert!(stdout(&out).starts_with("begin\tend\tphase"));
    let out = spm(&["simpoint", path]);
    assert!(out.status.success(), "simpoint: {}", stderr(&out));
    assert!(stderr(&out).contains("store=recovered"), "{}", stderr(&out));

    std::fs::remove_file(&store).ok();
}

#[test]
fn exhausted_retries_exit_with_their_own_code() {
    let wl = workload_path("workloads/example.spm");
    let store = tmp("stuck.spmstk");
    // Op 5 fails with a transient error forever: the retry budget must
    // run out and surface the dedicated exit code, distinct from plain
    // I/O failures.
    let out = spm_env(
        &[
            "pack",
            &wl,
            "--input",
            "train",
            "--out",
            store.to_str().expect("utf8"),
        ],
        &[("SPM_PACK_FAULT", "stuck-at-op=5")],
    );
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(11), "exhausted-retries exit code");
    let err = stderr(&out);
    assert!(
        err.contains("retries exhausted") && err.contains("attempts"),
        "missing exhaustion report: {err}"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn transient_faults_are_absorbed_with_retry_telemetry() {
    let wl = workload_path("workloads/example.spm");
    let store = tmp("flaky.spmstk");
    // One in four ops fails transiently; every failure must be retried
    // away and reported in the summary line.
    let out = spm_env(
        &[
            "pack",
            &wl,
            "--input",
            "train",
            "--out",
            store.to_str().expect("utf8"),
            "--block-size",
            "2048",
        ],
        &[("SPM_PACK_FAULT", "seed=9,transient-one-in=4")],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("io retries="), "missing retry count: {err}");

    // The flaky-but-successful pack is a normal clean store.
    let info = spm(&["info", store.to_str().expect("utf8")]);
    assert!(info.status.success());
    assert!(stdout(&info).contains("durability:    clean"));
    std::fs::remove_file(&store).ok();
}

#[test]
fn info_reports_durability_sync_policy_and_watermarks() {
    let wl = workload_path("workloads/example.spm");

    // Clean store, default policy.
    let store = pack(&wl, "train", "durability.spmstk");
    let out = spm(&["info", store.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("sync policy:   block"), "{text}");
    assert!(text.contains("durability:    clean"), "{text}");
    assert!(text.contains("committed:     seq "), "{text}");
    assert!(!text.contains("torn tail:"), "{text}");
    std::fs::remove_file(&store).ok();

    // --sync is recorded in the header and reported back.
    let store = tmp("nosync.spmstk");
    let out = spm(&[
        "pack",
        &wl,
        "--input",
        "train",
        "--out",
        store.to_str().expect("utf8"),
        "--sync",
        "none",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("sync=none"), "{}", stderr(&out));
    let info = spm(&["info", store.to_str().expect("utf8")]);
    assert!(stdout(&info).contains("sync policy:   none"));
    std::fs::remove_file(&store).ok();

    // A bad --sync value is a usage error.
    let out = spm(&["pack", &wl, "--out", "/tmp/x.spmstk", "--sync", "often"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("none|block|close"),
        "{}",
        stderr(&out)
    );

    // A torn store reports recovery and the discarded tail.
    let store = pack_torn(&wl, "torninfo.spmstk", "seed=5,crash-at-op=31");
    let info = spm(&["info", store.to_str().expect("utf8")]);
    assert!(info.status.success(), "{}", stderr(&info));
    let text = stdout(&info);
    assert!(text.contains("durability:    recovered-on-open"), "{text}");
    assert!(text.contains("torn tail:"), "{text}");
    std::fs::remove_file(&store).ok();
}

#[test]
fn replay_recovers_torn_and_degrades_damaged_stores() {
    let wl = workload_path("workloads/example.spm");
    let clean = pack(&wl, "train", "replay-clean.spmstk");
    let out = spm(&["replay", clean.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).is_empty(),
        "clean replay warns: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    for field in [
        "events:",
        "instructions:",
        "CPI:",
        "DL1 miss rate:",
        "mispredicts:",
    ] {
        assert!(text.contains(field), "summary missing {field}: {text}");
    }

    // A torn store replays its committed prefix, with the recovery
    // warning every other reader prints.
    let torn = pack_torn(&wl, "replay-torn.spmstk", "seed=5,crash-at-op=31");
    let out = spm(&["replay", torn.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).starts_with("warning: store=recovered "),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).contains("events:"));

    // A damaged block costs that block: degraded warning, exit 0.
    let mut bytes = std::fs::read(&clean).expect("read store");
    bytes[16 + 40 + 64] ^= 0x55;
    std::fs::write(&clean, &bytes).expect("write damaged store");
    let out = spm(&["replay", clean.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("warning: store=degraded skipped_blocks=1"),
        "{err}"
    );
    std::fs::remove_file(&clean).ok();
    std::fs::remove_file(&torn).ok();
}

#[test]
fn compressed_store_is_byte_identical_and_smaller() {
    let wl = workload_path("workloads/gzip.spm");
    let plain = pack(&wl, "train", "cmp-plain.spmstk");
    let packed = tmp("cmp-lz.spmstk");
    let out = spm(&[
        "pack",
        &wl,
        "--input",
        "train",
        "--compress",
        "--out",
        packed.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success(),
        "compressed pack failed: {}",
        stderr(&out)
    );
    let plain_len = std::fs::metadata(&plain).expect("plain meta").len();
    let packed_len = std::fs::metadata(&packed).expect("packed meta").len();
    assert!(
        packed_len < plain_len,
        "compressed store ({packed_len} bytes) not smaller than plain ({plain_len} bytes)"
    );

    // `info` names the codec.
    let info = stdout(&spm(&["info", packed.to_str().expect("utf8")]));
    assert!(info.contains("compression:   lz"), "{info}");
    let info_plain = stdout(&spm(&["info", plain.to_str().expect("utf8")]));
    assert!(info_plain.contains("compression:   none"), "{info_plain}");

    // Every analysis output is byte-identical across flat, plain store,
    // and compressed store, serial and parallel. Each command is paired
    // with a store packed from its default input (select reads train,
    // simpoint reads ref).
    for (cmd, input) in [("select", "train"), ("simpoint", "ref")] {
        let plain_in = pack(&wl, input, &format!("cmp-plain-{input}.spmstk"));
        let packed_in = tmp(format!("cmp-lz-{input}.spmstk").as_str());
        let out = spm(&[
            "pack",
            &wl,
            "--input",
            input,
            "--compress",
            "--out",
            packed_in.to_str().expect("utf8"),
        ]);
        assert!(out.status.success(), "{cmd}: {}", stderr(&out));
        let flat = spm(&[cmd, &wl]);
        assert!(flat.status.success(), "{cmd}: {}", stderr(&flat));
        for store in [&plain_in, &packed_in] {
            for jobs in ["1", "4"] {
                let stored = spm(&[
                    cmd,
                    "--store",
                    store.to_str().expect("utf8"),
                    "--jobs",
                    jobs,
                ]);
                assert!(stored.status.success(), "{cmd}: {}", stderr(&stored));
                assert_eq!(
                    stdout(&stored),
                    stdout(&flat),
                    "{cmd} differs for {store:?} at --jobs {jobs}"
                );
            }
        }
        std::fs::remove_file(&plain_in).ok();
        std::fs::remove_file(&packed_in).ok();
    }
    std::fs::remove_file(&plain).ok();
    std::fs::remove_file(&packed).ok();
}

#[test]
fn short_header_files_get_typed_errors_not_panics() {
    // Every truncation of a store header — including the empty file —
    // must produce a clean typed decode error (exit 8) from both `info`
    // and the `--store` analyses. A panic or a raw io error would show
    // up as a different exit code and stderr shape.
    let wl = workload_path("workloads/example.spm");
    let store = pack(&wl, "train", "short-hdr.spmstk");
    let bytes = std::fs::read(&store).expect("read store");
    let short = tmp("short-hdr-cut.spmstk");
    for len in 0..16 {
        std::fs::write(&short, &bytes[..len]).expect("write truncated");
        for args in [
            vec!["info", short.to_str().expect("utf8")],
            vec!["select", "--store", short.to_str().expect("utf8")],
        ] {
            let out = spm(&args);
            assert_eq!(
                out.status.code(),
                Some(8),
                "len {len} {args:?}: expected decode-error exit, got {:?}\n{}",
                out.status.code(),
                stderr(&out)
            );
            let err = stderr(&out);
            assert!(
                !err.contains("panicked"),
                "len {len} {args:?} panicked: {err}"
            );
        }
    }
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&short).ok();
}

#[test]
fn torn_compressed_pack_recovers_like_plain() {
    // Crash-at-op faults compose with compression: the surviving image
    // opens with a recovered index and the analyses still run.
    let wl = workload_path("workloads/example.spm");
    let store = tmp("torn-lz.spmstk");
    let out = spm_env(
        &[
            "pack",
            &wl,
            "--input",
            "train",
            "--compress",
            "--block-size",
            "2048",
            "--out",
            store.to_str().expect("utf8"),
        ],
        &[("SPM_PACK_FAULT", "seed=3,crash-at-op=40")],
    );
    assert!(!out.status.success(), "faulted pack must fail");
    let info = spm(&["info", store.to_str().expect("utf8")]);
    assert!(info.status.success(), "{}", stderr(&info));
    let text = stdout(&info);
    assert!(text.contains("compression:   lz"), "{text}");
    assert!(text.contains("recovered-on-open"), "{text}");
    let sel = spm(&["select", "--store", store.to_str().expect("utf8")]);
    assert!(sel.status.success(), "{}", stderr(&sel));
    std::fs::remove_file(&store).ok();
}
