//! Serve-bench: load-generates N concurrent streaming sessions against
//! an in-process `spm-serve` server and reports throughput facts
//! (`spm-bench/serve/v1`, uploaded as a CI artifact — timings are
//! machine-dependent, so nothing here is a committed golden).
//!
//! Each session streams the same workload trace over a real TCP
//! loopback socket through the full wire protocol — framing, journal
//! (when `--serve-dir` is given), incremental selection, delta
//! replies — and the bench asserts two invariants on top of the
//! numbers: every session's final marker set matches the batch
//! selection for the same trace, and every session's live memory
//! estimate stayed under the per-session budget.
//!
//! Flags:
//!
//! - `--sessions N` — concurrent sessions (default 4).
//! - `--workload NAME` — built-in workload to stream (default `gzip`).
//! - `--serve-dir DIR` — journal sessions under DIR (default: off,
//!   measuring the pure analysis path).
//! - `--out PATH` — report path (default `results/SERVE_report.json`).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use spm_core::text::write_markers;
use spm_core::{select_markers, CallLoopProfiler, SelectConfig};
use spm_serve::{send_events, SendConfig, Server, ServerConfig, SessionConfig};
use spm_sim::{run, TraceEvent, TraceObserver};
use std::time::Instant;

fn usage(message: &str) -> ! {
    eprintln!("error[usage]: {message}");
    eprintln!("usage: serve_bench [--sessions N] [--workload NAME] [--serve-dir DIR] [--out PATH]");
    std::process::exit(2)
}

fn fail(class: &str, message: &str) -> ! {
    eprintln!("error[{class}]: {message}");
    std::process::exit(9)
}

fn main() {
    let mut sessions = 4u64;
    let mut workload = String::from("gzip");
    let mut serve_dir: Option<String> = None;
    let mut out_path = String::from("results/SERVE_report.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sessions" => {
                i += 1;
                sessions = match args.get(i).map(|v| v.parse()) {
                    Some(Ok(n)) if n >= 1 => n,
                    _ => usage("--sessions needs a positive integer"),
                };
            }
            "--workload" => {
                i += 1;
                workload = match args.get(i) {
                    Some(name) => name.clone(),
                    None => usage("--workload needs a name"),
                };
            }
            "--serve-dir" => {
                i += 1;
                serve_dir = match args.get(i) {
                    Some(dir) => Some(dir.clone()),
                    None => usage("--serve-dir needs a path"),
                };
            }
            "--out" => {
                i += 1;
                out_path = match args.get(i) {
                    Some(path) => path.clone(),
                    None => usage("--out needs a path"),
                };
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    // One recorded trace, streamed by every session.
    let Some(w) = spm_workloads::build(&workload) else {
        usage(&format!("unknown workload `{workload}`"))
    };
    let mut events: Vec<(u64, TraceEvent)> = Vec::new();
    if let Err(e) = run(&w.program, &w.train_input, &mut [&mut events]) {
        fail("run", &e.to_string());
    }
    let select = SelectConfig::new(10_000);
    let batch_markers = {
        let mut profiler = CallLoopProfiler::new();
        profiler.on_batch(&events);
        match profiler.into_graph() {
            Ok(graph) => write_markers(&select_markers(&graph, &select).markers),
            Err(e) => fail("profile", &e.to_string()),
        }
    };

    let journaled = serve_dir.is_some();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        health_addr: None,
        session: SessionConfig {
            select,
            dir: serve_dir.map(std::path::PathBuf::from),
            ..SessionConfig::default()
        },
        expect: Some(sessions),
    };
    let budget = config.session.mem_budget;
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => fail("serve", &e.to_string()),
    };
    let addr = server.addr().to_string();

    let names: Vec<String> = (1..=sessions).map(|s| format!("load-{s}")).collect();
    let started = Instant::now();
    let outcomes = spm_par::try_par_map(&names, |name| {
        send_events(&SendConfig::new(&addr, name), &events)
    });
    let wall = started.elapsed();
    let outcomes = match outcomes {
        Ok(outcomes) => outcomes,
        Err(e) => fail("serve", &e.to_string()),
    };

    // Invariants: byte-identical to batch selection, memory under
    // budget for every session.
    let mut peak_mem = 0u64;
    for (name, outcome) in names.iter().zip(&outcomes) {
        if outcome.done.markers_text != batch_markers {
            fail(
                "serve",
                &format!("session {name}: online marker set diverged from batch selection"),
            );
        }
        let Some(stats) = server.session_stats(name) else {
            fail("serve", &format!("session {name} missing from registry"));
        };
        let mem = stats.mem_bytes.load(std::sync::atomic::Ordering::Relaxed);
        peak_mem = peak_mem.max(mem);
        if mem > budget {
            fail(
                "serve",
                &format!("session {name}: mem {mem} exceeded budget {budget}"),
            );
        }
    }
    let report = server.stop();

    let total_events: u64 = outcomes.iter().map(|o| o.events_sent).sum();
    let total_blocks: u64 = outcomes.iter().map(|o| o.blocks_sent).sum();
    let total_deltas: u64 = outcomes.iter().map(|o| o.deltas.len() as u64).sum();
    let busy_retries: u64 = outcomes.iter().map(|o| o.busy_retries).sum();
    let wall_ms = wall.as_secs_f64() * 1_000.0;
    let events_per_sec = if wall.as_secs_f64() > 0.0 {
        total_events as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    let json = format!(
        "{{\n  \"schema\": \"spm-bench/serve/v1\",\n  \"workload\": \"{workload}\",\n  \
\"sessions\": {sessions},\n  \"jobs\": {},\n  \"journaled\": {},\n  \
\"events_per_session\": {},\n  \"blocks_accepted\": {total_blocks},\n  \
\"events_accepted\": {total_events},\n  \"deltas\": {total_deltas},\n  \
\"busy_retries\": {busy_retries},\n  \"done\": {},\n  \"failed\": {},\n  \
\"peak_session_mem_bytes\": {peak_mem},\n  \"mem_budget_bytes\": {budget},\n  \
\"wall_ms\": {wall_ms:.3},\n  \"events_per_sec\": {events_per_sec:.1}\n}}\n",
        spm_par::available_parallelism(),
        journaled,
        events.len(),
        report.done,
        report.failed,
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                fail("io", &format!("create {}: {e}", dir.display()));
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        fail("io", &format!("write {out_path}: {e}"));
    }
    println!(
        "serve-bench: {sessions} sessions x {} events in {wall_ms:.0} ms \
         ({events_per_sec:.0} events/s), {total_blocks} blocks, {total_deltas} deltas, \
         {busy_retries} busy retries, peak session mem {peak_mem} bytes (budget {budget})",
        events.len()
    );
    println!("serve-bench: report written to {out_path}");
    if report.failed > 0 {
        fail("serve", &format!("{} session(s) failed", report.failed));
    }
}
