//! Microbenchmarks of the core algorithms, including the paper's claim
//! that marker selection "runs in seconds on every call-loop graph":
//! graph construction from a trace, the two selection passes, Sequitur,
//! reuse-distance tracking, k-means, and cache simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spm_cache::{Cache, CacheConfig};
use spm_core::predict::{MarkovPredictor, PhasePredictor};
use spm_core::{select_markers, CallLoopProfiler, MarkerRuntime, SelectConfig};
use spm_reuse::{detect_boundaries, sequitur, ReuseTracker};
use spm_sim::{run, TraceEvent, TraceObserver};
use spm_simpoint::kmeans;
use spm_store::{StoreReader, StoreWriter};
use spm_workloads::build;
use std::io::Cursor;

fn bench_callloop_profile(c: &mut Criterion) {
    let w = build("gzip").expect("gzip");
    let mut group = c.benchmark_group("callloop");
    let instrs = run(&w.program, &w.train_input, &mut []).unwrap().instrs;
    group.throughput(Throughput::Elements(instrs));
    group.bench_function("profile_gzip_train", |b| {
        b.iter(|| {
            let mut profiler = CallLoopProfiler::new();
            run(&w.program, &w.train_input, &mut [&mut profiler]).unwrap();
            profiler.into_graph().unwrap().edges().len()
        })
    });
    group.finish();
}

/// gcc `ref` (the most calls and loop iterations of the suite),
/// recorded once so the observer benchmarks below time no engine work.
fn gcc_ref_tape() -> Vec<(u64, TraceEvent)> {
    let w = build("gcc").expect("gcc");
    let mut tape = Vec::new();
    run(&w.program, &w.ref_input, &mut [&mut tape]).unwrap();
    tape
}

/// Delivers `tape` the way the engine does: in batches of 1024 events.
fn feed(tape: &[(u64, TraceEvent)], observer: &mut dyn TraceObserver) {
    for batch in tape.chunks(1024) {
        observer.on_batch(batch);
    }
}

fn bench_observers_from_tape(c: &mut Criterion) {
    let tape = gcc_ref_tape();
    let mut profiler = CallLoopProfiler::new();
    feed(&tape, &mut profiler);
    let graph = profiler.into_graph().unwrap();
    let markers = select_markers(&graph, &SelectConfig::new(10_000)).markers;

    let mut group = c.benchmark_group("callloop");
    group.throughput(Throughput::Elements(tape.len() as u64));
    group.bench_function("profile_gcc_ref_tape", |b| {
        b.iter(|| {
            let mut profiler = CallLoopProfiler::new();
            feed(&tape, &mut profiler);
            profiler.into_graph().unwrap().edges().len()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("markers");
    group.throughput(Throughput::Elements(tape.len() as u64));
    group.bench_function("runtime_gcc_ref_tape", |b| {
        b.iter(|| {
            let mut runtime = MarkerRuntime::new(&markers);
            feed(&tape, &mut runtime);
            runtime.into_firings().len()
        })
    });
    group.finish();
}

fn bench_marker_selection(c: &mut Criterion) {
    // The paper: "The algorithm runs in seconds on every call-loop graph
    // we have collected." Ours runs in microseconds at this scale.
    let w = build("gcc").expect("gcc");
    let mut profiler = CallLoopProfiler::new();
    run(&w.program, &w.ref_input, &mut [&mut profiler]).unwrap();
    let graph = profiler.into_graph().unwrap();
    let mut group = c.benchmark_group("selection");
    group.bench_function("select_nolimit_gcc", |b| {
        b.iter(|| {
            select_markers(&graph, &SelectConfig::new(10_000))
                .markers
                .len()
        })
    });
    group.bench_function("select_limit_gcc", |b| {
        b.iter(|| {
            select_markers(&graph, &SelectConfig::with_limit(10_000, 200_000))
                .markers
                .len()
        })
    });
    group.finish();
}

fn bench_sequitur(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(42);
    let periodic: Vec<u32> = (0..20_000).map(|i| (i % 17) as u32).collect();
    let random: Vec<u32> = (0..20_000).map(|_| rng.gen_range(0..64)).collect();
    let mut group = c.benchmark_group("sequitur");
    group.throughput(Throughput::Elements(periodic.len() as u64));
    group.bench_function("periodic_20k", |b| {
        b.iter(|| sequitur::infer(&periodic).size())
    });
    group.bench_function("random_20k", |b| b.iter(|| sequitur::infer(&random).size()));
    group.finish();
}

fn bench_reuse_distance(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(7);
    let addrs: Vec<u64> = (0..100_000).map(|_| rng.gen_range(0u64..1 << 22)).collect();
    let mut group = c.benchmark_group("reuse");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("track_100k_random", |b| {
        b.iter_batched(
            || ReuseTracker::new(64),
            |mut t| {
                let mut sum = 0u64;
                for &a in &addrs {
                    sum += t.access(a).unwrap_or(0);
                }
                sum
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let points: Vec<Vec<f64>> = (0..2_000)
        .map(|i| {
            let cx = (i % 5) as f64 * 10.0;
            (0..15).map(|_| cx + rng.gen_range(-1.0..1.0)).collect()
        })
        .collect();
    let weights = vec![1.0; points.len()];
    let mut group = c.benchmark_group("kmeans");
    group.bench_function("k10_2000x15", |b| {
        b.iter(|| kmeans(&points, &weights, 10, 1).unwrap().distortion)
    });
    // The regime of the Figures 11/12 inputs that hit the iteration
    // cap: far fewer distinct points than k, so Lloyd's loop cycles.
    let prototypes: Vec<Vec<f64>> = (0..27)
        .map(|_| (0..15).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let repeated: Vec<Vec<f64>> = (0..8_000)
        .map(|i| prototypes[(i * 7) % 27].clone())
        .collect();
    let sizes: Vec<f64> = (0..repeated.len())
        .map(|_| rng.gen_range(1.0..100.0))
        .collect();
    group.bench_function("k50_27distinct_8000x15", |b| {
        b.iter(|| kmeans(&repeated, &sizes, 50, 1).unwrap().distortion)
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(9);
    let addrs: Vec<u64> = (0..100_000).map(|_| rng.gen_range(0u64..1 << 20)).collect();
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("l1_100k_random", |b| {
        b.iter_batched(
            || Cache::new(CacheConfig::new(512, 4, 64)),
            |mut cache| {
                for &a in &addrs {
                    cache.access(a, false);
                }
                cache.misses()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_trace_record_replay(c: &mut Criterion) {
    let w = build("art").expect("art");
    let mut group = c.benchmark_group("trace");
    let instrs = run(&w.program, &w.train_input, &mut []).unwrap().instrs;
    group.throughput(Throughput::Elements(instrs));
    let record = || {
        let mut writer = StoreWriter::new(Vec::new());
        run(&w.program, &w.train_input, &mut [&mut writer]).unwrap();
        let outcome = writer.finish_with_sink();
        outcome.result.unwrap();
        outcome.sink
    };
    group.bench_function("record_art_train", |b| b.iter(|| record().len()));
    let store = record();
    group.bench_function("replay_art_train", |b| {
        b.iter(|| {
            let mut reader = StoreReader::new(Cursor::new(&store[..])).unwrap();
            reader.replay(&mut []).unwrap().events
        })
    });
    group.finish();
}

fn bench_boundary_detection(c: &mut Criterion) {
    // A realistic phased signal: alternating levels + noise.
    let signal: Vec<f64> = (0..4_000)
        .map(|i| if (i / 50) % 2 == 0 { 2.0 } else { 9.0 } + ((i * 37) % 11) as f64 * 0.02)
        .collect();
    let mut group = c.benchmark_group("boundaries");
    group.throughput(Throughput::Elements(signal.len() as u64));
    group.bench_function("otsu_4k_windows", |b| {
        b.iter(|| detect_boundaries(&signal).len())
    });
    group.finish();
}

fn bench_predictors(c: &mut Criterion) {
    let phases: Vec<usize> = (0..50_000).map(|i| [1usize, 2, 3, 2, 1][i % 5]).collect();
    let mut group = c.benchmark_group("predict");
    group.throughput(Throughput::Elements(phases.len() as u64));
    group.bench_function("markov2_50k", |b| {
        b.iter(|| {
            let mut p = MarkovPredictor::new(2);
            for &ph in &phases {
                p.observe(ph);
            }
            p.accuracy()
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_callloop_profile,
        bench_observers_from_tape,
        bench_marker_selection,
        bench_sequitur,
        bench_reuse_distance,
        bench_kmeans,
        bench_cache,
        bench_trace_record_replay,
        bench_boundary_detection,
        bench_predictors
);
criterion_main!(benches);
