//! The paper's primary contribution: **software phase markers selected
//! from a hierarchical call-loop graph** (Lau, Perelman, Calder — CGO
//! 2006).
//!
//! The pipeline has four stages, one module each:
//!
//! 1. [`graph`] — the **hierarchical call-loop graph**: a call graph
//!    extended with loop nodes. Every procedure and loop is a *head* +
//!    *body* node pair; every edge carries the traversal count and the
//!    average / maximum / standard deviation of the hierarchical dynamic
//!    instruction count per traversal.
//! 2. [`profile`] — builds the graph from one execution's trace events
//!    (the ATOM profiling run of the paper).
//! 3. [`select`] — the two-pass marker-selection algorithm: prune by
//!    minimum average interval size (`ilower`), derive a per-program CoV
//!    threshold from the surviving candidates, and select low-variance
//!    edges as markers; plus the SimPoint-oriented *limit* variant with a
//!    maximum interval size and loop-iteration merging.
//! 4. [`marker`] — marker sets, the runtime that detects marker
//!    executions on a later run (possibly of a different input), and the
//!    partitioning of execution into **variable-length intervals** with
//!    phase ids.
//!
//! [`crossbin`] implements the paper's cross-binary experiment: selecting
//! one marker set that is valid across two compilations of the same
//! source program, mapped through stable source locations.
//!
//! # Examples
//!
//! End-to-end: profile, select, re-run with markers, partition:
//!
//! ```
//! use spm_core::{partition, CallLoopProfiler, MarkerRuntime, SelectConfig};
//! use spm_ir::{Input, ProgramBuilder, Trip};
//! use spm_sim::run;
//!
//! let mut b = ProgramBuilder::new("toy");
//! b.proc("main", |p| {
//!     p.loop_(Trip::Fixed(50), |outer| {
//!         outer.call("work");
//!     });
//! });
//! b.proc("work", |p| {
//!     p.loop_(Trip::Fixed(100), |body| {
//!         body.block(100).done();
//!     });
//! });
//! let program = b.build("main").unwrap();
//! let input = Input::new("ref", 1);
//!
//! // 1. Profile. `into_graph` is fallible: a corrupted event stream
//! //    (truncated trace, dropped returns) yields a typed error.
//! let mut profiler = CallLoopProfiler::new();
//! run(&program, &input, &mut [&mut profiler]).unwrap();
//! let graph = profiler.into_graph().unwrap();
//!
//! // 2. Select markers with a 5000-instruction minimum interval.
//! let outcome = spm_core::select_markers(&graph, &SelectConfig::new(5_000));
//! assert!(!outcome.markers.is_empty());
//!
//! // 3. Re-run, detecting marker firings.
//! let mut runtime = MarkerRuntime::new(&outcome.markers);
//! let summary = run(&program, &input, &mut [&mut runtime]).unwrap();
//!
//! // 4. Partition into variable-length intervals.
//! let vlis = partition(&runtime.firings(), summary.instrs);
//! assert!(!vlis.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod crossbin;
pub mod error;
pub mod graph;
pub mod incremental;
pub mod marker;
#[cfg(test)]
mod oracle;
pub mod predict;
pub mod profile;
pub mod select;
pub mod text;

pub use analysis::{recursive_cycles, summarize, GraphSummary};
pub use error::{FrameLabel, ProfileError, SpmError};
pub use graph::{CallLoopGraph, Edge, EdgeId, Node, NodeId, NodeKey};
pub use incremental::{IncrementalSelector, SelectionDelta, DEFAULT_CONVERGE_UPDATES};
pub use marker::{
    fixed_length_intervals, partition, partition_with_fallback, FallbackReason, FliFallback,
    Marker, MarkerFiring, MarkerRuntime, MarkerSet, PartitionOutcome, Vli, PRELUDE_PHASE,
};
pub use profile::CallLoopProfiler;
pub use select::{select_markers, EdgeDecision, SelectConfig, SelectionOutcome};
