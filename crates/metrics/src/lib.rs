//! Unified observability layer for the mpc-hardness workspace.
//!
//! This crate carries structured telemetry out of the executable models —
//! the MPC simulator (`mph-mpc`), the oracle wrappers (`mph-oracle`), and
//! the word-RAM (`mph-ram`) — without coupling those crates to any output
//! format. The design, in one paragraph:
//!
//! Instrumented components hold an `Option<Arc<dyn `[`MetricsSink`]`>>`
//! and emit typed [`Event`]s when a sink is attached; with `None`, the
//! only cost is an untaken branch. The workhorse sink is [`Recorder`],
//! which aggregates events into commutative counters across mutex shards
//! so that rayon worker threads don't serialize on one lock, then folds
//! the shards into a [`MetricsSnapshot`] whose JSON rendering is
//! byte-identical across thread counts — preserving the workspace's
//! determinism convention (DESIGN.md §5). A [`JsonlSink`] streams raw
//! events for debugging, and the [`json`]/[`report`] modules render and
//! place the `target/reports/<exp>.json` artifacts written by the
//! experiment binaries.
//!
//! The quantities tracked mirror the paper's cost models (Chung-Ho-Sun,
//! "On the Hardness of Massively Parallel Computation", SPAA 2020):
//! per-round message/memory ledgers and the per-round per-machine oracle
//! budget `q` of Definition 2.1, and the word-RAM time accounting of
//! Definition 2.3.
//!
//! # Example: record, snapshot, render
//!
//! ```
//! use mph_metrics::{Event, MetricsSink, QueryKind, Recorder, RoundStats};
//!
//! let rec = Recorder::new();
//! rec.set_tag("n", "64");
//! rec.record(&Event::RoundEnd(RoundStats {
//!     round: 0,
//!     messages: 2,
//!     bits_sent: 128,
//!     oracle_queries: 3,
//!     max_queries_one_machine: 2,
//!     max_memory_bits: 256,
//!     active_machines: 2,
//! }));
//! rec.record(&Event::OracleQuery { kind: QueryKind::Fresh });
//!
//! let snap = rec.snapshot();
//! assert_eq!(snap.totals.rounds, 1);
//! assert_eq!(snap.totals.oracle_queries, 3);
//! assert_eq!(snap.oracle.fresh, 1);
//! // Deterministic JSON: same events -> same bytes, any thread schedule.
//! assert!(snap.to_json_string().starts_with(r#"{"schema_version":1,"#));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod json;
pub mod recorder;
pub mod report;
pub mod sink;
pub mod snapshot;

pub use events::{Event, QueryKind};
pub use recorder::Recorder;
pub use sink::{JsonlSink, MetricsSink, NullSink};
pub use snapshot::{MetricsSnapshot, OracleTotals, RamTotals, RoundStats, Totals};

/// Version of the JSON schemas emitted by this crate (snapshots, JSONL
/// events, and experiment report envelopes). Bump on any
/// field-name/meaning change.
pub const SCHEMA_VERSION: u32 = 1;

/// Convenience: records `event` into `sink` if one is attached.
///
/// This is the idiom instrumented crates use at every emission point:
///
/// ```
/// use std::sync::Arc;
/// use mph_metrics::{emit, Event, MetricsSink, Recorder};
///
/// let sink: Option<Arc<dyn MetricsSink>> = Some(Arc::new(Recorder::new()));
/// emit(&sink, || Event::RamStep { cost: 1 });
///
/// let disabled: Option<Arc<dyn MetricsSink>> = None;
/// emit(&disabled, || unreachable!("event closure not evaluated when disabled"));
/// ```
#[inline]
pub fn emit(sink: &Option<std::sync::Arc<dyn MetricsSink>>, event: impl FnOnce() -> Event) {
    if let Some(sink) = sink {
        sink.record(&event());
    }
}
