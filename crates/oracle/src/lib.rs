//! # `mph-oracle` — the random-oracle substrate
//!
//! The hardness results of Chung–Ho–Sun (SPAA 2020) live in the Random
//! Oracle model: every party — the sequential RAM algorithm and every MPC
//! machine — has oracle access to a uniformly random function
//! `RO : {0,1}^n → {0,1}^n`. This crate provides that object in all the
//! forms the paper's definitions and proofs require:
//!
//! * [`Oracle`] — the trait: a fixed input/output width and a total,
//!   deterministic `query`. All oracles are `Send + Sync` so the MPC
//!   simulator can drive machines in parallel against one shared oracle.
//! * [`LazyOracle`] — a random function presented lazily: each answer is
//!   derived from a hidden seed and the query, so distinct queries get
//!   independent-looking uniform answers and the *order* of queries never
//!   affects values (which keeps parallel simulations bit-reproducible).
//! * [`TableOracle`] — a fully materialized function table for small `n`.
//!   This is the form the compression argument needs: Claim 3.7 / A.4 put
//!   "the entire RO" (all `n·2^n` bits) into the encoding, so the table must
//!   be enumerable, serializable, and mutable entry-by-entry.
//! * [`PatchedOracle`] — a base oracle with finitely many overridden
//!   entries: the `RO^{(k)}_{a_1,…,a_{log² w}}` construction of
//!   Definition 3.4, used both by the encoder and by the speculative
//!   adversary.
//! * [`CachedOracle`] — a sharded, lock-striped memo table over any inner
//!   oracle. By Lemma 3.3's lazy-sampling semantics a random oracle's
//!   answers are fixed per entry, so memoization is observationally
//!   invisible — it only removes the repeated SHA-256 + ChaCha cost on the
//!   hot query path.
//! * [`TranscriptOracle`] — an instrumentation wrapper recording the full
//!   query transcript (the proofs reason about "the set of queries made by
//!   machine `i` in round `k`"). The per-round query budget `q` is charged
//!   by the MPC executor's `RoundCtx`, not by an oracle wrapper.
//! * [`sha256`] / [`HashOracle`] — a from-scratch SHA-256 and the concrete
//!   instantiation `h` of the random-oracle methodology: replacing `RO` by
//!   a real hash, the step that turns the ideal hard function `f^RO` into
//!   the concrete `f^h`.
//! * [`OracleHub`] — a bounded registry of shared warm [`CachedOracle`]
//!   tables for multi-session hosts (the `mphd` daemon), with per-session
//!   [`PatchedOracle`] views so rewirings stay session-local.
//! * [`RandomTape`] — the shared, read-only, multiple-access random tape
//!   `𝒯` of Definition 2.1.
//! * [`snapshot`] — the versioned, checksummed binary container the
//!   checkpoint/restart subsystem and the shard wire frame their state
//!   in; strict typed decode errors, never a panic. No oracle state is
//!   persisted: every path rebuilds its oracle from the seed.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cached;
pub mod hash;
pub mod hub;
pub mod lazy;
pub mod patched;
pub mod sha256;
pub mod snapshot;
pub mod table;
pub mod tape;
pub mod traits;
pub mod transcript;

pub use cached::CachedOracle;
pub use hash::HashOracle;
pub use hub::OracleHub;
pub use lazy::LazyOracle;
pub use patched::PatchedOracle;
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
pub use table::TableOracle;
pub use tape::RandomTape;
pub use traits::{DynOracle, Oracle};
pub use transcript::TranscriptOracle;
