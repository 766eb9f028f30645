//! Supervised multi-process sharded execution.
//!
//! Partitions a simulation's `m` machines into contiguous shards, runs
//! one **real OS worker process** per shard, and exchanges per-round
//! message batches over a pluggable transport ([`crate::transport`]) —
//! the supervisor owns routing and the global transcript, each worker
//! owns the compute of its shard. The in-process executor remains the
//! correctness oracle: a sharded run's outputs and statistics are
//! **byte-identical** to [`Simulation::run_until_output`] on the same
//! build, and killing a worker with SIGKILL mid-round — or corrupting,
//! truncating, duplicating, delaying, or severing its frames with the
//! seeded chaos plane — must not change a single bit of the final
//! transcript (the recovery path replays the worker from its last round
//! barrier). See docs/ROBUSTNESS.md "Real processes, real crashes" and
//! "Layer 6 — network faults and partitions".
//!
//! # Wire format
//!
//! One frame = a `u32` little-endian length prefix followed by one
//! CRC32-framed snapshot container ([`mph_oracle::snapshot`]) holding a
//! single section whose tag names the frame kind:
//!
//! | tag    | kind             | direction           | body                                  |
//! |--------|------------------|---------------------|---------------------------------------|
//! | `SHLO` | `SHARD_HELLO`    | supervisor → worker | shard `[lo, hi)`, session nonce, spec |
//! | `RMSG` | `ROUND_MSGS`     | both                | round index, owned messages           |
//! | `RACK` | `ROUND_ACK`      | worker → supervisor | round index, ready / stats / error    |
//! | `SSNP` | `SHARD_SNAPSHOT` | both                | nested [`SimulationSnapshot`] bytes   |
//! | `HBEA` | `HEARTBEAT`      | both                | sequence number (probe and echo)      |
//! | `CONN` | `SHARD_CONNECT`  | worker → supervisor | session nonce, worker index (TCP)     |
//!
//! Every frame inherits the container's guarantees: magic, version, and
//! a trailing CRC32, so a corrupted or truncated frame is a typed
//! [`SnapshotError`], and a frame of an unknown kind is a typed
//! [`ShardError::UnknownFrameKind`] (forward compatibility: an old
//! supervisor rejects a new frame kind instead of misparsing it).
//!
//! # Transports
//!
//! [`TransportKind::Pipe`] is the classic inherited stdin/stdout pair.
//! [`TransportKind::Tcp`] binds a loopback listener on the supervisor
//! and spawns workers with `--connect`; each worker's first frame is
//! `SHARD_CONNECT` carrying the supervisor's session nonce and its own
//! worker index, and a connection whose first frame does not match is
//! dropped at accept time — a stray client or a worker from a stale
//! supervisor incarnation cannot join the fleet. The hello also carries
//! the nonce, so a worker that somehow reached the wrong supervisor
//! refuses to build. Either transport can be wrapped in the
//! deterministic seeded chaos plane ([`crate::transport::ChaosSpec`]).
//!
//! # Round protocol
//!
//! After `SHARD_HELLO` (fresh build, round 0) or `SHARD_SNAPSHOT`
//! (restore to a round barrier) the worker acknowledges with
//! `ROUND_ACK(ready)`. Each round the supervisor sends the worker its
//! inbound `ROUND_MSGS` batch; the worker refuses a batch that addresses
//! any machine outside its shard (an error ack), injects it, steps its
//! shard with [`Simulation::step_shard`] — the in-process executor's one
//! round body over the shard's machine range, with **all** sends
//! extracted owned instead of routed locally, so the barrier state is
//! empty — and replies with three frames, written with one call: its
//! outbound `ROUND_MSGS`, a `ROUND_ACK` carrying the shard's round
//! statistics and outputs, and a `SHARD_SNAPSHOT` of the new barrier.
//! The supervisor folds the shards' statistics with
//! [`RoundStats::merge`] into the round record the in-process executor
//! would have kept. A reply is complete only when
//! all three arrive; a partial reply from a dying worker is discarded
//! wholesale on recovery. Both ends tolerate stale frames: the worker
//! silently drops a batch for a round it has already stepped, and the
//! supervisor skips duplicated reply frames — which is what makes chaos
//! duplication and replay double-sends converge instead of wedging the
//! protocol.
//!
//! # Liveness, crash detection, and recovery
//!
//! A dedicated reader thread per worker feeds decoded frames into a
//! channel; worker death surfaces as channel disconnect (stream EOF or
//! a frame that fails to decode), a round-deadline timeout, or a broken
//! write — all funnel into one path: SIGKILL + reap the old process,
//! wait out an exponential backoff (25 ms, doubling with every respawn
//! of that worker since its fleet was spawned or last rebound, capped at
//! 2 s), respawn (bounded by [`SupervisorConfig::max_respawns`], counted
//! over the same span), replay `SHARD_HELLO` → restore the last barrier
//! `SHARD_SNAPSHOT` → resend the in-flight round's batch. While waiting
//! for a reply the supervisor probes the worker with `HEARTBEAT` frames
//! every 200 ms; any frame (echo or reply) refreshes the worker's
//! liveness, and the round deadline is measured from the **last sign of
//! life** — a stalled or SIGSTOPped worker stops echoing and is declared
//! dead once the deadline passes. Because workers are deterministic
//! functions of (spec bytes, barrier, batch), a replayed round is
//! bit-identical to the one the dead worker would have computed.
//!
//! # Graceful degradation
//!
//! When a worker exhausts its respawn budget the supervisor walks a
//! ladder instead of failing: first **redistribute** — the dead shard's
//! machine range is merged into an adjacent surviving worker and every
//! survivor is resynced to the in-flight round's barrier; only when no
//! workers survive does it **fall back** to in-process execution using
//! the builder installed with [`Supervisor::set_fallback_builder`]. Both
//! rungs preserve byte-identity (state lives in the barriers and the
//! routed batches, not in the dead process); the run is marked
//! [`Supervisor::degradation`] so callers can surface `Degraded` instead
//! of an error.

use crate::error::ModelViolation;
use crate::executor::{RunResult, Simulation};
use crate::message::{MachineId, Message};
use crate::snapshot::SimulationSnapshot;
use crate::stats::{decode_round_stats, encode_round_stats, RoundStats, SimStats};
pub use crate::transport::MAX_FRAME_BYTES;
use crate::transport::{
    apply_recv_chaos, prefixed, read_image, send_image, splitmix64, ChaosSink, ChaosSpec,
    FrameSink, RecvAction, TcpSink, TransportKind, WriteSink,
};
use mph_bits::BitVec;
use mph_metrics::{emit, Event, MetricsSink};
use mph_oracle::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shard wire frame: supervisor → worker handshake (`SHARD_HELLO`).
const SECTION_SHARD_HELLO: [u8; 4] = *b"SHLO";

/// Shard wire frame: a round's message batch (`ROUND_MSGS`).
const SECTION_ROUND_MSGS: [u8; 4] = *b"RMSG";

/// Shard wire frame: a worker's round acknowledgement (`ROUND_ACK`).
const SECTION_ROUND_ACK: [u8; 4] = *b"RACK";

/// Shard wire frame: a worker's round-barrier snapshot (`SHARD_SNAPSHOT`).
const SECTION_SHARD_SNAPSHOT: [u8; 4] = *b"SSNP";

/// Shard wire frame: a liveness heartbeat probe or echo (`HEARTBEAT`).
const SECTION_HEARTBEAT: [u8; 4] = *b"HBEA";

/// Shard wire frame: a TCP worker identifying its connection
/// (`SHARD_CONNECT`) — session nonce plus worker index, so stray or
/// stale connections are rejected at accept time.
const SECTION_SHARD_CONNECT: [u8; 4] = *b"CONN";

/// Why a sharded run failed. Everything the wire, the OS, or a worker
/// can do wrong maps onto one of these — never a panic, and never a
/// silently wrong transcript.
#[derive(Debug)]
pub enum ShardError {
    /// A transport read/write failed (includes EOF mid-frame).
    Io(io::Error),
    /// A frame failed the container's magic/version/CRC/field checks.
    Codec(SnapshotError),
    /// A structurally valid container carried a section tag this build
    /// does not know — a frame kind from a newer protocol revision.
    UnknownFrameKind {
        /// The unrecognized 4-byte section tag.
        tag: [u8; 4],
    },
    /// A peer violated the round protocol (wrong frame at this point,
    /// mismatched round index, oversized frame, …).
    Protocol(String),
    /// A worker process could not be spawned or connected (exec failure,
    /// missing stdio pipes, no identified TCP connection in time).
    Spawn {
        /// The worker (shard) index.
        worker: usize,
        /// What went wrong.
        message: String,
    },
    /// A worker reported a deterministic failure (model violation or
    /// build error). Respawning would reproduce it, so the run aborts.
    Worker {
        /// The worker (shard) index.
        worker: usize,
        /// The worker's error message.
        message: String,
    },
    /// A worker crashed and its respawn budget is exhausted.
    WorkerDied {
        /// The worker (shard) index.
        worker: usize,
        /// The round in flight when the final crash happened.
        round: usize,
        /// How the final crash was detected.
        reason: String,
    },
    /// The shard computation itself violated a model bound.
    Violation(ModelViolation),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard transport I/O error: {e}"),
            ShardError::Codec(e) => write!(f, "shard frame codec error: {e}"),
            ShardError::UnknownFrameKind { tag } => {
                write!(f, "unknown shard frame kind {:?}", String::from_utf8_lossy(tag))
            }
            ShardError::Protocol(why) => write!(f, "shard protocol violation: {why}"),
            ShardError::Spawn { worker, message } => {
                write!(f, "worker {worker} could not be spawned: {message}")
            }
            ShardError::Worker { worker, message } => {
                write!(f, "worker {worker} failed deterministically: {message}")
            }
            ShardError::WorkerDied { worker, round, reason } => {
                write!(f, "worker {worker} died in round {round} ({reason}), respawns exhausted")
            }
            ShardError::Violation(v) => write!(f, "model violation in sharded round: {v}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<SnapshotError> for ShardError {
    fn from(e: SnapshotError) -> Self {
        ShardError::Codec(e)
    }
}

/// A worker's round acknowledgement payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Ack {
    /// The worker is at a round barrier and ready for the next batch
    /// (sent after a hello build or a snapshot restore).
    Ready,
    /// The round completed; the shard's statistics and any outputs its
    /// machines emitted.
    Round {
        /// Shard-local statistics of the acknowledged round.
        stats: RoundStats,
        /// Output contributions emitted this round, in machine order.
        outputs: Vec<(MachineId, BitVec)>,
    },
    /// The worker failed deterministically (build error, model
    /// violation, protocol misuse). The supervisor aborts the run.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// One frame of the shard wire protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// `SHARD_HELLO`: build a fresh simulation from the opaque `spec`
    /// bytes and keep shard `[lo, hi)`.
    Hello {
        /// First machine of the shard (inclusive).
        lo: usize,
        /// One past the last machine of the shard.
        hi: usize,
        /// The supervisor's session nonce; a worker bound to a session
        /// refuses a hello from anyone else.
        nonce: u64,
        /// Opaque spec bytes the worker's builder decodes.
        spec: Vec<u8>,
    },
    /// `ROUND_MSGS`: a round's message batch (inbound or outbound).
    RoundMsgs {
        /// The round these messages belong to.
        round: usize,
        /// The messages, in sender-major order.
        msgs: Vec<Message>,
    },
    /// `ROUND_ACK`: a worker acknowledgement.
    RoundAck {
        /// The round being acknowledged (the barrier round for
        /// [`Ack::Ready`]).
        round: usize,
        /// The acknowledgement payload.
        ack: Ack,
    },
    /// `SHARD_SNAPSHOT`: a nested [`SimulationSnapshot`] container — a
    /// worker's round barrier (worker → supervisor) or a restore order
    /// (supervisor → worker).
    Snapshot {
        /// The nested snapshot container bytes.
        bytes: Vec<u8>,
    },
    /// `HEARTBEAT`: a liveness probe (supervisor → worker) or its echo
    /// (worker → supervisor), matched by sequence number.
    Heartbeat {
        /// Probe sequence number, echoed verbatim.
        seq: u64,
    },
    /// `SHARD_CONNECT`: a TCP worker's first frame, identifying which
    /// session and shard the connection belongs to.
    Connect {
        /// The session nonce the worker was spawned with.
        nonce: u64,
        /// The worker (shard) index the connection serves.
        worker: usize,
    },
}

impl Frame {
    /// Serializes the frame as one CRC32-framed container (no length
    /// prefix; [`write_frame`] adds it).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        match self {
            Frame::Hello { lo, hi, nonce, spec } => {
                let patch = w.begin_section(&SECTION_SHARD_HELLO);
                w.put_u64(*lo as u64);
                w.put_u64(*hi as u64);
                w.put_u64(*nonce);
                w.put_bytes(spec);
                w.end_section(patch);
            }
            Frame::RoundMsgs { round, msgs } => {
                let patch = w.begin_section(&SECTION_ROUND_MSGS);
                w.put_u64(*round as u64);
                w.put_u64(msgs.len() as u64);
                for msg in msgs {
                    w.put_u64(msg.from as u64);
                    w.put_u64(msg.to as u64);
                    w.put_bitvec(&msg.payload);
                }
                w.end_section(patch);
            }
            Frame::RoundAck { round, ack } => {
                let patch = w.begin_section(&SECTION_ROUND_ACK);
                w.put_u64(*round as u64);
                match ack {
                    Ack::Ready => w.put_u8(0),
                    Ack::Round { stats, outputs } => {
                        w.put_u8(1);
                        encode_round_stats(&mut w, stats);
                        w.put_u64(outputs.len() as u64);
                        for (machine, bits) in outputs {
                            w.put_u64(*machine as u64);
                            w.put_bitvec(bits);
                        }
                    }
                    Ack::Error { message } => {
                        w.put_u8(2);
                        w.put_str(message);
                    }
                }
                w.end_section(patch);
            }
            Frame::Snapshot { bytes } => {
                let patch = w.begin_section(&SECTION_SHARD_SNAPSHOT);
                w.put_bytes(bytes);
                w.end_section(patch);
            }
            Frame::Heartbeat { seq } => {
                let patch = w.begin_section(&SECTION_HEARTBEAT);
                w.put_u64(*seq);
                w.end_section(patch);
            }
            Frame::Connect { nonce, worker } => {
                let patch = w.begin_section(&SECTION_SHARD_CONNECT);
                w.put_u64(*nonce);
                w.put_u64(*worker as u64);
                w.end_section(patch);
            }
        }
        w.finish()
    }

    /// Decodes one container produced by [`Frame::to_bytes`]. An intact
    /// container with an unrecognized section tag is
    /// [`ShardError::UnknownFrameKind`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Frame, ShardError> {
        let mut r = SnapshotReader::new(bytes)?;
        let tag = r.peek_section_tag()?;
        match tag {
            SECTION_SHARD_HELLO => {
                r.begin_section(&SECTION_SHARD_HELLO)?;
                let lo = decode_index(r.get_u64()?, "shard lo")?;
                let hi = decode_index(r.get_u64()?, "shard hi")?;
                let nonce = r.get_u64()?;
                let spec = r.get_bytes()?.to_vec();
                Ok(Frame::Hello { lo, hi, nonce, spec })
            }
            SECTION_ROUND_MSGS => {
                r.begin_section(&SECTION_ROUND_MSGS)?;
                let round = decode_index(r.get_u64()?, "round")?;
                let count = r.get_u64()?;
                let mut msgs = Vec::new();
                for _ in 0..count {
                    let from = decode_index(r.get_u64()?, "message from")?;
                    let to = decode_index(r.get_u64()?, "message to")?;
                    let payload = r.get_bitvec()?;
                    msgs.push(Message { from, to, payload });
                }
                Ok(Frame::RoundMsgs { round, msgs })
            }
            SECTION_ROUND_ACK => {
                r.begin_section(&SECTION_ROUND_ACK)?;
                let round = decode_index(r.get_u64()?, "round")?;
                let ack = match r.get_u8()? {
                    0 => Ack::Ready,
                    1 => {
                        let stats = decode_round_stats(&mut r)?;
                        let count = r.get_u64()?;
                        let mut outputs = Vec::new();
                        for _ in 0..count {
                            let machine = decode_index(r.get_u64()?, "output machine")?;
                            outputs.push((machine, r.get_bitvec()?));
                        }
                        Ack::Round { stats, outputs }
                    }
                    2 => Ack::Error { message: r.get_str()? },
                    other => {
                        return Err(ShardError::Codec(SnapshotError::Malformed(format!(
                            "ack discriminant {other} (expected 0, 1, or 2)"
                        ))))
                    }
                };
                Ok(Frame::RoundAck { round, ack })
            }
            SECTION_SHARD_SNAPSHOT => {
                r.begin_section(&SECTION_SHARD_SNAPSHOT)?;
                Ok(Frame::Snapshot { bytes: r.get_bytes()?.to_vec() })
            }
            SECTION_HEARTBEAT => {
                r.begin_section(&SECTION_HEARTBEAT)?;
                Ok(Frame::Heartbeat { seq: r.get_u64()? })
            }
            SECTION_SHARD_CONNECT => {
                r.begin_section(&SECTION_SHARD_CONNECT)?;
                let nonce = r.get_u64()?;
                let worker = decode_index(r.get_u64()?, "connect worker")?;
                Ok(Frame::Connect { nonce, worker })
            }
            other => Err(ShardError::UnknownFrameKind { tag: other }),
        }
    }
}

fn decode_index(v: u64, what: &str) -> Result<usize, ShardError> {
    usize::try_from(v).map_err(|_| {
        ShardError::Codec(SnapshotError::Malformed(format!("{what} {v} exceeds usize")))
    })
}

/// Writes one length-prefixed frame and flushes (round progress must not
/// sit in a buffer while the peer waits).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    write_frames(w, std::slice::from_ref(frame))
}

/// Writes length-prefixed frames with one write call, then flushes: a
/// round reply leaves as one unit, so the supervisor's reader wakes once
/// for it instead of once per frame.
fn write_frames(w: &mut impl Write, frames: &[Frame]) -> io::Result<()> {
    let mut image = Vec::new();
    for frame in frames {
        let bytes = frame.to_bytes();
        debug_assert!(bytes.len() <= MAX_FRAME_BYTES);
        image.extend(prefixed(bytes.len(), &bytes));
    }
    w.write_all(&image)?;
    w.flush()
}

/// Reads one length-prefixed frame. EOF before the length prefix is a
/// clean stream end ([`io::ErrorKind::UnexpectedEof`] inside
/// [`ShardError::Io`]); the caller decides whether that is orderly.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ShardError> {
    let image = read_image(r)?;
    Frame::from_bytes(&image)
}

/// One kill order of a seeded crash schedule: SIGKILL `worker` right
/// after its batch for `round` has been sent — mid-round, while it
/// computes. Each order fires at most once, even if recovery retries
/// the round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// The round during which to kill.
    pub round: usize,
    /// The worker (shard) index to kill.
    pub worker: usize,
}

/// Configuration of a supervised sharded run. Build with
/// [`SupervisorConfig::new`] and override fields as needed — the
/// defaults are a pipe transport, no chaos, a 60 s round deadline and
/// 3 respawns.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Number of worker processes (= shards). Must be `1..=m`.
    pub shards: usize,
    /// The wire workers speak ([`TransportKind::Pipe`] or
    /// [`TransportKind::Tcp`]).
    pub transport: TransportKind,
    /// Deterministic seeded network-fault injection wrapped around the
    /// transport; `None` runs clean.
    pub chaos: Option<ChaosSpec>,
    /// Per-reply deadline, measured from the worker's **last sign of
    /// life** (any frame, heartbeat echoes included). A worker that
    /// neither answers nor echoes within it is declared crashed and
    /// recovered. A TCP worker must also connect within it.
    pub round_deadline: Duration,
    /// How many times a single worker may be respawned over the whole
    /// run before the supervisor walks the degradation ladder.
    pub max_respawns: usize,
    /// Seeded kill schedule, applied with real SIGKILLs.
    pub kills: Vec<KillSpec>,
    /// The worker process argv (`worker_cmd[0]` is the executable). The
    /// process must run [`worker_serve`] over its stdin/stdout (pipe
    /// transport) or honor `--connect` (TCP transport).
    pub worker_cmd: Vec<String>,
}

impl SupervisorConfig {
    /// A default configuration for `shards` workers run as `worker_cmd`.
    pub fn new(shards: usize, worker_cmd: Vec<String>) -> Self {
        SupervisorConfig {
            shards,
            transport: TransportKind::Pipe,
            chaos: None,
            round_deadline: Duration::from_secs(60),
            max_respawns: 3,
            kills: Vec::new(),
            worker_cmd,
        }
    }
}

/// Partitions `m` machines into `shards` contiguous, maximally even
/// ranges (first `m % shards` shards get one extra machine).
pub fn partition_shards(m: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(shards >= 1 && shards <= m, "need 1..=m shards (m = {m}, shards = {shards})");
    let base = m / shards;
    let extra = m % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut lo = 0;
    for i in 0..shards {
        let hi = lo + base + usize::from(i < extra);
        bounds.push((lo, hi));
        lo = hi;
    }
    bounds
}

/// Serves one worker process over any byte streams (classically the
/// process's stdin/stdout): reads supervisor frames from `input`,
/// executes them against a simulation built by `build` (from the opaque
/// hello spec bytes), and writes replies to `output`. Returns `Ok(())`
/// on orderly EOF — the supervisor closing the stream is the shutdown
/// signal. Accepts hellos from any session; TCP workers bound to one
/// session use [`worker_serve_with`].
pub fn worker_serve(
    input: impl Read,
    output: impl Write,
    build: impl FnMut(&[u8]) -> Result<Simulation, String>,
) -> Result<(), ShardError> {
    worker_serve_with(input, output, None, build)
}

/// [`worker_serve`] with an optional session binding: when
/// `expected_nonce` is `Some`, a hello carrying any other nonce is a
/// fatal protocol error — the worker refuses to compute for a stray or
/// stale supervisor.
///
/// Deterministic failures (build errors, model violations, protocol
/// misuse) are reported to the supervisor as [`Ack::Error`] and the loop
/// continues; only transport failures abort it. `HEARTBEAT` probes are
/// echoed verbatim, and a batch for a round the worker has already
/// stepped is silently dropped — the stale-frame tolerance that lets
/// duplicated frames and recovery double-sends converge.
pub fn worker_serve_with(
    input: impl Read,
    output: impl Write,
    expected_nonce: Option<u64>,
    mut build: impl FnMut(&[u8]) -> Result<Simulation, String>,
) -> Result<(), ShardError> {
    let mut input = input;
    let mut output = output;
    let mut state: Option<(Simulation, usize, usize)> = None;
    loop {
        let frame = match read_frame(&mut input) {
            Ok(frame) => frame,
            Err(ShardError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        match frame {
            Frame::Hello { lo, hi, nonce, spec } => {
                if let Some(expected) = expected_nonce {
                    if nonce != expected {
                        return Err(ShardError::Protocol(format!(
                            "session nonce mismatch: hello carries {nonce:#018x}, \
                             this worker is bound to {expected:#018x}"
                        )));
                    }
                }
                match build(&spec) {
                    Ok(mut sim) => {
                        if lo < hi && hi <= sim.m() {
                            sim.retain_shard(lo, hi);
                            let round = sim.round();
                            state = Some((sim, lo, hi));
                            write_frame(&mut output, &Frame::RoundAck { round, ack: Ack::Ready })?;
                        } else {
                            state = None;
                            let message =
                                format!("shard [{lo}, {hi}) out of range (m = {})", sim.m());
                            write_frame(&mut output, &err_ack(0, message))?;
                        }
                    }
                    Err(message) => {
                        state = None;
                        write_frame(&mut output, &err_ack(0, format!("build failed: {message}")))?;
                    }
                }
            }
            Frame::Heartbeat { seq } => {
                write_frame(&mut output, &Frame::Heartbeat { seq })?;
            }
            Frame::Snapshot { bytes } => {
                let Some((sim, _, _)) = state.as_mut() else {
                    write_frame(&mut output, &err_ack(0, "snapshot before hello".into()))?;
                    continue;
                };
                let restored = SimulationSnapshot::from_bytes(&bytes)
                    .and_then(|snap| sim.restore(&snap).map(|()| snap.round));
                match restored {
                    Ok(round) => {
                        write_frame(&mut output, &Frame::RoundAck { round, ack: Ack::Ready })?
                    }
                    Err(e) => {
                        write_frame(&mut output, &err_ack(0, format!("restore failed: {e}")))?
                    }
                }
            }
            Frame::RoundMsgs { round, msgs } => {
                let Some((sim, lo, hi)) = state.as_mut() else {
                    write_frame(&mut output, &err_ack(round, "round before hello".into()))?;
                    continue;
                };
                if round < sim.round() {
                    // A stale or duplicated batch for a round this worker
                    // already stepped: drop it silently. Replying again
                    // would desynchronize the supervisor's collect.
                    continue;
                }
                if round != sim.round() {
                    let message =
                        format!("batch for round {round} but worker is at round {}", sim.round());
                    write_frame(&mut output, &err_ack(round, message))?;
                    continue;
                }
                // Every machine outside the shard must keep an empty image
                // (the step_shard contract), so a misrouted message is a
                // protocol error, named and refused before anything lands.
                if let Some(msg) = msgs.iter().find(|msg| !(*lo..*hi).contains(&msg.to)) {
                    let message = format!(
                        "batch message for machine {} outside this worker's shard [{lo}, {hi})",
                        msg.to
                    );
                    write_frame(&mut output, &err_ack(round, message))?;
                    continue;
                }
                let stepped = sim
                    .inject_messages(&msgs)
                    .and_then(|()| sim.step_shard(*lo, *hi))
                    .map(|out| (out, sim.snapshot().to_bytes()));
                match stepped {
                    Ok((out, barrier)) => {
                        let ack = Ack::Round { stats: out.stats, outputs: out.outputs };
                        write_frames(
                            &mut output,
                            &[
                                Frame::RoundMsgs { round, msgs: out.messages },
                                Frame::RoundAck { round, ack },
                                Frame::Snapshot { bytes: barrier },
                            ],
                        )?;
                    }
                    Err(violation) => {
                        write_frame(&mut output, &err_ack(round, violation.to_string()))?;
                    }
                }
            }
            Frame::RoundAck { .. } => {
                return Err(ShardError::Protocol(
                    "worker received a ROUND_ACK (supervisor-bound frame)".into(),
                ));
            }
            Frame::Connect { .. } => {
                return Err(ShardError::Protocol(
                    "worker received a SHARD_CONNECT (supervisor-bound frame)".into(),
                ));
            }
        }
    }
}

fn err_ack(round: usize, message: String) -> Frame {
    Frame::RoundAck { round, ack: Ack::Error { message } }
}

/// Heartbeat traffic observed while waiting on one worker.
#[derive(Clone, Copy, Debug, Default)]
struct Liveness {
    probes: u64,
    echoes: u64,
}

/// A live worker process plus its reader thread and recovery state.
///
/// `Drop` reaps unconditionally — abort the sink, kill, wait, join the
/// reader — so a worker can never outlive its handle as a zombie, no
/// matter which error path dropped it (the handshake-failure audit of
/// `crates/experiments/tests/shard_reap.rs` counts live children to
/// prove it).
struct WorkerHandle {
    index: usize,
    child: Child,
    sink: Box<dyn FrameSink>,
    rx: Receiver<Frame>,
    reader: Option<JoinHandle<()>>,
    /// The latest round-barrier snapshot (container bytes). `None` until
    /// the first round completes: before that, a fresh hello build *is*
    /// the round-0 barrier.
    barrier: Option<Vec<u8>>,
    respawns: usize,
    hb_seq: u64,
    /// Chaos frame counters (send, recv). They live here — not in the
    /// sink — so they survive respawns and a forced fault at frame `k`
    /// strikes once, not once per fresh connection.
    counters: (Arc<AtomicU64>, Arc<AtomicU64>),
}

impl WorkerHandle {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        send_image(self.sink.as_mut(), &frame.to_bytes())
    }

    /// Receives the next non-heartbeat frame, probing a silent worker at
    /// the heartbeat interval and measuring the deadline from its last
    /// sign of life. `Err` means the worker is dead or hung — the crash
    /// signal.
    fn recv_live(&mut self, deadline: Duration) -> (Result<Frame, String>, Liveness) {
        let mut live = Liveness::default();
        let mut last_alive = Instant::now();
        loop {
            let elapsed = last_alive.elapsed();
            if elapsed >= deadline {
                return (Err(format!("round deadline {deadline:?} exceeded")), live);
            }
            match self.rx.recv_timeout(HEARTBEAT_INTERVAL.min(deadline - elapsed)) {
                Ok(Frame::Heartbeat { .. }) => {
                    // An echo: the worker is alive even if its reply is
                    // slow. Refresh the deadline.
                    last_alive = Instant::now();
                    live.echoes += 1;
                }
                Ok(frame) => return (Ok(frame), live),
                Err(RecvTimeoutError::Timeout) => {
                    self.hb_seq += 1;
                    let probe = Frame::Heartbeat { seq: self.hb_seq };
                    if let Err(e) = self.send(&probe) {
                        return (Err(format!("heartbeat write failed: {e}")), live);
                    }
                    live.probes += 1;
                }
                Err(RecvTimeoutError::Disconnected) => return (Err("stream EOF".into()), live),
            }
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // Aborting the sink first lets an orderly pipe worker exit on
        // EOF (and unblocks a TCP reader), but we do not wait for that
        // courtesy: kill unconditionally, then reap.
        self.sink.abort();
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One worker's complete round reply, collected by the supervisor.
struct RoundReply {
    msgs: Vec<Message>,
    stats: RoundStats,
    outputs: Vec<(MachineId, BitVec)>,
    barrier: Vec<u8>,
}

/// A fresh session nonce: unique per supervisor within a process tree,
/// so a worker spawned by one supervisor incarnation cannot serve
/// another.
fn fresh_nonce() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix64(((std::process::id() as u64) << 32) ^ c)
}

/// How often a silent worker is probed with a `HEARTBEAT` frame while
/// the supervisor waits on it.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

/// First respawn backoff delay; doubles with every respawn of the same
/// worker since its fleet was spawned or last rebound
/// ([`Supervisor::rebind`] resets the count), up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Upper bound on the exponential respawn backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

fn backoff_delay(base: Duration, cap: Duration, attempt: usize) -> Duration {
    let factor = 1u32 << attempt.min(16) as u32;
    base.checked_mul(factor).unwrap_or(cap).min(cap)
}

/// The builder a supervisor uses for last-resort in-process fallback.
pub type FallbackBuilder = Arc<dyn Fn(&[u8]) -> Result<Simulation, String> + Send + Sync>;

/// The supervisor of a sharded run.
pub struct Supervisor {
    cfg: SupervisorConfig,
    spec: Vec<u8>,
    m: usize,
    metrics: Option<Arc<dyn MetricsSink>>,
    workers: Vec<WorkerHandle>,
    bounds: Vec<(usize, usize)>,
    nonce: u64,
    listener: Option<TcpListener>,
    kills_fired: Vec<bool>,
    builder: Option<FallbackBuilder>,
    fallback: Option<Simulation>,
    degraded: Option<String>,
}

impl Supervisor {
    /// Spawns one worker per shard and completes every handshake. The
    /// spec bytes are opaque to the supervisor; workers decode them with
    /// the builder they were started with.
    pub fn new(
        cfg: SupervisorConfig,
        spec: Vec<u8>,
        m: usize,
        metrics: Option<Arc<dyn MetricsSink>>,
    ) -> Result<Self, ShardError> {
        assert!(!cfg.worker_cmd.is_empty(), "worker_cmd must name an executable");
        let bounds = partition_shards(m, cfg.shards);
        let listener = match cfg.transport {
            TransportKind::Tcp => {
                let l = TcpListener::bind(("127.0.0.1", 0))?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            TransportKind::Pipe => None,
        };
        let kills_fired = vec![false; cfg.kills.len()];
        let mut sup = Supervisor {
            cfg,
            spec,
            m,
            metrics,
            workers: Vec::with_capacity(bounds.len()),
            bounds,
            nonce: fresh_nonce(),
            listener,
            kills_fired,
            builder: None,
            fallback: None,
            degraded: None,
        };
        for i in 0..sup.bounds.len() {
            let counters = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
            let worker = sup.spawn_worker(i, counters)?;
            sup.worker_event("spawn", i, 0);
            sup.workers.push(worker);
            let (lo, hi) = sup.bounds[i];
            let hello = Frame::Hello { lo, hi, nonce: sup.nonce, spec: sup.spec.clone() };
            sup.send_to(i, 0, &hello)?;
            sup.expect_ready_at(i, 0)?;
        }
        Ok(sup)
    }

    /// Installs the builder used for last-resort in-process fallback when
    /// every worker has died. Without one, fleet exhaustion is a
    /// [`ShardError::WorkerDied`] instead of a degraded completion.
    pub fn set_fallback_builder(&mut self, builder: FallbackBuilder) {
        self.builder = Some(builder);
    }

    /// How this run degraded, if it did: the reason recorded when the
    /// first worker exhausted its respawn budget and the supervisor
    /// redistributed its shard (or fell back in-process).
    pub fn degradation(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// The machine count this supervisor was built for.
    pub fn machine_count(&self) -> usize {
        self.m
    }

    fn worker_event(&self, kind: &'static str, worker: usize, round: usize) {
        emit(&self.metrics, || Event::Worker { kind, worker: worker as u64, round: round as u64 });
    }

    /// Spawns one worker process and wires up its transport: piped stdio
    /// for [`TransportKind::Pipe`], or a spawn with `--connect` plus a
    /// vetted accept for [`TransportKind::Tcp`]. Chaos, when configured,
    /// wraps both directions here.
    fn spawn_worker(
        &self,
        index: usize,
        counters: (Arc<AtomicU64>, Arc<AtomicU64>),
    ) -> Result<WorkerHandle, ShardError> {
        let cmd = &self.cfg.worker_cmd;
        let spawn_err = |message: String| ShardError::Spawn { worker: index, message };
        match self.cfg.transport {
            TransportKind::Pipe => {
                let mut child = Command::new(&cmd[0])
                    .args(&cmd[1..])
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .spawn()
                    .map_err(|e| spawn_err(format!("spawn failed: {e}")))?;
                let stdin = match child.stdin.take() {
                    Some(stdin) => stdin,
                    None => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(spawn_err("child stdin was not piped".into()));
                    }
                };
                let stdout = match child.stdout.take() {
                    Some(stdout) => stdout,
                    None => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(spawn_err("child stdout was not piped".into()));
                    }
                };
                Ok(self.finish_handle(
                    index,
                    child,
                    Box::new(WriteSink::new(stdin)),
                    Box::new(stdout),
                    counters,
                ))
            }
            TransportKind::Tcp => {
                let listener = self.listener.as_ref().expect("tcp transport has a listener");
                let addr = listener
                    .local_addr()
                    .map_err(|e| spawn_err(format!("listener address: {e}")))?;
                let mut argv = cmd.to_vec();
                argv.extend([
                    "--connect".into(),
                    addr.to_string(),
                    "--session".into(),
                    format!("{:016x}", self.nonce),
                    "--worker".into(),
                    index.to_string(),
                ]);
                let mut child = Command::new(&argv[0])
                    .args(&argv[1..])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .spawn()
                    .map_err(|e| spawn_err(format!("spawn failed: {e}")))?;
                let stream = match self.accept_worker(&mut child, index) {
                    Ok(stream) => stream,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(e);
                    }
                };
                let sink_stream =
                    stream.try_clone().map_err(|e| spawn_err(format!("stream clone: {e}")))?;
                Ok(self.finish_handle(
                    index,
                    child,
                    Box::new(TcpSink::new(sink_stream)),
                    Box::new(stream),
                    counters,
                ))
            }
        }
    }

    /// Polls the listener until worker `index` of **this session**
    /// identifies itself with a `SHARD_CONNECT` frame. Stray clients,
    /// stale-session workers, and wrong-index connections are dropped;
    /// a child that exits before connecting is a typed spawn failure.
    fn accept_worker(&self, child: &mut Child, index: usize) -> Result<TcpStream, ShardError> {
        let listener = self.listener.as_ref().expect("tcp transport has a listener");
        let limit = self.cfg.round_deadline;
        let start = Instant::now();
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(vetted) = self.vet_connection(stream, index) {
                        return Ok(vetted);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(ShardError::Spawn {
                            worker: index,
                            message: format!("worker exited before connecting: {status}"),
                        });
                    }
                    if start.elapsed() > limit {
                        return Err(ShardError::Spawn {
                            worker: index,
                            message: format!("no identified connection within {limit:?}"),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(ShardError::Io(e)),
            }
        }
    }

    /// Reads a connection's first frame and keeps it only if it is a
    /// `SHARD_CONNECT` for this session and shard.
    fn vet_connection(&self, mut stream: TcpStream, index: usize) -> Option<TcpStream> {
        stream.set_nonblocking(false).ok()?;
        stream.set_read_timeout(Some(Duration::from_secs(1))).ok()?;
        let image = read_image(&mut stream).ok()?;
        match Frame::from_bytes(&image) {
            Ok(Frame::Connect { nonce, worker }) if nonce == self.nonce && worker == index => {
                stream.set_read_timeout(None).ok()?;
                let _ = stream.set_nodelay(true);
                Some(stream)
            }
            _ => None,
        }
    }

    /// Builds the handle: reader thread (with recv-direction chaos),
    /// chaos-wrapped sink, fresh channel.
    fn finish_handle(
        &self,
        index: usize,
        child: Child,
        sink: Box<dyn FrameSink>,
        source: Box<dyn Read + Send>,
        counters: (Arc<AtomicU64>, Arc<AtomicU64>),
    ) -> WorkerHandle {
        let (tx, rx): (Sender<Frame>, Receiver<Frame>) = std::sync::mpsc::channel();
        let chaos = self.cfg.chaos.clone();
        let recv_counter = Arc::clone(&counters.1);
        let reader = std::thread::spawn(move || {
            // Decode in the reader so the supervisor thread only ever
            // blocks on the channel. Any read/decode failure ends the
            // thread; the dropped sender surfaces to the supervisor as a
            // disconnect — the crash signal.
            let mut source = BufReader::new(source);
            'read: while let Ok(image) = read_image(&mut source) {
                let images = match &chaos {
                    Some(spec) => match apply_recv_chaos(spec, index, &recv_counter, image) {
                        RecvAction::Deliver(images) => images,
                        RecvAction::Sever => break,
                    },
                    None => vec![image],
                };
                for image in images {
                    let frame = match Frame::from_bytes(&image) {
                        Ok(frame) => frame,
                        Err(_) => break 'read,
                    };
                    if tx.send(frame).is_err() {
                        break 'read;
                    }
                }
            }
        });
        let sink: Box<dyn FrameSink> = match &self.cfg.chaos {
            Some(spec) => {
                Box::new(ChaosSink::new(sink, spec.clone(), index, Arc::clone(&counters.0)))
            }
            None => sink,
        };
        WorkerHandle {
            index,
            child,
            sink,
            rx,
            reader: Some(reader),
            barrier: None,
            respawns: 0,
            hb_seq: 0,
            counters,
        }
    }

    /// Sends one frame to a worker, mapping a write failure to the crash
    /// signal for `round`.
    fn send_to(&mut self, index: usize, round: usize, frame: &Frame) -> Result<(), ShardError> {
        self.workers[index].send(frame).map_err(|e| ShardError::WorkerDied {
            worker: index,
            round,
            reason: format!("write failed: {e}"),
        })
    }

    /// Receives the next frame from a worker, emitting heartbeat
    /// telemetry for any probes sent and echoes consumed while waiting.
    fn recv_worker(&mut self, index: usize, round: usize) -> Result<Frame, String> {
        let (res, live) = self.workers[index].recv_live(self.cfg.round_deadline);
        for _ in 0..live.probes {
            self.worker_event("heartbeat", index, round);
        }
        for _ in 0..live.echoes {
            self.worker_event("hb_echo", index, round);
        }
        res
    }

    /// Waits for an [`Ack::Ready`] at `expected_round` from a
    /// freshly-built or freshly-restored worker, skipping stale frames.
    /// An error ack is fatal: a worker that cannot even reach a barrier
    /// would fail identically on respawn.
    fn expect_ready_at(&mut self, index: usize, expected_round: usize) -> Result<(), ShardError> {
        loop {
            match self.recv_worker(index, expected_round) {
                Ok(Frame::RoundAck { round, ack: Ack::Ready }) if round == expected_round => {
                    return Ok(())
                }
                Ok(Frame::RoundAck { ack: Ack::Error { message }, .. }) => {
                    return Err(ShardError::Worker { worker: index, message })
                }
                Ok(_stale) => continue,
                Err(reason) => {
                    return Err(ShardError::WorkerDied {
                        worker: index,
                        round: expected_round,
                        reason,
                    })
                }
            }
        }
    }

    /// Rolls a fresh worker process forward to the in-flight round:
    /// hello (fresh build = round-0 barrier), restore the retained
    /// barrier if one exists, resend the round's batch.
    fn roll_forward(
        &mut self,
        index: usize,
        round: usize,
        batch: &[Message],
    ) -> Result<(), ShardError> {
        let (lo, hi) = self.bounds[index];
        let hello = Frame::Hello { lo, hi, nonce: self.nonce, spec: self.spec.clone() };
        let barrier = self.workers[index].barrier.clone();
        self.send_to(index, round, &hello)?;
        self.expect_ready_at(index, 0)?;
        if let Some(bytes) = barrier {
            self.send_to(index, round, &Frame::Snapshot { bytes })?;
            self.expect_ready_at(index, round)?;
        }
        self.send_to(index, round, &Frame::RoundMsgs { round, msgs: batch.to_vec() })?;
        Ok(())
    }

    /// Replaces worker `index` with a fresh process that keeps its
    /// barrier and chaos counters and carries `respawns` as its respawn
    /// count, then rolls it forward to the in-flight round. A failed
    /// spawn leaves the old handle in place.
    fn respawn(
        &mut self,
        index: usize,
        round: usize,
        batch: &[Message],
        respawns: usize,
    ) -> Result<(), ShardError> {
        let counters = self.workers[index].counters.clone();
        let mut fresh = self.spawn_worker(index, counters)?;
        fresh.respawns = respawns;
        fresh.barrier = self.workers[index].barrier.clone();
        // Dropping the old handle reaps the dead process and joins its
        // reader; stale frames from the dead incarnation die with its
        // channel.
        self.workers[index] = fresh;
        self.worker_event("respawn", index, round);
        if self.cfg.transport == TransportKind::Tcp {
            self.worker_event("reconnect", index, round);
        }
        self.roll_forward(index, round, batch)?;
        self.worker_event("replay", index, round);
        Ok(())
    }

    /// Recovers a crashed worker: backoff, respawn (budget-bounded),
    /// roll forward, retrying until the budget is exhausted. Because
    /// workers are deterministic functions of (spec, barrier, batch),
    /// the replayed round is bit-identical to the lost one.
    fn recover(
        &mut self,
        index: usize,
        round: usize,
        batch: &[Message],
        mut reason: String,
    ) -> Result<(), ShardError> {
        loop {
            self.worker_event("crash", index, round);
            let attempt = self.workers[index].respawns;
            if attempt >= self.cfg.max_respawns {
                return Err(ShardError::WorkerDied { worker: index, round, reason });
            }
            std::thread::sleep(backoff_delay(BACKOFF_BASE, BACKOFF_CAP, attempt));
            match self.respawn(index, round, batch, attempt + 1) {
                Ok(()) => return Ok(()),
                Err(ShardError::WorkerDied { reason: r, .. }) => reason = r,
                Err(ShardError::Spawn { message, .. }) => {
                    self.workers[index].respawns += 1;
                    reason = format!("respawn failed: {message}");
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Walks one rung of the degradation ladder for a worker whose
    /// respawn budget is exhausted: redistribute its machine range to a
    /// surviving neighbor (and resync all survivors to the in-flight
    /// round), or — when no workers survive — fall back to in-process
    /// execution. Non-death errors propagate unchanged.
    fn degrade(
        &mut self,
        error: ShardError,
        round: usize,
        batches: &mut Vec<Vec<Message>>,
    ) -> Result<(), ShardError> {
        let (dead, reason) = match error {
            ShardError::WorkerDied { worker, reason, .. } => (worker, reason),
            ShardError::Spawn { worker, message } => (worker, message),
            other => return Err(other),
        };
        if self.workers.len() > 1 {
            let (dead_lo, dead_hi) = self.bounds[dead];
            self.workers.remove(dead); // Drop reaps the dead process.
            self.bounds.remove(dead);
            let dead_batch = batches.remove(dead);
            for (i, w) in self.workers.iter_mut().enumerate() {
                w.index = i;
            }
            let absorber = if dead > 0 { dead - 1 } else { 0 };
            let (alo, ahi) = self.bounds[absorber];
            self.bounds[absorber] = (alo.min(dead_lo), ahi.max(dead_hi));
            // Batch order across disjoint recipient ranges is
            // irrelevant — only per-recipient order matters, and the two
            // shards' recipients are disjoint.
            batches[absorber].extend(dead_batch);
            self.worker_event("redistribute", absorber, round);
            if self.degraded.is_none() {
                self.degraded = Some(format!(
                    "worker {dead} exhausted its respawn budget in round {round} ({reason}); \
                     machines [{dead_lo}, {dead_hi}) redistributed to a surviving worker"
                ));
            }
            // Every survivor is respawned outside its respawn budget and
            // rolled forward: its channel may hold replies computed
            // against the old shard map (or partially collected state was
            // discarded), and the absorber must rebuild with its widened
            // range. A single attempt: a failure means the survivor is
            // dead too, and the caller walks the ladder again.
            for (i, batch) in batches.iter().enumerate().take(self.workers.len()) {
                let respawns = self.workers[i].respawns;
                self.respawn(i, round, batch, respawns)?;
            }
            Ok(())
        } else {
            let Some(builder) = self.builder.clone() else {
                return Err(ShardError::WorkerDied { worker: dead, round, reason });
            };
            let barrier = self.workers.first().and_then(|w| w.barrier.clone());
            self.workers.clear(); // Drop reaps the last dead process.
            let mut sim = builder(&self.spec)
                .map_err(|message| ShardError::Worker { worker: dead, message })?;
            if let Some(bytes) = barrier {
                let snap = SimulationSnapshot::from_bytes(&bytes)?;
                sim.restore(&snap)?;
            }
            let merged: Vec<Message> = batches.drain(..).flatten().collect();
            batches.push(merged);
            self.bounds = vec![(0, self.m)];
            self.fallback = Some(sim);
            self.worker_event("degrade", dead, round);
            if self.degraded.is_none() {
                self.degraded = Some(format!(
                    "all workers dead by round {round} ({reason}); fell back to in-process \
                     execution"
                ));
            }
            Ok(())
        }
    }

    /// Collects one worker's three-frame round reply, recovering through
    /// crashes and skipping stale or duplicated frames. Partial replies
    /// from a dead incarnation are discarded — only a complete
    /// (msgs, ack, barrier) triple counts.
    fn collect(
        &mut self,
        index: usize,
        round: usize,
        batch: &[Message],
    ) -> Result<RoundReply, ShardError> {
        'attempt: loop {
            let mut msgs: Option<Vec<Message>> = None;
            let mut acked: Option<(RoundStats, Vec<(MachineId, BitVec)>)> = None;
            loop {
                match self.recv_worker(index, round) {
                    Ok(Frame::RoundAck { ack: Ack::Error { message }, .. }) => {
                        return Err(ShardError::Worker { worker: index, message });
                    }
                    // A stale handshake/restore ack (e.g. a duplicated
                    // Ready consumed late): skip.
                    Ok(Frame::RoundAck { ack: Ack::Ready, .. }) => continue,
                    Ok(Frame::RoundMsgs { round: r, msgs: m }) => {
                        if r == round && msgs.is_none() {
                            msgs = Some(m);
                        } else if r <= round {
                            continue; // stale round or duplicated frame
                        } else {
                            return Err(ShardError::Protocol(format!(
                                "worker {index} sent round {r} messages during round {round}"
                            )));
                        }
                    }
                    Ok(Frame::RoundAck { round: r, ack: Ack::Round { stats, outputs } }) => {
                        if r == round && msgs.is_some() && acked.is_none() {
                            acked = Some((stats, outputs));
                        } else if r <= round {
                            continue; // stale round or duplicated frame
                        } else {
                            return Err(ShardError::Protocol(format!(
                                "worker {index} acked round {r} during round {round}"
                            )));
                        }
                    }
                    Ok(Frame::Snapshot { bytes }) => {
                        if msgs.is_some() && acked.is_some() {
                            let (stats, outputs) = acked.take().expect("checked");
                            self.worker_event("round_ack", index, round);
                            return Ok(RoundReply {
                                msgs: msgs.take().expect("checked"),
                                stats,
                                outputs,
                                barrier: bytes,
                            });
                        }
                        continue; // a stale barrier (duplicated final frame)
                    }
                    Ok(other) => {
                        return Err(ShardError::Protocol(format!(
                            "worker {index} sent {other:?} during round {round} collection"
                        )));
                    }
                    Err(reason) => {
                        self.recover(index, round, batch, reason)?;
                        continue 'attempt;
                    }
                }
            }
        }
    }

    /// Runs one full round: send batches, apply the kill schedule,
    /// collect every reply, and commit barriers only once the whole
    /// round succeeded (staged commit is what lets a redistribution
    /// retry the round from intact barriers). Returns the round's merged
    /// messages, outputs, and statistics.
    #[allow(clippy::type_complexity)]
    fn run_round(
        &mut self,
        round: usize,
        batches: &[Vec<Message>],
    ) -> Result<(Vec<Message>, Vec<(MachineId, BitVec)>, RoundStats), ShardError> {
        let m = self.m;
        if let Some(sim) = self.fallback.as_mut() {
            let out = sim
                .inject_messages(&batches[0])
                .and_then(|()| sim.step_shard(0, m))
                .map_err(ShardError::Violation)?;
            return Ok((out.messages, out.outputs, out.stats));
        }
        // Send every worker its inbound batch; a write failure is a
        // crash already visible at the transport, recovered on the spot
        // (recovery resends the batch itself, and the worker-side stale
        // drop absorbs the duplicate).
        for (i, batch) in batches.iter().enumerate().take(self.workers.len()) {
            let frame = Frame::RoundMsgs { round, msgs: batch.clone() };
            if let Err(e) = self.workers[i].send(&frame) {
                self.recover(i, round, batch, format!("write failed: {e}"))?;
            }
        }
        // The seeded kill schedule strikes *after* the batch is on the
        // wire: the worker dies mid-round, computing. Each order fires
        // once — a degradation retry must not re-kill the fleet.
        for k in 0..self.cfg.kills.len() {
            let kill = self.cfg.kills[k];
            if !self.kills_fired[k] && kill.round == round && kill.worker < self.workers.len() {
                self.kills_fired[k] = true;
                let _ = self.workers[kill.worker].child.kill();
            }
        }
        // Collect in worker order. Replies buffer in the per-worker
        // channels, so sequential collection loses no parallelism — and
        // worker order *is* sender-major machine order, which is what
        // makes the merged transcript byte-identical to the in-process
        // executor's.
        let mut round_msgs: Vec<Message> = Vec::new();
        let mut round_outputs: Vec<(MachineId, BitVec)> = Vec::new();
        let mut merged = RoundStats { round: round as u64, ..RoundStats::default() };
        let mut barriers: Vec<Vec<u8>> = Vec::with_capacity(self.workers.len());
        for (i, batch) in batches.iter().enumerate().take(self.workers.len()) {
            let reply = self.collect(i, round, batch)?;
            if reply.stats.round != round as u64 {
                return Err(ShardError::Protocol(format!(
                    "worker {i} acked round {} during round {round}",
                    reply.stats.round
                )));
            }
            round_msgs.extend(reply.msgs);
            round_outputs.extend(reply.outputs);
            merged.merge(&reply.stats);
            barriers.push(reply.barrier);
        }
        for (w, barrier) in self.workers.iter_mut().zip(barriers) {
            w.barrier = Some(barrier);
        }
        Ok((round_msgs, round_outputs, merged))
    }

    /// Runs the sharded computation until some machine emits an output
    /// or `max_rounds` is reached — the supervised mirror of
    /// [`Simulation::run_until_output`], with a byte-identical
    /// [`RunResult`]. Worker deaths beyond the respawn budget walk the
    /// degradation ladder (check [`Supervisor::degradation`] afterward)
    /// instead of failing, as long as a fallback builder is installed.
    pub fn run_until_output(&mut self, max_rounds: usize) -> Result<RunResult, ShardError> {
        let mut batches: Vec<Vec<Message>> = vec![Vec::new(); self.bounds.len()];
        let mut stats = SimStats::default();
        let mut round = 0;
        while round < max_rounds {
            let (round_msgs, outputs, merged) = loop {
                match self.run_round(round, &batches) {
                    Ok(v) => break v,
                    Err(e) => self.degrade(e, round, &mut batches)?,
                }
            };
            stats.rounds.push(merged);
            if !outputs.is_empty() {
                return Ok(RunResult { outputs, stats });
            }
            // Route: partition the concatenated sender-major stream by
            // destination shard, preserving order within each batch.
            for slot in batches.iter_mut() {
                slot.clear();
            }
            for msg in round_msgs {
                if msg.to >= self.m {
                    return Err(ShardError::Protocol(format!(
                        "worker message addressed to machine {} (m = {})",
                        msg.to, self.m
                    )));
                }
                let owner = self.bounds.partition_point(|&(_, hi)| hi <= msg.to);
                batches[owner].push(msg);
            }
            round += 1;
        }
        Ok(RunResult { outputs: Vec::new(), stats })
    }

    /// Rebinds a **healthy, full-strength** fleet to a new spec without
    /// respawning processes: every worker rebuilds from the new hello
    /// (dropping its barrier and respawn count) — this is what lets one
    /// warm fleet serve every trial of a sweep cell, keeping worker-side
    /// oracle caches hot. Refuses on a degraded fleet; callers then
    /// build a fresh supervisor instead.
    pub fn rebind(&mut self, spec: Vec<u8>) -> Result<(), ShardError> {
        if self.fallback.is_some()
            || self.degraded.is_some()
            || self.workers.len() != self.cfg.shards
        {
            return Err(ShardError::Protocol(
                "cannot rebind a degraded fleet; build a fresh supervisor".into(),
            ));
        }
        self.spec = spec;
        self.kills_fired = vec![false; self.cfg.kills.len()];
        for i in 0..self.workers.len() {
            self.workers[i].barrier = None;
            self.workers[i].respawns = 0;
            let (lo, hi) = self.bounds[i];
            let hello = Frame::Hello { lo, hi, nonce: self.nonce, spec: self.spec.clone() };
            self.send_to(i, 0, &hello)?;
            self.expect_ready_at(i, 0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Outbox, RoundCtx};
    use crate::message::Inbox;
    use mph_oracle::{LazyOracle, RandomTape};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { lo: 2, hi: 5, nonce: 0xdead_beef_cafe_f00d, spec: vec![1, 2, 3, 255] },
            Frame::RoundMsgs {
                round: 7,
                msgs: vec![
                    Message { from: 0, to: 3, payload: BitVec::from_u64(0b101, 3) },
                    Message { from: 4, to: 4, payload: BitVec::new() },
                ],
            },
            Frame::RoundAck { round: 0, ack: Ack::Ready },
            Frame::RoundAck {
                round: 3,
                ack: Ack::Round {
                    stats: RoundStats {
                        round: 3,
                        messages: 2,
                        bits_sent: 3,
                        oracle_queries: 9,
                        max_queries_one_machine: 5,
                        max_memory_bits: 64,
                        active_machines: 2,
                    },
                    outputs: vec![(1, BitVec::ones(4))],
                },
            },
            Frame::RoundAck { round: 1, ack: Ack::Error { message: "boom".into() } },
            Frame::Snapshot { bytes: b"nested container".to_vec() },
            Frame::Heartbeat { seq: 42 },
            Frame::Connect { nonce: 0x1234_5678_9abc_def0, worker: 3 },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let bytes = frame.to_bytes();
            assert_eq!(Frame::from_bytes(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn unknown_frame_kind_is_typed() {
        let mut w = SnapshotWriter::new();
        let patch = w.begin_section(b"ZZZZ");
        w.put_u64(1);
        w.end_section(patch);
        let bytes = w.finish();
        match Frame::from_bytes(&bytes) {
            Err(ShardError::UnknownFrameKind { tag }) => assert_eq!(tag, *b"ZZZZ"),
            other => panic!("expected UnknownFrameKind, got {other:?}"),
        }
    }

    #[test]
    fn length_prefix_framing_round_trips() {
        let mut wire = Vec::new();
        for frame in sample_frames() {
            write_frame(&mut wire, &frame).unwrap();
        }
        let mut r = &wire[..];
        for frame in sample_frames() {
            assert_eq!(read_frame(&mut r).unwrap(), frame);
        }
        // Clean EOF afterwards.
        match read_frame(&mut r) {
            Err(ShardError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        assert!(matches!(read_frame(&mut &wire[..]), Err(ShardError::Protocol(_))));
    }

    #[test]
    fn partition_is_contiguous_and_even() {
        assert_eq!(partition_shards(4, 1), vec![(0, 4)]);
        assert_eq!(partition_shards(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(partition_shards(7, 2), vec![(0, 4), (4, 7)]);
        let bounds = partition_shards(10, 3);
        assert_eq!(bounds, vec![(0, 4), (4, 7), (7, 10)]);
        assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_secs(2);
        assert_eq!(backoff_delay(base, cap, 0), Duration::from_millis(25));
        assert_eq!(backoff_delay(base, cap, 1), Duration::from_millis(50));
        assert_eq!(backoff_delay(base, cap, 3), Duration::from_millis(200));
        assert_eq!(backoff_delay(base, cap, 10), cap);
        assert_eq!(backoff_delay(base, cap, 60), cap);
        assert_eq!(backoff_delay(Duration::ZERO, cap, 5), Duration::ZERO);
    }

    #[test]
    fn nonces_are_unique_per_supervisor() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
    }

    /// A deterministic relay build for in-memory worker tests: machine i
    /// forwards its inbox to machine (i + 1) % m, emitting once a
    /// message has hopped `m` times.
    fn relay_sim(m: usize) -> Simulation {
        let mut sim =
            Simulation::new(m, 256, Arc::new(LazyOracle::square(3, 16)), RandomTape::new(7));
        sim.set_uniform_logic(Arc::new(
            move |ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                for msg in incoming.iter() {
                    let mut payload = msg.payload.to_bitvec();
                    payload.push(true);
                    if payload.len() >= 8 {
                        out.emit(payload);
                    } else {
                        out.push((ctx.machine() + 1) % ctx.m(), &payload);
                    }
                }
                Ok(())
            },
        ));
        sim.seed_memory(0, BitVec::from_u64(0b1, 4));
        sim
    }

    /// Drives `worker_serve_with` over in-memory pipes with a scripted
    /// frame sequence and returns the worker's reply frames.
    fn drive_worker_bound(
        input_frames: &[Frame],
        m: usize,
        expected_nonce: Option<u64>,
    ) -> Result<Vec<Frame>, ShardError> {
        let mut wire = Vec::new();
        for frame in input_frames {
            write_frame(&mut wire, frame).unwrap();
        }
        let mut replies = Vec::new();
        worker_serve_with(&wire[..], &mut replies, expected_nonce, |_spec| Ok(relay_sim(m)))?;
        let mut frames = Vec::new();
        let mut r = &replies[..];
        loop {
            match read_frame(&mut r) {
                Ok(frame) => frames.push(frame),
                Err(ShardError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => panic!("worker reply stream corrupt: {e}"),
            }
        }
        Ok(frames)
    }

    fn drive_worker(input_frames: &[Frame], m: usize) -> Vec<Frame> {
        drive_worker_bound(input_frames, m, None).unwrap()
    }

    #[test]
    fn worker_round_trip_matches_in_process_round() {
        // One worker owning the whole machine range: its per-round
        // replies must carry exactly what the in-process executor's
        // rounds produce.
        let m = 3;
        let hello = Frame::Hello { lo: 0, hi: m, nonce: 0, spec: Vec::new() };
        let r0 = Frame::RoundMsgs { round: 0, msgs: Vec::new() };
        let replies = drive_worker(&[hello, r0], m);
        assert!(matches!(replies[0], Frame::RoundAck { ack: Ack::Ready, .. }));
        let Frame::RoundMsgs { round: 0, msgs } = &replies[1] else {
            panic!("expected round 0 messages, got {:?}", replies[1]);
        };
        // Round 0: machine 0 relays its seed (one bit appended) to 1.
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].from, 0);
        assert_eq!(msgs[0].to, 1);
        assert_eq!(msgs[0].payload.len(), 5);
        let Frame::RoundAck { round: 0, ack: Ack::Round { stats, outputs } } = &replies[2] else {
            panic!("expected round 0 ack, got {:?}", replies[2]);
        };
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.active_machines, 1);
        assert!(outputs.is_empty());
        let Frame::Snapshot { bytes } = &replies[3] else {
            panic!("expected barrier snapshot, got {:?}", replies[3]);
        };
        let barrier = SimulationSnapshot::from_bytes(bytes).unwrap();
        assert_eq!(barrier.round, 1);
        // Full extraction: the barrier is empty — recovery state is the
        // batch, not the image.
        assert!(barrier.inboxes.iter().all(Vec::is_empty));
    }

    #[test]
    fn each_reply_is_one_write_call() {
        // The worker's whole round reply (RMSG, RACK, SSNP) goes out in
        // one write call, and every other reply frame in one call too, so
        // the supervisor's reader wakes once per reply.
        struct Calls(Vec<Vec<u8>>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let m = 3;
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Hello { lo: 0, hi: m, nonce: 0, spec: Vec::new() }).unwrap();
        write_frame(&mut wire, &Frame::RoundMsgs { round: 0, msgs: Vec::new() }).unwrap();
        let mut calls = Calls(Vec::new());
        worker_serve_with(&wire[..], &mut calls, None, |_spec| Ok(relay_sim(m))).unwrap();
        assert_eq!(calls.0.len(), 2, "one call for the ready ack, one for the round reply");
        let mut r = &calls.0[1][..];
        let kinds: Vec<Frame> = (0..3).map(|_| read_frame(&mut r).unwrap()).collect();
        assert!(matches!(kinds[0], Frame::RoundMsgs { round: 0, .. }));
        assert!(matches!(kinds[1], Frame::RoundAck { round: 0, ack: Ack::Round { .. } }));
        assert!(matches!(kinds[2], Frame::Snapshot { .. }));
        assert!(r.is_empty(), "the call holds exactly the three reply frames");
    }

    #[test]
    fn worker_echoes_heartbeats_any_time() {
        let m = 3;
        let frames = [
            Frame::Heartbeat { seq: 1 }, // before hello
            Frame::Hello { lo: 0, hi: m, nonce: 0, spec: Vec::new() },
            Frame::Heartbeat { seq: 7 }, // between rounds
            Frame::RoundMsgs { round: 0, msgs: Vec::new() },
            Frame::Heartbeat { seq: 9 },
        ];
        let replies = drive_worker(&frames, m);
        assert_eq!(replies[0], Frame::Heartbeat { seq: 1 });
        assert!(matches!(replies[1], Frame::RoundAck { ack: Ack::Ready, .. }));
        assert_eq!(replies[2], Frame::Heartbeat { seq: 7 });
        assert_eq!(*replies.last().unwrap(), Frame::Heartbeat { seq: 9 });
    }

    #[test]
    fn worker_drops_stale_batch_silently() {
        // After stepping round 0, a duplicated round-0 batch must
        // produce no reply at all — the stale-frame tolerance that makes
        // chaos duplication and replay double-sends converge.
        let m = 3;
        let hello = Frame::Hello { lo: 0, hi: m, nonce: 0, spec: Vec::new() };
        let r0 = Frame::RoundMsgs { round: 0, msgs: Vec::new() };
        let dup = Frame::RoundMsgs { round: 0, msgs: Vec::new() };
        let probe = Frame::Heartbeat { seq: 5 };
        let replies = drive_worker(&[hello, r0, dup, probe], m);
        // Ready + 3 reply frames + echo; the duplicate contributes nothing.
        assert_eq!(replies.len(), 5, "{replies:?}");
        assert_eq!(*replies.last().unwrap(), Frame::Heartbeat { seq: 5 });
    }

    #[test]
    fn worker_refuses_wrong_session_nonce() {
        let m = 3;
        let hello = Frame::Hello { lo: 0, hi: m, nonce: 111, spec: Vec::new() };
        match drive_worker_bound(&[hello], m, Some(222)) {
            Err(ShardError::Protocol(why)) => assert!(why.contains("nonce"), "{why}"),
            other => panic!("expected a nonce-mismatch protocol error, got {other:?}"),
        }
    }

    #[test]
    fn worker_accepts_matching_session_nonce() {
        let m = 3;
        let hello = Frame::Hello { lo: 0, hi: m, nonce: 222, spec: Vec::new() };
        let replies = drive_worker_bound(&[hello], m, Some(222)).unwrap();
        assert!(matches!(replies[0], Frame::RoundAck { ack: Ack::Ready, .. }));
    }

    #[test]
    fn worker_rejects_future_round_batch() {
        let m = 3;
        let hello = Frame::Hello { lo: 0, hi: m, nonce: 0, spec: Vec::new() };
        let bad = Frame::RoundMsgs { round: 5, msgs: Vec::new() };
        let replies = drive_worker(&[hello, bad], m);
        assert!(matches!(replies[0], Frame::RoundAck { ack: Ack::Ready, .. }));
        let Frame::RoundAck { ack: Ack::Error { message }, .. } = &replies[1] else {
            panic!("expected an error ack, got {:?}", replies[1]);
        };
        assert!(message.contains("round 5"), "{message}");
    }

    #[test]
    fn worker_rejects_out_of_shard_batch() {
        // A CRC-valid batch that addresses machine 2 (< m, but outside
        // the worker's shard [0, 2)) is refused with a typed error ack;
        // the worker stays up and answers the next probe.
        let m = 3;
        let hello = Frame::Hello { lo: 0, hi: 2, nonce: 0, spec: Vec::new() };
        let stray = Message { from: 0, to: 2, payload: BitVec::from_u64(0b1, 4) };
        let bad = Frame::RoundMsgs { round: 0, msgs: vec![stray] };
        let probe = Frame::Heartbeat { seq: 3 };
        let replies = drive_worker(&[hello, bad, probe], m);
        assert!(matches!(replies[0], Frame::RoundAck { ack: Ack::Ready, .. }));
        let Frame::RoundAck { round: 0, ack: Ack::Error { message } } = &replies[1] else {
            panic!("expected an error ack, got {:?}", replies[1]);
        };
        assert!(message.contains("machine 2") && message.contains("[0, 2)"), "{message}");
        assert_eq!(replies[2], Frame::Heartbeat { seq: 3 });
    }

    #[test]
    fn worker_reports_build_failure_as_error_ack() {
        let hello = Frame::Hello { lo: 0, hi: 1, nonce: 0, spec: Vec::new() };
        let mut wire = Vec::new();
        write_frame(&mut wire, &hello).unwrap();
        let mut replies = Vec::new();
        worker_serve(&wire[..], &mut replies, |_spec| Err("no such pipeline".into())).unwrap();
        let frame = read_frame(&mut &replies[..]).unwrap();
        let Frame::RoundAck { ack: Ack::Error { message }, .. } = frame else {
            panic!("expected an error ack, got {frame:?}");
        };
        assert!(message.contains("no such pipeline"), "{message}");
    }

    #[test]
    fn barriers_carry_no_round_history() {
        // A worker hands each round's record back in its RACK; its
        // barrier snapshot must not also keep every earlier record, or
        // the barrier grows by one record per round.
        let m = 3;
        let mut reference = relay_sim(m);
        reference.retain_shard(0, m);
        let mut frames = vec![Frame::Hello { lo: 0, hi: m, nonce: 0, spec: Vec::new() }];
        let mut batch = Vec::new();
        for round in 0..4 {
            frames.push(Frame::RoundMsgs { round, msgs: batch.clone() });
            reference.inject_messages(&batch).unwrap();
            batch = reference.step_shard(0, m).unwrap().messages;
        }
        let barriers: Vec<Vec<u8>> = drive_worker(&frames, m)
            .into_iter()
            .filter_map(|frame| match frame {
                Frame::Snapshot { bytes } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(barriers.len(), 4);
        for (round, bytes) in barriers.iter().enumerate() {
            let snap = SimulationSnapshot::from_bytes(bytes).unwrap();
            assert_eq!(snap.round, round + 1);
            assert!(snap.stats.rounds.is_empty(), "round {round}'s barrier keeps history");
            assert_eq!(bytes.len(), barriers[0].len(), "round {round}'s barrier grew");
        }
    }

    #[test]
    fn worker_restores_snapshot_to_its_round() {
        let m = 3;
        // Run two rounds in-process on the shard API to get a genuine
        // barrier snapshot, then hand it to a fresh worker.
        let mut sim = relay_sim(m);
        sim.retain_shard(0, m);
        let out0 = sim.step_shard(0, m).unwrap();
        sim.inject_messages(&out0.messages).unwrap();
        sim.step_shard(0, m).unwrap();
        let barrier = sim.snapshot().to_bytes();

        let hello = Frame::Hello { lo: 0, hi: m, nonce: 0, spec: Vec::new() };
        let restore = Frame::Snapshot { bytes: barrier };
        let replies = drive_worker(&[hello, restore], m);
        assert!(matches!(replies[0], Frame::RoundAck { round: 0, ack: Ack::Ready }));
        assert!(
            matches!(replies[1], Frame::RoundAck { round: 2, ack: Ack::Ready }),
            "restore must report the barrier round: {:?}",
            replies[1]
        );
    }

    #[test]
    fn sharded_rounds_reassemble_the_in_process_transcript() {
        // Drive two workers by hand through the full protocol and check
        // the merged transcript equals the in-process run, message for
        // message and output for output.
        let m = 4;
        let mut reference = relay_sim(m);
        let expected = reference.run_until_output(64).unwrap();

        let shards = partition_shards(m, 2);
        let mut sims: Vec<(Simulation, usize, usize)> = shards
            .iter()
            .map(|&(lo, hi)| {
                let mut sim = relay_sim(m);
                sim.retain_shard(lo, hi);
                (sim, lo, hi)
            })
            .collect();
        let mut batches: Vec<Vec<Message>> = vec![Vec::new(); sims.len()];
        let mut outputs = Vec::new();
        let mut stats = SimStats::default();
        let mut rounds = 0;
        'run: for round in 0..64 {
            let mut all_msgs = Vec::new();
            let mut merged = RoundStats { round: round as u64, ..RoundStats::default() };
            for (i, (sim, lo, hi)) in sims.iter_mut().enumerate() {
                sim.inject_messages(&batches[i]).unwrap();
                batches[i].clear();
                let out = sim.step_shard(*lo, *hi).unwrap();
                all_msgs.extend(out.messages);
                outputs.extend(out.outputs);
                merged.merge(&out.stats);
            }
            stats.rounds.push(merged);
            if !outputs.is_empty() {
                rounds = round + 1;
                break 'run;
            }
            for msg in all_msgs {
                let owner = shards.partition_point(|&(_, hi)| hi <= msg.to);
                batches[owner].push(msg);
            }
        }
        assert!(expected.completed());
        assert_eq!(rounds, expected.rounds());
        assert_eq!(outputs, expected.outputs);
        assert_eq!(stats, expected.stats);
    }
}
