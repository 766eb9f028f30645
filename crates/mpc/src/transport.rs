//! Pluggable shard wire transports with deterministic chaos injection.
//!
//! The shard protocol ([`crate::shard`]) exchanges length-prefixed
//! CRC-framed images. This module abstracts *how* those images move:
//!
//! * [`FrameSink`] — the sending half of a worker link, at the byte
//!   level (frame boundaries visible, contents opaque); the receiving
//!   half is any reader, drained frame by frame with [`read_image`]. The
//!   supervisor owns one pair per worker.
//! * [`TransportKind::Pipe`] — the original inherited `stdin`/`stdout`
//!   pipe pair of a spawned worker ([`WriteSink`] over `ChildStdin`,
//!   reading `ChildStdout`).
//! * [`TransportKind::Tcp`] — a real socket: the supervisor binds a
//!   listener, workers are spawned with `--connect` and identify
//!   themselves with a `SHARD_CONNECT` frame carrying the session nonce,
//!   so a stray or stale connection is dropped at accept time
//!   ([`TcpSink`] over one clone of the stream, reading the other).
//! * [`ChaosSpec`] — deterministic seeded network-fault injection that
//!   wraps either transport. Every fault is a **pure function of
//!   `(seed, worker, direction, frame_index)`** ([`ChaosSpec::fault_at`]),
//!   so a chaotic run is exactly reproducible: bit corruption, mid-frame
//!   truncation, mid-frame disconnect, frame duplication, and bounded
//!   delay. A zero-rate spec is byte-invisible on the wire (pinned by
//!   proptest).
//!
//! Chaos is injected supervisor-side only, in both directions: the
//! send path through [`ChaosSink`], the receive path through
//! [`apply_recv_chaos`] inside the per-worker reader thread. Every fault
//! funnels into the supervisor's existing detect → respawn →
//! replay-from-barrier machinery — a corrupted frame fails the
//! container CRC, a truncated or severed stream surfaces as a decode
//! error or a deadline, and a duplicated frame is dropped by the
//! stale-frame tolerance on both ends — so the merged transcript stays
//! byte-identical to the in-process executor. See docs/ROBUSTNESS.md
//! "Layer 6 — network faults and partitions".

use crate::shard::ShardError;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Upper bound on one frame's container size. A corrupt length prefix
/// must not convince the reader to allocate gigabytes.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Which wire a supervised shard fleet runs over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Inherited stdin/stdout pipes of the spawned worker (single-host).
    #[default]
    Pipe,
    /// A TCP connection back to the supervisor's listener — the wire
    /// that lets shards span hosts, and the one the chaos plane can
    /// sever realistically.
    Tcp,
}

/// The supervisor-side sending half of one worker link.
///
/// The byte-level contract deliberately exposes the length prefix:
/// `declared` is what the prefix advertises, `body` is what actually
/// follows. A well-behaved caller passes `body.len() == declared`;
/// the chaos plane passes less (truncation) or calls twice
/// (duplication).
pub trait FrameSink: Send {
    /// Writes `declared` as the `u32` little-endian length prefix, then
    /// `body`, then flushes.
    fn send_raw(&mut self, declared: usize, body: &[u8]) -> io::Result<()>;
    /// Tears the connection down abruptly (mid-frame disconnect). After
    /// this every send fails — the supervisor's crash signal.
    fn abort(&mut self);
}

/// Sends one intact frame image through a sink: prefix equals body.
pub fn send_image(sink: &mut dyn FrameSink, image: &[u8]) -> io::Result<()> {
    debug_assert!(image.len() <= MAX_FRAME_BYTES);
    sink.send_raw(image.len(), image)
}

/// `body` behind a `u32` little-endian length prefix of `declared`, as
/// one buffer, so a frame goes out with one write call (one segment on a
/// TCP link) and the peer's reader wakes once for it, not once for the
/// prefix and again for the body.
pub(crate) fn prefixed(declared: usize, body: &[u8]) -> Vec<u8> {
    let mut image = Vec::with_capacity(4 + body.len());
    image.extend_from_slice(&(declared as u32).to_le_bytes());
    image.extend_from_slice(body);
    image
}

/// Reads one length-prefixed frame image from any byte stream — the
/// shared decode step of every transport. EOF before the prefix is a
/// clean stream end (`UnexpectedEof` inside [`ShardError::Io`]).
pub fn read_image(r: &mut impl Read) -> Result<Vec<u8>, ShardError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ShardError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// [`FrameSink`] over any writer (the pipe transport's `ChildStdin`).
/// `abort` drops the writer, which closes the pipe — the worker sees
/// EOF mid-frame and dies, exactly like a severed connection.
pub struct WriteSink<W: Write + Send>(Option<W>);

impl<W: Write + Send> WriteSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        WriteSink(Some(w))
    }
}

impl<W: Write + Send> FrameSink for WriteSink<W> {
    fn send_raw(&mut self, declared: usize, body: &[u8]) -> io::Result<()> {
        let w = self
            .0
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "sink already aborted"))?;
        w.write_all(&prefixed(declared, body))?;
        w.flush()
    }

    fn abort(&mut self) {
        self.0 = None;
    }
}

/// [`FrameSink`] over a TCP stream clone. `abort` shuts the socket down
/// in both directions, so the peer *and* the supervisor's own reader see
/// the severance immediately.
pub struct TcpSink(Option<TcpStream>);

impl TcpSink {
    /// Wraps a stream clone.
    pub fn new(stream: TcpStream) -> Self {
        TcpSink(Some(stream))
    }
}

impl FrameSink for TcpSink {
    fn send_raw(&mut self, declared: usize, body: &[u8]) -> io::Result<()> {
        let s = self
            .0
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "sink already aborted"))?;
        s.write_all(&prefixed(declared, body))?;
        s.flush()
    }

    fn abort(&mut self) {
        if let Some(s) = self.0.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// One direction of a worker link, from the supervisor's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosDirection {
    /// Supervisor → worker frames.
    Send,
    /// Worker → supervisor frames.
    Recv,
}

/// The network faults the chaos plane can inject into one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFaultKind {
    /// Flip one body bit — the container CRC rejects the frame.
    Corrupt,
    /// Deliver fewer bytes than the length prefix declares — the stream
    /// desynchronizes (decode error or stall into the round deadline).
    Truncate,
    /// Deliver a partial frame, then sever the connection.
    Disconnect,
    /// Deliver the frame twice — exercises stale-frame tolerance.
    Duplicate,
    /// Deliver the frame after a bounded stall (partition in miniature).
    Delay,
}

/// A fault pinned to one exact frame — the test harness's scalpel, where
/// the rates are its shotgun.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForcedFault {
    /// The worker whose link is hit.
    pub worker: usize,
    /// Which direction of that link.
    pub direction: ChaosDirection,
    /// The per-(worker, direction) frame counter value to strike at.
    /// Counters persist across reconnects, so index `k` means the `k`-th
    /// frame ever carried on that half-link, not the `k`-th of the
    /// current connection.
    pub frame_index: u64,
    /// What to do to it.
    pub kind: ChaosFaultKind,
}

/// Deterministic seeded chaos: per-frame fault rates plus targeted
/// forced faults. Faults are pure functions of
/// `(seed, worker, direction, frame_index)` — two runs with the same
/// spec inject byte-identical chaos.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSpec {
    /// Seed of the per-frame fault draw.
    pub seed: u64,
    /// Probability a frame gets one body bit flipped.
    pub corrupt_rate: f64,
    /// Probability a frame is cut short of its declared length.
    pub truncate_rate: f64,
    /// Probability the connection is severed mid-frame.
    pub disconnect_rate: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a frame is delayed by up to [`ChaosSpec::max_delay`].
    pub delay_rate: f64,
    /// Upper bound of an injected delay.
    pub max_delay: Duration,
    /// Faults pinned to exact frames, consulted before the rates.
    pub force: Vec<ForcedFault>,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 0,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            disconnect_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            max_delay: Duration::from_millis(5),
            force: Vec::new(),
        }
    }
}

/// SplitMix64 — the workspace's standard cheap mixer.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ChaosSpec {
    /// Whether this spec can never touch a frame — the byte-invisibility
    /// precondition.
    pub fn is_inert(&self) -> bool {
        self.corrupt_rate == 0.0
            && self.truncate_rate == 0.0
            && self.disconnect_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.delay_rate == 0.0
            && self.force.is_empty()
    }

    /// The raw per-frame hash every chaos decision derives from.
    fn frame_hash(&self, worker: usize, direction: ChaosDirection, frame_index: u64) -> u64 {
        let dir = match direction {
            ChaosDirection::Send => 1u64,
            ChaosDirection::Recv => 2u64,
        };
        splitmix64(
            splitmix64(self.seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                ^ dir.wrapping_mul(0xff51_afd7_ed55_8ccd)
                ^ frame_index,
        )
    }

    /// The fault (if any) injected into one frame — a pure function of
    /// `(seed, worker, direction, frame_index)`.
    pub fn fault_at(
        &self,
        worker: usize,
        direction: ChaosDirection,
        frame_index: u64,
    ) -> Option<ChaosFaultKind> {
        if let Some(forced) = self.force.iter().find(|f| {
            f.worker == worker && f.direction == direction && f.frame_index == frame_index
        }) {
            return Some(forced.kind);
        }
        let u =
            (self.frame_hash(worker, direction, frame_index) >> 11) as f64 / (1u64 << 53) as f64;
        let mut acc = 0.0;
        for (rate, kind) in [
            (self.corrupt_rate, ChaosFaultKind::Corrupt),
            (self.truncate_rate, ChaosFaultKind::Truncate),
            (self.disconnect_rate, ChaosFaultKind::Disconnect),
            (self.duplicate_rate, ChaosFaultKind::Duplicate),
            (self.delay_rate, ChaosFaultKind::Delay),
        ] {
            acc += rate;
            if u < acc {
                return Some(kind);
            }
        }
        None
    }

    /// Deterministic parameter randomness for a struck frame (which bit
    /// to flip, where to cut, how long to stall).
    fn fault_param(&self, worker: usize, direction: ChaosDirection, frame_index: u64) -> u64 {
        splitmix64(self.frame_hash(worker, direction, frame_index) ^ 0xa076_1d64_78bd_642f)
    }

    /// The injected delay for a [`ChaosFaultKind::Delay`] strike.
    fn delay_for(&self, param: u64) -> Duration {
        let cap = self.max_delay.as_micros().max(1) as u64;
        Duration::from_micros(param % cap)
    }
}

/// Flips one deterministic body bit of an image copy.
fn corrupt_image(image: &[u8], param: u64) -> Vec<u8> {
    let mut out = image.to_vec();
    if !out.is_empty() {
        let bit = (param as usize) % (out.len() * 8);
        out[bit / 8] ^= 1 << (bit % 8);
    }
    out
}

/// A strictly-short keep length for truncation: `0..len` bytes, so a
/// struck frame can never arrive whole.
fn truncate_keep(len: usize, param: u64) -> usize {
    if len == 0 {
        0
    } else {
        (param as usize) % len
    }
}

/// [`FrameSink`] wrapper injecting send-direction chaos. The frame
/// counter is owned by the caller (an `AtomicU64` held by the
/// supervisor) so indices keep advancing across reconnects — a fault at
/// frame `k` strikes once, not once per fresh connection.
pub struct ChaosSink {
    inner: Box<dyn FrameSink>,
    spec: ChaosSpec,
    worker: usize,
    counter: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl ChaosSink {
    /// Wraps `inner` with the chaos plane for one worker's send half.
    pub fn new(
        inner: Box<dyn FrameSink>,
        spec: ChaosSpec,
        worker: usize,
        counter: std::sync::Arc<std::sync::atomic::AtomicU64>,
    ) -> Self {
        ChaosSink { inner, spec, worker, counter }
    }
}

impl FrameSink for ChaosSink {
    fn send_raw(&mut self, declared: usize, body: &[u8]) -> io::Result<()> {
        let idx = self.counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let fault = self.spec.fault_at(self.worker, ChaosDirection::Send, idx);
        let param = self.spec.fault_param(self.worker, ChaosDirection::Send, idx);
        match fault {
            None => self.inner.send_raw(declared, body),
            Some(ChaosFaultKind::Corrupt) => {
                self.inner.send_raw(declared, &corrupt_image(body, param))
            }
            Some(ChaosFaultKind::Truncate) => {
                self.inner.send_raw(declared, &body[..truncate_keep(body.len(), param)])
            }
            Some(ChaosFaultKind::Disconnect) => {
                let _ = self.inner.send_raw(declared, &body[..truncate_keep(body.len(), param)]);
                self.inner.abort();
                // Reported as success: the severance surfaces as the
                // peer's EOF or the next send's error, exactly like a
                // real network partition would.
                Ok(())
            }
            Some(ChaosFaultKind::Duplicate) => {
                self.inner.send_raw(declared, body)?;
                self.inner.send_raw(declared, body)
            }
            Some(ChaosFaultKind::Delay) => {
                std::thread::sleep(self.spec.delay_for(param));
                self.inner.send_raw(declared, body)
            }
        }
    }

    fn abort(&mut self) {
        self.inner.abort()
    }
}

/// What the receive-direction chaos decided for one incoming image.
pub enum RecvAction {
    /// Deliver these images in order (one, or two for duplication; each
    /// may be mutated). A mutated image fails frame decode downstream —
    /// the reader thread dies and the supervisor sees the crash signal.
    Deliver(Vec<Vec<u8>>),
    /// Sever the link: the reader thread exits as if the stream died.
    Sever,
}

/// Applies receive-direction chaos to one incoming frame image (called
/// from the per-worker reader thread). Delay strikes sleep inline —
/// ordering is preserved, exactly like a slow link.
pub fn apply_recv_chaos(
    spec: &ChaosSpec,
    worker: usize,
    counter: &std::sync::atomic::AtomicU64,
    image: Vec<u8>,
) -> RecvAction {
    let idx = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let fault = spec.fault_at(worker, ChaosDirection::Recv, idx);
    let param = spec.fault_param(worker, ChaosDirection::Recv, idx);
    match fault {
        None => RecvAction::Deliver(vec![image]),
        Some(ChaosFaultKind::Corrupt) => RecvAction::Deliver(vec![corrupt_image(&image, param)]),
        Some(ChaosFaultKind::Truncate) => {
            let keep = truncate_keep(image.len(), param);
            let mut cut = image;
            cut.truncate(keep);
            RecvAction::Deliver(vec![cut])
        }
        Some(ChaosFaultKind::Disconnect) => RecvAction::Sever,
        Some(ChaosFaultKind::Duplicate) => RecvAction::Deliver(vec![image.clone(), image]),
        Some(ChaosFaultKind::Delay) => {
            std::thread::sleep(spec.delay_for(param));
            RecvAction::Deliver(vec![image])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Mutex};

    /// A sink that records the raw wire bytes it was asked to carry.
    /// Clonable handle over shared state, so a test can box one copy
    /// into a `ChaosSink` and inspect the wire through another.
    #[derive(Clone, Default)]
    struct CaptureSink {
        state: Arc<Mutex<(Vec<u8>, bool)>>,
    }

    impl CaptureSink {
        fn wire(&self) -> Vec<u8> {
            self.state.lock().unwrap().0.clone()
        }

        fn aborted(&self) -> bool {
            self.state.lock().unwrap().1
        }
    }

    impl FrameSink for CaptureSink {
        fn send_raw(&mut self, declared: usize, body: &[u8]) -> io::Result<()> {
            let mut state = self.state.lock().unwrap();
            if state.1 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "aborted"));
            }
            state.0.extend_from_slice(&(declared as u32).to_le_bytes());
            state.0.extend_from_slice(body);
            Ok(())
        }

        fn abort(&mut self) {
            self.state.lock().unwrap().1 = true;
        }
    }

    fn chaotic() -> ChaosSpec {
        ChaosSpec {
            seed: 7,
            corrupt_rate: 0.2,
            truncate_rate: 0.2,
            disconnect_rate: 0.1,
            duplicate_rate: 0.2,
            delay_rate: 0.1,
            ..ChaosSpec::default()
        }
    }

    #[test]
    fn faults_are_pure_functions_of_their_coordinates() {
        let spec = chaotic();
        for worker in 0..3 {
            for dir in [ChaosDirection::Send, ChaosDirection::Recv] {
                for idx in 0..200 {
                    assert_eq!(
                        spec.fault_at(worker, dir, idx),
                        spec.fault_at(worker, dir, idx),
                        "worker {worker} {dir:?} frame {idx}"
                    );
                }
            }
        }
        // Directions and workers draw independently: the send schedule
        // of worker 0 must not equal the recv schedule of worker 1.
        let a: Vec<_> = (0..200).map(|i| spec.fault_at(0, ChaosDirection::Send, i)).collect();
        let b: Vec<_> = (0..200).map(|i| spec.fault_at(1, ChaosDirection::Recv, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_rate_spec_is_inert_and_never_faults() {
        let spec = ChaosSpec { seed: 99, ..ChaosSpec::default() };
        assert!(spec.is_inert());
        for idx in 0..10_000 {
            assert_eq!(spec.fault_at(0, ChaosDirection::Send, idx), None);
            assert_eq!(spec.fault_at(3, ChaosDirection::Recv, idx), None);
        }
    }

    #[test]
    fn forced_faults_override_the_rates() {
        let spec = ChaosSpec {
            force: vec![ForcedFault {
                worker: 1,
                direction: ChaosDirection::Recv,
                frame_index: 5,
                kind: ChaosFaultKind::Duplicate,
            }],
            ..ChaosSpec::default()
        };
        assert!(!spec.is_inert());
        assert_eq!(spec.fault_at(1, ChaosDirection::Recv, 5), Some(ChaosFaultKind::Duplicate));
        assert_eq!(spec.fault_at(1, ChaosDirection::Recv, 4), None);
        assert_eq!(spec.fault_at(0, ChaosDirection::Recv, 5), None);
        assert_eq!(spec.fault_at(1, ChaosDirection::Send, 5), None);
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let image = vec![0u8; 64];
        let out = corrupt_image(&image, 12345);
        let flipped: u32 = image.iter().zip(&out).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn truncate_keep_is_strictly_short() {
        for len in 1..64usize {
            for param in 0..256u64 {
                assert!(truncate_keep(len, param) < len);
            }
        }
        assert_eq!(truncate_keep(0, 7), 0);
    }

    #[test]
    fn inert_chaos_sink_is_byte_invisible() {
        // The satellite contract: a zero-rate ChaosSink carries the
        // exact bytes the bare sink would, frame for frame.
        let images: Vec<Vec<u8>> = (0..32u8)
            .map(|i| (0..=i).map(|b| b.wrapping_mul(37).wrapping_add(i)).collect())
            .collect();
        let mut plain = CaptureSink::default();
        for image in &images {
            send_image(&mut plain, image).unwrap();
        }
        let wrapped = CaptureSink::default();
        {
            let counter = Arc::new(AtomicU64::new(0));
            let mut chaos =
                ChaosSink::new(Box::new(wrapped.clone()), ChaosSpec::default(), 0, counter);
            for image in &images {
                send_image(&mut chaos, image).unwrap();
            }
        }
        assert_eq!(plain.wire(), wrapped.wire());
        assert!(!wrapped.aborted());
    }

    #[test]
    fn inert_recv_chaos_is_byte_invisible() {
        let counter = AtomicU64::new(0);
        let spec = ChaosSpec::default();
        for i in 0..64u8 {
            let image = vec![i; i as usize + 1];
            match apply_recv_chaos(&spec, 2, &counter, image.clone()) {
                RecvAction::Deliver(images) => assert_eq!(images, vec![image]),
                RecvAction::Sever => panic!("inert chaos severed the link"),
            }
        }
    }

    #[test]
    fn duplicate_sink_strike_writes_the_frame_twice() {
        let sink = CaptureSink::default();
        {
            let spec = ChaosSpec {
                force: vec![ForcedFault {
                    worker: 0,
                    direction: ChaosDirection::Send,
                    frame_index: 1,
                    kind: ChaosFaultKind::Duplicate,
                }],
                ..ChaosSpec::default()
            };
            let counter = Arc::new(AtomicU64::new(0));
            let mut chaos = ChaosSink::new(Box::new(sink.clone()), spec, 0, counter);
            send_image(&mut chaos, b"first").unwrap();
            send_image(&mut chaos, b"second").unwrap();
        }
        let mut expect = Vec::new();
        for body in [&b"first"[..], b"second", b"second"] {
            expect.extend_from_slice(&(body.len() as u32).to_le_bytes());
            expect.extend_from_slice(body);
        }
        assert_eq!(sink.wire(), expect);
    }

    #[test]
    fn disconnect_strike_aborts_the_sink() {
        let sink = CaptureSink::default();
        {
            let spec = ChaosSpec {
                force: vec![ForcedFault {
                    worker: 0,
                    direction: ChaosDirection::Send,
                    frame_index: 0,
                    kind: ChaosFaultKind::Disconnect,
                }],
                ..ChaosSpec::default()
            };
            let counter = Arc::new(AtomicU64::new(0));
            let mut chaos = ChaosSink::new(Box::new(sink.clone()), spec, 0, counter);
            // The strike itself reports success (a partition is silent)…
            send_image(&mut chaos, b"doomed").unwrap();
            // …but the link is dead: the next send fails.
            assert!(send_image(&mut chaos, b"after").is_err());
        }
        assert!(sink.aborted());
    }

    #[test]
    fn recv_truncation_cuts_strictly_short() {
        let counter = AtomicU64::new(0);
        let spec = ChaosSpec {
            force: vec![ForcedFault {
                worker: 4,
                direction: ChaosDirection::Recv,
                frame_index: 0,
                kind: ChaosFaultKind::Truncate,
            }],
            ..ChaosSpec::default()
        };
        let image = vec![0xabu8; 100];
        match apply_recv_chaos(&spec, 4, &counter, image) {
            RecvAction::Deliver(images) => {
                assert_eq!(images.len(), 1);
                assert!(images[0].len() < 100, "kept {} bytes", images[0].len());
            }
            RecvAction::Sever => panic!("truncation must deliver, not sever"),
        }
    }
}
