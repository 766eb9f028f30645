//! The benchmark's own shard worker, used by the traced sharded runs.
//!
//! It is `mphd_worker` with counting streams: the public
//! `worker_serve` / `worker_serve_with` loop and `build_from_spec` over a
//! process-local `OracleHub`, reading and writing through wrappers that
//! time every read and write call and count frames and bytes. The stdio
//! streams are buffered exactly as the real worker's are (an 8 KiB
//! reader, a 1 KiB line writer), with the counters below the buffers, so
//! the write calls counted are the ones the real worker issues. Written
//! frames are classified with `Frame::from_bytes` outside the timed calls.
//!
//! After every round the cumulative counters are written to
//! `<stats dir>/worker-<pid>.bin` with one positioned write, so a worker
//! that the supervisor kills loses at most its last round.

use mph_experiments::shard::build_from_spec;
use mph_mpc::shard::{worker_serve, worker_serve_with, write_frame, Ack, Frame};
use mph_oracle::OracleHub;
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufReader, LineWriter, Read, Write};
use std::net::TcpStream;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The counters, in record order.
pub const FIELDS: &[&str] = &[
    "wall_ns",
    "read_wait_round_ns",
    "read_wait_hello_ns",
    "read_wait_other_ns",
    "write_ns",
    "classify_ns",
    "build_ns",
    "record_ns",
    "hellos",
    "rounds",
    "frames_out",
    "frames_in",
    "bytes_out",
    "bytes_in",
    "barrier_bytes",
    "writes",
    "reads",
];

#[derive(Default)]
struct Stats {
    values: [u64; 17],
    /// Read time of the incoming frame not yet complete.
    pending_wait: u64,
}

impl Stats {
    fn add(&mut self, field: &str, v: u64) {
        let i = FIELDS.iter().position(|f| *f == field).expect("known counter");
        self.values[i] += v;
    }
}

struct Shared {
    stats: RefCell<Stats>,
    start: Instant,
    record: Option<File>,
}

impl Shared {
    /// Writes the cumulative counters with one positioned write.
    fn flush(&self) {
        let Some(file) = &self.record else { return };
        let t = Instant::now();
        let mut stats = self.stats.borrow_mut();
        stats.values[0] = self.start.elapsed().as_nanos() as u64;
        let bytes: Vec<u8> = stats.values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let _ = file.write_at(&bytes, 0);
        let took = t.elapsed().as_nanos() as u64;
        stats.add("record_ns", took);
    }
}

/// Splits a byte stream into length-prefixed frames.
#[derive(Default)]
struct Framer {
    pending: Vec<u8>,
}

impl Framer {
    /// Appends `bytes` and returns the bodies of the frames completed.
    fn push(&mut self, bytes: &[u8]) -> Vec<Vec<u8>> {
        self.pending.extend_from_slice(bytes);
        let mut frames = Vec::new();
        loop {
            if self.pending.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes(self.pending[..4].try_into().expect("4 bytes")) as usize;
            if self.pending.len() < 4 + len {
                break;
            }
            frames.push(self.pending[4..4 + len].to_vec());
            self.pending.drain(..4 + len);
        }
        frames
    }
}

struct CountingRead<R> {
    inner: R,
    shared: Rc<Shared>,
    framer: Framer,
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.read(buf)?;
        let waited = t.elapsed().as_nanos() as u64;
        let c = Instant::now();
        let frames = self.framer.push(&buf[..n]);
        let mut stats = self.shared.stats.borrow_mut();
        stats.add("reads", 1);
        stats.add("bytes_in", n as u64);
        stats.pending_wait += waited;
        for body in frames {
            stats.add("frames_in", 1);
            let wait = std::mem::take(&mut stats.pending_wait);
            let field = match Frame::from_bytes(&body) {
                Ok(Frame::RoundMsgs { .. }) => "read_wait_round_ns",
                Ok(Frame::Hello { .. }) => "read_wait_hello_ns",
                _ => "read_wait_other_ns",
            };
            stats.add(field, wait);
        }
        stats.add("classify_ns", c.elapsed().as_nanos() as u64);
        Ok(n)
    }
}

struct CountingWrite<W> {
    inner: W,
    shared: Rc<Shared>,
    framer: Framer,
}

impl<W: Write> Write for CountingWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.write(buf)?;
        let took = t.elapsed().as_nanos() as u64;
        let c = Instant::now();
        let frames = self.framer.push(&buf[..n]);
        let mut round_done = false;
        {
            let mut stats = self.shared.stats.borrow_mut();
            stats.add("writes", 1);
            stats.add("write_ns", took);
            stats.add("bytes_out", n as u64);
            for body in frames {
                stats.add("frames_out", 1);
                match Frame::from_bytes(&body) {
                    Ok(Frame::RoundAck { ack: Ack::Round { .. }, .. }) => stats.add("rounds", 1),
                    Ok(Frame::Snapshot { .. }) => {
                        stats.add("barrier_bytes", 4 + body.len() as u64);
                        round_done = true;
                    }
                    _ => {}
                }
            }
            stats.add("classify_ns", c.elapsed().as_nanos() as u64);
        }
        if round_done {
            self.shared.flush();
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let result = self.inner.flush();
        self.shared.stats.borrow_mut().add("write_ns", t.elapsed().as_nanos() as u64);
        result
    }
}

/// Runs the worker; returns the process exit code (0 on orderly EOF, 1
/// on a transport error, 2 on bad arguments), as `mphd_worker` does.
pub fn main(args: &[String]) -> i32 {
    let start = Instant::now();
    let mut stats_dir: Option<PathBuf> = None;
    let mut connect: Option<String> = None;
    let mut session: Option<u64> = None;
    let mut index: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stats" => stats_dir = it.next().map(PathBuf::from),
            "--connect" => connect = it.next().cloned(),
            "--session" => session = it.next().and_then(|s| u64::from_str_radix(s, 16).ok()),
            "--worker" => index = it.next().and_then(|s| s.parse().ok()),
            other => {
                eprintln!("perfbench worker: unknown argument {other:?}");
                return 2;
            }
        }
    }
    let record = stats_dir
        .and_then(|dir| File::create(dir.join(format!("worker-{}.bin", std::process::id()))).ok());
    let shared = Rc::new(Shared { stats: RefCell::new(Stats::default()), start, record });
    let hub = Arc::new(OracleHub::new(64));
    let build_shared = Rc::clone(&shared);
    let build = move |bytes: &[u8]| {
        let t = Instant::now();
        let sim = build_from_spec(bytes, Some(&hub));
        let mut stats = build_shared.stats.borrow_mut();
        stats.add("build_ns", t.elapsed().as_nanos() as u64);
        stats.add("hellos", 1);
        sim
    };
    let served = match connect {
        Some(addr) => {
            let (Some(nonce), Some(worker)) = (session, index) else {
                eprintln!("perfbench worker: --connect requires --session and --worker");
                return 2;
            };
            TcpStream::connect(&addr).map_err(Into::into).and_then(|stream| {
                let _ = stream.set_nodelay(true);
                let out = stream.try_clone()?;
                let input = CountingRead {
                    inner: stream,
                    shared: Rc::clone(&shared),
                    framer: Framer::default(),
                };
                let mut output = CountingWrite {
                    inner: out,
                    shared: Rc::clone(&shared),
                    framer: Framer::default(),
                };
                write_frame(&mut output, &Frame::Connect { nonce, worker })?;
                worker_serve_with(input, output, Some(nonce), build)
            })
        }
        None => match (open_stdio("/dev/stdin", false), open_stdio("/dev/stdout", true)) {
            (Ok(stdin), Ok(stdout)) => {
                let input = BufReader::with_capacity(
                    8 * 1024,
                    CountingRead {
                        inner: stdin,
                        shared: Rc::clone(&shared),
                        framer: Framer::default(),
                    },
                );
                let output = LineWriter::new(CountingWrite {
                    inner: stdout,
                    shared: Rc::clone(&shared),
                    framer: Framer::default(),
                });
                worker_serve(input, output, build)
            }
            (Err(e), _) | (_, Err(e)) => Err(e.into()),
        },
    };
    shared.flush();
    match served {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            1
        }
    }
}

fn open_stdio(path: &str, write: bool) -> std::io::Result<File> {
    File::options().read(!write).write(write).open(Path::new(path))
}

/// Sums the counter records of every worker in `dir`.
pub fn collect(dir: &Path) -> [u64; 17] {
    let mut total = [0u64; 17];
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let Ok(bytes) = std::fs::read(entry.path()) else { continue };
        if bytes.len() != 8 * FIELDS.len() {
            continue;
        }
        for (t, chunk) in total.iter_mut().zip(bytes.chunks_exact(8)) {
            *t += u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
    }
    total
}

/// The value of counter `field` in a collected record.
pub fn field(values: &[u64; 17], field: &str) -> u64 {
    values[FIELDS.iter().position(|f| *f == field).expect("known counter")]
}
