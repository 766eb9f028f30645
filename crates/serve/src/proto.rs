//! The `mphd` wire protocol: line-delimited JSON-RPC.
//!
//! One request per line, one JSON object per response line (JSONL). A
//! `submit` session streams `accepted` → `cell`* → `done`; every other
//! outcome is a single `error` object with a typed code. The full
//! protocol is documented in docs/SERVING.md; this module is the typed
//! boundary between untrusted bytes and the experiment engine — every
//! constructor here returns [`ProtoError`] instead of panicking.

use crate::jsonio::{self, as_array, as_bool, as_f64, as_str, as_u64, get};
use mph_metrics::json::Json;
use mph_mpc::{ChaosSpec, FaultSpec, TransportKind};
use std::time::Duration;

/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one request line, in bytes. Longer lines are shed with a
/// `bad_request` before any parsing happens.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Typed request-rejection codes, mirrored as the `code` string of an
/// error response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    Parse,
    /// The line was JSON but not a valid request.
    BadRequest,
    /// Admission control refused the session: all slots are in use.
    Busy,
    /// A `cancel` named a session that is not currently running.
    NotFound,
    /// The server failed internally; the session is aborted.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Busy => "busy",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed request rejection: the code plus a human-readable reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Which class of failure this is.
    pub code: ErrorCode,
    /// What exactly was wrong (safe to echo back to the client).
    pub message: String,
}

impl ProtoError {
    /// A `bad_request` with the given reason.
    pub fn bad(message: impl Into<String>) -> Self {
        ProtoError { code: ErrorCode::BadRequest, message: message.into() }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ProtoError {}

/// A validated experiment-grid request: one cell per window size over
/// the standard demo instance (`setup::demo_pipeline`), mirroring the
/// `exp_simline_rounds` family of sweeps.
///
/// All fields are resolved (defaults applied) — two specs that render
/// the same [`GridSpec::canonical_json`] are the same session, which is
/// what keys the daemon's durable checkpoint directory.
#[derive(Clone, Debug, PartialEq)]
pub struct GridSpec {
    /// Report/label namespace, `[a-z0-9_-]{1,64}`.
    pub exp: String,
    /// `"line"` or `"simline"`.
    pub target: String,
    /// Line length `w` (nodes).
    pub w: u64,
    /// Number of input blocks `v`.
    pub v: usize,
    /// Machines per simulation.
    pub m: usize,
    /// One cell per window size (blocks replicated per machine).
    pub windows: Vec<usize>,
    /// Trials per cell.
    pub trials: usize,
    /// Base seed; trial `t` of every cell uses `seed + t`.
    pub seed: u64,
    /// Round cap per trial.
    pub max_rounds: usize,
    /// Per-machine memory override in bits; `None` runs every cell at
    /// the pipeline's required memory (the historical behaviour).
    pub s_bits: Option<usize>,
    /// Per-round oracle query budget; `None` leaves it unenforced.
    pub q: Option<u64>,
    /// Whether the session checkpoints through the snapshot container
    /// (durable sessions resume byte-identically after a server kill).
    pub durable: bool,
    /// Checkpoint cadence in completed cells (clamped to ≥ 1).
    pub checkpoint_every: usize,
    /// Worker processes per trial (`1` = the historical in-process run;
    /// `> 1` routes the session through the shard supervisor). An
    /// execution knob like `durable`: it changes *where* trials compute,
    /// never *what* — sharded reports are byte-identical to in-process
    /// ones — so it stays out of the canonical bytes and the session key.
    pub shards: usize,
    /// Per-(machine, round) crash probability injected into every trial;
    /// `None` runs fault-free.
    pub crash_rate: Option<f64>,
    /// Per-message drop probability; `None` runs fault-free.
    pub drop_rate: Option<f64>,
    /// Per-message payload-bit-flip probability; `None` runs fault-free.
    pub corrupt_rate: Option<f64>,
    /// Per-(machine, round) straggler probability; `None` runs
    /// fault-free.
    pub straggler_rate: Option<f64>,
    /// Base seed of the injected fault schedules. Only meaningful — and
    /// only accepted — alongside at least one fault rate.
    pub fault_seed: u64,
    /// Extra attempts per faulty trial that fails. Only meaningful — and
    /// only accepted — alongside at least one fault rate.
    pub retries: usize,
    /// Shard transport: `"pipe"` (stdio pair, the default) or `"tcp"`
    /// (workers dial back to a loopback listener). Only accepted with
    /// `shards > 1`; an execution knob like `shards`, outside the
    /// session identity.
    pub transport: String,
    /// Wire-chaos per-frame bit-corruption probability. All `chaos_*`
    /// rates require `shards > 1` and are execution knobs: whatever the
    /// chaos plane injects, recovery keeps the report byte-identical.
    /// Truncation and disconnect faults are served only through the
    /// library's [`ChaosSpec`].
    pub chaos_corrupt_rate: Option<f64>,
    /// Wire-chaos per-frame duplication probability.
    pub chaos_duplicate_rate: Option<f64>,
    /// Wire-chaos per-frame bounded-delay probability.
    pub chaos_delay_rate: Option<f64>,
    /// Seed of the deterministic chaos plane. Only accepted alongside at
    /// least one chaos rate.
    pub chaos_seed: u64,
    /// Upper bound of an injected delay, in milliseconds. Only accepted
    /// alongside at least one chaos rate.
    pub chaos_delay_ms: u64,
    /// Per-reply supervisor deadline override in milliseconds (the
    /// liveness layer's heartbeat timeout base). Requires `shards > 1`.
    pub round_deadline_ms: Option<u64>,
    /// Per-worker respawn budget override (`0` disables respawns, which
    /// exercises the degradation ladder). Requires `shards > 1`.
    pub respawns: Option<usize>,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            exp: "serve_sweep".into(),
            target: "simline".into(),
            w: 48,
            v: 8,
            m: 4,
            windows: vec![2, 3, 4],
            trials: 3,
            seed: 100,
            max_rounds: 10_000,
            s_bits: None,
            q: None,
            durable: true,
            checkpoint_every: 4,
            shards: 1,
            crash_rate: None,
            drop_rate: None,
            corrupt_rate: None,
            straggler_rate: None,
            fault_seed: 0,
            retries: 0,
            transport: "pipe".into(),
            chaos_corrupt_rate: None,
            chaos_duplicate_rate: None,
            chaos_delay_rate: None,
            chaos_seed: 0,
            chaos_delay_ms: 5,
            round_deadline_ms: None,
            respawns: None,
        }
    }
}

/// Bounds on client-supplied sizes. These are generous for the demo
/// instance family but keep one request from asking for a year of
/// compute or an absurd allocation.
mod limits {
    pub const MAX_W: u64 = 1 << 20;
    pub const MAX_V: usize = 4096;
    pub const MAX_M: usize = 4096;
    pub const MAX_WINDOWS: usize = 256;
    pub const MAX_TRIALS: usize = 10_000;
    pub const MAX_ROUNDS: usize = 10_000_000;
    /// 8 MiB of per-machine memory — far above any demo-instance
    /// `required_s`, far below an allocation a client could hurt us with.
    pub const MAX_S_BITS: u64 = 1 << 26;
    /// Query budgets above this can never bind on the demo family.
    pub const MAX_Q: u64 = 1 << 32;
    /// Retry attempts per faulty trial: enough for any plausible fault
    /// sweep, small enough that a cell cannot be made to run forever.
    pub const MAX_RETRIES: u64 = 16;
    /// Injected wire delays stay bounded: ten seconds is already far
    /// past any sane round deadline.
    pub const MAX_CHAOS_DELAY_MS: u64 = 10_000;
    /// Per-reply deadline override cap — ten minutes.
    pub const MAX_ROUND_DEADLINE_MS: u64 = 600_000;
    /// Per-worker respawn budget cap.
    pub const MAX_RESPAWNS: u64 = 64;
}

/// Parses one optional fault-rate field: a finite number in `[0, 1]`
/// (integer `0`/`1` accepted); absent stays `None`.
fn field_rate(params: &Json, key: &str) -> Result<Option<f64>, ProtoError> {
    match get(params, key) {
        None => Ok(None),
        Some(v) => {
            let x = as_f64(v).ok_or_else(|| ProtoError::bad(format!("{key} must be a number")))?;
            if !x.is_finite() || !(0.0..=1.0).contains(&x) {
                return Err(ProtoError::bad(format!("{key} must be a probability in [0, 1]")));
            }
            Ok(Some(x))
        }
    }
}

/// Parses one optional integer field in `lo..=hi`; absent stays `None`.
fn field_int(params: &Json, key: &str, lo: u64, hi: u64) -> Result<Option<u64>, ProtoError> {
    let Some(v) = get(params, key) else {
        return Ok(None);
    };
    let n = as_u64(v)
        .ok_or_else(|| ProtoError::bad(format!("{key} must be a non-negative integer")))?;
    if !(lo..=hi).contains(&n) {
        return Err(ProtoError::bad(format!("{key} must be in {lo}..={hi}")));
    }
    Ok(Some(n))
}

/// Every key a `submit` request's `params` may carry, one per
/// [`GridSpec`] field.
const PARAM_KEYS: [&str; 28] = [
    "exp",
    "target",
    "w",
    "v",
    "m",
    "windows",
    "trials",
    "seed",
    "max_rounds",
    "s_bits",
    "q",
    "durable",
    "checkpoint_every",
    "shards",
    "crash_rate",
    "drop_rate",
    "corrupt_rate",
    "straggler_rate",
    "fault_seed",
    "retries",
    "transport",
    "chaos_corrupt_rate",
    "chaos_duplicate_rate",
    "chaos_delay_rate",
    "chaos_seed",
    "chaos_delay_ms",
    "round_deadline_ms",
    "respawns",
];

impl GridSpec {
    /// Validates the `params` object of a `submit` request. Absent fields
    /// take the defaults above; present fields are range-checked; any
    /// other key is refused by name, so a misspelled knob cannot
    /// silently run a default session.
    pub fn from_params(params: &Json) -> Result<GridSpec, ProtoError> {
        let Json::Object(pairs) = params else {
            return Err(ProtoError::bad("params must be an object"));
        };
        if let Some((key, _)) = pairs.iter().find(|(k, _)| !PARAM_KEYS.contains(&k.as_str())) {
            return Err(ProtoError::bad(format!("unknown param {key:?}")));
        }
        let d = GridSpec::default();
        let exp = match get(params, "exp") {
            None => d.exp,
            Some(v) => {
                let s = as_str(v).ok_or_else(|| ProtoError::bad("exp must be a string"))?;
                let ok = !s.is_empty()
                    && s.len() <= 64
                    && s.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_-".contains(c));
                if !ok {
                    return Err(ProtoError::bad("exp must match [a-z0-9_-]{1,64}"));
                }
                s.to_string()
            }
        };
        let target = match get(params, "target") {
            None => d.target,
            Some(v) => match as_str(v) {
                Some(t @ ("line" | "simline")) => t.to_string(),
                _ => return Err(ProtoError::bad("target must be \"line\" or \"simline\"")),
            },
        };
        let w = field_int(params, "w", 1, limits::MAX_W)?.unwrap_or(d.w);
        let v = field_int(params, "v", 1, limits::MAX_V as u64)?.map_or(d.v, |n| n as usize);
        let m = field_int(params, "m", 1, limits::MAX_M as u64)?.map_or(d.m, |n| n as usize);
        let windows = match get(params, "windows") {
            None => d.windows,
            Some(value) => {
                let items =
                    as_array(value).ok_or_else(|| ProtoError::bad("windows must be an array"))?;
                if items.is_empty() || items.len() > limits::MAX_WINDOWS {
                    return Err(ProtoError::bad(format!(
                        "windows must hold 1..={} entries",
                        limits::MAX_WINDOWS
                    )));
                }
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    let n = as_u64(item)
                        .ok_or_else(|| ProtoError::bad("windows entries must be integers"))?;
                    if n < 1 || n as usize > v {
                        return Err(ProtoError::bad(format!(
                            "windows entries must be in 1..={v} (v)"
                        )));
                    }
                    out.push(n as usize);
                }
                out
            }
        };
        let trials = field_int(params, "trials", 1, limits::MAX_TRIALS as u64)?
            .map_or(d.trials, |n| n as usize);
        let seed = field_int(params, "seed", 0, u64::MAX)?.unwrap_or(d.seed);
        let max_rounds = field_int(params, "max_rounds", 1, limits::MAX_ROUNDS as u64)?
            .map_or(d.max_rounds, |n| n as usize);
        let s_bits = field_int(params, "s_bits", 1, limits::MAX_S_BITS)?.map(|n| n as usize);
        let q = field_int(params, "q", 1, limits::MAX_Q)?;
        let durable = match get(params, "durable") {
            None => d.durable,
            Some(v) => as_bool(v).ok_or_else(|| ProtoError::bad("durable must be a boolean"))?,
        };
        // Any cadence is accepted: 0 clamps to 1 (the documented "at least
        // one flush per cell" reading, matching the runner's clamp) and
        // huge values clamp to 2^20.
        let checkpoint_every = field_int(params, "checkpoint_every", 0, u64::MAX)?
            .map_or(d.checkpoint_every, |n| n.min(1 << 20) as usize);
        let crash_rate = field_rate(params, "crash_rate")?;
        let drop_rate = field_rate(params, "drop_rate")?;
        let corrupt_rate = field_rate(params, "corrupt_rate")?;
        let straggler_rate = field_rate(params, "straggler_rate")?;
        let has_faults =
            [crash_rate, drop_rate, corrupt_rate, straggler_rate].iter().any(Option::is_some);
        // A gated field is refused when it is set without the setting it
        // `needs` (`what` names that setting in the message).
        let gated =
            |key: &str, lo, hi, needs: bool, what: &str| match field_int(params, key, lo, hi)? {
                Some(_) if !needs => Err(ProtoError::bad(format!("{key} requires {what}"))),
                value => Ok(value),
            };
        let faults = "at least one fault rate";
        let fault_seed = gated("fault_seed", 0, u64::MAX, has_faults, faults)?;
        let retries = gated("retries", 0, limits::MAX_RETRIES, has_faults, faults)?;
        let shards = field_int(params, "shards", 1, m as u64)?.map_or(1, |n| n as usize);
        if shards > 1 && has_faults {
            // Injected faults are an in-process simulator feature; the
            // shard plane's faults are real processes dying.
            return Err(ProtoError::bad("sharded sessions do not support fault injection"));
        }
        let transport = match get(params, "transport") {
            None => d.transport,
            Some(v) => match as_str(v) {
                Some(t @ ("pipe" | "tcp")) => {
                    if t == "tcp" && shards <= 1 {
                        return Err(ProtoError::bad("transport \"tcp\" requires shards > 1"));
                    }
                    t.to_string()
                }
                _ => return Err(ProtoError::bad("transport must be \"pipe\" or \"tcp\"")),
            },
        };
        let chaos_corrupt_rate = field_rate(params, "chaos_corrupt_rate")?;
        let chaos_duplicate_rate = field_rate(params, "chaos_duplicate_rate")?;
        let chaos_delay_rate = field_rate(params, "chaos_delay_rate")?;
        let has_chaos = [chaos_corrupt_rate, chaos_duplicate_rate, chaos_delay_rate]
            .iter()
            .any(Option::is_some);
        if has_chaos && shards <= 1 {
            return Err(ProtoError::bad("chaos rates require shards > 1"));
        }
        let chaos = "at least one chaos rate";
        let chaos_seed = gated("chaos_seed", 0, u64::MAX, has_chaos, chaos)?;
        let chaos_delay_ms =
            gated("chaos_delay_ms", 1, limits::MAX_CHAOS_DELAY_MS, has_chaos, chaos)?;
        let sharded = "shards > 1";
        let round_deadline_ms =
            gated("round_deadline_ms", 1, limits::MAX_ROUND_DEADLINE_MS, shards > 1, sharded)?;
        // 0 respawns is legal: it disables respawns entirely, which is how
        // a client exercises the degradation ladder on purpose.
        let respawns = gated("respawns", 0, limits::MAX_RESPAWNS, shards > 1, sharded)?;
        Ok(GridSpec {
            exp,
            target,
            w,
            v,
            m,
            windows,
            trials,
            seed,
            max_rounds,
            s_bits,
            q,
            durable,
            checkpoint_every,
            shards,
            crash_rate,
            drop_rate,
            corrupt_rate,
            straggler_rate,
            fault_seed: fault_seed.unwrap_or(d.fault_seed),
            retries: retries.map_or(d.retries, |n| n as usize),
            transport,
            chaos_corrupt_rate,
            chaos_duplicate_rate,
            chaos_delay_rate,
            chaos_seed: chaos_seed.unwrap_or(d.chaos_seed),
            chaos_delay_ms: chaos_delay_ms.unwrap_or(d.chaos_delay_ms),
            round_deadline_ms,
            respawns: respawns.map(|n| n as usize),
        })
    }

    /// Whether any fault rate is set (the session then runs every trial
    /// under an injected deterministic fault schedule).
    pub fn has_faults(&self) -> bool {
        [self.crash_rate, self.drop_rate, self.corrupt_rate, self.straggler_rate]
            .iter()
            .any(Option::is_some)
    }

    /// The injected-fault specification, when any rate is set.
    pub fn fault_spec(&self) -> Option<FaultSpec> {
        self.has_faults().then(|| FaultSpec {
            crash_rate: self.crash_rate.unwrap_or(0.0),
            drop_rate: self.drop_rate.unwrap_or(0.0),
            corrupt_rate: self.corrupt_rate.unwrap_or(0.0),
            straggler_rate: self.straggler_rate.unwrap_or(0.0),
            ..FaultSpec::default()
        })
    }

    /// Whether any wire-chaos rate is set.
    pub fn has_chaos(&self) -> bool {
        [self.chaos_corrupt_rate, self.chaos_duplicate_rate, self.chaos_delay_rate]
            .iter()
            .any(Option::is_some)
    }

    /// The deterministic wire-chaos plane, when any rate is set.
    pub fn chaos_spec(&self) -> Option<ChaosSpec> {
        self.has_chaos().then(|| ChaosSpec {
            seed: self.chaos_seed,
            corrupt_rate: self.chaos_corrupt_rate.unwrap_or(0.0),
            duplicate_rate: self.chaos_duplicate_rate.unwrap_or(0.0),
            delay_rate: self.chaos_delay_rate.unwrap_or(0.0),
            max_delay: Duration::from_millis(self.chaos_delay_ms),
            ..ChaosSpec::default()
        })
    }

    /// The shard transport as the supervisor's enum.
    pub fn transport_kind(&self) -> TransportKind {
        match self.transport.as_str() {
            "tcp" => TransportKind::Tcp,
            _ => TransportKind::Pipe,
        }
    }

    /// The resolved spec as a canonical JSON object: every field, fixed
    /// order. Equal specs — regardless of which fields the client spelled
    /// out — render identical bytes, which keys the session.
    ///
    /// `s_bits`, `q`, and the fault fields appear only when set: a spec
    /// that leaves them at their defaults renders the exact bytes it did
    /// before the fields existed, so pre-existing durable sessions keep
    /// their keys. `shards`, `transport`, the `chaos_*` knobs,
    /// `round_deadline_ms`, and `respawns` never appear — like `durable`,
    /// they change how a session executes, not what it computes (chaos
    /// recovery keeps the report byte-identical by construction).
    pub fn canonical_json(&self) -> Json {
        let mut fields = vec![
            ("exp", Json::str(&self.exp)),
            ("target", Json::str(&self.target)),
            ("w", Json::u64(self.w)),
            ("v", Json::u64(self.v as u64)),
            ("m", Json::u64(self.m as u64)),
            ("windows", Json::array(self.windows.iter().map(|&x| Json::u64(x as u64)))),
            ("trials", Json::u64(self.trials as u64)),
            ("seed", Json::u64(self.seed)),
            ("max_rounds", Json::u64(self.max_rounds as u64)),
        ];
        if let Some(s) = self.s_bits {
            fields.push(("s_bits", Json::u64(s as u64)));
        }
        if let Some(q) = self.q {
            fields.push(("q", Json::u64(q)));
        }
        for (key, rate) in [
            ("crash_rate", self.crash_rate),
            ("drop_rate", self.drop_rate),
            ("corrupt_rate", self.corrupt_rate),
            ("straggler_rate", self.straggler_rate),
        ] {
            if let Some(x) = rate {
                fields.push((key, Json::f64(x)));
            }
        }
        if self.has_faults() {
            fields.push(("fault_seed", Json::u64(self.fault_seed)));
            fields.push(("retries", Json::u64(self.retries as u64)));
        }
        Json::object(fields)
    }

    /// The durable session key: FNV-1a over the canonical spec bytes,
    /// hex. Resubmitting the same grid lands in the same checkpoint
    /// directory — that is what makes a killed server resumable by a
    /// client that simply retries its request. `durable` and
    /// `checkpoint_every` change *how* a session persists, never *what*
    /// it computes, so they stay out of the key.
    pub fn session_key(&self) -> String {
        let text = self.canonical_json().to_string();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in text.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }
}

/// A parsed request line: the client's `id` (echoed on every response)
/// plus the method-specific payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim.
    pub id: Json,
    /// What the client asked for.
    pub call: Call,
}

/// The methods `mphd` serves.
#[derive(Clone, Debug, PartialEq)]
pub enum Call {
    /// Liveness probe; answered immediately.
    Ping,
    /// Run (or resume) an experiment grid, streaming progress.
    Submit(Box<GridSpec>),
    /// Stop a running session (named by its key) before its next batch
    /// of cells. The cancelled session's stream ends with a `cancelled`
    /// event; durable work stays checkpointed, so resubmitting the grid
    /// resumes the completed cells.
    Cancel {
        /// The [`GridSpec::session_key`] of the running session.
        session: String,
    },
}

/// Parses one request line. The `id` of a malformed line is recovered
/// when possible so the error response still correlates.
pub fn parse_request(line: &str) -> Result<Request, (Json, ProtoError)> {
    if line.len() > MAX_REQUEST_BYTES {
        return Err((
            Json::Null,
            ProtoError::bad(format!("request longer than {MAX_REQUEST_BYTES} bytes")),
        ));
    }
    let doc = jsonio::parse(line)
        .map_err(|e| (Json::Null, ProtoError { code: ErrorCode::Parse, message: e.to_string() }))?;
    let id = get(&doc, "id").cloned().unwrap_or(Json::Null);
    let fail = |message: String| (id.clone(), ProtoError::bad(message));
    if !matches!(doc, Json::Object(_)) {
        return Err(fail("request must be a JSON object".into()));
    }
    if let Some(v) = get(&doc, "v") {
        if as_u64(v) != Some(PROTOCOL_VERSION) {
            return Err(fail(format!(
                "unsupported protocol version (this server speaks v{PROTOCOL_VERSION})"
            )));
        }
    }
    match get(&doc, "id") {
        Some(Json::Str(_) | Json::U64(_)) => {}
        _ => return Err(fail("id must be a string or integer".into())),
    }
    let method = get(&doc, "method")
        .and_then(as_str)
        .ok_or_else(|| fail("method must be a string".into()))?;
    let call = match method {
        "ping" => Call::Ping,
        "submit" => {
            let empty = Json::Object(Vec::new());
            let params = get(&doc, "params").unwrap_or(&empty);
            Call::Submit(Box::new(GridSpec::from_params(params).map_err(|e| (id.clone(), e))?))
        }
        "cancel" => {
            let session = get(&doc, "params")
                .and_then(|p| get(p, "session"))
                .and_then(as_str)
                .ok_or_else(|| fail("cancel params must carry a session key string".into()))?;
            if session.is_empty() || session.len() > 64 {
                return Err(fail("session key must be 1..=64 characters".into()));
            }
            Call::Cancel { session: session.to_string() }
        }
        other => return Err(fail(format!("unknown method {other:?}"))),
    };
    Ok(Request { id, call })
}

/// Renders an error response line (without trailing newline).
pub fn error_response(id: &Json, err: &ProtoError, extra: &[(&str, Json)]) -> String {
    let mut body = vec![
        ("code".to_string(), Json::str(err.code.as_str())),
        ("message".to_string(), Json::str(&err.message)),
    ];
    body.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Json::object([("id", id.clone()), ("error", Json::Object(body))]).to_string()
}

/// Renders an event response line (without trailing newline): the echoed
/// id, the event name, then `fields` in order.
pub fn event_response(id: &Json, event: &str, fields: Vec<(String, Json)>) -> String {
    let mut pairs = vec![("id".to_string(), id.clone()), ("event".to_string(), Json::str(event))];
    pairs.extend(fields);
    Json::Object(pairs).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_missing_fields() {
        let req = parse_request(r#"{"id":"a","method":"submit","params":{}}"#).expect("parses");
        let Call::Submit(spec) = req.call else { panic!("expected submit") };
        assert_eq!(*spec, GridSpec::default());
        assert_eq!(req.id, Json::str("a"));
    }

    #[test]
    fn explicit_defaults_share_the_session_key() {
        let a = GridSpec::default();
        let req =
            parse_request(r#"{"id":1,"method":"submit","params":{"w":48,"trials":3,"seed":100}}"#)
                .expect("parses");
        let Call::Submit(b) = req.call else { panic!("expected submit") };
        assert_eq!(a.session_key(), b.session_key());
        // Durability knobs do not fork the session identity.
        let mut c = a.clone();
        c.durable = false;
        c.checkpoint_every = 1;
        assert_eq!(a.session_key(), c.session_key());
        // A different grid does.
        let mut d = a.clone();
        d.seed = 101;
        assert_ne!(a.session_key(), d.session_key());
    }

    #[test]
    fn rejections_are_typed_not_panics() {
        for (line, want) in [
            ("not json", ErrorCode::Parse),
            ("[]", ErrorCode::BadRequest),
            (r#"{"id":"a"}"#, ErrorCode::BadRequest),
            (r#"{"id":{},"method":"ping"}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"frobnicate"}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","v":2,"method":"ping"}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"trials":0}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"trials":99999}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"target":"cube"}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"windows":[]}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"windows":[99]}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"exp":"BAD NAME"}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"w":0}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"s_bits":0}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"s_bits":67108865}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"s_bits":"big"}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"q":0}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"q":4294967297}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"q":true}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"crash_rate":1.5}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"drop_rate":-0.1}}"#, ErrorCode::BadRequest),
            (
                r#"{"id":"a","method":"submit","params":{"corrupt_rate":"x"}}"#,
                ErrorCode::BadRequest,
            ),
            (r#"{"id":"a","method":"submit","params":{"fault_seed":7}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"retries":2}}"#, ErrorCode::BadRequest),
            (
                r#"{"id":"a","method":"submit","params":{"crash_rate":0.1,"retries":17}}"#,
                ErrorCode::BadRequest,
            ),
            (r#"{"id":"a","method":"submit","params":{"shards":0}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"shards":5}}"#, ErrorCode::BadRequest),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"drop_rate":0.1}}"#,
                ErrorCode::BadRequest,
            ),
            (r#"{"id":"a","method":"submit","params":{"transport":"udp"}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"submit","params":{"transport":"tcp"}}"#, ErrorCode::BadRequest),
            (
                r#"{"id":"a","method":"submit","params":{"chaos_corrupt_rate":0.1}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"chaos_corrupt_rate":1.5}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"chaos_seed":7}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"chaos_delay_ms":5}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"chaos_delay_rate":0.1,"chaos_delay_ms":10001}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"round_deadline_ms":500}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"round_deadline_ms":0}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"round_deadline_ms":600001}}"#,
                ErrorCode::BadRequest,
            ),
            (r#"{"id":"a","method":"submit","params":{"respawns":3}}"#, ErrorCode::BadRequest),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"chaos_corupt_rate":0.5}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"chaos_truncate_rate":0.1}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"respawns":65}}"#,
                ErrorCode::BadRequest,
            ),
            (r#"{"id":"a","method":"submit","params":{"seed":-1}}"#, ErrorCode::BadRequest),
            (
                r#"{"id":"a","method":"submit","params":{"checkpoint_every":"x"}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"drop_rate":0.1,"fault_seed":"x"}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"drop_rate":0.1,"retries":1.5}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"chaos_corrupt_rate":0.1,"chaos_seed":-1}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"chaos_delay_rate":0.1,"chaos_delay_ms":0}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"round_deadline_ms":"x"}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"id":"a","method":"submit","params":{"shards":2,"respawns":"x"}}"#,
                ErrorCode::BadRequest,
            ),
            (r#"{"id":"a","method":"submit","params":{"respawns":"x"}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"cancel"}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"cancel","params":{"session":""}}"#, ErrorCode::BadRequest),
            (r#"{"id":"a","method":"cancel","params":{"session":7}}"#, ErrorCode::BadRequest),
        ] {
            match parse_request(line) {
                Err((_, e)) => assert_eq!(e.code, want, "line {line}"),
                Ok(req) => panic!("{line} should be rejected, parsed {req:?}"),
            }
        }
    }

    #[test]
    fn unknown_params_are_refused_by_name() {
        let line = r#"{"id":"a","method":"submit","params":{"shards":2,"chaos_corupt_rate":0.5}}"#;
        let (_, e) = parse_request(line).unwrap_err();
        assert_eq!(e.message, r#"unknown param "chaos_corupt_rate""#);
    }

    #[test]
    fn integer_rejections_name_the_field_and_its_rule() {
        for (params, want) in [
            (r#"{"trials":"x"}"#, "trials must be a non-negative integer"),
            (r#"{"trials":0}"#, "trials must be in 1..=10000"),
            (r#"{"drop_rate":0.1,"retries":17}"#, "retries must be in 0..=16"),
            (r#"{"retries":2}"#, "retries requires at least one fault rate"),
            (r#"{"chaos_seed":7,"shards":2}"#, "chaos_seed requires at least one chaos rate"),
            (r#"{"respawns":3}"#, "respawns requires shards > 1"),
            (r#"{"shards":2,"respawns":"x"}"#, "respawns must be a non-negative integer"),
        ] {
            let line = format!(r#"{{"id":"a","method":"submit","params":{params}}}"#);
            let (_, e) = parse_request(&line).unwrap_err();
            assert_eq!((e.code, e.message.as_str()), (ErrorCode::BadRequest, want), "{params}");
        }
        // Cadences are clamped, never refused.
        for (every, want) in [(0u64, 0usize), (1 << 21, 1 << 20)] {
            let line = format!(
                r#"{{"id":"a","method":"submit","params":{{"checkpoint_every":{every}}}}}"#
            );
            let Call::Submit(spec) = parse_request(&line).expect("parses").call else {
                panic!("expected submit");
            };
            assert_eq!(spec.checkpoint_every, want);
        }
    }

    #[test]
    fn session_keys_are_pinned() {
        // The key names every durable checkpoint directory: a drift would
        // orphan them all, so pin absolute values, not just equalities.
        assert_eq!(GridSpec::default().session_key(), "77c168e082857011");
        let overridden = GridSpec {
            s_bits: Some(4096),
            q: Some(64),
            drop_rate: Some(0.05),
            fault_seed: 7,
            retries: 2,
            ..GridSpec::default()
        };
        assert_eq!(overridden.session_key(), "1816b10d037c4b63");
    }

    #[test]
    fn overrides_parse_validate_and_fork_the_session_key() {
        // Absent → None, and the canonical bytes carry neither key, so
        // sessions created before the fields existed keep their keys.
        let plain = GridSpec::default();
        let rendered = plain.canonical_json().to_string();
        assert!(!rendered.contains("s_bits") && !rendered.contains("\"q\""), "{rendered}");

        // Present → parsed, range-checked, and part of the identity.
        let req =
            parse_request(r#"{"id":"a","method":"submit","params":{"s_bits":4096,"q":67108864}}"#)
                .expect("parses");
        let Call::Submit(spec) = req.call else { panic!("expected submit") };
        assert_eq!(spec.s_bits, Some(4096));
        assert_eq!(spec.q, Some(67_108_864));
        assert_ne!(spec.session_key(), plain.session_key());

        // The extreme legal values round-trip.
        let req = parse_request(
            r#"{"id":"a","method":"submit","params":{"s_bits":67108864,"q":4294967296}}"#,
        )
        .expect("max values parse");
        let Call::Submit(spec) = req.call else { panic!("expected submit") };
        assert_eq!(spec.s_bits, Some(1 << 26));
        assert_eq!(spec.q, Some(1 << 32));
    }

    #[test]
    fn fault_params_parse_validate_and_fork_the_session_key() {
        let plain = GridSpec::default();
        let rendered = plain.canonical_json().to_string();
        for absent in ["crash_rate", "drop_rate", "corrupt_rate", "straggler_rate", "fault_seed"] {
            assert!(!rendered.contains(absent), "{rendered}");
        }

        let req = parse_request(
            r#"{"id":"a","method":"submit","params":{"crash_rate":0.02,"drop_rate":1,"fault_seed":7,"retries":2}}"#,
        )
        .expect("parses");
        let Call::Submit(spec) = req.call else { panic!("expected submit") };
        assert_eq!(spec.crash_rate, Some(0.02));
        assert_eq!(spec.drop_rate, Some(1.0), "integer-literal rates are accepted");
        assert_eq!((spec.fault_seed, spec.retries), (7, 2));
        assert_ne!(spec.session_key(), plain.session_key());
        let fs = spec.fault_spec().expect("faults set");
        assert_eq!((fs.crash_rate, fs.drop_rate, fs.corrupt_rate), (0.02, 1.0, 0.0));
        let rendered = spec.canonical_json().to_string();
        assert!(rendered.contains(r#""crash_rate":"#), "{rendered}");
        assert!(rendered.contains(r#""fault_seed":7"#), "{rendered}");
        assert!(rendered.contains(r#""retries":2"#), "{rendered}");

        // Fault-free specs have no FaultSpec at all.
        assert!(plain.fault_spec().is_none());
    }

    #[test]
    fn shards_are_an_execution_knob_not_an_identity() {
        let plain = GridSpec::default();
        let req = parse_request(r#"{"id":"a","method":"submit","params":{"shards":4}}"#)
            .expect("parses; default m = 4 admits 4 shards");
        let Call::Submit(spec) = req.call else { panic!("expected submit") };
        assert_eq!(spec.shards, 4);
        assert_eq!(spec.session_key(), plain.session_key(), "shards must not fork the key");
        assert!(!spec.canonical_json().to_string().contains("shards"));
    }

    #[test]
    fn transport_and_chaos_are_execution_knobs_not_identity() {
        let plain = GridSpec::default();
        let req = parse_request(
            r#"{"id":"a","method":"submit","params":{"shards":2,"transport":"tcp","chaos_corrupt_rate":0.01,"chaos_delay_rate":0.05,"chaos_seed":9,"chaos_delay_ms":2,"round_deadline_ms":2000,"respawns":0}}"#,
        )
        .expect("parses");
        let Call::Submit(spec) = req.call else { panic!("expected submit") };
        assert_eq!(spec.transport, "tcp");
        assert_eq!(spec.transport_kind(), TransportKind::Tcp);
        assert_eq!(spec.chaos_corrupt_rate, Some(0.01));
        assert_eq!((spec.chaos_seed, spec.chaos_delay_ms), (9, 2));
        assert_eq!(spec.round_deadline_ms, Some(2000));
        assert_eq!(spec.respawns, Some(0), "respawns: 0 is legal (degradation on purpose)");
        let chaos = spec.chaos_spec().expect("chaos set");
        assert_eq!((chaos.seed, chaos.corrupt_rate, chaos.delay_rate), (9, 0.01, 0.05));
        assert_eq!(chaos.max_delay, Duration::from_millis(2));
        assert_eq!(chaos.truncate_rate, 0.0);
        // None of it forks the session identity or the canonical bytes.
        assert_eq!(spec.session_key(), plain.session_key());
        let rendered = spec.canonical_json().to_string();
        for absent in ["transport", "chaos", "round_deadline_ms", "respawns"] {
            assert!(!rendered.contains(absent), "{rendered}");
        }
        // No chaos rates → no ChaosSpec at all.
        assert!(plain.chaos_spec().is_none());
        assert_eq!(plain.transport_kind(), TransportKind::Pipe);
    }

    #[test]
    fn cancel_requests_parse() {
        let req = parse_request(r#"{"id":"c","method":"cancel","params":{"session":"abc123"}}"#)
            .expect("parses");
        assert_eq!(req.call, Call::Cancel { session: "abc123".into() });
    }

    #[test]
    fn error_id_is_recovered_when_parseable() {
        let (id, _) = parse_request(r#"{"id":"abc","method":"frobnicate"}"#).unwrap_err();
        assert_eq!(id, Json::str("abc"));
        let (id, _) = parse_request("garbage").unwrap_err();
        assert_eq!(id, Json::Null);
    }

    #[test]
    fn responses_render_stably() {
        let err = ProtoError { code: ErrorCode::Busy, message: "3 sessions active".into() };
        let line = error_response(&Json::str("x"), &err, &[("max_sessions", Json::u64(3))]);
        assert_eq!(
            line,
            r#"{"id":"x","error":{"code":"busy","message":"3 sessions active","max_sessions":3}}"#
        );
        let line = event_response(&Json::u64(7), "accepted", vec![("cells".into(), Json::u64(3))]);
        assert_eq!(line, r#"{"id":7,"event":"accepted","cells":3}"#);
    }

    #[test]
    fn oversized_lines_are_shed() {
        let huge =
            format!(r#"{{"id":"a","method":"ping","pad":"{}"}}"#, "x".repeat(MAX_REQUEST_BYTES));
        let (_, e) = parse_request(&huge).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }
}
