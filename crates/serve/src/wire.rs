//! The wire protocol: length-prefixed JSON frames and the typed messages
//! inside them, hand-rolled (encode *and* validate) in the workspace's
//! no-serde house style.
//!
//! A frame is a 4-byte big-endian length `N` followed by `N` bytes of UTF-8
//! JSON, `N` ≤ [`MAX_FRAME`]. Because `b"GET "` read as a big-endian u32 is
//! ~1.2 GiB — far beyond any legal frame — the server can sniff the first
//! four bytes of a connection and route plain-HTTP `GET /metrics` scrapes
//! and framed JSON over the same port unambiguously.
//!
//! Numbers ride as JSON numbers when they fit `f64` exactly (|v| < 2⁵³) and
//! as decimal strings otherwise, so 64-bit seeds and bit patterns survive
//! the text round trip; [`get_u64`] accepts both spellings.

use obs::json::{self, Json};
use phylo::search::{InferenceRequest, SearchConfig};
use std::io::{ErrorKind, Read, Write};

/// Maximum frame payload (1 MiB) — trees for thousands of taxa fit with
/// room to spare, and a garbage length prefix is rejected before any
/// allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Write one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on a clean EOF before the length prefix (the
/// peer hung up between requests); an EOF mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(ErrorKind::UnexpectedEof.into());
        }
        filled += n;
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {n} exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("non-UTF-8 frame: {e}")))
}

// ---------------------------------------------------------------------------
// JSON writing helpers
// ---------------------------------------------------------------------------

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Incremental JSON object writer (no intermediate tree).
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    pub fn new() -> JsonObj {
        JsonObj { buf: String::from("{"), first: true }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&json_escape(k));
        self.buf.push_str("\":");
    }

    pub fn str(mut self, k: &str, v: &str) -> JsonObj {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&json_escape(v));
        self.buf.push('"');
        self
    }

    pub fn num(mut self, k: &str, v: f64) -> JsonObj {
        self.key(k);
        // `{}` prints the shortest representation that parses back to the
        // same f64, so finite values round-trip exactly.
        if v.is_finite() {
            let _ = std::fmt::Write::write_fmt(&mut self.buf, format_args!("{v}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// A u64 as a JSON number when exactly representable, else a string.
    pub fn u64(mut self, k: &str, v: u64) -> JsonObj {
        self.key(k);
        if v < (1u64 << 53) {
            let _ = std::fmt::Write::write_fmt(&mut self.buf, format_args!("{v}"));
        } else {
            let _ = std::fmt::Write::write_fmt(&mut self.buf, format_args!("\"{v}\""));
        }
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> JsonObj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> JsonObj {
        JsonObj::new()
    }
}

// ---------------------------------------------------------------------------
// JSON reading helpers
// ---------------------------------------------------------------------------

/// A u64 field: accepts both the number and the decimal-string spelling.
pub fn get_u64(v: &Json, key: &str) -> Option<u64> {
    match v.get(key)? {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < (1u64 << 53) as f64 => {
            Some(*n as u64)
        }
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

pub(crate) fn get_str<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

pub(crate) fn get_bool(v: &Json, key: &str) -> Option<bool> {
    match v.get(key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

pub(crate) fn get_usize(v: &Json, key: &str) -> Option<usize> {
    get_u64(v, key).map(|n| n as usize)
}

// ---------------------------------------------------------------------------
// The unified job description
// ---------------------------------------------------------------------------

/// What kind of job: a plain ML search on the named dataset, or one
/// bootstrap replicate (re-weighted alignment derived from the seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    Search,
    Bootstrap,
}

impl JobKind {
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Search => "search",
            JobKind::Bootstrap => "bootstrap",
        }
    }

    pub fn parse(s: &str) -> Option<JobKind> {
        match s {
            "search" => Some(JobKind::Search),
            "bootstrap" => Some(JobKind::Bootstrap),
            _ => None,
        }
    }
}

/// A named [`SearchConfig`] preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    Fast,
    Standard,
    Thorough,
}

impl Preset {
    pub fn as_str(self) -> &'static str {
        match self {
            Preset::Fast => "fast",
            Preset::Standard => "standard",
            Preset::Thorough => "thorough",
        }
    }

    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "fast" => Some(Preset::Fast),
            "standard" => Some(Preset::Standard),
            "thorough" => Some(Preset::Thorough),
            _ => None,
        }
    }

    pub fn config(self) -> SearchConfig {
        match self {
            Preset::Fast => SearchConfig::fast(),
            Preset::Standard => SearchConfig::standard(),
            Preset::Thorough => SearchConfig::thorough(),
        }
    }
}

/// One job, as submitted over the wire and persisted in the journal: a
/// dataset reference plus everything needed to rebuild the library-level
/// [`InferenceRequest`] deterministically. Keeping the spec in terms of
/// preset + overrides (rather than a serialized `SearchConfig`) is what
/// makes journal recovery trivially forward-compatible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Name of a dataset registered with the service.
    pub dataset: String,
    pub kind: JobKind,
    /// Seed for the randomized stepwise addition (and, for
    /// [`JobKind::Bootstrap`], the replicate re-weighting).
    pub seed: u64,
    pub preset: Preset,
    /// Optional overrides applied on top of the preset.
    pub spr_radius: Option<usize>,
    pub max_spr_rounds: Option<usize>,
    /// Snapshot after every SPR round so a service restart resumes the job
    /// bit-identically (requires the service to have a state dir).
    pub checkpoint: bool,
    /// Per-job deadline in milliseconds from admission. A job still queued
    /// when its deadline passes is settled as cancelled at dispatch time
    /// instead of being run; `None` means no deadline.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    pub fn new(dataset: &str, kind: JobKind, seed: u64, preset: Preset) -> JobSpec {
        JobSpec {
            dataset: dataset.to_string(),
            kind,
            seed,
            preset,
            spr_radius: None,
            max_spr_rounds: None,
            checkpoint: false,
            deadline_ms: None,
        }
    }

    /// Request checkpointing for this job.
    pub fn checkpointed(mut self) -> JobSpec {
        self.checkpoint = true;
        self
    }

    /// Attach a per-job deadline (milliseconds from admission).
    pub fn with_deadline_ms(mut self, ms: u64) -> JobSpec {
        self.deadline_ms = Some(ms);
        self
    }

    /// The library-level request this spec denotes.
    pub fn to_request(&self) -> InferenceRequest {
        let mut config = self.preset.config();
        if let Some(r) = self.spr_radius {
            config.spr_radius = r;
        }
        if let Some(r) = self.max_spr_rounds {
            config.max_spr_rounds = r;
        }
        InferenceRequest::new(config, self.seed)
    }

    /// Append this spec's fields onto a JSON object under construction.
    pub fn write_fields(&self, mut obj: JsonObj) -> JsonObj {
        obj = obj
            .str("dataset", &self.dataset)
            .str("kind", self.kind.as_str())
            .u64("seed", self.seed)
            .str("preset", self.preset.as_str());
        if let Some(r) = self.spr_radius {
            obj = obj.u64("spr_radius", r as u64);
        }
        if let Some(r) = self.max_spr_rounds {
            obj = obj.u64("max_spr_rounds", r as u64);
        }
        if let Some(ms) = self.deadline_ms {
            obj = obj.u64("deadline_ms", ms);
        }
        obj.bool("checkpoint", self.checkpoint)
    }

    /// Read a spec back out of a parsed JSON object.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let dataset = get_str(v, "dataset").ok_or("submit: missing string field 'dataset'")?;
        let kind = get_str(v, "kind")
            .and_then(JobKind::parse)
            .ok_or("submit: 'kind' must be \"search\" or \"bootstrap\"")?;
        let seed = get_u64(v, "seed").ok_or("submit: missing u64 field 'seed'")?;
        let preset = match get_str(v, "preset") {
            None => Preset::Fast,
            Some(s) => Preset::parse(s)
                .ok_or_else(|| format!("submit: unknown preset {s:?} (fast|standard|thorough)"))?,
        };
        Ok(JobSpec {
            dataset: dataset.to_string(),
            kind,
            seed,
            preset,
            spr_radius: get_usize(v, "spr_radius"),
            max_spr_rounds: get_usize(v, "max_spr_rounds"),
            checkpoint: get_bool(v, "checkpoint").unwrap_or(false),
            deadline_ms: get_u64(v, "deadline_ms"),
        })
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A client request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Ping,
    Submit {
        tenant: String,
        spec: JobSpec,
        /// Client-generated idempotency key: a retried submit carrying the
        /// same key returns the originally admitted job id instead of
        /// double-running the job (the exactly-once retry contract).
        idem: Option<String>,
        /// Caller-chosen trace id (0 = none): the service adopts it as the
        /// job's distributed-trace root so client-side spans and server-side
        /// spans land in one tree. When 0, the service derives a
        /// deterministic id from the tenant, idempotency key, and admission
        /// counter.
        trace: u64,
    },
    Status {
        job: u64,
    },
    /// Best-effort cancellation: a queued job settles as cancelled; a
    /// running or finished job is left untouched. Responds with the job's
    /// post-cancel status.
    Cancel {
        job: u64,
    },
    Stats,
}

impl Request {
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => JsonObj::new().str("op", "ping").finish(),
            Request::Submit { tenant, spec, idem, trace } => {
                let mut obj = JsonObj::new().str("op", "submit").str("tenant", tenant);
                if let Some(key) = idem {
                    obj = obj.str("idem", key);
                }
                if *trace != 0 {
                    obj = obj.u64("trace", *trace);
                }
                spec.write_fields(obj).finish()
            }
            Request::Status { job } => JsonObj::new().str("op", "status").u64("job", *job).finish(),
            Request::Cancel { job } => JsonObj::new().str("op", "cancel").u64("job", *job).finish(),
            Request::Stats => JsonObj::new().str("op", "stats").finish(),
        }
    }

    pub fn parse(text: &str) -> Result<Request, String> {
        let v = json::parse(text).map_err(|e| format!("malformed request JSON: {e}"))?;
        match get_str(&v, "op") {
            Some("ping") => Ok(Request::Ping),
            Some("submit") => {
                let tenant =
                    get_str(&v, "tenant").ok_or("submit: missing string field 'tenant'")?;
                if tenant.is_empty() {
                    return Err("submit: 'tenant' must be non-empty".to_string());
                }
                Ok(Request::Submit {
                    tenant: tenant.to_string(),
                    spec: JobSpec::from_json(&v)?,
                    idem: get_str(&v, "idem").map(str::to_string),
                    trace: get_u64(&v, "trace").unwrap_or(0),
                })
            }
            Some("status") => {
                Ok(Request::Status { job: get_u64(&v, "job").ok_or("status: missing 'job' id")? })
            }
            Some("cancel") => {
                Ok(Request::Cancel { job: get_u64(&v, "job").ok_or("cancel: missing 'job' id")? })
            }
            Some("stats") => Ok(Request::Stats),
            Some(op) => Err(format!("unknown op {op:?}")),
            None => Err("missing 'op' field".to_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Why a submission was turned away at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The service-wide queue bound is reached (the farm's backpressure,
    /// surfaced as an explicit response instead of an ever-growing queue).
    QueueFull,
    /// The tenant already has its quota of admitted-but-unfinished jobs.
    QuotaExceeded,
    /// The named dataset is not registered with the service.
    UnknownDataset,
    /// The service is draining for shutdown.
    ShuttingDown,
    /// The job's estimated likelihood-workspace footprint exceeds the
    /// service's configured memory budget — it could never run to
    /// completion, so it is rejected at admission instead of OOM-killing a
    /// worker.
    MemoryBudget,
}

impl RejectReason {
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::QuotaExceeded => "quota_exceeded",
            RejectReason::UnknownDataset => "unknown_dataset",
            RejectReason::ShuttingDown => "shutting_down",
            RejectReason::MemoryBudget => "memory_budget",
        }
    }

    pub fn parse(s: &str) -> Option<RejectReason> {
        match s {
            "queue_full" => Some(RejectReason::QueueFull),
            "quota_exceeded" => Some(RejectReason::QuotaExceeded),
            "unknown_dataset" => Some(RejectReason::UnknownDataset),
            "shutting_down" => Some(RejectReason::ShuttingDown),
            "memory_budget" => Some(RejectReason::MemoryBudget),
            _ => None,
        }
    }
}

/// A completed job's payload. Log-likelihood and Γ shape travel as exact
/// bit patterns alongside the human-readable values, and the tree as the
/// arena-exact string, so bit-identity is checkable across the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    pub log_likelihood: f64,
    pub alpha: f64,
    pub tree_exact: String,
    pub rounds: usize,
    pub moves_applied: usize,
}

impl WireResult {
    /// Append the result's fields (bit patterns beside the readable values)
    /// onto a JSON object under construction.
    pub fn write_fields(&self, obj: JsonObj) -> JsonObj {
        obj.num("log_likelihood", self.log_likelihood)
            .u64("lnl_bits", self.log_likelihood.to_bits())
            .num("alpha", self.alpha)
            .u64("alpha_bits", self.alpha.to_bits())
            .str("tree", &self.tree_exact)
            .u64("rounds", self.rounds as u64)
            .u64("moves_applied", self.moves_applied as u64)
    }

    /// Read a result back out of a parsed JSON object, from the bit patterns.
    pub fn from_json(v: &Json) -> Result<WireResult, String> {
        let bits = |key| get_u64(v, key).map(f64::from_bits).ok_or(format!("no '{key}'"));
        Ok(WireResult {
            log_likelihood: bits("lnl_bits")?,
            alpha: bits("alpha_bits")?,
            tree_exact: get_str(v, "tree").ok_or("no 'tree'")?.to_string(),
            rounds: get_usize(v, "rounds").unwrap_or(0),
            moves_applied: get_usize(v, "moves_applied").unwrap_or(0),
        })
    }
}

/// One job's externally visible lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireState {
    Queued,
    Running,
    Done,
    Failed,
    /// Settled without running: cancelled by the client or expired past its
    /// deadline (the reason travels in the status `error` field).
    Cancelled,
}

impl WireState {
    pub fn as_str(self) -> &'static str {
        match self {
            WireState::Queued => "queued",
            WireState::Running => "running",
            WireState::Done => "done",
            WireState::Failed => "failed",
            WireState::Cancelled => "cancelled",
        }
    }

    pub fn parse(s: &str) -> Option<WireState> {
        match s {
            "queued" => Some(WireState::Queued),
            "running" => Some(WireState::Running),
            "done" => Some(WireState::Done),
            "failed" => Some(WireState::Failed),
            "cancelled" => Some(WireState::Cancelled),
            _ => None,
        }
    }

    /// True for the states a job can no longer leave.
    pub fn is_terminal(self) -> bool {
        matches!(self, WireState::Done | WireState::Failed | WireState::Cancelled)
    }
}

/// The status-poll payload.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatusWire {
    pub job: u64,
    pub tenant: String,
    pub state: WireState,
    /// The job's distributed-trace id (0 when tracing is disabled).
    pub trace: u64,
    /// Present iff `state == Done`.
    pub result: Option<WireResult>,
    /// Present iff `state == Failed`.
    pub error: Option<String>,
}

/// Service-wide accounting, as reported by the `stats` op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsWire {
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub queued: u64,
    pub running: u64,
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Pong,
    Accepted {
        job: u64,
        /// The job's distributed-trace id (0 when tracing is disabled):
        /// either the client-supplied id echoed back or the service-derived
        /// deterministic id. Clients key `GET /trace/<job>` lookups and
        /// their own retry/backoff event lines on it.
        trace: u64,
    },
    Rejected {
        reason: RejectReason,
    },
    Status(JobStatusWire),
    Stats(StatsWire),
    /// The server is at its connection cap: sent once on a fresh connection
    /// in place of any reply, then the connection closes. Clients back off
    /// and reconnect.
    Busy,
    /// The request could not be understood or referenced an unknown job.
    Error {
        message: String,
    },
}

impl Response {
    pub fn encode(&self) -> String {
        match self {
            Response::Pong => JsonObj::new().bool("ok", true).str("reply", "pong").finish(),
            Response::Accepted { job, trace } => {
                let mut obj =
                    JsonObj::new().bool("ok", true).str("reply", "accepted").u64("job", *job);
                if *trace != 0 {
                    obj = obj.u64("trace", *trace);
                }
                obj.finish()
            }
            Response::Rejected { reason } => JsonObj::new()
                .bool("ok", false)
                .str("reply", "rejected")
                .str("reason", reason.as_str())
                .finish(),
            Response::Status(s) => {
                let mut obj = JsonObj::new()
                    .bool("ok", true)
                    .str("reply", "status")
                    .u64("job", s.job)
                    .str("tenant", &s.tenant)
                    .str("state", s.state.as_str());
                if s.trace != 0 {
                    obj = obj.u64("trace", s.trace);
                }
                if let Some(r) = &s.result {
                    obj = r.write_fields(obj);
                }
                if let Some(e) = &s.error {
                    obj = obj.str("error", e);
                }
                obj.finish()
            }
            Response::Stats(s) => JsonObj::new()
                .bool("ok", true)
                .str("reply", "stats")
                .u64("accepted", s.accepted)
                .u64("rejected", s.rejected)
                .u64("completed", s.completed)
                .u64("failed", s.failed)
                .u64("cancelled", s.cancelled)
                .u64("queued", s.queued)
                .u64("running", s.running)
                .finish(),
            Response::Busy => JsonObj::new().bool("ok", false).str("reply", "busy").finish(),
            Response::Error { message } => JsonObj::new()
                .bool("ok", false)
                .str("reply", "error")
                .str("error", message)
                .finish(),
        }
    }

    pub fn parse(text: &str) -> Result<Response, String> {
        let v = json::parse(text).map_err(|e| format!("malformed response JSON: {e}"))?;
        match get_str(&v, "reply") {
            Some("pong") => Ok(Response::Pong),
            Some("accepted") => Ok(Response::Accepted {
                job: get_u64(&v, "job").ok_or("accepted: missing 'job'")?,
                trace: get_u64(&v, "trace").unwrap_or(0),
            }),
            Some("rejected") => {
                let reason = get_str(&v, "reason")
                    .and_then(RejectReason::parse)
                    .ok_or("rejected: missing or unknown 'reason'")?;
                Ok(Response::Rejected { reason })
            }
            Some("status") => {
                let state = get_str(&v, "state")
                    .and_then(WireState::parse)
                    .ok_or("status: missing or unknown 'state'")?;
                let result = match state {
                    WireState::Done => Some(
                        WireResult::from_json(&v).map_err(|e| format!("status: done with {e}"))?,
                    ),
                    _ => None,
                };
                Ok(Response::Status(JobStatusWire {
                    job: get_u64(&v, "job").ok_or("status: missing 'job'")?,
                    tenant: get_str(&v, "tenant").unwrap_or("").to_string(),
                    state,
                    trace: get_u64(&v, "trace").unwrap_or(0),
                    result,
                    error: get_str(&v, "error").map(str::to_string),
                }))
            }
            Some("stats") => Ok(Response::Stats(StatsWire {
                accepted: get_u64(&v, "accepted").unwrap_or(0),
                rejected: get_u64(&v, "rejected").unwrap_or(0),
                completed: get_u64(&v, "completed").unwrap_or(0),
                failed: get_u64(&v, "failed").unwrap_or(0),
                cancelled: get_u64(&v, "cancelled").unwrap_or(0),
                queued: get_u64(&v, "queued").unwrap_or(0),
                running: get_u64(&v, "running").unwrap_or(0),
            })),
            Some("busy") => Ok(Response::Busy),
            Some("error") => Ok(Response::Error {
                message: get_str(&v, "error").unwrap_or("unknown error").to_string(),
            }),
            Some(r) => Err(format!("unknown reply {r:?}")),
            None => Err("missing 'reply' field".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let text = req.encode();
        assert_eq!(Request::parse(&text).unwrap(), req, "encoded: {text}");
    }

    fn round_trip_response(resp: Response) {
        let text = resp.encode();
        assert_eq!(Response::parse(&text).unwrap(), resp, "encoded: {text}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Status { job: 123 });
        round_trip_request(Request::Cancel { job: u64::MAX - 17 });
        let mut spec = JobSpec::new("42_SC", JobKind::Bootstrap, u64::MAX - 3, Preset::Thorough);
        spec.spr_radius = Some(5);
        spec.checkpoint = true;
        spec.deadline_ms = Some(2_500);
        round_trip_request(Request::Submit {
            tenant: "acme \"lab\"\n".to_string(),
            spec: spec.clone(),
            idem: None,
            trace: 0,
        });
        round_trip_request(Request::Submit {
            tenant: "acme".to_string(),
            spec,
            idem: Some("client-7-seq-\"42\"".to_string()),
            // Above 2^53: must survive JSON via the string spelling.
            trace: 0xDEAD_BEEF_CAFE_F00D,
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Pong);
        round_trip_response(Response::Accepted { job: 7, trace: 0 });
        round_trip_response(Response::Accepted { job: 8, trace: u64::MAX - 5 });
        round_trip_response(Response::Rejected { reason: RejectReason::QueueFull });
        round_trip_response(Response::Rejected { reason: RejectReason::MemoryBudget });
        round_trip_response(Response::Busy);
        round_trip_response(Response::Error { message: "nope: \\ \"quoted\"".to_string() });
        round_trip_response(Response::Stats(StatsWire {
            accepted: 10,
            rejected: 2,
            completed: 6,
            failed: 1,
            cancelled: 1,
            queued: 1,
            running: 1,
        }));
        round_trip_response(Response::Status(JobStatusWire {
            job: 11,
            tenant: "t".to_string(),
            state: WireState::Cancelled,
            trace: 0,
            result: None,
            error: Some("deadline expired".to_string()),
        }));
        round_trip_response(Response::Status(JobStatusWire {
            job: 9,
            tenant: "t".to_string(),
            state: WireState::Done,
            trace: 0x9E37_79B9_7F4A_7C15,
            result: Some(WireResult {
                log_likelihood: -12345.6789,
                alpha: 0.4321,
                tree_exact: "((a:1,b:2):0.5,c:3);".to_string(),
                rounds: 3,
                moves_applied: 11,
            }),
            error: None,
        }));
        round_trip_response(Response::Status(JobStatusWire {
            job: 10,
            tenant: "t".to_string(),
            state: WireState::Failed,
            trace: 12,
            result: None,
            error: Some("boom".to_string()),
        }));
    }

    #[test]
    fn f64_bits_survive_the_text_round_trip() {
        // Bit patterns must survive even when the decimal rendering is ugly.
        for lnl in [-1234.000000000001, -0.1 - 0.2, f64::MIN_POSITIVE, -9.87e-300] {
            let status = Response::Status(JobStatusWire {
                job: 1,
                tenant: "t".to_string(),
                state: WireState::Done,
                trace: 0,
                result: Some(WireResult {
                    log_likelihood: lnl,
                    alpha: lnl.abs(),
                    tree_exact: String::new(),
                    rounds: 0,
                    moves_applied: 0,
                }),
                error: None,
            });
            let parsed = Response::parse(&status.encode()).unwrap();
            match parsed {
                Response::Status(s) => {
                    let r = s.result.unwrap();
                    assert_eq!(r.log_likelihood.to_bits(), lnl.to_bits());
                    assert_eq!(r.alpha.to_bits(), lnl.abs().to_bits());
                }
                other => panic!("expected status, got {other:?}"),
            }
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"op\":\"ping\"}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");

        // A hostile length prefix is rejected before allocation.
        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        assert!(read_frame(&mut std::io::Cursor::new(huge)).is_err());
        // "GET " as a length prefix is far beyond MAX_FRAME — the sniffing
        // invariant the server's protocol multiplexer relies on.
        assert!(u32::from_be_bytes(*b"GET ") as usize > MAX_FRAME);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"op\":\"warp\"}").is_err());
        assert!(Request::parse("{\"op\":\"submit\",\"tenant\":\"t\"}").is_err(), "missing spec");
        assert!(Request::parse(
            "{\"op\":\"submit\",\"tenant\":\"\",\"dataset\":\"d\",\"kind\":\"search\",\"seed\":1}"
        )
        .is_err());
    }

    #[test]
    fn spec_overrides_reach_the_search_config() {
        let mut spec = JobSpec::new("d", JobKind::Search, 3, Preset::Standard);
        spec.spr_radius = Some(2);
        spec.max_spr_rounds = Some(1);
        let req = spec.to_request();
        assert_eq!(req.seed, 3);
        assert_eq!(req.config.spr_radius, 2);
        assert_eq!(req.config.max_spr_rounds, 1);
        // Untouched fields keep the preset's values.
        assert_eq!(req.config.branch_smoothings, Preset::Standard.config().branch_smoothings);
    }
}
