//! A small blocking client for the frame protocol, plus a one-shot HTTP
//! getter for the introspection routes (`/metrics`, `/healthz`, `/readyz`,
//! `/jobs`, `/trace/<job>`) and a reconnecting [`RetryClient`] with
//! exactly-once submit semantics and an optional structured
//! [`EventLog`] recording every reconnect and
//! backoff. Used by the integration tests, the benchmark's serve
//! workloads, and scripting.

use crate::events::{EventLog, Level};
use crate::wire::{self, JobSpec, JobStatusWire, RejectReason, Request, Response, StatsWire};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One framed connection to the server. Requests are synchronous: write a
/// frame, read the response frame.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn round_trip(&mut self, request: &Request) -> std::io::Result<Response> {
        if let Err(write_err) = wire::write_frame(&mut self.stream, &request.encode()) {
            // A rejected-at-accept connection gets one `busy` frame and an
            // immediate close, so our write may die with EPIPE before we
            // ever look at the socket. The frame is still sitting in the
            // receive buffer — prefer the typed rejection over the raw
            // transport error when it is there.
            if let Ok(Some(frame)) = wire::read_frame(&mut self.stream) {
                if matches!(Response::parse(&frame), Ok(Response::Busy)) {
                    return Err(busy_error());
                }
            }
            return Err(write_err);
        }
        let frame = wire::read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server hung up mid-request")
        })?;
        let response = Response::parse(&frame)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if matches!(response, Response::Busy) {
            // The server wrote one `busy` frame at accept time and closed;
            // surface it as a retryable connection-level error.
            return Err(busy_error());
        }
        Ok(response)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> std::io::Result<()> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Submit a job: `Ok(Ok(id))` if admitted, `Ok(Err(reason))` if the
    /// service rejected it, `Err` on transport failure.
    pub fn submit(
        &mut self,
        tenant: &str,
        spec: &JobSpec,
    ) -> std::io::Result<Result<u64, RejectReason>> {
        self.submit_idem(tenant, spec, None)
    }

    /// [`submit`](Client::submit) with an optional idempotency key: resend
    /// the same key after a transport failure and the service returns the
    /// original job id instead of admitting a duplicate.
    pub fn submit_idem(
        &mut self,
        tenant: &str,
        spec: &JobSpec,
        idem: Option<&str>,
    ) -> std::io::Result<Result<u64, RejectReason>> {
        self.submit_traced(tenant, spec, idem, 0).map(|r| r.map(|(job, _)| job))
    }

    /// [`submit_idem`](Client::submit_idem), additionally propagating a
    /// caller-chosen trace id (`0` lets the service derive one). Returns
    /// `(job id, trace id)` — the trace the server actually bound, which
    /// keys `GET /trace/<job>` and histogram exemplars.
    pub fn submit_traced(
        &mut self,
        tenant: &str,
        spec: &JobSpec,
        idem: Option<&str>,
        trace: u64,
    ) -> std::io::Result<Result<(u64, u64), RejectReason>> {
        let request = Request::Submit {
            tenant: tenant.to_string(),
            spec: spec.clone(),
            idem: idem.map(str::to_string),
            trace,
        };
        match self.round_trip(&request)? {
            Response::Accepted { job, trace } => Ok(Ok((job, trace))),
            Response::Rejected { reason } => Ok(Err(reason)),
            other => Err(unexpected("accepted/rejected", &other)),
        }
    }

    /// Poll one job's status.
    pub fn status(&mut self, job: u64) -> std::io::Result<JobStatusWire> {
        match self.round_trip(&Request::Status { job })? {
            Response::Status(status) => Ok(status),
            Response::Error { message } => {
                Err(std::io::Error::new(std::io::ErrorKind::NotFound, message))
            }
            other => Err(unexpected("status", &other)),
        }
    }

    /// Request best-effort cancellation; returns the job's post-call
    /// status (`Cancelled` only if it was still queued).
    pub fn cancel(&mut self, job: u64) -> std::io::Result<JobStatusWire> {
        match self.round_trip(&Request::Cancel { job })? {
            Response::Status(status) => Ok(status),
            Response::Error { message } => {
                Err(std::io::Error::new(std::io::ErrorKind::NotFound, message))
            }
            other => Err(unexpected("status", &other)),
        }
    }

    /// Service-wide counters.
    pub fn stats(&mut self) -> std::io::Result<StatsWire> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Poll until the job reaches a terminal state
    /// (`Done`/`Failed`/`Cancelled`), with capped exponential backoff.
    /// Times out with `ErrorKind::TimedOut`.
    pub fn wait_done(&mut self, job: u64, timeout: Duration) -> std::io::Result<JobStatusWire> {
        let deadline = Instant::now() + timeout;
        let mut pause = Duration::from_millis(1);
        loop {
            let status = self.status(job)?;
            if status.state.is_terminal() {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("job {job} still {:?} after {timeout:?}", status.state),
                ));
            }
            std::thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(50));
        }
    }
}

/// A shared, mutable server address — the chaos studies' one-cell service
/// discovery. A killed server restarts on a fresh ephemeral port (std's
/// `TcpListener` does not set `SO_REUSEADDR`, so rebinding the old port can
/// hit `TIME_WAIT`); the restarter publishes the new address here and every
/// [`RetryClient`] picks it up on its next reconnect.
#[derive(Clone, Default)]
pub struct AddrCell {
    inner: Arc<Mutex<Option<SocketAddr>>>,
}

impl AddrCell {
    pub fn new(addr: SocketAddr) -> AddrCell {
        AddrCell { inner: Arc::new(Mutex::new(Some(addr))) }
    }

    /// Publish a new server address; existing connections are unaffected,
    /// reconnects go to the new address.
    pub fn set(&self, addr: SocketAddr) {
        *self.inner.lock().expect("addr cell") = Some(addr);
    }

    pub fn get(&self) -> Option<SocketAddr> {
        *self.inner.lock().expect("addr cell")
    }
}

/// How a [`RetryClient`] paces its reconnect attempts.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per operation before giving up.
    pub max_attempts: usize,
    /// First backoff pause; doubles per failed attempt.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 12,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(250),
        }
    }
}

/// A reconnecting client: every operation retries across transport
/// failures with capped exponential backoff, reconnecting through an
/// [`AddrCell`] so it survives a server kill/restart on a new port.
///
/// Submits are **exactly-once**: each logical submit generates one
/// idempotency key (`<prefix>-<counter>`) before the first attempt and
/// resends it verbatim on every retry, so "the frame was truncated — did
/// the server admit my job?" resolves to the original id instead of a
/// duplicate.
pub struct RetryClient {
    addr: AddrCell,
    conn: Option<Client>,
    policy: RetryPolicy,
    key_prefix: String,
    next_key: u64,
    events: Option<EventLog>,
}

impl RetryClient {
    /// `key_prefix` must be unique per logical client (e.g. `"c3"`), since
    /// idempotency keys are `<prefix>-<counter>` scoped per tenant.
    pub fn new(addr: AddrCell, key_prefix: &str) -> RetryClient {
        RetryClient {
            addr,
            conn: None,
            policy: RetryPolicy::default(),
            key_prefix: key_prefix.to_string(),
            next_key: 0,
            events: None,
        }
    }

    pub fn with_policy(mut self, policy: RetryPolicy) -> RetryClient {
        self.policy = policy;
        self
    }

    /// Record every reconnect and backoff pause into `log` as structured
    /// JSONL events (see [`crate::events`]), alongside the counters.
    pub fn with_event_log(mut self, log: EventLog) -> RetryClient {
        self.events = Some(log);
        self
    }

    fn conn(&mut self) -> std::io::Result<&mut Client> {
        if self.conn.is_none() {
            let addr = self.addr.get().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::NotConnected, "no server address published")
            })?;
            self.conn = Some(Client::connect(addr)?);
            obs::global().counter("serve_client_reconnects_total").inc();
            if let Some(log) = &self.events {
                log.emit(Level::Info, "reconnect", "", 0, 0, &format!("connected to {addr}"));
            }
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Run `op` with reconnect-and-retry. Any `Err` drops the connection
    /// (its stream state is suspect after a fault) and retries after
    /// backoff, except `NotFound`, which is a real answer, not a fault.
    fn retry<T>(&mut self, op: impl Fn(&mut Client) -> std::io::Result<T>) -> std::io::Result<T> {
        let mut pause = self.policy.base_backoff;
        let mut last_err = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                obs::global().counter("serve_retries_total").inc();
                if let Some(log) = &self.events {
                    let detail = format!(
                        "attempt {attempt}/{}, pausing {pause:?} after: {}",
                        self.policy.max_attempts,
                        last_err
                            .as_ref()
                            .map_or_else(String::new, |e: &std::io::Error| { e.to_string() }),
                    );
                    log.emit(Level::Warn, "backoff", "", 0, 0, &detail);
                }
                std::thread::sleep(pause);
                pause = (pause * 2).min(self.policy.max_backoff);
            }
            let outcome = self.conn().and_then(&op);
            match outcome {
                Ok(v) => return Ok(v),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(e),
                Err(e) => {
                    self.conn = None;
                    last_err = Some(e);
                }
            }
        }
        if let Some(log) = &self.events {
            let detail = last_err.as_ref().map_or_else(String::new, |e| e.to_string());
            log.emit(Level::Error, "retries_exhausted", "", 0, 0, &detail);
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("retry budget exhausted")))
    }

    pub fn ping(&mut self) -> std::io::Result<()> {
        self.retry(|c| c.ping())
    }

    /// Exactly-once submit: one idempotency key per call, reused across
    /// every retry of that call.
    pub fn submit(
        &mut self,
        tenant: &str,
        spec: &JobSpec,
    ) -> std::io::Result<Result<u64, RejectReason>> {
        self.submit_traced(tenant, spec).map(|r| r.map(|(job, _)| job))
    }

    /// [`submit`](RetryClient::submit), returning `(job id, trace id)` so
    /// callers can follow the job into `GET /trace/<job>`. The accepted
    /// submission is logged with its tenant/job/trace correlation keys.
    pub fn submit_traced(
        &mut self,
        tenant: &str,
        spec: &JobSpec,
    ) -> std::io::Result<Result<(u64, u64), RejectReason>> {
        let key = format!("{}-{}", self.key_prefix, self.next_key);
        self.next_key += 1;
        let tenant = tenant.to_string();
        let spec = spec.clone();
        let admitted = {
            let tenant = tenant.clone();
            self.retry(move |c| c.submit_traced(&tenant, &spec, Some(&key), 0))?
        };
        if let (Some(log), Ok((job, trace))) = (&self.events, &admitted) {
            log.emit(Level::Info, "submit", &tenant, *job, *trace, "accepted");
        }
        Ok(admitted)
    }

    pub fn status(&mut self, job: u64) -> std::io::Result<JobStatusWire> {
        self.retry(move |c| c.status(job))
    }

    pub fn cancel(&mut self, job: u64) -> std::io::Result<JobStatusWire> {
        self.retry(move |c| c.cancel(job))
    }

    pub fn stats(&mut self) -> std::io::Result<StatsWire> {
        self.retry(|c| c.stats())
    }

    /// Poll (with reconnects) until the job is terminal; each poll gets the
    /// full retry budget, and the overall wait respects `timeout`.
    pub fn wait_done(&mut self, job: u64, timeout: Duration) -> std::io::Result<JobStatusWire> {
        let deadline = Instant::now() + timeout;
        let mut pause = Duration::from_millis(1);
        loop {
            let status = self.status(job)?;
            if status.state.is_terminal() {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("job {job} still {:?} after {timeout:?}", status.state),
                ));
            }
            std::thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(50));
        }
    }
}

/// One-shot HTTP GET of `path` against the server port, returning the raw
/// `(status line, body)` — non-200 statuses are data here, so `/readyz`
/// probes can observe a 503 without treating it as a transport failure.
pub fn http_get_status(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: serve\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
    })?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}

/// [`http_get_status`] for routes where anything but 200 is a failure;
/// returns the body.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<String> {
    let (status, body) = http_get_status(addr, path)?;
    if !status.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(format!("GET {path} failed: {status}")));
    }
    Ok(body)
}

/// One-shot HTTP `GET /metrics` against the same port; returns the
/// Prometheus text body.
pub fn scrape_metrics(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address resolved")
    })?;
    http_get(addr, "/metrics")
}

/// The retryable error a typed `busy` rejection maps to.
fn busy_error() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "server at connection capacity")
}

fn unexpected(wanted: &str, got: &Response) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("expected {wanted} reply, got {got:?}"),
    )
}
