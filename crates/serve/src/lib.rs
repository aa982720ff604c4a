//! # serve — a persistent multi-tenant inference service
//!
//! The paper's PPE/SPE split *is* a serving architecture: a coordinator
//! dispatching likelihood work to a pool of workers. This crate puts a
//! front door on that substrate — the one-queue
//! [`phylo::farm`] plus the [`obs`] metrics registry — so the
//! system serves sustained multi-tenant traffic instead of one batch at a
//! time:
//!
//! * **Wire protocol** ([`wire`]): length-prefixed JSON frames, hand-rolled
//!   encode/validate in the workspace's no-serde house style. The one job
//!   description ([`wire::JobSpec`]) maps 1:1 onto the library's unified
//!   [`phylo::search::InferenceRequest`].
//! * **Service core** ([`service`]): per-tenant FIFO queues drained by a
//!   fair round-robin scheduler into one long-lived farm run; admission
//!   control (global queue bound + per-tenant in-flight quotas) backed by
//!   the farm's bounded-submission backpressure; job status polling;
//!   crash-safe jobs via a durable journal ([`journal`]) plus the
//!   [`phylo::checkpoint`] tier.
//! * **Server** ([`server`]): a thread-per-connection TCP front end that
//!   multiplexes the frame protocol with a plain-HTTP `GET /metrics`
//!   endpoint serving the [`obs`] Prometheus text exporter. Connections
//!   live under handshake and per-frame deadlines, a bounded connection
//!   cap answers overload with a typed `busy` frame, and `stop()` is a
//!   graceful drain that joins every handler thread.
//! * **Client** ([`client`]): a small blocking client for tests, studies,
//!   and scripting, plus [`client::RetryClient`] — reconnecting, capped
//!   exponential backoff, and exactly-once submits via idempotency keys
//!   that survive server restarts.
//! * **Fault injection** ([`fault`]): deterministic wire-level chaos
//!   (drops, truncation, corruption, stalls) from counter-mode splitmix64
//!   draws, replayable bit-exactly — the service-tier mirror of
//!   `cellsim::fault`, exercised end to end by `tests/serve_chaos.rs`.
//! * **Event log** ([`events`]): structured JSONL incident stream (client
//!   reconnects and backoff, server deadline evictions, drains) keyed by
//!   tenant / job / trace id so operational incidents join against both
//!   the journal and the [`obs::trace`] span trees.
//!
//! ## Tracing and introspection
//!
//! Every admitted job carries a deterministic trace id (derived from
//! tenant + idempotency key + job id, or supplied by the caller on the
//! wire) that follows it through admission, queueing, dispatch, execution,
//! and sealing. The HTTP side of the server exposes the results live:
//! `GET /jobs` for per-tenant queue depth and in-flight jobs with their
//! current span, `GET /trace/<job>` for a Chrome-trace span tree, and
//! `GET /healthz` / `GET /readyz` for orchestrator probes.
//!
//! ## Quick start
//!
//! ```no_run
//! use serve::service::{InferenceService, ServiceConfig};
//! use serve::server::Server;
//! use serve::wire::{JobKind, JobSpec, Preset};
//! use std::sync::Arc;
//!
//! let aln = phylo::simulate::SimulationConfig::new(8, 400, 7).generate().alignment;
//! let service = Arc::new(InferenceService::start(ServiceConfig::new(4)).unwrap());
//! service.register_dataset("demo", aln);
//! let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
//!
//! let mut client = serve::client::Client::connect(server.addr()).unwrap();
//! let job = client
//!     .submit("tenant-a", &JobSpec::new("demo", JobKind::Search, 1, Preset::Fast))
//!     .unwrap()
//!     .expect("admitted");
//! let status = client.wait_done(job, std::time::Duration::from_secs(600)).unwrap();
//! println!("lnL = {}", status.result.unwrap().log_likelihood);
//! ```

pub mod client;
pub mod events;
pub mod fault;
pub mod journal;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{AddrCell, Client, RetryClient, RetryPolicy};
pub use events::{EventLog, EventRecord, Level};
pub use fault::{FaultTally, FaultyStream, ServeFaultPlan, WireFault};
pub use server::{DrainReport, Server, ServerConfig};
pub use service::{InferenceService, ServiceConfig, ServiceStats, ShutdownReport, SyncPolicy};
pub use wire::{JobKind, JobSpec, Preset, RejectReason};
