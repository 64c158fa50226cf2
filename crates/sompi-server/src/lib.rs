//! Planner-as-a-service: a batched multi-tenant optimization server
//! over the SOMPI library crates.
//!
//! The CLI's `plan`/`replay` subcommands and this server share one set
//! of entry points ([`service`]), so a plan answered over the socket is
//! bit-identical to one computed in-process against the same market.
//! On top of that the server adds what a daemon needs and a one-shot
//! CLI does not:
//!
//! - a typed, length-prefixed JSON wire protocol ([`proto`]);
//! - a cross-tenant, single-flight plan cache keyed by request shape ×
//!   the view's sample ranges ([`cache`]) — a burst of identical
//!   requests performs exactly one search;
//! - bounded admission with load shedding and a batched worker pool
//!   ([`server`]) — overload yields typed `Overloaded` responses, not
//!   an unbounded queue;
//! - trace-event instrumentation (`RequestReceived`, `RequestCompleted`,
//!   `RequestShed`, `CacheHit`) rendered by `sompi trace summarize`.
//!
//! Start one with `sompi serve`, talk to it with `sompi client` or any
//! implementation of the protocol in `docs/SERVER.md`.

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;
pub mod service;
pub mod tournament;

pub use cache::{CacheOutcome, SharedCache, SharedPlanCache};
pub use proto::{PlanRequest, ReplayRequest, Request, Response, PROTOCOL_VERSION};
pub use server::{ServeStats, Server, ServerConfig, ServerHandle};
pub use service::{PlanReport, ReplayReport, ServiceError};
