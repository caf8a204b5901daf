#![warn(missing_docs)]

//! # atd-serve — fault-tolerant concurrent team-discovery service
//!
//! The paper's setting is interactive: an organization asks for teams
//! while the underlying co-authorship network keeps growing. This crate
//! turns the single-threaded [`Discovery`](atd_core::Discovery) engine
//! into a long-lived **query service**:
//!
//! * a worker pool ([`QueryService`]) answering concurrent requests
//!   against one immutable, `Arc`-pinned [`Snapshot`], each worker
//!   reusing its own [`QueryScratch`](atd_core::QueryScratch);
//! * **hot snapshot swaps** ([`QueryService::publish`] /
//!   [`QueryService::try_publish_with`]): a background thread builds or
//!   loads the next index and atomically replaces the serving one;
//!   in-flight requests finish on the snapshot they pinned;
//! * **deadlines** per request via cooperative cancellation
//!   ([`ServeError::DeadlineExceeded`]) — an expensive query cannot pin a
//!   worker forever;
//! * **backpressure**: a bounded submission queue sheds excess load as
//!   [`ServeError::Overloaded`] instead of buffering unbounded work;
//! * **graceful degradation** ([`admission`]): an EWMA admission
//!   controller sheds requests predicted to miss their deadline before
//!   they queue ([`ServeError::DeadlineInfeasible`]), priority classes
//!   keep verifier/system traffic unstarved, and p99-driven **brownout
//!   tiers** switch serving to flagged best-effort anytime answers
//!   ([`ServeResponse::degraded`]) before shedding anything;
//! * **panic isolation**: a query that panics is caught
//!   ([`ServeError::QueryPanicked`]) and the worker keeps serving; a
//!   worker that dies anyway is respawned by the supervisor;
//! * a **deterministic fault-injection harness** ([`faultpoint`], behind
//!   the `fault-injection` feature) so all of the above is tested with
//!   forced failures, not hoped-for ones (points listed below);
//! * a **durable publish path** ([`DurableService`]): mutations are
//!   applied through `atd-store`'s write-ahead journal and the serving
//!   snapshot swaps only after the record is on disk, so no
//!   acknowledged mutation survives a crash un-served — see
//!   [`durable`] for the ordering contract.
//!
//! Responses on a given snapshot are bit-identical to calling
//! [`Discovery::top_k`](atd_core::Discovery::top_k) directly on that
//! snapshot's engine — concurrency changes throughput, never answers.
//! See `src/README.md` for the snapshot lifecycle and the failure-mode
//! table.
//!
//! ## Faultpoints
//!
//! [`faultpoint`] is `atd-store`'s registry, re-exported: this crate's
//! `fault-injection` feature turns on the store's, so one feature flag
//! arms the whole publish chain, including the journal's own points
//! (`store.wal_append`, `store.checkpoint`, `store.manifest_publish`).
//! The points this crate plants:
//!
//! | name                  | site                                   | armed effect |
//! |-----------------------|----------------------------------------|--------------|
//! | `serve.request`       | inside the worker's `catch_unwind`     | panic → `QueryPanicked`; delay → slow query |
//! | `serve.worker`        | worker loop, *outside* `catch_unwind`  | panic → worker dies → supervisor respawn |
//! | `serve.snapshot_load` | snapshot publication closure           | I/O error / panic → swap failure, old snapshot keeps serving |
//! | `serve.wal_append`    | durable publish path, before the journal append | I/O error → mutation rejected un-acknowledged; panic → killed publisher |
//! | `serve.incremental_patch` | durable publish path, after the ack, before the incremental label patch | panic → killed publisher mid-patch; recovery must fall back to a full rebuild bit-identically |
//! | `serve.admission`     | entry of `QueryService::submit`, before any shed decision | panic → submitting client dies (service unharmed); delay → slow admission |
//! | `serve.brownout`      | inside every brownout latency observation (worker, after the reply is sent) | panic → worker dies on the stats path → supervisor respawn, answer already delivered; delay → slow bookkeeping, queries unaffected |

pub mod admission;
pub mod durable;
pub mod error;
mod queue;
pub mod service;
pub mod snapshot;
pub mod stats;

pub use admission::{AdmissionConfig, BrownoutConfig, BrownoutTier, Priority};
pub use atd_store::faultpoint;
pub use durable::{
    AppendReceipt, DurableConfig, DurableError, DurableService, JournalConfig, RecoveryReport,
};
pub use error::ServeError;
pub use faultpoint::{Fault, FaultPlan};
pub use service::{
    PartialBound, QueryService, Request, ResponseHandle, ServeConfig, ServeResponse,
};
pub use snapshot::Snapshot;
pub use stats::ServeStats;
