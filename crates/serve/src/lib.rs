//! # opa-serve — the resident multi-tenant job server
//!
//! The paper's platform is a *service*: analysts submit one-pass jobs
//! against shared cluster capacity and query incremental answers while
//! the jobs run. This crate supplies that serving layer on top of
//! `opa-stream`:
//!
//! - **admission control** ([`admission`]) — per-tenant run-slot quotas
//!   with a bounded shared wait queue; every submission is either
//!   admitted, queued (backpressure) or *explicitly* rejected, and
//!   `AdmissionStats`-style books reconcile the counters;
//! - **deterministic interleaved scheduling** ([`server`]) — each job
//!   runs as an ordinary stream run on its own thread; the server
//!   advances the fleet in waves, granting micro-batches in admission
//!   order at full barriers, so every job's outcome is bit-identical to
//!   its solo run and the serving trace is a pure function of the
//!   submission sequence;
//! - **live queries** — point lookups, DINC top-k and progress answered
//!   on the caller's thread from the [`opa_stream::LiveView`] each job
//!   publishes at its wave boundary, the same view the stream callback
//!   reads through [`opa_stream::BatchCtl`];
//! - **failure isolation** — a job whose user code panics ends
//!   `Failed` with the engine's `job panicked: …` error (opa-core turns
//!   any panic in a run into an `Err`); it frees its slot and never
//!   stalls the other tenants;
//! - **a dead-letter queue** ([`dlq`]) — records a map UDF rejects are
//!   quarantined with full provenance (tenant, job, task, attempt,
//!   offset) to a CRC-guarded file instead of failing the job, and the
//!   job can be **replayed** with the poison fixed to recover the
//!   fault-free output.
//!
//! ```
//! use opa_serve::{JobSpec, ServeConfig, Server};
//! use opa_workloads::click_count::ClickCountJob;
//! use opa_workloads::clickstream::ClickStreamSpec;
//! use std::sync::Arc;
//!
//! let input = Arc::new(ClickStreamSpec::small().generate(42));
//! let mut server = Server::new(ServeConfig::default());
//! let spec = JobSpec::default();
//! let job = ClickCountJob { expected_users: 1000 };
//! let receipt = server
//!     .submit(0, job, Arc::clone(&input), &spec)
//!     .expect("admits");
//! server.run_to_completion().expect("drains");
//! assert!(server.outcome(receipt.job).is_some());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod dlq;
pub mod server;

pub use admission::{Admission, AdmissionOutcome, ServeConfig, TenantBook};
pub use dlq::{QuarantineEntry, QuarantineFile};
pub use server::{JobPhase, JobSpec, JobStatus, ServeAnswer, ServeQuery, Server, SubmitReceipt};
