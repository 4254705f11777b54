//! # opa-stream — continuous ingestion over the one-pass engine
//!
//! The paper's motivation is analytics that keep up with data as it
//! *arrives*; this crate turns the batch engine into that long-running
//! service. A stream run feeds the input through the existing map plans
//! and reduce-side frameworks in `k` arrival-ordered **micro-batches**,
//! pausing after each batch once every shuffle delivery from that
//! batch's own chunks has been absorbed (later chunks keep shuffling
//! across the pause — the watermark is a lower bound). At each pause
//! point:
//!
//! - the user callback observes the live incremental state through
//!   [`BatchCtl`] — point lookups of resident partial aggregates, the
//!   DINC top-k answer with its γ coverage bound, and progress /
//!   watermark metadata;
//! - a **checkpoint** of the complete engine state can be written (on a
//!   cadence via [`StreamConfig::checkpoint_every`], or on demand from
//!   the callback), CRC-protected through [`opa_simio::ckpt`];
//! - a crashed run **resumes** from its last checkpoint with
//!   [`StreamJobBuilder::resume_stream`], replaying only the remaining
//!   input and emitting each output pair exactly once.
//!
//! A stream run is opa-core's job loop ([`opa_core::job::run_job`]) with
//! a pause schedule: the batch boundaries become the schedule's chunk
//! quotas, and the pause hook seals the batch, runs the callback and
//! writes checkpoints. This crate adds no event loop of its own. Sealing
//! only observes the loop between two events — it never reorders, drops
//! or injects any — so a streamed run's output is **bit-identical** to
//! the one-shot batch run's, at any thread count and any `k`
//! (`tests/stream_equivalence.rs` pins this across all paper workloads
//! and frameworks). A panic in the job or the callback returns as an
//! error, as in a batch run.
//!
//! ```
//! use opa_stream::StreamJobBuilder;
//! use opa_core::cluster::{ClusterSpec, Framework};
//! use opa_workloads::click_count::ClickCountJob;
//! use opa_workloads::clickstream::ClickStreamSpec;
//!
//! let data = ClickStreamSpec::small().generate(42);
//! let outcome = StreamJobBuilder::new(ClickCountJob::default())
//!     .framework(Framework::IncHash)
//!     .cluster(ClusterSpec::tiny())
//!     .batches(4)
//!     .run_stream(&data, |ctl| {
//!         let p = ctl.progress();
//!         assert!(p.batches_sealed >= 1 && p.batches_sealed <= 4);
//!     })
//!     .expect("stream runs");
//! assert_eq!(outcome.batches, 4);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
mod driver;
pub mod query;

pub use checkpoint::{Fingerprint, QueuedEvent, SavedState};
pub use driver::StreamOutcome;
pub use query::{BatchCtl, CheckpointView, LiveView, StreamProgress};

use opa_common::fault::FaultConfig;
use opa_common::{Error, ExecConfig, Result, StreamConfig};
use opa_core::api::Job;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobConfig, JobInput};
use opa_core::reduce::dinc_hash::MonitorKind;
use std::path::{Path, PathBuf};

/// Fluent builder for one stream run — the streaming counterpart of
/// [`opa_core::job::JobBuilder`], sharing its [`JobConfig`] and adding the
/// stream dimension: batch count, checkpoint cadence and checkpoint
/// directory. Combining stays per map task and snapshots stay off: the
/// checkpoint format has no place for their state.
pub struct StreamJobBuilder<J: Job> {
    job: J,
    cfg: JobConfig,
    stream: StreamConfig,
    checkpoint_dir: Option<PathBuf>,
}

impl<J: Job> StreamJobBuilder<J> {
    /// Starts a builder with the sort-merge baseline on the paper cluster
    /// and the default stream shape ([`StreamConfig::default`]).
    pub fn new(job: J) -> Self {
        StreamJobBuilder {
            job,
            cfg: JobConfig::default(),
            stream: StreamConfig::default(),
            checkpoint_dir: None,
        }
    }

    /// Selects the reduce-side framework.
    pub fn framework(mut self, f: Framework) -> Self {
        self.cfg.framework = f;
        self
    }

    /// Selects the cluster configuration.
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.cfg.spec = spec;
        self
    }

    /// Sets the execution-layer thread count (see
    /// [`opa_core::job::JobBuilder::threads`]). The outcome is
    /// bit-identical at any value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.exec = ExecConfig::with_threads(threads);
        self
    }

    /// Sets the full execution-layer configuration.
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.cfg.exec = exec;
        self
    }

    /// Hints the map output/input ratio `K_m` (defaults to 1.0).
    pub fn km_hint(mut self, km: f64) -> Self {
        self.cfg.km_hint = km;
        self
    }

    /// Enables DINC's approximate early termination at coverage φ.
    pub fn early_stop_coverage(mut self, phi: f64) -> Self {
        self.cfg.early_stop_coverage = Some(phi);
        self
    }

    /// Selects the frequency algorithm behind DINC-hash's monitor.
    pub fn dinc_monitor(mut self, kind: MonitorKind) -> Self {
        self.cfg.dinc_monitor = kind;
        self
    }

    /// Selects the reduce-side admission policy (see
    /// [`opa_core::job::JobBuilder::admission`]). Admission composes with
    /// checkpoint/resume: sketch state and admission counters ride on the
    /// checkpoint, so a resumed run reproduces the uninterrupted run's
    /// output bit-for-bit.
    pub fn admission(mut self, policy: opa_common::AdmissionPolicy) -> Self {
        self.cfg.admission = policy;
        self
    }

    /// Enables deterministic fault injection (see
    /// [`opa_core::job::JobBuilder::faults`]). Checkpoint/resume
    /// composes with the map- and reduce-failure classes: a resumed run
    /// reproduces the uninterrupted run's output bit-for-bit.
    pub fn faults(mut self, cfg: FaultConfig) -> Self {
        self.cfg.faults = cfg;
        self
    }

    /// Sets the full stream configuration.
    pub fn stream(mut self, cfg: StreamConfig) -> Self {
        self.stream = cfg;
        self
    }

    /// Sets the micro-batch count `k`.
    pub fn batches(mut self, k: usize) -> Self {
        self.stream.batches = k;
        self
    }

    /// Writes a checkpoint every `n` sealed batches (requires
    /// [`StreamJobBuilder::checkpoint_dir`]).
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.stream.checkpoint_every = Some(n);
        self
    }

    /// Directory periodic checkpoints are written to, as
    /// `stream-ckpt-b<batch>.opac`.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Enables structured trace capture (see
    /// [`opa_core::job::JobBuilder::trace`]). The resulting
    /// [`opa_trace::TraceLog`] rides on the outcome's
    /// [`opa_core::job::JobOutcome::trace`] field and additionally carries
    /// `batch_seal`/`checkpoint` events at every pause point. Traces are
    /// bit-identical across thread counts; across different batch counts
    /// `k` they differ only in those seal/checkpoint lines.
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
    }

    /// Access to the wrapped job.
    pub fn job(&self) -> &J {
        &self.job
    }

    fn validate(&self, input: &JobInput) -> Result<()> {
        self.cfg.validate()?;
        if input.is_empty() {
            return Err(Error::job("stream input is empty"));
        }
        self.stream.validate_for(input.len())?;
        if self.stream.checkpoint_every.is_some() && self.checkpoint_dir.is_none() {
            return Err(Error::config(
                "checkpoint cadence set without a checkpoint directory — \
                 call checkpoint_dir(..) (CLI: --checkpoint-dir)",
            ));
        }
        Ok(())
    }

    fn drive(
        &self,
        input: &JobInput,
        resume: Option<SavedState>,
        on_batch: &mut dyn FnMut(&mut BatchCtl),
    ) -> Result<StreamOutcome> {
        driver::drive(
            &self.job,
            &self.cfg,
            &self.stream,
            self.checkpoint_dir.as_deref(),
            input,
            resume,
            on_batch,
        )
    }

    /// Runs the stream job over `input`, invoking `on_batch` at each
    /// sealed micro-batch (1-based, in order).
    pub fn run_stream(
        &self,
        input: &JobInput,
        mut on_batch: impl FnMut(&mut BatchCtl),
    ) -> Result<StreamOutcome> {
        self.validate(input)?;
        self.drive(input, None, &mut on_batch)
    }

    /// Resumes a stream job from a checkpoint file written by a previous
    /// run over the *same* input and configuration. Sealed batches are
    /// not re-run (their callbacks do not fire again); the remaining
    /// batches stream as usual and the final output is bit-identical to
    /// the uninterrupted run's.
    pub fn resume_stream(
        &self,
        input: &JobInput,
        checkpoint: &Path,
        mut on_batch: impl FnMut(&mut BatchCtl),
    ) -> Result<StreamOutcome> {
        self.validate(input)?;
        let saved = SavedState::read_from(checkpoint)?;
        self.drive(input, Some(saved), &mut on_batch)
    }
}
