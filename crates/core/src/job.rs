//! Job orchestration: the discrete-event loop tying mappers, shuffle and
//! reducers together.
//!
//! One [`run_job`] executes the whole MapReduce job: the input is split
//! into `C`-sized chunks by the block store, map tasks run on each node's
//! map slots (FIFO over node-local chunks), completed mappers push
//! granules whose per-reducer payloads travel over the simulated network,
//! and each reducer — a serial virtual timeline — absorbs deliveries
//! through its framework and completes once the queue drains. Reducers
//! normally all start in wave one (`R` ≤ reduce slots); with `R` above the
//! slot count the extra reducers start only when a first-wave reducer on
//! their node finishes and must re-read all their map output from the
//! mappers' disks — the two-wave effect of §3.2(3).
//!
//! This is the engine's only event loop. A batch run ([`JobBuilder::run`])
//! goes straight through it; a stream run (`opa-stream`) is the same loop
//! with a [`Pause`] schedule, whose hook seals micro-batches, serves live
//! reads and checkpoints through [`LoopCtl`], and whose resume state
//! seeds the loop from a checkpoint.
//!
//! ## Scheduling vs execution
//!
//! The loop itself is the *scheduling layer*: it owns every piece of
//! shared simulation state and touches it strictly in event order. The
//! heavy data work — map-task computation ([`compute_map_task`]) and
//! reducer ingestion (recorded through [`ReduceEnv`]) — runs on the
//! *execution layer* ([`crate::exec`]): a pool of `threads − 1` worker
//! threads plus the scheduler itself. Results come back as effect logs
//! and are replayed here in the exact order the sequential engine would
//! have produced, so a [`JobOutcome`] is bit-identical at any thread
//! count (see `tests/determinism.rs`).

use crate::api::Job;
use crate::cluster::{ClusterSpec, Framework};
use crate::exec::{panic_message, Planner, Pool};
use crate::fault::{FaultPlan, MapFate};
use crate::map_phase::{
    abort_map_task, compute_map_task, finish_map_task, straggle_map_task, Payload, PoisonGate,
};
use crate::metrics::JobMetrics;
use crate::progress::{ProgressCurve, ProgressTracker};
use crate::reduce::dinc_hash::MonitorKind;
use crate::reduce::{
    make_reducer, replay, replay_recovery, Effect, ReduceEnv, ReduceSide, ReducerCkpt,
    ReducerSizing, ReplayTarget,
};
use crate::sim::{EventQueue, OpKind, Resources, Span, Usage};
use bytes::Bytes;
use opa_common::fault::{FaultConfig, FaultEvent, FaultKind, FaultReport};
use opa_common::units::{SimDuration, SimTime};
use opa_common::{
    AdmissionPolicy, CombineScope, Error, ExecConfig, GroupIndex, HashFamily, Pair, RecordBatch,
    Result, StateBatch, StatePair,
};
use opa_simio::{BlockStore, DiskFaultInjector, IoCategory, IoOp};
use opa_trace::{TraceEvent, TraceLog};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;

/// Number of points progress curves are resampled to.
const PROGRESS_POINTS: usize = 400;

/// Job input: a sequence of raw records (lines of a log, documents…).
#[derive(Debug, Clone, Default)]
pub struct JobInput {
    /// The records. `Bytes` so chunks and map inputs never deep-copy.
    pub records: Vec<Bytes>,
}

impl JobInput {
    /// Builds an input from owned byte records.
    pub fn from_records(records: Vec<Vec<u8>>) -> Self {
        JobInput {
            records: records.into_iter().map(Bytes::from).collect(),
        }
    }

    /// Builds an input by splitting UTF-8 text into lines.
    pub fn from_text(text: &str) -> Self {
        JobInput {
            records: text
                .lines()
                .filter(|l| !l.is_empty())
                .map(|l| Bytes::copy_from_slice(l.as_bytes()))
                .collect(),
        }
    }

    /// Total input size `D` in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.len() as u64).sum()
    }

    /// Record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the input is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// One quarantined input record: the engine-level provenance of a map UDF
/// poison firing. The serving layer (`opa-serve`) adds tenant/job identity
/// on top when it files the entry in its dead-letter queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonedRecord {
    /// Map chunk (task) the record belonged to.
    pub chunk: u32,
    /// The map-task attempt that committed the chunk (0 unless crash or
    /// straggler recovery re-ran it).
    pub attempt: u32,
    /// The record's global input offset.
    pub offset: u64,
    /// The raw record bytes, exactly as read from the input.
    pub record: Bytes,
}

/// Everything a finished job yields.
#[derive(Debug)]
pub struct JobOutcome {
    /// Table-style metrics (times, bytes, CPU).
    pub metrics: JobMetrics,
    /// Definition-1 progress curves.
    pub progress: ProgressCurve,
    /// Task timeline (Fig 2(a)-style spans).
    pub timeline: Vec<Span>,
    /// CPU/disk busy-time series (Fig 2(b,c)-style).
    pub usage: Usage,
    /// The job's actual output pairs (order unspecified across reducers).
    pub output: Vec<Pair>,
    /// The structured event trace, when the run was started with
    /// [`JobBuilder::trace`]. Bit-identical at any thread count; see the
    /// `opa-trace` crate for the JSONL format, rollups and exporters.
    pub trace: Option<TraceLog>,
    /// Records quarantined by per-record UDF poison
    /// ([`opa_common::fault::FaultConfig::udf_poison_rate`]), in the order
    /// their chunks committed. Empty unless poison injection was enabled.
    pub dlq: Vec<PoisonedRecord>,
}

impl JobOutcome {
    /// The output sorted by key then value — canonical form for
    /// correctness comparisons.
    pub fn sorted_output(&self) -> Vec<Pair> {
        let mut out = self.output.clone();
        out.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
        out
    }

    /// Persists the job output to a real file in the IFile-style run
    /// format (length-framed records + CRC-32).
    pub fn write_output(&self, path: &std::path::Path) -> Result<()> {
        let buf = opa_simio::codec::encode_run(&self.output);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| Error::storage(format!("mkdir {}: {e}", dir.display())))?;
        }
        std::fs::write(path, buf)
            .map_err(|e| Error::storage(format!("write {}: {e}", path.display())))
    }

    /// Reads back an output file written by [`JobOutcome::write_output`],
    /// verifying its checksum.
    pub fn read_output(path: &std::path::Path) -> Result<Vec<Pair>> {
        let buf = std::fs::read(path)
            .map_err(|e| Error::storage(format!("read {}: {e}", path.display())))?;
        opa_simio::codec::decode_run(&buf)
    }

    /// The output as a resident [`crate::dataflow::Dataset`], bucketed
    /// under the partition function of `spec` — the handle a
    /// [`crate::dataflow::Dataflow`] chains from. Pass the spec the job
    /// ran on to get the partitioning its reducers actually produced.
    pub fn dataset(&self, spec: &ClusterSpec) -> crate::dataflow::Dataset {
        crate::dataflow::Dataset::from_pairs(
            self.output.clone(),
            crate::dataflow::PartitionSpec::of(spec),
        )
    }
}

/// Everything that configures one run of the job loop, apart from the
/// job and its input. [`JobBuilder`] and the stream builder both hold one
/// and hand it to [`run_job`]; [`JobConfig::validate`] is the one place
/// its values are checked.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// The reduce-side framework.
    pub framework: Framework,
    /// The simulated cluster.
    pub spec: ClusterSpec,
    /// The execution layer (host threads).
    pub exec: ExecConfig,
    /// Hint for the map output/input ratio `K_m`.
    pub km_hint: f64,
    /// DINC's approximate early-termination coverage φ.
    pub early_stop_coverage: Option<f64>,
    /// MapReduce-Online snapshot points, as map-progress fractions.
    pub snapshot_points: Vec<f64>,
    /// The frequency algorithm behind DINC-hash's monitor.
    pub dinc_monitor: MonitorKind,
    /// The reduce-side admission policy.
    pub admission: AdmissionPolicy,
    /// Where map output is combined before shuffle.
    pub combine: CombineScope,
    /// Deterministic fault injection.
    pub faults: FaultConfig,
    /// Whether the run records a structured event trace.
    pub trace: bool,
}

impl Default for JobConfig {
    /// The sort-merge baseline on the paper cluster, sequential, with
    /// every optional behaviour off.
    fn default() -> Self {
        JobConfig {
            framework: Framework::SortMerge,
            spec: ClusterSpec::paper_scaled(),
            exec: ExecConfig::sequential(),
            km_hint: 1.0,
            early_stop_coverage: None,
            snapshot_points: Vec::new(),
            dinc_monitor: MonitorKind::Frequent,
            admission: AdmissionPolicy::Off,
            combine: CombineScope::Task,
            faults: FaultConfig::disabled(),
            trace: false,
        }
    }
}

impl JobConfig {
    /// Checks every value: the cluster, exec and fault configs, each
    /// snapshot point (a finite map-progress fraction in `[0, 1]`) and φ
    /// (a fraction in `(0, 1]`).
    pub fn validate(&self) -> Result<()> {
        self.spec.validate()?;
        self.exec.validate()?;
        self.faults.validate()?;
        for &p in &self.snapshot_points {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(Error::job(format!(
                    "snapshot point {p} is not a map-progress fraction in \
                     [0, 1]; pass fractions of map completion such as \
                     0.25,0.5,0.75"
                )));
            }
        }
        if let Some(phi) = self.early_stop_coverage {
            if !phi.is_finite() || !(0.0..=1.0).contains(&phi) || phi == 0.0 {
                return Err(Error::job(format!(
                    "early-stop coverage φ must be a fraction in (0, 1], got {phi}"
                )));
            }
        }
        Ok(())
    }
}

/// Fluent builder for one job run.
pub struct JobBuilder<J: Job> {
    job: J,
    cfg: JobConfig,
}

impl<J: Job> JobBuilder<J> {
    /// Starts a builder with the sort-merge baseline on the paper cluster.
    pub fn new(job: J) -> Self {
        JobBuilder {
            job,
            cfg: JobConfig::default(),
        }
    }

    /// Turns on structured event tracing. The run then carries a
    /// [`TraceLog`] in [`JobOutcome::trace`] — one record per simulation
    /// event, deterministic and bit-identical at any thread count. Off by
    /// default (tracing is zero-cost when off).
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
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

    /// Sets the execution-layer thread count. `1` (the default) runs the
    /// engine fully sequentially on the calling thread; `n > 1` adds
    /// `n − 1` worker threads, capped at the host's core count (pass
    /// [`ExecConfig::oversubscribed`] to [`JobBuilder::exec`] to lift the
    /// cap). The [`JobOutcome`] is bit-identical at any value — threads
    /// only change wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.exec = ExecConfig::with_threads(threads);
        self
    }

    /// Sets the full execution-layer configuration.
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.cfg.exec = exec;
        self
    }

    /// Hints the map output/input ratio `K_m`, used to size hash-framework
    /// bucket fan-outs (defaults to 1.0).
    pub fn km_hint(mut self, km: f64) -> Self {
        self.cfg.km_hint = km;
        self
    }

    /// Enables DINC's approximate early termination at coverage φ.
    pub fn early_stop_coverage(mut self, phi: f64) -> Self {
        self.cfg.early_stop_coverage = Some(phi);
        self
    }

    /// Selects the frequency algorithm behind DINC-hash's monitor
    /// (default: FREQUENT, the paper's choice).
    pub fn dinc_monitor(mut self, kind: MonitorKind) -> Self {
        self.cfg.dinc_monitor = kind;
        self
    }

    /// Selects the reduce-side admission policy (default: off, the
    /// paper's first-come occupancy). Under
    /// [`AdmissionPolicy::Lfu`] a table-full arrival may evict a resident
    /// key that a deterministic frequency sketch judges colder, instead
    /// of spilling itself.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.cfg.admission = policy;
        self
    }

    /// Selects where map output is combined before shuffle (default:
    /// [`CombineScope::Task`], the engine's historical per-map-task
    /// combining — bit-identical to builds that predate the knob). Under
    /// [`CombineScope::Node`] granules from all map tasks of one
    /// simulated node additionally merge through the job's combiner (or,
    /// for the incremental frameworks, its `cb()`) in a per-node staging
    /// table before any shuffle bytes are booked; flush points are
    /// scheduler-side and deterministic, so output stays bit-identical at
    /// any thread count. [`CombineScope::Off`] disables even per-task
    /// combining for the materializing frameworks.
    pub fn combine(mut self, scope: CombineScope) -> Self {
        self.cfg.combine = scope;
        self
    }

    /// Requests MapReduce-Online-style snapshot outputs (§3.3) at the
    /// given map-progress fractions, e.g. `[0.25, 0.5, 0.75]`. Each point
    /// makes every reducer repeat its merge and emit a snapshot — the
    /// expensive behaviour the paper measures.
    pub fn snapshot_points(mut self, points: &[f64]) -> Self {
        self.cfg.snapshot_points = points.to_vec();
        self
    }

    /// Enables deterministic fault injection: map/reduce failures,
    /// stragglers and spill-disk errors per `cfg`, with full recovery.
    /// Recovery never loses or duplicates data: order-independent
    /// reductions produce output bit-identical to the fault-free run.
    /// Jobs that emit early from a slack-bounded reorder buffer
    /// (sessionization under INC/DINC) may re-anchor labels when a fault
    /// delays a map task past the slack, exactly as in real Hadoop —
    /// reduce-crash recovery alone is fully output-transparent. Timing,
    /// I/O accounting and the [`JobMetrics::faults`] report change in
    /// any case.
    pub fn faults(mut self, cfg: FaultConfig) -> Self {
        self.cfg.faults = cfg;
        self
    }

    /// Access to the wrapped job.
    pub fn job(&self) -> &J {
        &self.job
    }

    /// Runs the job on `input`. A panic in the job's code (or anywhere in
    /// the run) comes back as an [`Error::Panicked`].
    pub fn run(&self, input: &JobInput) -> Result<JobOutcome> {
        run_job(&self.job, &self.cfg, input, None)
    }
}

/// One scheduled event of the job loop.
#[derive(Debug, Clone)]
pub enum Event {
    /// A map task attempt starts.
    StartMap {
        /// Input chunk index.
        chunk: usize,
        /// 0 for the first execution; retries and speculative backups
        /// count up. Drives the fault plan's per-attempt decisions.
        attempt: u32,
    },
    /// A shuffle payload reaches its reducer.
    Deliver {
        /// Destination reducer.
        reducer: usize,
        /// Node the payload was shipped from.
        from_node: usize,
        /// Chunk whose map task produced it: a pause waits for the
        /// deliveries of the chunks below its quota, not of later ones.
        chunk: usize,
        /// The delivered partition.
        payload: Payload,
    },
}

/// The loop's running totals, per node, per reducer and job-wide.
#[derive(Debug, Clone)]
pub struct LoopCounters {
    /// Map output bytes so far.
    pub map_output_bytes: u64,
    /// Shuffle bytes booked on the network so far: `map_output_bytes`
    /// minus node-level combining. Wave-two re-reads replay these same
    /// transfers from disk and are not counted again.
    pub shuffle_bytes: u64,
    /// Map-side spill bytes so far.
    pub spill_written_map: u64,
    /// Latest map-task finish time seen.
    pub map_finish: SimTime,
    /// Committed map tasks.
    pub maps_completed: usize,
    /// Per-node map CPU.
    pub map_cpu: Vec<SimDuration>,
    /// Per-reducer ready-at clocks.
    pub ready_at: Vec<SimTime>,
    /// Per-reducer delivery sequence numbers (fault-plan input).
    pub delivery_seq: Vec<u64>,
    /// Per-reducer crash counts (fault-plan input).
    pub crash_count: Vec<u32>,
    /// Per-reducer reduce CPU.
    pub reduce_cpu: Vec<SimDuration>,
    /// Per-reducer reduce-side spill bytes.
    pub spill_written_reduce: Vec<u64>,
}

impl LoopCounters {
    fn new(nodes: usize, reducers: usize) -> Self {
        LoopCounters {
            map_output_bytes: 0,
            shuffle_bytes: 0,
            spill_written_map: 0,
            map_finish: SimTime::ZERO,
            maps_completed: 0,
            map_cpu: vec![SimDuration::ZERO; nodes],
            ready_at: vec![SimTime::ZERO; reducers],
            delivery_seq: vec![0; reducers],
            crash_count: vec![0; reducers],
            reduce_cpu: vec![SimDuration::ZERO; reducers],
            spill_written_reduce: vec![0; reducers],
        }
    }
}

/// The job loop's state at a pause point: what [`LoopCtl::export`]
/// returns and what [`Pause::resume`] seeds a new loop with.
#[derive(Debug, Clone)]
pub struct LoopState {
    /// Pending events in pop order: map starts and in-flight deliveries.
    pub queue: Vec<(SimTime, Event)>,
    /// Per-node FIFO of chunks not yet handed to a map slot.
    pub pending: Vec<Vec<usize>>,
    /// Committed chunks, ascending.
    pub done: Vec<usize>,
    /// Per-node `(hdfs, spill)` disk-free clocks.
    pub disk_free: Vec<(u64, u64)>,
    /// Running totals.
    pub counters: LoopCounters,
    /// Per-reducer deliveries parked for the second reduce wave, as
    /// `(source node, payload)`.
    pub deferred: Vec<Vec<(usize, Payload)>>,
    /// Output emitted so far.
    pub output: Vec<Pair>,
    /// Per-reducer framework state.
    pub reducers: Vec<ReducerCkpt>,
}

/// A pause schedule for [`run_job`].
///
/// Pause `i` is due at the first point between two event pops when the
/// chunks `0..quotas[i]` have all committed their map task and every
/// delivery they shipped has been absorbed. Deliveries of later chunks
/// may still be in flight. The loop then calls `hook` once per due pause,
/// in order, and while a pause is due a delivery burst stops growing, so
/// the hook observes the state between the same two events at any thread
/// count. Pausing never reorders, drops or adds an event: a paused run's
/// outcome equals the unpaused run's.
pub struct Pause<'h> {
    /// Ascending chunk quotas, one per pause.
    pub quotas: Vec<usize>,
    /// State exported at an earlier pause of the same job and input, to
    /// continue from instead of starting fresh.
    pub resume: Option<LoopState>,
    /// Called at each due pause.
    pub hook: &'h mut dyn FnMut(&mut LoopCtl<'_>) -> Result<()>,
}

/// What a [`Pause`] hook sees of the paused loop.
pub struct LoopCtl<'a> {
    now: SimTime,
    counters: &'a LoopCounters,
    reducers: &'a [Option<Box<dyn ReduceSide + Send + 'a>>],
    res: &'a mut Resources,
    queue: &'a mut EventQueue<Event>,
    pending: &'a [VecDeque<usize>],
    done: &'a [bool],
    deferred: &'a [Vec<(usize, Payload)>],
    output: &'a [Pair],
}

impl LoopCtl<'_> {
    /// Virtual time of the last event popped (the resumed state's map
    /// finish time before the first pop of a resumed run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Committed map tasks.
    pub fn maps_completed(&self) -> usize {
        self.counters.maps_completed
    }

    /// The reducers, all in place.
    pub fn reducers(&self) -> &[Option<Box<dyn ReduceSide + Send + '_>>] {
        self.reducers
    }

    /// Appends an event to the run's trace (a no-op with tracing off).
    pub fn emit(&mut self, ev: TraceEvent) {
        self.res.emit(ev);
    }

    /// Exports the loop's complete state. The queue is read by draining
    /// it and pushing every event back in pop order, which keeps every
    /// relative order: the run is unaffected.
    pub fn export(&mut self) -> Result<LoopState> {
        let mut queue = Vec::with_capacity(self.queue.len());
        while let Some(entry) = self.queue.pop() {
            queue.push(entry);
        }
        for (t, ev) in &queue {
            self.queue.push(*t, ev.clone());
        }
        Ok(LoopState {
            queue,
            pending: self
                .pending
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            done: (0..self.done.len()).filter(|&c| self.done[c]).collect(),
            disk_free: self.res.export_disk_free(),
            counters: self.counters.clone(),
            deferred: self.deferred.to_vec(),
            output: self.output.to_vec(),
            reducers: self
                .reducers
                .iter()
                .map(|r| r.as_ref().expect("reducer in place").export_state())
                .collect::<Result<_>>()?,
        })
    }
}

/// Pause bookkeeping: committed chunks, deliveries in flight per source
/// chunk, and how many of those gate the next pause. With no schedule no
/// pause is ever due.
struct Pauses {
    quotas: Vec<usize>,
    next: usize,
    done: Vec<bool>,
    done_prefix: usize,
    inflight: Vec<u32>,
    inflight_due: usize,
}

impl Pauses {
    fn new(quotas: Vec<usize>, done: Vec<bool>) -> Self {
        Pauses {
            quotas,
            next: 0,
            inflight: vec![0; done.len()],
            done_prefix: done.iter().take_while(|&&d| d).count(),
            done,
            inflight_due: 0,
        }
    }

    fn due(&self) -> bool {
        self.next < self.quotas.len()
            && self.inflight_due == 0
            && self.done_prefix >= self.quotas[self.next]
    }

    fn gates(&self, chunk: usize) -> bool {
        self.next < self.quotas.len() && chunk < self.quotas[self.next]
    }

    fn shipped(&mut self, chunk: usize) {
        self.inflight[chunk] += 1;
        if self.gates(chunk) {
            self.inflight_due += 1;
        }
    }

    fn absorbed(&mut self, chunk: usize) {
        self.inflight[chunk] -= 1;
        if self.gates(chunk) {
            self.inflight_due -= 1;
        }
    }

    fn committed(&mut self, chunk: usize) {
        self.done[chunk] = true;
        while self.done.get(self.done_prefix) == Some(&true) {
            self.done_prefix += 1;
        }
    }

    /// Moves past the pause just taken. `inflight_due` was zero, so the
    /// chunks newly below the next quota are all that gate it.
    fn advance(&mut self) {
        self.next += 1;
        if self.next < self.quotas.len() {
            self.inflight_due = (self.quotas[self.next - 1]..self.quotas[self.next])
                .map(|c| self.inflight[c] as usize)
                .sum();
        }
    }
}

/// How the per-node staging table merges two same-key rows under
/// [`opa_common::CombineScope::Node`].
#[derive(Clone, Copy)]
enum NodeMerge<'j> {
    /// Key-value pairs folded through the job's combiner.
    Pairs(&'j dyn crate::api::Combiner),
    /// Key-state pairs merged through the incremental `cb()` at
    /// [`crate::api::Site::Map`]; early emissions route to job output
    /// exactly like task-level map-side `cb()` emissions.
    States(&'j dyn crate::api::IncrementalReducer),
}

/// A reducer's recorded mailbox result: the reducer itself (handed back
/// after recording) plus, per delivery, the delivery log and the logs of
/// any snapshots taken right after it.
type MailboxLogs = VecDeque<(Vec<Effect>, Vec<Vec<Effect>>)>;

/// Records one reducer's mailbox — a run of consecutive deliveries, each
/// followed by `snaps` snapshot repetitions — into effect logs. Pure data
/// work: runs on any execution-layer thread.
fn record_mailbox<'j>(
    mut rec: Box<dyn ReduceSide + Send + 'j>,
    items: Vec<(Payload, usize)>,
    est: SimTime,
    spec: &ClusterSpec,
) -> (Box<dyn ReduceSide + Send + 'j>, MailboxLogs) {
    let mut logs: MailboxLogs = VecDeque::with_capacity(items.len());
    let mut te = est;
    for (payload, snaps) in items {
        let mut env = ReduceEnv::new(spec);
        te = rec.on_delivery(te, payload, &mut env);
        let dlog = env.into_log();
        let mut slogs = Vec::with_capacity(snaps);
        for _ in 0..snaps {
            let mut senv = ReduceEnv::new(spec);
            te = rec.snapshot(te, &mut senv);
            slogs.push(senv.into_log());
        }
        logs.push_back((dlog, slogs));
    }
    (rec, logs)
}

/// Runs `job` on `input` under `cfg`: the one discrete-event loop every
/// front end drives. `pause` adds a pause schedule ([`Pause`]); `None`
/// runs the job straight through. A panic anywhere in the run — in a UDF,
/// a pause hook or an execution-layer worker — returns as
/// [`Error::Panicked`] instead of unwinding into the caller.
pub fn run_job(
    job: &dyn Job,
    cfg: &JobConfig,
    input: &JobInput,
    pause: Option<Pause<'_>>,
) -> Result<JobOutcome> {
    cfg.validate()?;
    if input.is_empty() {
        return Err(Error::job("job input is empty"));
    }
    std::panic::catch_unwind(AssertUnwindSafe(|| run_loop(job, cfg, input, pause)))
        .unwrap_or_else(|panic| Err(Error::panicked(panic_message(panic.as_ref()))))
}

#[allow(clippy::too_many_lines)]
fn run_loop(
    job: &dyn Job,
    cfg: &JobConfig,
    input: &JobInput,
    pause: Option<Pause<'_>>,
) -> Result<JobOutcome> {
    let JobConfig {
        framework,
        ref spec,
        exec,
        km_hint,
        early_stop_coverage: early_stop,
        ref snapshot_points,
        dinc_monitor,
        admission,
        combine,
        ref faults,
        trace,
    } = *cfg;
    let hw = &spec.hardware;
    let n_nodes = hw.nodes;
    let n_reducers = spec.total_reducers();
    let family = HashFamily::new(spec.hash_seed);
    let h1 = family.fn_at(0);

    // Snapshot points are validated finite fractions in [0, 1].
    let mut snapshots: Vec<f64> = snapshot_points.to_vec();
    snapshots.sort_by(f64::total_cmp);

    // Split the input into chunks, HDFS-style.
    let store = BlockStore::split(
        input.records.iter().map(|r| r.len() as u64),
        spec.system.chunk_size,
        n_nodes,
    );

    // The scheduler thread doubles as a worker, so `threads` total. The
    // effective count is capped at the host's cores unless the config
    // explicitly oversubscribes: surplus threads would only time-slice,
    // and the outcome is bit-identical at any count anyway.
    let workers = exec.effective_threads().saturating_sub(1);

    let (quotas, mut hook, resume) = match pause {
        Some(p) => (p.quotas, Some(p.hook), p.resume),
        None => (Vec::new(), None, None),
    };
    if hook.is_some() && (combine.is_node() || !snapshots.is_empty()) {
        return Err(Error::job(
            "a paused run supports neither node-level combining nor \
             snapshots: their staging is not part of the loop state",
        ));
    }
    let num_chunks = store.num_chunks();
    let mut done = vec![false; num_chunks];
    for &chunk in resume.iter().flat_map(|st| &st.done) {
        done[chunk] = true;
    }
    let mut pauses = Pauses::new(quotas, done);

    // Speculative map-task planning: plans are pure functions of the
    // chunk index, so the pool computes a window of them ahead of the
    // scheduler. The planner indexes the chunks still to run by dense
    // position. Declared outside the execution scope: the planner's
    // closures capture all of this by reference and outlive the scope's
    // inner locals.
    let poison_on = faults.poison_enabled();
    let compute_plan = |chunk: usize| {
        let c = &store.chunks()[chunk];
        compute_map_task(
            job,
            framework,
            &input.records[c.range.clone()],
            c.bytes,
            spec,
            h1,
            admission,
            combine,
            poison_on.then_some(PoisonGate {
                faults: *faults,
                base: c.range.start as u64,
            }),
        )
    };
    let plan_chunks: Vec<usize> = (0..num_chunks).filter(|&c| !pauses.done[c]).collect();
    let mut plan_pos: Vec<Option<usize>> = vec![None; num_chunks];
    for (pos, &chunk) in plan_chunks.iter().enumerate() {
        plan_pos[chunk] = Some(pos);
    }
    let compute_plan_at = |pos: usize| compute_plan(plan_chunks[pos]);

    std::thread::scope(|scope| -> Result<JobOutcome> {
        let pool = Pool::new(scope, workers);

        let separate_spill = spec.cost.spill_disk != spec.cost.hdfs_disk;
        let mut res = Resources::new(n_nodes, hw.map_slots.max(hw.reduce_slots), separate_spill);
        if trace {
            res.enable_trace();
        }
        let mut progress = ProgressTracker::new(num_chunks as u64);

        // Fault-injection state. All decisions and recovery charging run
        // on this (scheduling) thread in event order, so the failure trace
        // and the recovered outcome are thread-count invariant.
        let fault_on = faults.enabled();
        let fplan = if fault_on {
            Some(FaultPlan::new(*faults))
        } else {
            None
        };
        let mut freport = FaultReport::default();
        if faults.spill_error_rate > 0.0 {
            res.set_disk_faults(DiskFaultInjector::new(
                faults.seed,
                faults.spill_error_rate,
                faults.max_retries,
            ));
        }
        // Pure map-task plans stashed by failed/straggling attempts for
        // reuse by their retry (the plan is a function of the chunk alone).
        let mut plan_stash: Vec<Option<crate::map_phase::MapTaskPlan>> =
            (0..num_chunks).map(|_| None).collect();
        // Per-reducer effect history for crash-recovery re-replay (kept
        // only when reduce crashes can fire; a resumed run starts empty).
        let track_history = faults.reduce_failure_rate > 0.0;
        let mut history: Vec<Vec<Effect>> = vec![Vec::new(); n_reducers];

        // Reducer sizing from job hints.
        let expected_input =
            ((input.total_bytes() as f64 * km_hint) / n_reducers as f64).ceil() as u64;
        let expected_keys = job
            .expected_keys()
            .map(|k| (k / n_reducers as u64).max(1))
            .unwrap_or(expected_input / 64);
        let sizing = ReducerSizing {
            expected_input,
            expected_keys,
            state_size: job.state_size_hint().unwrap_or(64),
            early_stop_coverage: early_stop,
            monitor: dinc_monitor,
            admission,
        };
        let mut reducers = Vec::with_capacity(n_reducers);
        for _ in 0..n_reducers {
            reducers.push(Some(make_reducer(framework, job, spec, sizing, &family)?));
        }
        let reducer_node = |r: usize| r % n_nodes;
        // Wave assignment: the first `reduce_slots` reducers per node start
        // at time zero; the rest queue their deliveries.
        let wave1_per_node = hw.reduce_slots;
        let started: Vec<bool> = (0..n_reducers)
            .map(|r| (r / n_nodes) < wave1_per_node)
            .collect();

        // Scheduler state: seeded fresh, or from the resumed state.
        let mut c = LoopCounters::new(n_nodes, n_reducers);
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_nodes];
        let mut deferred: Vec<Vec<(usize, Payload)>> = vec![Vec::new(); n_reducers];
        let mut output: Vec<Pair> = Vec::new();
        let mut now = SimTime::ZERO;
        match resume {
            None => {
                for (i, chunk) in store.chunks().iter().enumerate() {
                    pending[chunk.node].push_back(i);
                }
                for node_pending in pending.iter_mut() {
                    for _ in 0..hw.map_slots {
                        if let Some(chunk) = node_pending.pop_front() {
                            queue.push(SimTime::ZERO, Event::StartMap { chunk, attempt: 0 });
                        }
                    }
                }
            }
            Some(st) => {
                for (t, ev) in st.queue {
                    if let Event::Deliver { chunk, .. } = ev {
                        pauses.shipped(chunk);
                    }
                    queue.push(t, ev);
                }
                pending = st.pending.into_iter().map(VecDeque::from).collect();
                res.restore_disk_free(&st.disk_free);
                // Progress accounting restarts at the resume instant;
                // pre-seeding completed maps keeps the map curve's
                // end-state (100 %) truthful.
                for _ in &st.done {
                    progress.map_done(SimTime::ZERO);
                }
                now = st.counters.map_finish;
                c = st.counters;
                deferred = st.deferred;
                output = st.output;
                for (r, ckpt) in st.reducers.into_iter().enumerate() {
                    reducers[r]
                        .as_mut()
                        .expect("reducer in place")
                        .import_state(ckpt)?;
                }
            }
        }

        let planner: Planner<crate::map_phase::MapTaskPlan> =
            Planner::new(plan_chunks.len(), workers * 2 + 2);
        planner.prime(&pool, compute_plan_at);

        let mut snapshot_bytes = vec![0u64; n_reducers];
        let mut next_snapshot = 0usize;
        let mut snapshots_taken = vec![0usize; n_reducers];
        let mut dlq: Vec<PoisonedRecord> = Vec::new();

        // `CombineScope::Node`: per-node pre-shuffle staging. Committed map
        // granules land in a per-node hash-indexed table (probed by the
        // carried h1 fingerprints) instead of booking shuffle bytes; the
        // table drains at two deterministic flush points — the node's last
        // committed map task, and a post-combine byte budget
        // (`ClusterSpec::node_combine_buffer`). Staging runs entirely on
        // this scheduling thread in event order, so the outcome stays
        // thread-count invariant like the rest of the scheduler. A node
        // scope without a combiner (or `init/cb` for the incremental
        // frameworks) degenerates to task scope: nothing to merge with.
        let node_merge: Option<NodeMerge<'_>> = if combine.is_node() {
            if framework.is_incremental() {
                job.incremental().map(NodeMerge::States)
            } else {
                job.combiner().map(NodeMerge::Pairs)
            }
        } else {
            None
        };
        // Staged rows in first-seen order: (partition, h1 fingerprint, key,
        // value-or-state). First-seen order makes the rebuilt payloads a
        // pure function of the commit sequence.
        let mut stage_rows: Vec<Vec<(usize, u64, opa_common::Key, opa_common::Value)>> =
            vec![Vec::new(); n_nodes];
        let mut stage_index: Vec<GroupIndex> = (0..n_nodes)
            .map(|_| GroupIndex::with_capacity(64))
            .collect();
        let mut stage_bytes = vec![0u64; n_nodes]; // resident, post-combine
        let mut stage_in = vec![0u64; n_nodes]; // offered since last flush, pre-combine
        let mut stage_merges = vec![0u64; n_nodes]; // cb/fold calls since last flush
        let mut stage_ctx: Vec<crate::api::ReduceCtx> = (0..n_nodes)
            .map(|_| crate::api::ReduceCtx::at_site(crate::api::Site::Map))
            .collect();
        // Committed-chunk countdown per node: the node's table takes its
        // final flush when the last of its chunks commits. Failed and
        // straggling attempts `continue` before the commit path, so the
        // countdown moves only at the committing attempt.
        let mut stage_outstanding: Vec<usize> = vec![0; n_nodes];
        if node_merge.is_some() {
            for chunk in store.chunks() {
                stage_outstanding[chunk.node] += 1;
            }
        }
        let mut nc_stats = crate::metrics::NodeCombineStats::default();
        // Burst scratch, reused across iterations.
        let mut mail_of: Vec<Option<usize>> = vec![None; n_reducers];
        let mut log_q: Vec<MailboxLogs> = (0..n_reducers).map(|_| VecDeque::new()).collect();

        macro_rules! target {
            ($r:expr) => {
                ReplayTarget {
                    node: reducer_node($r),
                    res: &mut res,
                    progress: &mut progress,
                    output: &mut output,
                    reduce_cpu: &mut c.reduce_cpu[$r],
                    spill_written: &mut c.spill_written_reduce[$r],
                    snapshot_bytes: &mut snapshot_bytes[$r],
                }
            };
        }

        // Books the shuffle transfer of `$payload` from node `$node`, sent
        // at `$t` by chunk `$chunk`'s map task, to reducer `$r`, and queues
        // its delivery. Evaluates to the bytes shipped.
        macro_rules! ship {
            ($node:expr, $t:expr, $r:expr, $chunk:expr, $payload:expr) => {{
                let (node, t, r, chunk, payload): (usize, SimTime, usize, usize, Payload) =
                    ($node, $t, $r, $chunk, $payload);
                let bytes = payload.bytes();
                let arrival = t + spec.cost.net_time(bytes);
                res.span(node, OpKind::Shuffle, t, arrival);
                res.emit(TraceEvent::Shuffle {
                    t0: t.0,
                    t: arrival.0,
                    from_node: node as u32,
                    reducer: r as u32,
                    bytes,
                });
                pauses.shipped(chunk);
                queue.push(
                    arrival,
                    Event::Deliver {
                        reducer: r,
                        from_node: node,
                        chunk,
                        payload,
                    },
                );
                bytes
            }};
        }

        // Drains one node's staging table at flush time `$t`: charge the
        // accumulated cross-task merge CPU, rebuild per-partition payloads
        // in first-seen row order, and book the (post-combine) shuffle
        // transfers exactly as the direct path would have.
        macro_rules! flush_node {
            ($node:expr, $t:expr, $chunk:expr) => {{
                let fnode: usize = $node;
                if !stage_rows[fnode].is_empty() {
                    let t0: SimTime = $t;
                    let rows = std::mem::take(&mut stage_rows[fnode]);
                    stage_index[fnode].clear();
                    stage_bytes[fnode] = 0;
                    let bytes_in = std::mem::take(&mut stage_in[fnode]);
                    let merges = std::mem::take(&mut stage_merges[fnode]);
                    let cb_cpu = spec.cost.cb_time(merges);
                    let t1 = res.cpu(fnode, t0, cb_cpu);
                    c.map_cpu[fnode] += cb_cpu;
                    let states_mode = matches!(node_merge, Some(NodeMerge::States(_)));
                    let cap = rows.len() / n_reducers + 1;
                    let mut payloads: Vec<Payload> = (0..n_reducers)
                        .map(|_| {
                            if states_mode {
                                Payload::States(StateBatch::with_capacity(cap))
                            } else {
                                Payload::Pairs(RecordBatch::with_capacity(cap))
                            }
                        })
                        .collect();
                    let keys = rows.len() as u64;
                    for (part, h, key, value) in rows {
                        match &mut payloads[part] {
                            Payload::Pairs(b) => b.push_hashed(Pair::new(key, value), h),
                            Payload::States(b) => b.push_hashed(StatePair::new(key, value), h),
                        }
                    }
                    let mut bytes_out = 0u64;
                    for (r, payload) in payloads.into_iter().enumerate() {
                        if payload.is_empty() {
                            continue;
                        }
                        bytes_out += ship!(fnode, t1, r, $chunk, payload);
                    }
                    c.shuffle_bytes += bytes_out;
                    nc_stats.flushes += 1;
                    nc_stats.staged_bytes += bytes_in;
                    nc_stats.flushed_bytes += bytes_out;
                    res.emit(TraceEvent::NodeCombine {
                        t0: t0.0,
                        t: t1.0,
                        node: fnode as u32,
                        bytes_in,
                        bytes_out,
                        keys,
                    });
                }
            }};
        }

        // Reduce-task crash check before reducer `$r` absorbs a delivery at
        // `$t0`: a crashed reducer backs off, then re-replays its recorded
        // history in time-only mode to rebuild the lost in-memory state.
        // Evaluates to the instant the reducer can absorb the delivery.
        macro_rules! crash_check {
            ($r:expr, $t0:expr) => {{
                let (r, mut t0): (usize, SimTime) = ($r, $t0);
                if let Some(fp) = &fplan {
                    if fp.reduce_crashes(r, c.delivery_seq[r], c.crash_count[r]) {
                        c.crash_count[r] += 1;
                        freport.reduce_failures += 1;
                        let backoff = faults.backoff(c.crash_count[r]);
                        book_fault(
                            &mut freport,
                            &mut res,
                            FaultKind::ReduceFailure,
                            r as u64,
                            c.crash_count[r] - 1,
                            t0,
                            t0 + backoff,
                        );
                        let recov = replay_recovery(
                            &history[r],
                            t0 + backoff,
                            spec,
                            reducer_node(r),
                            &mut res,
                        );
                        freport.wasted_bytes += recov.wasted_bytes;
                        freport.wasted_cpu += recov.wasted_cpu;
                        freport.recovery_time += recov.ready_at.saturating_since(t0);
                        t0 = recov.ready_at;
                    }
                    c.delivery_seq[r] += 1;
                }
                t0
            }};
        }

        // Main event loop. Due pauses are taken before each pop, so a hook
        // observes the state between two events and never perturbs the
        // event sequence; once the queue drains, the last pauses are
        // taken and the loop exits.
        loop {
            while pauses.due() {
                if let Some(hook) = hook.as_mut() {
                    hook(&mut LoopCtl {
                        now,
                        counters: &c,
                        reducers: &reducers,
                        res: &mut res,
                        queue: &mut queue,
                        pending: &pending,
                        done: &pauses.done,
                        deferred: &deferred,
                        output: &output,
                    })?;
                }
                pauses.advance();
            }
            let Some((t, ev)) = queue.pop() else { break };
            now = t;
            match ev {
                Event::StartMap { chunk, attempt } => {
                    let node = store.chunks()[chunk].node;
                    res.emit(TraceEvent::MapStart {
                        t: t.0,
                        chunk: chunk as u32,
                        attempt,
                        node: node as u32,
                    });
                    // Retries reuse the stashed pure plan; the planner only
                    // hands out each chunk's first-execution plan.
                    let plan = if attempt == 0 {
                        let pos = plan_pos[chunk].expect("first attempt of an undone chunk");
                        planner.take(pos, &pool, compute_plan_at)
                    } else {
                        plan_stash[chunk]
                            .take()
                            .unwrap_or_else(|| compute_plan(chunk))
                    };
                    match fplan
                        .as_ref()
                        .map_or(MapFate::Ok, |p| p.map_fate(chunk, attempt))
                    {
                        MapFate::Fail { frac } => {
                            // The attempt dies partway: charge the prefix
                            // as waste, back off, retry on the same slot.
                            let waste = abort_map_task(&plan, frac, node, t, spec, &mut res);
                            let backoff = faults.backoff(attempt + 1);
                            freport.map_failures += 1;
                            freport.map_retries += 1;
                            freport.wasted_cpu += waste.wasted_cpu;
                            freport.wasted_bytes += waste.wasted_bytes;
                            freport.recovery_time += (waste.fail_time - t) + backoff;
                            book_fault(
                                &mut freport,
                                &mut res,
                                FaultKind::MapFailure,
                                chunk as u64,
                                attempt,
                                waste.fail_time,
                                waste.fail_time + backoff,
                            );
                            plan_stash[chunk] = Some(plan);
                            queue.push(
                                waste.fail_time + backoff,
                                Event::StartMap {
                                    chunk,
                                    attempt: attempt + 1,
                                },
                            );
                            continue;
                        }
                        MapFate::Straggle { factor } => {
                            // The attempt limps along at factor× CPU cost;
                            // at the nominal-duration horizon the scheduler
                            // launches a speculative backup whose output is
                            // the one committed. Everything the straggler
                            // did is waste.
                            let nominal = plan.nominal_duration(spec);
                            let waste = straggle_map_task(&plan, factor, node, t, spec, &mut res);
                            let detect = t + nominal;
                            freport.stragglers += 1;
                            freport.speculative_wins += 1;
                            freport.wasted_cpu += waste.wasted_cpu;
                            freport.wasted_bytes += waste.wasted_bytes;
                            freport.recovery_time += waste.fail_time.saturating_since(detect);
                            book_fault(
                                &mut freport,
                                &mut res,
                                FaultKind::Straggler,
                                chunk as u64,
                                attempt,
                                detect,
                                detect,
                            );
                            plan_stash[chunk] = Some(plan);
                            queue.push(
                                detect,
                                Event::StartMap {
                                    chunk,
                                    attempt: attempt + 1,
                                },
                            );
                            continue;
                        }
                        MapFate::Ok => {}
                    }
                    let result = finish_map_task(plan, node, t, spec, &mut res);
                    // Quarantine the chunk's poisoned records exactly once,
                    // at the committing attempt: the record, its offset and
                    // the attempt number are the DLQ's provenance.
                    for &(offset, ref record) in &result.poisoned {
                        freport.udf_poisoned += 1;
                        freport.trace.push(FaultEvent {
                            time: result.finish,
                            kind: FaultKind::UdfPoison,
                            target: offset,
                            attempt,
                        });
                        res.emit(TraceEvent::Poison {
                            t: result.finish.0,
                            chunk: chunk as u32,
                            offset,
                            attempt,
                        });
                        dlq.push(PoisonedRecord {
                            chunk: chunk as u32,
                            attempt,
                            offset,
                            record: record.clone(),
                        });
                    }
                    res.emit(TraceEvent::MapFinish {
                        t0: t.0,
                        t: result.finish.0,
                        chunk: chunk as u32,
                        node: node as u32,
                        cpu: result.cpu.0,
                        output_bytes: result.output_bytes,
                        spill_bytes: result.spill_bytes,
                    });
                    c.map_cpu[node] += result.cpu;
                    c.spill_written_map += result.spill_bytes;
                    c.map_output_bytes += result.output_bytes;
                    c.map_finish = c.map_finish.max(result.finish);
                    progress.map_done(result.finish);
                    c.maps_completed += 1;
                    pauses.committed(chunk);
                    // MapReduce Online snapshots fire when map progress
                    // crosses a requested point; each reducer takes its
                    // snapshot at the next delivery it processes ("when
                    // reducers have received X% of the data").
                    while next_snapshot < snapshots.len()
                        && c.maps_completed as f64 >= snapshots[next_snapshot] * num_chunks as f64
                    {
                        next_snapshot += 1;
                    }
                    if !result.early_output.is_empty() {
                        let bytes: u64 = result.early_output.iter().map(Pair::size).sum();
                        progress.emitted(result.finish, bytes);
                        output.extend(result.early_output);
                    }
                    for granule in result.granules {
                        if let Some(merge) = node_merge {
                            let gt = granule.time;
                            let rows = &mut stage_rows[node];
                            let index = &mut stage_index[node];
                            for (r, payload) in granule.partitions.into_iter().enumerate() {
                                if payload.is_empty() {
                                    continue;
                                }
                                stage_in[node] += payload.bytes();
                                match (payload, merge) {
                                    (Payload::Pairs(batch), NodeMerge::Pairs(cb)) => {
                                        let (pairs, hashes) = batch.into_parts();
                                        for (i, p) in pairs.into_iter().enumerate() {
                                            let h = hashes
                                                .get(i)
                                                .copied()
                                                .unwrap_or_else(|| h1.hash(p.key.bytes()));
                                            match index.get(h, |row| rows[row].2 == p.key) {
                                                Some(row) => {
                                                    let slot = &mut rows[row];
                                                    let before = slot.3.len() as u64;
                                                    cb.fold(&slot.2, &mut slot.3, p.value);
                                                    stage_bytes[node] = stage_bytes[node]
                                                        + slot.3.len() as u64
                                                        - before;
                                                    stage_merges[node] += 1;
                                                    nc_stats.merged_rows += 1;
                                                }
                                                None => {
                                                    stage_bytes[node] += p.size();
                                                    index.insert(h, rows.len());
                                                    rows.push((r, h, p.key, p.value));
                                                }
                                            }
                                        }
                                    }
                                    (Payload::States(batch), NodeMerge::States(inc)) => {
                                        let ctx = &mut stage_ctx[node];
                                        let (states, hashes) = batch.into_parts();
                                        for (i, sp) in states.into_iter().enumerate() {
                                            let h = hashes
                                                .get(i)
                                                .copied()
                                                .unwrap_or_else(|| h1.hash(sp.key.bytes()));
                                            match index.get(h, |row| rows[row].2 == sp.key) {
                                                Some(row) => {
                                                    let slot = &mut rows[row];
                                                    let before = inc.state_mem_size(&slot.3);
                                                    inc.cb(&slot.2, &mut slot.3, sp.state, ctx);
                                                    let after = inc.state_mem_size(&slot.3);
                                                    stage_bytes[node] = (stage_bytes[node] + after)
                                                        .saturating_sub(before);
                                                    stage_merges[node] += 1;
                                                    nc_stats.merged_rows += 1;
                                                }
                                                None => {
                                                    stage_bytes[node] += sp.size();
                                                    index.insert(h, rows.len());
                                                    rows.push((r, h, sp.key, sp.state));
                                                }
                                            }
                                        }
                                    }
                                    _ => unreachable!("payload kind matches the merge mode"),
                                }
                            }
                            // Map-site early emissions from a cross-task
                            // `cb()` (e.g. a session closing across two
                            // chunks of the same node) route to job output
                            // exactly like task-level map-side emissions.
                            if stage_ctx[node].pending() > 0 {
                                let early = stage_ctx[node].drain();
                                let b: u64 = early.iter().map(Pair::size).sum();
                                let _ = res.hdfs_io(
                                    node,
                                    gt,
                                    IoCategory::ReduceOutput,
                                    IoOp::write(b),
                                    &spec.cost,
                                );
                                progress.emitted(gt, b);
                                output.extend(early);
                            }
                            if stage_bytes[node] > spec.node_combine_buffer {
                                flush_node!(node, gt, chunk);
                            }
                        } else {
                            for (r, payload) in granule.partitions.into_iter().enumerate() {
                                if payload.is_empty() {
                                    continue;
                                }
                                c.shuffle_bytes += ship!(node, granule.time, r, chunk, payload);
                            }
                        }
                    }
                    // Node scope: the last committed chunk on a node takes
                    // the node's final flush before freeing the slot.
                    if node_merge.is_some() {
                        stage_outstanding[node] -= 1;
                        if stage_outstanding[node] == 0 {
                            flush_node!(node, result.finish, chunk);
                        }
                    }
                    // Free the slot: schedule the node's next chunk.
                    if let Some(next) = pending[node].pop_front() {
                        queue.push(
                            result.finish,
                            Event::StartMap {
                                chunk: next,
                                attempt: 0,
                            },
                        );
                    }
                }
                Event::Deliver {
                    reducer,
                    from_node,
                    chunk,
                    payload,
                } => {
                    // Drain the maximal run of consecutive deliveries:
                    // processing a delivery never schedules new events, so
                    // everything up to the next StartMap can be recorded as
                    // one batch without changing the pop order.
                    // The run stops early once a pause is due, so the loop
                    // top observes it; grouping deliveries differently is
                    // output- and metric-transparent, as effect logs carry
                    // durations and ops, never absolute times, and replay
                    // still runs in pop order. Deliveries parked for the
                    // second wave count as absorbed.
                    pauses.absorbed(chunk);
                    let mut burst: Vec<(SimTime, usize, usize, Payload)> =
                        vec![(t, reducer, from_node, payload)];
                    while !pauses.due() && matches!(queue.peek(), Some((_, Event::Deliver { .. })))
                    {
                        let Some((
                            t2,
                            Event::Deliver {
                                reducer,
                                from_node,
                                chunk,
                                payload,
                            },
                        )) = queue.pop()
                        else {
                            unreachable!("peeked a delivery");
                        };
                        pauses.absorbed(chunk);
                        burst.push((t2, reducer, from_node, payload));
                    }

                    // Partition the burst into per-reducer mailboxes,
                    // preserving each reducer's arrival order; second-wave
                    // reducers defer as before.
                    let mut order: Vec<(usize, SimTime)> = Vec::with_capacity(burst.len());
                    let mut mailboxes: Vec<(usize, Vec<(Payload, usize)>)> = Vec::new();
                    let mut burst_bytes = 0u64;
                    for (t_ev, r, from, payload) in burst {
                        if !started[r] {
                            deferred[r].push((from, payload));
                            continue;
                        }
                        order.push((r, t_ev));
                        burst_bytes += payload.bytes();
                        let slot = match mail_of[r] {
                            Some(s) => s,
                            None => {
                                mail_of[r] = Some(mailboxes.len());
                                mailboxes.push((r, Vec::new()));
                                mailboxes.len() - 1
                            }
                        };
                        // Snapshots catch up after the first delivery a
                        // reducer processes past each snapshot point.
                        let snaps = if mailboxes[slot].1.is_empty() {
                            next_snapshot.saturating_sub(snapshots_taken[r])
                        } else {
                            0
                        };
                        mailboxes[slot].1.push((payload, snaps));
                    }
                    if mailboxes.is_empty() {
                        continue;
                    }

                    // Record the mailboxes, then replay in pop order.
                    // Recording is pure, so where it runs never shows in
                    // the outcome. A burst below one map chunk records on
                    // this thread: its mailboxes are microseconds of work,
                    // less than a handoff to the pool costs.
                    let tasks: Vec<_> = mailboxes
                        .into_iter()
                        .map(|(r, items)| {
                            mail_of[r] = None;
                            let rec = reducers[r].take().expect("reducer in place");
                            let est = c.ready_at[r];
                            move || (r, record_mailbox(rec, items, est, spec))
                        })
                        .collect();
                    let recorded = if burst_bytes < spec.system.chunk_size {
                        tasks.into_iter().map(|task| task()).collect()
                    } else {
                        pool.fan_out(tasks)?
                    };
                    for (r, (rec, logs)) in recorded {
                        reducers[r] = Some(rec);
                        log_q[r] = logs;
                    }
                    for (r, t_ev) in order {
                        let (dlog, slogs) = log_q[r].pop_front().expect("one log per delivery");
                        let t0 = crash_check!(r, c.ready_at[r].max(t_ev));
                        if track_history {
                            history[r].extend(dlog.iter().cloned());
                            for slog in &slogs {
                                history[r].extend(slog.iter().cloned());
                            }
                        }
                        c.ready_at[r] = replay(dlog, t0, spec, target!(r));
                        for slog in slogs {
                            snapshots_taken[r] += 1;
                            c.ready_at[r] = replay(slog, c.ready_at[r], spec, target!(r));
                        }
                    }
                }
            }
        }

        // Books reducer `$r` finishing at `$done`: its trace events and its
        // DINC and admission stats.
        let mut dinc_total: Option<crate::metrics::DincStats> = None;
        let mut admission_total: Option<crate::metrics::AdmissionStats> = None;
        let map_finish = c.map_finish;
        let mut end = map_finish;
        macro_rules! reducer_finished {
            ($r:expr, $rec:expr, $done:expr) => {{
                let (r, rec, done): (usize, Box<dyn ReduceSide + Send + '_>, SimTime) =
                    ($r, $rec, $done);
                res.emit(TraceEvent::ReduceFinish {
                    t: done.0,
                    reducer: r as u32,
                    node: reducer_node(r) as u32,
                });
                if let Some(st) = rec.dinc_stats() {
                    let acc = dinc_total.get_or_insert_with(Default::default);
                    acc.slots_per_reducer = st.slots_per_reducer;
                    acc.offered += st.offered;
                    acc.rejected += st.rejected;
                    acc.evict_output += st.evict_output;
                    acc.evict_spilled += st.evict_spilled;
                }
                if let Some(st) = rec.admission_stats() {
                    admission_total
                        .get_or_insert_with(Default::default)
                        .merge(&st);
                    if admission.is_on() {
                        res.emit(TraceEvent::Admission {
                            t: done.0,
                            reducer: r as u32,
                            offered: st.offered,
                            absorbed: st.absorbed,
                            evictions: st.admitted_evictions,
                            rejected: st.rejected,
                        });
                    }
                }
                reducers[r] = Some(rec);
                end = end.max(done);
            }};
        }

        // Finish wave-one reducers: record in parallel, replay in reducer
        // order (identical to the sequential engine's iteration order).
        let mut node_wave1_finish: Vec<Vec<SimTime>> = vec![Vec::new(); n_nodes];
        let wave1: Vec<usize> = (0..n_reducers).filter(|&r| started[r]).collect();
        let finish_tasks: Vec<_> = wave1
            .iter()
            .map(|&r| {
                let mut rec = reducers[r].take().expect("reducer in place");
                let est = c.ready_at[r].max(map_finish);
                move || {
                    let mut env = ReduceEnv::new(spec);
                    rec.finish(est, &mut env);
                    (rec, env.into_log())
                }
            })
            .collect();
        for ((rec, log), &r) in pool.fan_out(finish_tasks)?.into_iter().zip(&wave1) {
            let t0 = c.ready_at[r].max(map_finish);
            let done = replay(log, t0, spec, target!(r));
            node_wave1_finish[reducer_node(r)].push(done);
            reducer_finished!(r, rec, done);
        }

        // Second-wave reducers: start when a first-wave reducer on their
        // node finishes, re-reading their map output from the mappers'
        // disks. This stays sequential by design — each arrival time
        // depends on shared disk queues, which is a scheduling decision.
        for node_times in node_wave1_finish.iter_mut() {
            node_times.sort_unstable();
        }
        let mut wave_cursor = vec![0usize; n_nodes];
        for r in 0..n_reducers {
            if started[r] {
                continue;
            }
            let node = reducer_node(r);
            let slot_times = &node_wave1_finish[node];
            let start = if slot_times.is_empty() {
                map_finish
            } else {
                let i = wave_cursor[node].min(slot_times.len() - 1);
                wave_cursor[node] += 1;
                slot_times[i]
            };
            res.emit(TraceEvent::ReduceStart {
                t: start.0,
                reducer: r as u32,
                node: node as u32,
            });
            let mut t = start;
            let deliveries = std::mem::take(&mut deferred[r]);
            // The mappers finished long ago: their output must come off
            // disk. Fetches from distinct source nodes proceed in parallel
            // (the shuffle's parallel fetch threads); each source disk
            // serves its own reads sequentially.
            let mut arrivals: Vec<(SimTime, Payload)> = deliveries
                .into_iter()
                .map(|(from_node, payload)| {
                    let op = IoOp::read(payload.bytes());
                    let read_done =
                        res.spill_io(from_node, start, IoCategory::MapOutput, op, &spec.cost);
                    (read_done + spec.cost.net_time(payload.bytes()), payload)
                })
                .collect();
            arrivals.sort_by_key(|&(at, _)| at);
            let mut rec = reducers[r].take().expect("reducer in place");
            for (arrival, payload) in arrivals {
                let t0 = crash_check!(r, t.max(arrival));
                let mut env = ReduceEnv::new(spec);
                rec.on_delivery(t0, payload, &mut env);
                let dlog = env.into_log();
                if track_history {
                    history[r].extend(dlog.iter().cloned());
                }
                t = replay(dlog, t0, spec, target!(r));
            }
            let mut env = ReduceEnv::new(spec);
            rec.finish(t, &mut env);
            let done = replay(env.into_log(), t, spec, target!(r));
            reducer_finished!(r, rec, done);
        }

        // Assemble the outcome.
        let fault_report = if fault_on || poison_on {
            if let Some(inj) = res.take_disk_faults() {
                freport.spill_io_errors = inj.errors();
                freport.wasted_bytes += inj.wasted_bytes();
                freport.trace.extend(inj.into_trace());
            }
            freport.sort_trace();
            Some(freport)
        } else {
            None
        };
        let output_bytes: u64 = output.iter().map(Pair::size).sum();
        let total_reduce_cpu: SimDuration = c.reduce_cpu.iter().copied().sum();
        let total_map_cpu: SimDuration = c.map_cpu.iter().copied().sum();
        let metrics = JobMetrics {
            framework: framework.label().to_string(),
            job: job.name().to_string(),
            running_time: end,
            map_finish,
            input_bytes: input.total_bytes(),
            map_output_bytes: c.map_output_bytes,
            map_spill_bytes: c.spill_written_map,
            reduce_spill_bytes: c.spill_written_reduce.iter().sum(),
            output_bytes,
            snapshot_bytes: snapshot_bytes.iter().sum(),
            output_records: output.len() as u64,
            map_cpu_per_node: SimDuration(total_map_cpu.0 / n_nodes as u64),
            reduce_cpu_per_node: SimDuration(total_reduce_cpu.0 / n_nodes as u64),
            io: res.io.clone(),
            io_recovery: res.io_recovery.clone(),
            dinc: dinc_total,
            admission: admission_total,
            faults: fault_report,
            shuffle_bytes: c.shuffle_bytes,
            node_combine: node_merge.is_some().then_some(nc_stats),
        };
        let trace_log = res.take_trace();
        Ok(JobOutcome {
            metrics,
            progress: progress.finish(end, PROGRESS_POINTS),
            timeline: std::mem::take(&mut res.timeline),
            usage: res.usage,
            output,
            trace: trace_log,
            dlq,
        })
    })
}

/// Books one injected fault at `at` and the retry it triggers at
/// `retry_at`: the fault report's trace entry plus the `fault` and
/// `retry` trace events.
fn book_fault(
    freport: &mut FaultReport,
    res: &mut Resources,
    kind: FaultKind,
    target: u64,
    attempt: u32,
    at: SimTime,
    retry_at: SimTime,
) {
    freport.trace.push(FaultEvent {
        time: at,
        kind,
        target,
        attempt,
    });
    res.emit(TraceEvent::Fault {
        t: at.0,
        kind,
        target,
        attempt,
    });
    res.emit(TraceEvent::Retry {
        t: retry_at.0,
        kind,
        target,
        attempt: attempt + 1,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ReduceCtx;
    use opa_common::{Key, Value};

    struct Echo;
    impl Job for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
            emit(&record[..1], record);
        }
        fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
            ctx.emit(key.clone(), Value::from_u64(values.len() as u64));
        }
    }

    fn input(n: usize) -> JobInput {
        JobInput::from_records((0..n).map(|i| vec![(i % 17) as u8, b'a', b'b']).collect())
    }

    #[test]
    fn job_input_constructors() {
        let text = JobInput::from_text("one\n\ntwo\nthree\n");
        assert_eq!(text.len(), 3);
        assert_eq!(text.total_bytes(), 11);
        let recs = input(4);
        assert_eq!(recs.len(), 4);
        assert!(!recs.is_empty());
    }

    #[test]
    fn second_wave_reducers_slow_the_job() {
        // §3.2(3): with R above the reduce-slot count, the second wave
        // must re-read map output from disk — R=8 ran slower than R=4 in
        // the paper (4723 s vs 4187 s).
        let data = input(3000);
        let mut spec = crate::cluster::ClusterSpec::paper_scaled();
        spec.system.chunk_size = 1024;
        let run = |r: usize| {
            let mut s = spec;
            s.system.reducers_per_node = r;
            JobBuilder::new(Echo)
                .cluster(s)
                .run(&data)
                .expect("job runs")
                .metrics
                .running_time
        };
        let wave1 = run(4);
        let wave2 = run(8);
        assert!(
            wave2 > wave1,
            "two waves should be slower: R=4 {wave1}, R=8 {wave2}"
        );
    }

    #[test]
    fn single_chunk_job_works() {
        let data = input(3);
        let outcome = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .run(&data)
            .expect("job runs");
        assert_eq!(outcome.metrics.output_records, 3); // 3 distinct first bytes
        assert_eq!(outcome.progress.points.last().unwrap().map_pct, 100.0);
    }

    #[test]
    fn sorted_output_is_canonical() {
        let data = input(100);
        let a = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .framework(crate::cluster::Framework::MrHash)
            .run(&data)
            .expect("job runs");
        let b = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .framework(crate::cluster::Framework::SortMerge)
            .run(&data)
            .expect("job runs");
        assert_eq!(a.sorted_output(), b.sorted_output());
    }

    #[test]
    fn parallel_execution_is_bit_identical() {
        // The full determinism matrix lives in tests/determinism.rs; this
        // is the smoke check closest to the scheduler.
        let data = input(800);
        let mut spec = crate::cluster::ClusterSpec::paper_scaled();
        spec.system.chunk_size = 512;
        let run = |threads: usize| {
            JobBuilder::new(Echo)
                .cluster(spec)
                .framework(crate::cluster::Framework::SortMergePipelined)
                .exec(opa_common::ExecConfig::oversubscribed(threads))
                .run(&data)
                .expect("job runs")
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn invalid_snapshot_points_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -0.25, 1.5] {
            let r = JobBuilder::new(Echo)
                .cluster(crate::cluster::ClusterSpec::tiny())
                .snapshot_points(&[0.5, bad])
                .run(&input(10));
            assert!(r.is_err(), "snapshot point {bad} must be rejected");
        }
        // Boundary values are fine.
        JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .snapshot_points(&[0.0, 1.0])
            .run(&input(10))
            .expect("boundary snapshot points are valid");
    }

    #[test]
    fn zero_threads_rejected() {
        let r = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .threads(0)
            .run(&input(10));
        assert!(r.is_err(), "threads = 0 is invalid");
    }

    #[test]
    fn dinc_stats_reported_only_for_dinc() {
        use crate::api::IncrementalReducer;
        #[derive(Clone)]
        struct CountInc;
        impl Job for CountInc {
            fn name(&self) -> &str {
                "count"
            }
            fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
                emit(&record[..1], &1u64.to_be_bytes());
            }
            fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
                ctx.emit(key.clone(), Value::from_u64(values.len() as u64));
            }
            fn incremental(&self) -> Option<&dyn IncrementalReducer> {
                Some(self)
            }
        }
        impl IncrementalReducer for CountInc {
            fn init(&self, _k: &Key, v: Value) -> Value {
                v
            }
            fn cb(&self, _k: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
                *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + other.as_u64().unwrap_or(0));
            }
            fn finalize(&self, k: &Key, state: Value, ctx: &mut ReduceCtx) {
                ctx.emit(k.clone(), state);
            }
        }
        let data = input(500);
        let dinc = JobBuilder::new(CountInc)
            .framework(crate::cluster::Framework::DincHash)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .run(&data)
            .expect("job runs");
        let stats = dinc.metrics.dinc.expect("DINC reports monitor stats");
        assert!(stats.slots_per_reducer > 0);
        // Map-side combining collapses each chunk to its distinct keys
        // (17 here), so the monitor sees one tuple per (chunk, key).
        assert!(stats.offered >= 17 && stats.offered <= 500, "{stats:?}");
        let inc = JobBuilder::new(CountInc)
            .framework(crate::cluster::Framework::IncHash)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .run(&data)
            .expect("job runs");
        assert!(inc.metrics.dinc.is_none());
    }

    #[test]
    fn snapshots_cost_time_and_produce_output() {
        let data = input(2000);
        let mut spec = crate::cluster::ClusterSpec::paper_scaled();
        spec.system.chunk_size = 1024;
        let plain = JobBuilder::new(Echo)
            .framework(crate::cluster::Framework::SortMergePipelined)
            .cluster(spec)
            .run(&data)
            .expect("job runs");
        let snap = JobBuilder::new(Echo)
            .framework(crate::cluster::Framework::SortMergePipelined)
            .cluster(spec)
            .snapshot_points(&[0.25, 0.5, 0.75])
            .run(&data)
            .expect("job runs");
        assert_eq!(plain.metrics.snapshot_bytes, 0);
        assert!(snap.metrics.snapshot_bytes > 0, "snapshots must emit");
        assert!(
            snap.metrics.running_time > plain.metrics.running_time,
            "repeating the merge must cost time: {} vs {}",
            snap.metrics.running_time,
            plain.metrics.running_time
        );
        // The final answer is unaffected by snapshotting.
        assert_eq!(plain.sorted_output(), snap.sorted_output());
    }

    #[test]
    fn invalid_cluster_rejected() {
        let mut spec = crate::cluster::ClusterSpec::tiny();
        spec.system.merge_factor = 1;
        let r = JobBuilder::new(Echo).cluster(spec).run(&input(4));
        assert!(r.is_err());
    }
}
