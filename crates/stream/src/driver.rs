//! The micro-batch stream driver: the engine's discrete-event loop with
//! pause points.
//!
//! The driver replays [`opa_core`]'s job loop event-for-event — same event
//! queue, same mailbox recording on the execution layer, same replay in
//! pop order — and adds *pause points* between micro-batches. The input's
//! arrival order is split into `k` contiguous batches; batch `b` seals at
//! the first instant when every chunk containing a record below the
//! batch boundary has completed its map task **and** every shuffle
//! delivery originating from those chunks has been absorbed. Deliveries
//! from *later* chunks may still be in flight — the map waves pipeline
//! into the reduce side continuously, so demanding full quiescence would
//! push every seal to the end of the run. At a seal the reducer state
//! therefore covers at least the watermark (and possibly some records
//! beyond it), the user callback runs against that live state
//! ([`BatchCtl`]), and a checkpoint can be taken: pending map starts
//! *and* in-flight deliveries both serialize, payloads included.
//!
//! Because sealing never reorders, drops or injects events — it only
//! *observes* between two queue pops — the streamed run's event sequence
//! is literally identical to the one-shot batch run's, so the final
//! output is bit-identical to [`opa_core::job::JobBuilder::run`] at any
//! thread count and any `k`.

use crate::checkpoint::{DeferredDelivery, Fingerprint, QueuedEvent, SavedState};
use crate::query::{BatchCtl, LiveView, StreamProgress};
use opa_common::fault::{FaultConfig, FaultEvent, FaultKind, FaultReport};
use opa_common::units::{SimDuration, SimTime};
use opa_common::{Error, ExecConfig, HashFamily, Pair, Result, StreamConfig};
use opa_core::api::Job;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::exec::{Gather, Planner, Pool};
use opa_core::fault::{FaultPlan, MapFate};
use opa_core::job::{JobInput, JobOutcome, PoisonedRecord};
use opa_core::map_phase::{
    abort_map_task, compute_map_task, finish_map_task, straggle_map_task, Payload, PoisonGate,
};
use opa_core::metrics::JobMetrics;
use opa_core::progress::ProgressTracker;
use opa_core::reduce::{
    make_reducer, replay, replay_recovery, Effect, ReduceEnv, ReducerSizing, ReplayTarget,
};
use opa_core::sim::{EventQueue, OpKind, Resources};
use opa_simio::{BlockStore, DiskFaultInjector, IoCategory, IoOp};
use opa_trace::TraceEvent;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// Number of points progress curves are resampled to (matches the batch
/// engine).
const PROGRESS_POINTS: usize = 400;

/// Everything a finished stream run yields.
#[derive(Debug)]
pub struct StreamOutcome {
    /// The ordinary job outcome — metrics, progress curves, timeline and
    /// the output itself. Bit-identical to the one-shot batch run's
    /// output for fresh (non-resumed) streams.
    pub job: JobOutcome,
    /// Micro-batches sealed (equals the configured `k`).
    pub batches: usize,
    /// Checkpoint files written during the run.
    pub checkpoints_written: usize,
    /// The last checkpoint path written, if any.
    pub last_checkpoint: Option<PathBuf>,
    /// For resumed runs, the batch index the run restarted from.
    pub resumed_from_batch: Option<usize>,
}

impl StreamOutcome {
    /// Packages the stream's output as a partitioned
    /// [`Dataset`](opa_core::dataflow::Dataset), ready to feed a
    /// [`Dataflow`](opa_core::dataflow::Dataflow) chain via `run_from` —
    /// a stream run is a first-class dataflow source, exactly like a
    /// batch [`JobOutcome`].
    pub fn dataset(&self, spec: &ClusterSpec) -> opa_core::dataflow::Dataset {
        self.job.dataset(spec)
    }
}

/// Immutable driver configuration, bundled to keep call sites readable.
pub(crate) struct DriverConfig<'a> {
    pub framework: Framework,
    pub spec: &'a ClusterSpec,
    pub exec: ExecConfig,
    pub km_hint: f64,
    pub early_stop: Option<f64>,
    pub dinc_monitor: opa_core::reduce::dinc_hash::MonitorKind,
    pub admission: opa_common::AdmissionPolicy,
    pub faults: &'a FaultConfig,
    pub stream: &'a StreamConfig,
    pub checkpoint_dir: Option<&'a Path>,
    pub trace: bool,
}

enum Ev {
    StartMap {
        chunk: usize,
        attempt: u32,
    },
    Deliver {
        reducer: usize,
        from_node: usize,
        /// Source chunk — provenance for batch-scoped in-flight
        /// accounting (a batch seals when *its* chunks' deliveries are
        /// absorbed, regardless of later chunks still shuffling).
        chunk: usize,
        payload: Payload,
    },
}

/// A reducer's recorded mailbox result (see the batch engine).
type MailboxLogs = VecDeque<Vec<Effect>>;

/// Records one reducer's mailbox — a run of consecutive deliveries — into
/// effect logs. Pure data work: runs on any execution-layer thread. The
/// stream driver takes no snapshots, so unlike the batch engine each
/// delivery yields exactly one log.
fn record_mailbox<'j>(
    mut rec: Box<dyn opa_core::reduce::ReduceSide + Send + 'j>,
    items: Vec<Payload>,
    est: SimTime,
    spec: &ClusterSpec,
) -> (
    Box<dyn opa_core::reduce::ReduceSide + Send + 'j>,
    MailboxLogs,
) {
    let mut logs: MailboxLogs = VecDeque::with_capacity(items.len());
    let mut te = est;
    for payload in items {
        let mut env = ReduceEnv::new(spec);
        te = rec.on_delivery(te, payload, &mut env);
        logs.push_back(env.into_log());
    }
    (rec, logs)
}

/// Runs (or resumes) a stream job. `on_batch` fires once per sealed
/// micro-batch, in order, against the paused live state.
#[allow(clippy::too_many_lines)]
pub(crate) fn drive<'j>(
    job: &'j dyn Job,
    cfg: &DriverConfig<'_>,
    input: &JobInput,
    resume: Option<SavedState>,
    on_batch: &mut dyn FnMut(&mut BatchCtl),
) -> Result<StreamOutcome> {
    let spec = cfg.spec;
    let faults = cfg.faults;
    let hw = &spec.hardware;
    let n_nodes = hw.nodes;
    let n_reducers = spec.total_reducers();
    let family = HashFamily::new(spec.hash_seed);
    let h1 = family.fn_at(0);
    let k = cfg.stream.batches;
    let n_records = input.len();

    let store = BlockStore::split(
        input.records.iter().map(|r| r.len() as u64),
        spec.system.chunk_size,
        n_nodes,
    );
    let num_chunks = store.num_chunks();

    // Arrival-order batch boundaries: batch `b` covers records
    // `[boundary[b-1], boundary[b])`; the quota is the number of leading
    // chunks that must be mapped before batch `b` can seal (a chunk
    // straddling the boundary belongs to the earlier batch's quota).
    let boundaries: Vec<usize> = (1..=k).map(|b| b * n_records / k).collect();
    let quota: Vec<usize> = boundaries
        .iter()
        .map(|&bd| store.chunks().partition_point(|c| c.range.start < bd))
        .collect();

    let fingerprint = Fingerprint {
        records: n_records as u64,
        total_bytes: input.total_bytes(),
        framework_idx: Framework::ALL
            .iter()
            .position(|&f| f == cfg.framework)
            .expect("framework is in ALL") as u64,
        chunk_size: spec.system.chunk_size,
        nodes: n_nodes as u64,
        reducers: n_reducers as u64,
        batches: k as u64,
        hash_seed: spec.hash_seed,
    };
    if let Some(saved) = &resume {
        if saved.fingerprint != fingerprint {
            return Err(Error::job(
                "checkpoint fingerprint mismatch — resume requires the same \
                 input, framework, cluster spec and batch count as the \
                 checkpointed run (thread count may differ)",
            ));
        }
        if saved.job_name != job.name() {
            return Err(Error::job(format!(
                "checkpoint belongs to job '{}', not '{}'",
                saved.job_name,
                job.name()
            )));
        }
        if saved.next_batch as usize >= k {
            return Err(Error::job(
                "checkpoint is already past the final micro-batch",
            ));
        }
    }
    let resumed_from_batch = resume.as_ref().map(|s| s.next_batch as usize);

    // Poison quarantine drops records from the mapped set, which would
    // break the checkpoint invariant that a resumed run replays to the
    // same output as the uninterrupted one (the saved state has no DLQ
    // section). Reject the combination rather than silently losing
    // provenance across a resume.
    let poison_on = faults.poison_enabled();
    if poison_on && (resume.is_some() || cfg.checkpoint_dir.is_some()) {
        return Err(Error::job(
            "udf poison injection cannot be combined with checkpointing or \
             resume — quarantined records are not part of the checkpoint \
             format",
        ));
    }

    // Completed-chunk bitmap, seeded from the checkpoint on resume. Lives
    // outside the execution scope because the speculative planner's
    // closures (which outlive this stack frame's inner locals) index the
    // remaining chunks through it.
    let mut done_init: Vec<bool> = vec![false; num_chunks];
    if let Some(saved) = &resume {
        for &c in &saved.done {
            let c = c as usize;
            if c >= num_chunks {
                return Err(Error::storage("checkpoint marks an unknown chunk done"));
            }
            done_init[c] = true;
        }
    }
    // The planner indexes *remaining* chunks (its slots are dense
    // positions), so take() goes through a position remap.
    let plan_chunks: Vec<usize> = (0..num_chunks).filter(|&c| !done_init[c]).collect();
    let mut plan_pos: Vec<Option<usize>> = vec![None; num_chunks];
    for (pos, &c) in plan_chunks.iter().enumerate() {
        plan_pos[c] = Some(pos);
    }
    let compute_plan = |chunk: usize| {
        let c = &store.chunks()[chunk];
        compute_map_task(
            job,
            cfg.framework,
            &input.records[c.range.clone()],
            c.bytes,
            spec,
            h1,
            cfg.admission,
            opa_common::CombineScope::Task,
            poison_on.then_some(PoisonGate {
                faults: *faults,
                base: c.range.start as u64,
            }),
        )
    };
    let compute_plan_at = |pos: usize| compute_plan(plan_chunks[pos]);

    let workers = cfg.exec.threads.saturating_sub(1);

    std::thread::scope(|scope| -> Result<StreamOutcome> {
        let pool = Pool::new(scope, workers);

        let separate_spill = spec.cost.spill_disk != spec.cost.hdfs_disk;
        let mut res = Resources::new(n_nodes, hw.map_slots.max(hw.reduce_slots), separate_spill);
        if cfg.trace {
            res.enable_trace();
        }
        let mut progress = ProgressTracker::new(num_chunks as u64);

        let fault_on = faults.enabled();
        let fplan = if fault_on {
            Some(FaultPlan::new(*faults))
        } else {
            None
        };
        let mut freport = FaultReport::default();
        if faults.spill_error_rate > 0.0 {
            // Note: the injector's pseudo-random sequence restarts on
            // resume — spill-error timing (never output correctness) can
            // then differ from the uninterrupted run.
            res.set_disk_faults(DiskFaultInjector::new(
                faults.seed,
                faults.spill_error_rate,
                faults.max_retries,
            ));
        }
        let mut plan_stash: Vec<Option<opa_core::map_phase::MapTaskPlan>> =
            (0..num_chunks).map(|_| None).collect();
        let track_history = faults.reduce_failure_rate > 0.0;
        let mut delivery_seq: Vec<u64> = vec![0; n_reducers];
        let mut crash_count: Vec<u32> = vec![0; n_reducers];
        let mut history: Vec<Vec<Effect>> = vec![Vec::new(); n_reducers];

        let expected_input =
            ((input.total_bytes() as f64 * cfg.km_hint) / n_reducers as f64).ceil() as u64;
        let expected_keys = job
            .expected_keys()
            .map(|keys| (keys / n_reducers as u64).max(1))
            .unwrap_or(expected_input / 64);
        let sizing = ReducerSizing {
            expected_input,
            expected_keys,
            state_size: job.state_size_hint().unwrap_or(64),
            early_stop_coverage: cfg.early_stop,
            monitor: cfg.dinc_monitor,
            admission: cfg.admission,
        };
        let mut reducers = Vec::with_capacity(n_reducers);
        for _ in 0..n_reducers {
            reducers.push(Some(make_reducer(
                cfg.framework,
                job,
                spec,
                sizing,
                &family,
            )?));
        }
        let reducer_node = |r: usize| r % n_nodes;
        let wave1_per_node = hw.reduce_slots;
        let started: Vec<bool> = (0..n_reducers)
            .map(|r| (r / n_nodes) < wave1_per_node)
            .collect();

        // Scheduler state: either seeded fresh (exactly like the batch
        // engine) or rebuilt from the checkpoint.
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_nodes];
        let mut done: Vec<bool> = done_init;
        let mut done_prefix = 0usize;
        while done_prefix < num_chunks && done[done_prefix] {
            done_prefix += 1;
        }
        let mut next_batch = 0usize;
        // In-flight shuffle deliveries by source chunk, plus the count
        // attributable to the batch currently being sealed (source chunk
        // below `quota[next_batch]`). Only the latter gates sealing:
        // later chunks' deliveries ride across pause points.
        let mut inflight_by_chunk: Vec<u32> = vec![0; num_chunks];
        let mut inflight_sealing = 0usize;
        let mut map_cpu = vec![SimDuration::ZERO; n_nodes];
        let mut reduce_cpu = vec![SimDuration::ZERO; n_reducers];
        let mut ready_at = vec![SimTime::ZERO; n_reducers];
        let mut deferred: Vec<Vec<(usize, Payload)>> = vec![Vec::new(); n_reducers];
        let mut spill_written_map = 0u64;
        let mut spill_written_reduce = vec![0u64; n_reducers];
        let mut maps_completed = 0usize;
        let mut map_output_bytes = 0u64;
        let mut map_finish = SimTime::ZERO;
        let mut output: Vec<Pair> = Vec::new();
        let mut dlq: Vec<PoisonedRecord> = Vec::new();
        let mut now = SimTime::ZERO;

        match resume {
            None => {
                for (i, c) in store.chunks().iter().enumerate() {
                    pending[c.node].push_back(i);
                }
                for node_pending in pending.iter_mut() {
                    for _ in 0..hw.map_slots {
                        if let Some(chunk) = node_pending.pop_front() {
                            queue.push(SimTime::ZERO, Ev::StartMap { chunk, attempt: 0 });
                        }
                    }
                }
            }
            Some(saved) => {
                next_batch = saved.next_batch as usize;
                for qe in saved.queue {
                    match qe {
                        QueuedEvent::StartMap {
                            time,
                            chunk,
                            attempt,
                        } => {
                            let chunk = chunk as usize;
                            if chunk >= num_chunks {
                                return Err(Error::storage(
                                    "checkpoint queue names an unknown chunk",
                                ));
                            }
                            queue.push(
                                SimTime(time),
                                Ev::StartMap {
                                    chunk,
                                    attempt: attempt as u32,
                                },
                            );
                        }
                        QueuedEvent::Deliver {
                            time,
                            reducer,
                            from_node,
                            chunk,
                            payload,
                        } => {
                            let (reducer, chunk) = (reducer as usize, chunk as usize);
                            if reducer >= n_reducers || chunk >= num_chunks {
                                return Err(Error::storage(
                                    "checkpoint delivery names an unknown reducer or chunk",
                                ));
                            }
                            inflight_by_chunk[chunk] += 1;
                            if next_batch < k && chunk < quota[next_batch] {
                                inflight_sealing += 1;
                            }
                            queue.push(
                                SimTime(time),
                                Ev::Deliver {
                                    reducer,
                                    from_node: from_node as usize,
                                    chunk,
                                    payload,
                                },
                            );
                        }
                    }
                }
                for (node, chunks) in saved.pending.iter().enumerate() {
                    for &c in chunks {
                        pending[node].push_back(c as usize);
                    }
                }
                res.restore_disk_free(&saved.disk_free);
                // Progress accounting restarts at the resume instant;
                // pre-seeding completed maps keeps the map curve's
                // end-state (100 %) truthful.
                for _ in 0..saved.done.len() {
                    progress.map_done(SimTime::ZERO);
                }
                map_output_bytes = saved.map_output_bytes;
                spill_written_map = saved.spill_written_map;
                map_finish = SimTime(saved.map_finish);
                now = map_finish;
                maps_completed = saved.maps_completed as usize;
                map_cpu = saved.map_cpu.iter().map(|&c| SimDuration(c)).collect();
                ready_at = saved.ready_at.iter().map(|&t| SimTime(t)).collect();
                delivery_seq.clone_from(&saved.delivery_seq);
                crash_count = saved.crash_count.iter().map(|&c| c as u32).collect();
                reduce_cpu = saved.reduce_cpu.iter().map(|&c| SimDuration(c)).collect();
                spill_written_reduce.clone_from(&saved.spill_written_reduce);
                output = saved.output;
                for (r, defs) in saved.deferred.into_iter().enumerate() {
                    deferred[r] = defs
                        .into_iter()
                        .map(|d| (d.from_node as usize, d.payload))
                        .collect();
                }
                for (r, ckpt) in saved.reducers.into_iter().enumerate() {
                    reducers[r]
                        .as_mut()
                        .expect("reducer in place")
                        .import_state(ckpt)?;
                }
            }
        }

        // Speculative map-task planning over the chunks still to run.
        let planner: Planner<opa_core::map_phase::MapTaskPlan> =
            Planner::new(plan_chunks.len(), workers * 2 + 2);
        planner.prime(&pool, compute_plan_at);

        let mut checkpoints_written = 0usize;
        let mut last_checkpoint: Option<PathBuf> = None;

        // Burst scratch, reused across iterations.
        let mut mail_of: Vec<Option<usize>> = vec![None; n_reducers];
        let mut log_q: Vec<MailboxLogs> = (0..n_reducers).map(|_| VecDeque::new()).collect();
        let mut snapshot_bytes = vec![0u64; n_reducers];

        macro_rules! target {
            ($r:expr) => {
                ReplayTarget {
                    node: reducer_node($r),
                    res: &mut res,
                    progress: &mut progress,
                    output: &mut output,
                    reduce_cpu: &mut reduce_cpu[$r],
                    spill_written: &mut spill_written_reduce[$r],
                    snapshot_bytes: &mut snapshot_bytes[$r],
                }
            };
        }

        // Main event loop with pause points. Sealing runs before each pop,
        // so it observes the state *between* events and never perturbs the
        // event sequence; once the queue drains, the final batches seal on
        // the next iteration and the loop exits.
        loop {
            while next_batch < k && inflight_sealing == 0 && done_prefix >= quota[next_batch] {
                let sealed = next_batch + 1;
                res.emit(TraceEvent::BatchSeal {
                    t: now.0,
                    batch: sealed as u32,
                    batches: k as u32,
                    records: boundaries[next_batch] as u64,
                });
                let progress = StreamProgress {
                    batches_sealed: sealed,
                    batches: k,
                    records_sealed: boundaries[next_batch],
                    total_records: n_records,
                    maps_completed,
                    maps_total: num_chunks,
                    watermark: reducers
                        .iter()
                        .filter_map(|r| r.as_ref()?.watermark())
                        .max(),
                    sim_time: now,
                };
                let mut ctl = BatchCtl {
                    view: LiveView::capture(h1, &reducers, progress),
                    checkpoint_request: None,
                };
                on_batch(&mut ctl);
                let requested = ctl.checkpoint_request.take();
                // Release this seal's view before the engine writes again:
                // the next delivery then finds every table unshared (a
                // clone the callback kept costs one copy, nothing more).
                drop(ctl);
                next_batch = sealed;
                if next_batch < k {
                    // The sealing window advanced: deliveries from chunks
                    // newly below the boundary now gate the next seal.
                    // (`inflight_sealing` was zero by the seal condition.)
                    inflight_sealing = (quota[sealed - 1]..quota[sealed])
                        .map(|c| inflight_by_chunk[c] as usize)
                        .sum();
                }

                let mut paths: Vec<PathBuf> = Vec::new();
                if let Some(p) = requested {
                    paths.push(p);
                }
                if let Some(dir) = cfg.checkpoint_dir {
                    if cfg.stream.checkpoint_due(sealed) && sealed < k {
                        paths.push(dir.join(format!("stream-ckpt-b{sealed}.opac")));
                    }
                }
                if !paths.is_empty() && poison_on {
                    return Err(Error::job(
                        "checkpoint requested during a poison-injected run — \
                         quarantined records are not part of the checkpoint \
                         format",
                    ));
                }
                if !paths.is_empty() {
                    // Read the queue by draining and re-pushing in pop
                    // order: fresh ascending sequence numbers preserve
                    // every relative ordering, so the run is unaffected.
                    let mut events = Vec::with_capacity(queue.len());
                    let mut stash = Vec::with_capacity(queue.len());
                    while let Some((t, ev)) = queue.pop() {
                        events.push(match &ev {
                            Ev::StartMap { chunk, attempt } => QueuedEvent::StartMap {
                                time: t.0,
                                chunk: *chunk as u64,
                                attempt: u64::from(*attempt),
                            },
                            Ev::Deliver {
                                reducer,
                                from_node,
                                chunk,
                                payload,
                            } => QueuedEvent::Deliver {
                                time: t.0,
                                reducer: *reducer as u64,
                                from_node: *from_node as u64,
                                chunk: *chunk as u64,
                                payload: payload.clone(),
                            },
                        });
                        stash.push((t, ev));
                    }
                    for (t, ev) in stash {
                        queue.push(t, ev);
                    }
                    let mut reducer_ckpts = Vec::with_capacity(n_reducers);
                    for rec in &reducers {
                        reducer_ckpts.push(rec.as_ref().expect("reducer in place").export_state()?);
                    }
                    let saved = SavedState {
                        fingerprint: fingerprint.clone(),
                        job_name: job.name().to_string(),
                        next_batch: next_batch as u64,
                        queue: events,
                        pending: pending
                            .iter()
                            .map(|q| q.iter().map(|&c| c as u64).collect())
                            .collect(),
                        disk_free: res.export_disk_free(),
                        done: (0..num_chunks)
                            .filter(|&c| done[c])
                            .map(|c| c as u64)
                            .collect(),
                        map_output_bytes,
                        spill_written_map,
                        map_finish: map_finish.0,
                        maps_completed: maps_completed as u64,
                        map_cpu: map_cpu.iter().map(|d| d.0).collect(),
                        ready_at: ready_at.iter().map(|t| t.0).collect(),
                        delivery_seq: delivery_seq.clone(),
                        crash_count: crash_count.iter().map(|&c| u64::from(c)).collect(),
                        reduce_cpu: reduce_cpu.iter().map(|d| d.0).collect(),
                        spill_written_reduce: spill_written_reduce.clone(),
                        output: output.clone(),
                        deferred: deferred
                            .iter()
                            .map(|defs| {
                                defs.iter()
                                    .map(|(from, p)| DeferredDelivery {
                                        from_node: *from as u64,
                                        payload: p.clone(),
                                    })
                                    .collect()
                            })
                            .collect(),
                        reducers: reducer_ckpts,
                    };
                    for p in &paths {
                        saved.write_to(p)?;
                        checkpoints_written += 1;
                        if res.trace_enabled() {
                            let bytes = std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
                            res.emit(TraceEvent::Checkpoint {
                                t: now.0,
                                batch: sealed as u32,
                                bytes,
                            });
                        }
                    }
                    last_checkpoint = paths.pop();
                }
            }

            let Some((t, ev)) = queue.pop() else { break };
            now = t;
            match ev {
                Ev::StartMap { chunk, attempt } => {
                    let node = store.chunks()[chunk].node;
                    res.emit(TraceEvent::MapStart {
                        t: t.0,
                        chunk: chunk as u32,
                        attempt,
                        node: node as u32,
                    });
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
                            let waste = abort_map_task(&plan, frac, node, t, spec, &mut res);
                            let backoff = faults.backoff(attempt + 1);
                            freport.map_failures += 1;
                            freport.map_retries += 1;
                            freport.wasted_cpu += waste.wasted_cpu;
                            freport.wasted_bytes += waste.wasted_bytes;
                            freport.recovery_time += (waste.fail_time - t) + backoff;
                            freport.trace.push(FaultEvent {
                                time: waste.fail_time,
                                kind: FaultKind::MapFailure,
                                target: chunk as u64,
                                attempt,
                            });
                            res.emit(TraceEvent::Fault {
                                t: waste.fail_time.0,
                                kind: FaultKind::MapFailure,
                                target: chunk as u64,
                                attempt,
                            });
                            res.emit(TraceEvent::Retry {
                                t: (waste.fail_time + backoff).0,
                                kind: FaultKind::MapFailure,
                                target: chunk as u64,
                                attempt: attempt + 1,
                            });
                            plan_stash[chunk] = Some(plan);
                            queue.push(
                                waste.fail_time + backoff,
                                Ev::StartMap {
                                    chunk,
                                    attempt: attempt + 1,
                                },
                            );
                            continue;
                        }
                        MapFate::Straggle { factor } => {
                            let nominal = plan.nominal_duration(spec);
                            let waste = straggle_map_task(&plan, factor, node, t, spec, &mut res);
                            let detect = t + nominal;
                            freport.stragglers += 1;
                            freport.speculative_wins += 1;
                            freport.wasted_cpu += waste.wasted_cpu;
                            freport.wasted_bytes += waste.wasted_bytes;
                            freport.recovery_time += waste.fail_time.saturating_since(detect);
                            freport.trace.push(FaultEvent {
                                time: detect,
                                kind: FaultKind::Straggler,
                                target: chunk as u64,
                                attempt,
                            });
                            res.emit(TraceEvent::Fault {
                                t: detect.0,
                                kind: FaultKind::Straggler,
                                target: chunk as u64,
                                attempt,
                            });
                            res.emit(TraceEvent::Retry {
                                t: detect.0,
                                kind: FaultKind::Straggler,
                                target: chunk as u64,
                                attempt: attempt + 1,
                            });
                            plan_stash[chunk] = Some(plan);
                            queue.push(
                                detect,
                                Ev::StartMap {
                                    chunk,
                                    attempt: attempt + 1,
                                },
                            );
                            continue;
                        }
                        MapFate::Ok => {}
                    }
                    let result = finish_map_task(plan, node, t, spec, &mut res);
                    res.emit(TraceEvent::MapFinish {
                        t0: t.0,
                        t: result.finish.0,
                        chunk: chunk as u32,
                        node: node as u32,
                        cpu: result.cpu.0,
                        output_bytes: result.output_bytes,
                        spill_bytes: result.spill_bytes,
                    });
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
                    map_cpu[node] += result.cpu;
                    spill_written_map += result.spill_bytes;
                    map_output_bytes += result.output_bytes;
                    map_finish = map_finish.max(result.finish);
                    progress.map_done(result.finish);
                    maps_completed += 1;
                    done[chunk] = true;
                    while done_prefix < num_chunks && done[done_prefix] {
                        done_prefix += 1;
                    }
                    if !result.early_output.is_empty() {
                        let bytes: u64 = result.early_output.iter().map(Pair::size).sum();
                        progress.emitted(result.finish, bytes);
                        output.extend(result.early_output);
                    }
                    for granule in result.granules {
                        for (r, payload) in granule.partitions.into_iter().enumerate() {
                            if payload.is_empty() {
                                continue;
                            }
                            let arrival = granule.time + spec.cost.net_time(payload.bytes());
                            res.span(node, OpKind::Shuffle, granule.time, arrival);
                            res.emit(TraceEvent::Shuffle {
                                t0: granule.time.0,
                                t: arrival.0,
                                from_node: node as u32,
                                reducer: r as u32,
                                bytes: payload.bytes(),
                            });
                            inflight_by_chunk[chunk] += 1;
                            if next_batch < k && chunk < quota[next_batch] {
                                inflight_sealing += 1;
                            }
                            queue.push(
                                arrival,
                                Ev::Deliver {
                                    reducer: r,
                                    from_node: node,
                                    chunk,
                                    payload,
                                },
                            );
                        }
                    }
                    if let Some(next) = pending[node].pop_front() {
                        queue.push(
                            result.finish,
                            Ev::StartMap {
                                chunk: next,
                                attempt: 0,
                            },
                        );
                    }
                }
                Ev::Deliver {
                    reducer,
                    from_node,
                    chunk,
                    payload,
                } => {
                    // Drain the maximal run of consecutive deliveries, as
                    // in the batch engine. Deferred (second-wave)
                    // deliveries count as absorbed: they are parked in
                    // scheduler state, not in flight.
                    inflight_by_chunk[chunk] -= 1;
                    if next_batch < k && chunk < quota[next_batch] {
                        inflight_sealing -= 1;
                    }
                    let mut burst: Vec<(SimTime, usize, usize, Payload)> =
                        vec![(t, reducer, from_node, payload)];
                    // Stop extending the burst as soon as a seal becomes
                    // possible, so the loop top observes the pause point.
                    // Grouping deliveries differently is output- and
                    // metric-transparent: effect logs carry durations and
                    // ops, never absolute times, and replay still runs in
                    // pop order.
                    while !(next_batch < k
                        && inflight_sealing == 0
                        && done_prefix >= quota[next_batch])
                        && matches!(queue.peek(), Some((_, Ev::Deliver { .. })))
                    {
                        let Some((
                            t2,
                            Ev::Deliver {
                                reducer,
                                from_node,
                                chunk,
                                payload,
                            },
                        )) = queue.pop()
                        else {
                            unreachable!("peeked a delivery");
                        };
                        inflight_by_chunk[chunk] -= 1;
                        if next_batch < k && chunk < quota[next_batch] {
                            inflight_sealing -= 1;
                        }
                        burst.push((t2, reducer, from_node, payload));
                    }

                    let mut order: Vec<(usize, SimTime)> = Vec::with_capacity(burst.len());
                    let mut mailboxes: Vec<(usize, Vec<Payload>)> = Vec::new();
                    for (t_ev, r, from, payload) in burst {
                        if !started[r] {
                            deferred[r].push((from, payload));
                            continue;
                        }
                        order.push((r, t_ev));
                        let slot = match mail_of[r] {
                            Some(s) => s,
                            None => {
                                mail_of[r] = Some(mailboxes.len());
                                mailboxes.push((r, Vec::new()));
                                mailboxes.len() - 1
                            }
                        };
                        mailboxes[slot].1.push(payload);
                    }
                    if mailboxes.is_empty() {
                        continue;
                    }

                    let n_mail = mailboxes.len();
                    let gather = Gather::new(n_mail);
                    let mut mail_reducers: Vec<usize> = Vec::with_capacity(n_mail);
                    for (slot, (r, items)) in mailboxes.into_iter().enumerate() {
                        mail_reducers.push(r);
                        mail_of[r] = None;
                        let rec = reducers[r].take().expect("reducer in place");
                        let est = ready_at[r];
                        let g = gather.clone();
                        if slot + 1 == n_mail {
                            g.put(slot, record_mailbox(rec, items, est, spec));
                        } else {
                            pool.submit(move || {
                                g.put(slot, record_mailbox(rec, items, est, spec));
                            });
                        }
                    }
                    for ((rec, logs), &r) in gather.wait(&pool).into_iter().zip(&mail_reducers) {
                        reducers[r] = Some(rec);
                        log_q[r] = logs;
                    }
                    for (r, t_ev) in order {
                        let dlog = log_q[r].pop_front().expect("one log per delivery");
                        let mut t0 = ready_at[r].max(t_ev);
                        if let Some(fp) = &fplan {
                            if fp.reduce_crashes(r, delivery_seq[r], crash_count[r]) {
                                crash_count[r] += 1;
                                freport.reduce_failures += 1;
                                freport.trace.push(FaultEvent {
                                    time: t0,
                                    kind: FaultKind::ReduceFailure,
                                    target: r as u64,
                                    attempt: crash_count[r] - 1,
                                });
                                let backoff = faults.backoff(crash_count[r]);
                                res.emit(TraceEvent::Fault {
                                    t: t0.0,
                                    kind: FaultKind::ReduceFailure,
                                    target: r as u64,
                                    attempt: crash_count[r] - 1,
                                });
                                res.emit(TraceEvent::Retry {
                                    t: (t0 + backoff).0,
                                    kind: FaultKind::ReduceFailure,
                                    target: r as u64,
                                    attempt: crash_count[r],
                                });
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
                            delivery_seq[r] += 1;
                        }
                        if track_history {
                            history[r].extend(dlog.iter().cloned());
                        }
                        ready_at[r] = replay(dlog, t0, spec, target!(r));
                    }
                }
            }
        }

        // Finish phase: identical to the batch engine — wave-one reducers
        // recorded in parallel and replayed in reducer order, then the
        // second wave sequentially.
        let mut dinc_total: Option<opa_core::metrics::DincStats> = None;
        let mut merge_dinc = |stats: Option<opa_core::metrics::DincStats>| {
            if let Some(st) = stats {
                let acc = dinc_total.get_or_insert_with(Default::default);
                acc.slots_per_reducer = st.slots_per_reducer;
                acc.offered += st.offered;
                acc.rejected += st.rejected;
                acc.evict_output += st.evict_output;
                acc.evict_spilled += st.evict_spilled;
            }
        };
        let mut admission_total: Option<opa_core::metrics::AdmissionStats> = None;
        let mut merge_admission = |stats: Option<opa_core::metrics::AdmissionStats>| {
            if let Some(st) = stats {
                admission_total
                    .get_or_insert_with(Default::default)
                    .merge(&st);
            }
        };
        let mut end = map_finish;
        let mut node_wave1_finish: Vec<Vec<SimTime>> = vec![Vec::new(); n_nodes];
        let wave1: Vec<usize> = (0..n_reducers).filter(|&r| started[r]).collect();
        let gather = Gather::new(wave1.len());
        for (slot, &r) in wave1.iter().enumerate() {
            let mut rec = reducers[r].take().expect("reducer in place");
            let est = ready_at[r].max(map_finish);
            let g = gather.clone();
            let record = move || {
                let mut env = ReduceEnv::new(spec);
                rec.finish(est, &mut env);
                g.put(slot, (rec, env.into_log()));
            };
            if slot + 1 == wave1.len() {
                record();
            } else {
                pool.submit(record);
            }
        }
        for ((rec, log), &r) in gather.wait(&pool).into_iter().zip(&wave1) {
            let t0 = ready_at[r].max(map_finish);
            let done_at = replay(log, t0, spec, target!(r));
            merge_dinc(rec.dinc_stats());
            let adm = rec.admission_stats();
            merge_admission(adm);
            node_wave1_finish[reducer_node(r)].push(done_at);
            end = end.max(done_at);
            reducers[r] = Some(rec);
            res.emit(TraceEvent::ReduceFinish {
                t: done_at.0,
                reducer: r as u32,
                node: reducer_node(r) as u32,
            });
            if cfg.admission.is_on() {
                if let Some(st) = adm {
                    res.emit(TraceEvent::Admission {
                        t: done_at.0,
                        reducer: r as u32,
                        offered: st.offered,
                        absorbed: st.absorbed,
                        evictions: st.admitted_evictions,
                        rejected: st.rejected,
                    });
                }
            }
        }

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
                let mut t0 = t.max(arrival);
                if let Some(fp) = &fplan {
                    if fp.reduce_crashes(r, delivery_seq[r], crash_count[r]) {
                        crash_count[r] += 1;
                        freport.reduce_failures += 1;
                        freport.trace.push(FaultEvent {
                            time: t0,
                            kind: FaultKind::ReduceFailure,
                            target: r as u64,
                            attempt: crash_count[r] - 1,
                        });
                        let backoff = faults.backoff(crash_count[r]);
                        res.emit(TraceEvent::Fault {
                            t: t0.0,
                            kind: FaultKind::ReduceFailure,
                            target: r as u64,
                            attempt: crash_count[r] - 1,
                        });
                        res.emit(TraceEvent::Retry {
                            t: (t0 + backoff).0,
                            kind: FaultKind::ReduceFailure,
                            target: r as u64,
                            attempt: crash_count[r],
                        });
                        let recov =
                            replay_recovery(&history[r], t0 + backoff, spec, node, &mut res);
                        freport.wasted_bytes += recov.wasted_bytes;
                        freport.wasted_cpu += recov.wasted_cpu;
                        freport.recovery_time += recov.ready_at.saturating_since(t0);
                        t0 = recov.ready_at;
                    }
                    delivery_seq[r] += 1;
                }
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
            let done_at = replay(env.into_log(), t, spec, target!(r));
            res.emit(TraceEvent::ReduceFinish {
                t: done_at.0,
                reducer: r as u32,
                node: node as u32,
            });
            merge_dinc(rec.dinc_stats());
            let adm = rec.admission_stats();
            merge_admission(adm);
            if cfg.admission.is_on() {
                if let Some(st) = adm {
                    res.emit(TraceEvent::Admission {
                        t: done_at.0,
                        reducer: r as u32,
                        offered: st.offered,
                        absorbed: st.absorbed,
                        evictions: st.admitted_evictions,
                        rejected: st.rejected,
                    });
                }
            }
            reducers[r] = Some(rec);
            end = end.max(done_at);
        }

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
        let total_reduce_cpu: SimDuration = reduce_cpu.iter().copied().sum();
        let total_map_cpu: SimDuration = map_cpu.iter().copied().sum();
        let metrics = JobMetrics {
            framework: cfg.framework.label().to_string(),
            job: job.name().to_string(),
            running_time: end,
            map_finish,
            input_bytes: input.total_bytes(),
            map_output_bytes,
            map_spill_bytes: spill_written_map,
            reduce_spill_bytes: spill_written_reduce.iter().sum(),
            output_bytes,
            snapshot_bytes: 0,
            output_records: output.len() as u64,
            map_cpu_per_node: SimDuration(total_map_cpu.0 / n_nodes as u64),
            reduce_cpu_per_node: SimDuration(total_reduce_cpu.0 / n_nodes as u64),
            io: res.io.clone(),
            io_recovery: res.io_recovery.clone(),
            dinc: dinc_total,
            admission: admission_total,
            faults: fault_report,
            shuffle_bytes: map_output_bytes,
            node_combine: None,
        };
        let trace_log = res.take_trace();
        Ok(StreamOutcome {
            job: JobOutcome {
                metrics,
                progress: progress.finish(end, PROGRESS_POINTS),
                timeline: std::mem::take(&mut res.timeline),
                usage: res.usage,
                output,
                dlq,
                trace: trace_log,
            },
            batches: k,
            checkpoints_written,
            last_checkpoint,
            resumed_from_batch,
        })
    })
}
