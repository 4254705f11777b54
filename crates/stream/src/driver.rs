//! The micro-batch stream driver: opa-core's job loop run with a pause
//! schedule.
//!
//! The input's arrival order is split into `k` contiguous batches; batch
//! `b` seals at the first instant when every chunk containing a record
//! below the batch boundary has completed its map task **and** every
//! shuffle delivery originating from those chunks has been absorbed.
//! Those chunk counts are the quotas of the [`Pause`] schedule handed to
//! [`run_job`]; the pause hook here seals the batch, runs the user
//! callback against the live state ([`BatchCtl`]) and writes checkpoints.
//! Deliveries from *later* chunks may still be in flight — the map waves
//! pipeline into the reduce side continuously, so demanding full
//! quiescence would push every seal to the end of the run. A checkpoint
//! is the loop's exported state ([`LoopCtl::export`]) mapped onto the
//! [`SavedState`] format; resume maps it back and seeds the loop.
//!
//! Because pausing never reorders, drops or injects events, the streamed
//! run's event sequence is literally the one-shot batch run's, so the
//! final output is bit-identical to [`opa_core::job::JobBuilder::run`] at
//! any thread count and any `k`.

use crate::checkpoint::{DeferredDelivery, Fingerprint, QueuedEvent, SavedState};
use crate::query::{BatchCtl, LiveView, StreamProgress};
use opa_common::units::{SimDuration, SimTime};
use opa_common::{Error, HashFamily, Result, StreamConfig};
use opa_core::api::Job;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{
    run_job, Event, JobConfig, JobInput, JobOutcome, LoopCounters, LoopCtl, LoopState, Pause,
};
use opa_simio::BlockStore;
use opa_trace::TraceEvent;
use std::path::{Path, PathBuf};

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

/// Runs (or resumes) a stream job. `on_batch` fires once per sealed
/// micro-batch, in order, against the paused live state.
pub(crate) fn drive(
    job: &dyn Job,
    cfg: &JobConfig,
    stream: &StreamConfig,
    checkpoint_dir: Option<&Path>,
    input: &JobInput,
    resume: Option<SavedState>,
    on_batch: &mut dyn FnMut(&mut BatchCtl),
) -> Result<StreamOutcome> {
    let spec = &cfg.spec;
    let k = stream.batches;
    let n_records = input.len();
    let n_reducers = spec.total_reducers();
    let store = BlockStore::split(
        input.records.iter().map(|r| r.len() as u64),
        spec.system.chunk_size,
        spec.hardware.nodes,
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
        nodes: spec.hardware.nodes as u64,
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

    // Poison quarantine drops records from the mapped set, which would
    // break the checkpoint invariant that a resumed run replays to the
    // same output as the uninterrupted one (the saved state has no DLQ
    // section). Reject the combination rather than silently losing
    // provenance across a resume.
    let poison_on = cfg.faults.poison_enabled();
    if poison_on && (resume.is_some() || checkpoint_dir.is_some()) {
        return Err(Error::job(
            "udf poison injection cannot be combined with checkpointing or \
             resume — quarantined records are not part of the checkpoint \
             format",
        ));
    }

    let resumed_from_batch = resume.as_ref().map(|s| s.next_batch as usize);
    let first_batch = resumed_from_batch.unwrap_or(0);
    let resume = resume
        .map(|saved| loop_state(saved, num_chunks, n_reducers))
        .transpose()?;

    let h1 = HashFamily::new(spec.hash_seed).fn_at(0);
    let mut next_batch = first_batch;
    let mut checkpoints_written = 0usize;
    let mut last_checkpoint: Option<PathBuf> = None;
    let mut seal = |ctl: &mut LoopCtl<'_>| -> Result<()> {
        let sealed = next_batch + 1;
        ctl.emit(TraceEvent::BatchSeal {
            t: ctl.now().0,
            batch: sealed as u32,
            batches: k as u32,
            records: boundaries[next_batch] as u64,
        });
        let progress = StreamProgress {
            batches_sealed: sealed,
            batches: k,
            records_sealed: boundaries[next_batch],
            total_records: n_records,
            maps_completed: ctl.maps_completed(),
            maps_total: num_chunks,
            watermark: ctl
                .reducers()
                .iter()
                .filter_map(|r| r.as_ref()?.watermark())
                .max(),
            sim_time: ctl.now(),
        };
        let mut batch = BatchCtl {
            view: LiveView::capture(h1, ctl.reducers(), progress),
            checkpoint_request: None,
        };
        on_batch(&mut batch);
        // Release this seal's view before the engine writes again: the
        // next delivery then finds every table unshared (a clone the
        // callback kept costs one copy, nothing more).
        let requested = batch.checkpoint_request.take();
        drop(batch);
        next_batch = sealed;

        let mut paths: Vec<PathBuf> = requested.into_iter().collect();
        if let Some(dir) = checkpoint_dir {
            if stream.checkpoint_due(sealed) && sealed < k {
                paths.push(dir.join(format!("stream-ckpt-b{sealed}.opac")));
            }
        }
        if paths.is_empty() {
            return Ok(());
        }
        if poison_on {
            return Err(Error::job(
                "checkpoint requested during a poison-injected run — \
                 quarantined records are not part of the checkpoint format",
            ));
        }
        let saved = saved_state(ctl.export()?, &fingerprint, job.name(), sealed);
        for p in &paths {
            saved.write_to(p)?;
            checkpoints_written += 1;
            ctl.emit(TraceEvent::Checkpoint {
                t: ctl.now().0,
                batch: sealed as u32,
                bytes: std::fs::metadata(p).map_or(0, |m| m.len()),
            });
        }
        last_checkpoint = paths.pop();
        Ok(())
    };
    let outcome = run_job(
        job,
        cfg,
        input,
        Some(Pause {
            quotas: quota[first_batch..].to_vec(),
            resume,
            hook: &mut seal,
        }),
    )?;
    Ok(StreamOutcome {
        job: outcome,
        batches: k,
        checkpoints_written,
        last_checkpoint,
        resumed_from_batch,
    })
}

/// Maps the loop's exported state onto the checkpoint format.
fn saved_state(
    st: LoopState,
    fingerprint: &Fingerprint,
    job_name: &str,
    next_batch: usize,
) -> SavedState {
    let c = st.counters;
    SavedState {
        fingerprint: fingerprint.clone(),
        job_name: job_name.to_string(),
        next_batch: next_batch as u64,
        queue: st
            .queue
            .into_iter()
            .map(|(t, ev)| match ev {
                Event::StartMap { chunk, attempt } => QueuedEvent::StartMap {
                    time: t.0,
                    chunk: chunk as u64,
                    attempt: u64::from(attempt),
                },
                Event::Deliver {
                    reducer,
                    from_node,
                    chunk,
                    payload,
                } => QueuedEvent::Deliver {
                    time: t.0,
                    reducer: reducer as u64,
                    from_node: from_node as u64,
                    chunk: chunk as u64,
                    payload,
                },
            })
            .collect(),
        pending: st
            .pending
            .iter()
            .map(|q| q.iter().map(|&c| c as u64).collect())
            .collect(),
        disk_free: st.disk_free,
        done: st.done.iter().map(|&c| c as u64).collect(),
        map_output_bytes: c.map_output_bytes,
        spill_written_map: c.spill_written_map,
        map_finish: c.map_finish.0,
        maps_completed: c.maps_completed as u64,
        map_cpu: c.map_cpu.iter().map(|d| d.0).collect(),
        ready_at: c.ready_at.iter().map(|t| t.0).collect(),
        delivery_seq: c.delivery_seq,
        crash_count: c.crash_count.iter().map(|&n| u64::from(n)).collect(),
        reduce_cpu: c.reduce_cpu.iter().map(|d| d.0).collect(),
        spill_written_reduce: c.spill_written_reduce,
        output: st.output,
        deferred: st
            .deferred
            .into_iter()
            .map(|defs| {
                defs.into_iter()
                    .map(|(from, payload)| DeferredDelivery {
                        from_node: from as u64,
                        payload,
                    })
                    .collect()
            })
            .collect(),
        reducers: st.reducers,
    }
}

/// Maps a decoded checkpoint back onto the loop state, rejecting chunk
/// and reducer indices the run does not have: the data comes from disk.
fn loop_state(saved: SavedState, num_chunks: usize, n_reducers: usize) -> Result<LoopState> {
    let chunk_of = |c: u64, msg: &'static str| -> Result<usize> {
        usize::try_from(c)
            .ok()
            .filter(|&c| c < num_chunks)
            .ok_or_else(|| Error::storage(msg))
    };
    let done = saved
        .done
        .iter()
        .map(|&c| chunk_of(c, "checkpoint marks an unknown chunk done"))
        .collect::<Result<_>>()?;
    let mut queue = Vec::with_capacity(saved.queue.len());
    for qe in saved.queue {
        queue.push(match qe {
            QueuedEvent::StartMap {
                time,
                chunk,
                attempt,
            } => (
                SimTime(time),
                Event::StartMap {
                    chunk: chunk_of(chunk, "checkpoint queue names an unknown chunk")?,
                    attempt: attempt as u32,
                },
            ),
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
                (
                    SimTime(time),
                    Event::Deliver {
                        reducer,
                        from_node: from_node as usize,
                        chunk,
                        payload,
                    },
                )
            }
        });
    }
    Ok(LoopState {
        queue,
        pending: saved
            .pending
            .iter()
            .map(|q| q.iter().map(|&c| c as usize).collect())
            .collect(),
        done,
        disk_free: saved.disk_free,
        counters: LoopCounters {
            map_output_bytes: saved.map_output_bytes,
            // Stream runs combine per map task at most, so every map
            // output byte was booked on the network.
            shuffle_bytes: saved.map_output_bytes,
            spill_written_map: saved.spill_written_map,
            map_finish: SimTime(saved.map_finish),
            maps_completed: saved.maps_completed as usize,
            map_cpu: saved.map_cpu.iter().map(|&c| SimDuration(c)).collect(),
            ready_at: saved.ready_at.iter().map(|&t| SimTime(t)).collect(),
            delivery_seq: saved.delivery_seq,
            crash_count: saved.crash_count.iter().map(|&c| c as u32).collect(),
            reduce_cpu: saved.reduce_cpu.iter().map(|&c| SimDuration(c)).collect(),
            spill_written_reduce: saved.spill_written_reduce,
        },
        deferred: saved
            .deferred
            .into_iter()
            .map(|defs| {
                defs.into_iter()
                    .map(|d| (d.from_node as usize, d.payload))
                    .collect()
            })
            .collect(),
        output: saved.output,
        reducers: saved.reducers,
    })
}
