//! The traced run (`--trace 1`): the workload's work broken down by
//! engine layer, timed from outside through each layer's public
//! functions.
//!
//! * A bench-side driver replays the engine's sequential event loop by
//!   calling `compute_map_task` / `finish_map_task`, `make_reducer`,
//!   `ReduceSide::on_delivery` / `finish` and `replay` itself, timing
//!   each call. Its output must equal the real engine's as a multiset.
//! * A [`Timed`] job wrapper times the user code (`map`, `init`/`cb`/
//!   `finalize`, `reduce`) inside a real `JobBuilder::run`.
//! * `JobBuilder::trace(true)` against trace off gives the tracing cost.
//! * Probes time `SavedState::{encode, decode}`, `Server::{step, query}`
//!   and `Dataflow::run_from` with the handoffs between stages.
//!
//! Counts come from the real run's `JobOutcome.metrics` and trace, not
//! from the driver, whose delivery order need not match the engine's.

use crate::affinity::ClientPlacement;
use crate::jobs::{NodeCarryJob, Probe, Shared, Timed};
use crate::reference as refs;
use crate::stats::{median, quantile};
use crate::workloads::{
    self as wl, serve_drain, Book, Client, Expect, Fingerprint, Prepared, Size, Workload,
};
use crate::{Metric, Report};
use opa_common::rng::SplitMix64;
use opa_common::units::{SimDuration, SimTime};
use opa_common::{AdmissionPolicy, CombineScope, HashFamily, Pair, Result};
use opa_core::api::Job;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::dataflow::{Dataflow, Dataset, Handoff};
use opa_core::job::{JobBuilder, JobInput, JobOutcome};
use opa_core::map_phase::{compute_map_task, finish_map_task, Payload};
use opa_core::progress::ProgressTracker;
use opa_core::reduce::dinc_hash::MonitorKind;
use opa_core::reduce::{make_reducer, replay, Effect, ReduceEnv, ReducerSizing, ReplayTarget};
use opa_core::sim::{EventQueue, Resources};
use opa_serve::{ServeAnswer, ServeConfig, ServeQuery, Server};
use opa_simio::BlockStore;
use opa_stream::{SavedState, StreamJobBuilder};
use opa_trace::TraceEvent;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of every timed step; each layer figure is a median.
const REPS: usize = 5;
/// Keys per `LookupBatch` query.
const BATCH_KEYS: usize = 256;

pub fn run(w: Workload, size: &Size, seed: u64, _seconds: f64) -> Report {
    match breakdown(w, size, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("traced run failed: {e}");
            Report {
                attempted: 1,
                failed: 1,
                sound: false,
                metrics: Vec::new(),
                raw: Vec::new(),
                samples: 0,
            }
        }
    }
}

/// Wall-clock seconds of `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Nanoseconds one [`Timed`] probe records around an empty call: the
/// share of its own cost that lands inside the span it times.
fn probe_span_ns() -> f64 {
    let probe = Probe::default();
    for _ in 0..200_000 {
        probe.time(|| std::hint::black_box(()));
    }
    let (ns, calls) = probe.read();
    ns as f64 / calls as f64
}

/// A real engine run of the workload's primary job.
fn engine(job: Shared, fw: Framework, km: f64, threads: usize, trace: bool) -> JobBuilder<Shared> {
    JobBuilder::new(job)
        .framework(fw)
        .cluster(wl::cluster())
        .km_hint(km)
        .threads(threads)
        .trace(trace)
}

/// Wall seconds the bench-side driver spent in each layer's calls.
#[derive(Default, Clone, Copy)]
struct DriverTimes {
    /// `compute_map_task`, user code included.
    map: f64,
    /// `on_delivery` + `finish`, user code included.
    reduce: f64,
    /// `finish_map_task` + `replay`.
    sim: f64,
    /// Effects replayed.
    effects: u64,
}

/// Replays the engine's sequential event loop (no faults, no snapshots,
/// task-scope combining, admission off, every reducer in the first wave)
/// through the layers' public functions, timing each call. Returns the
/// output and the layer times.
fn drive(
    job: &Shared,
    fw: Framework,
    km: f64,
    input: &JobInput,
) -> Result<(Vec<Pair>, DriverTimes)> {
    let job: &dyn Job = job;
    let spec = wl::cluster();
    let hw = &spec.hardware;
    let (n_nodes, n_reducers) = (hw.nodes, spec.total_reducers());
    let family = HashFamily::new(spec.hash_seed);
    let h1 = family.fn_at(0);
    let store = BlockStore::split(
        input.records.iter().map(|r| r.len() as u64),
        spec.system.chunk_size,
        n_nodes,
    );
    let mut res = Resources::new(
        n_nodes,
        hw.map_slots.max(hw.reduce_slots),
        spec.cost.spill_disk != spec.cost.hdfs_disk,
    );
    let mut progress = ProgressTracker::new(store.num_chunks() as u64);
    let expected_input = ((input.total_bytes() as f64 * km) / n_reducers as f64).ceil() as u64;
    let sizing = ReducerSizing {
        expected_input,
        expected_keys: job
            .expected_keys()
            .map_or(expected_input / 64, |k| (k / n_reducers as u64).max(1)),
        state_size: job.state_size_hint().unwrap_or(64),
        early_stop_coverage: None,
        monitor: MonitorKind::Frequent,
        admission: AdmissionPolicy::Off,
    };
    let mut reducers = (0..n_reducers)
        .map(|_| make_reducer(fw, job, &spec, sizing, &family))
        .collect::<Result<Vec<_>>>()?;

    enum Ev {
        Map(usize),
        Deliver(usize, Payload),
    }
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_nodes];
    for (i, c) in store.chunks().iter().enumerate() {
        pending[c.node].push_back(i);
    }
    for node in pending.iter_mut() {
        for _ in 0..hw.map_slots {
            if let Some(chunk) = node.pop_front() {
                queue.push(SimTime::ZERO, Ev::Map(chunk));
            }
        }
    }

    let (mut map_d, mut reduce_d, mut sim_d) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut output: Vec<Pair> = Vec::new();
    let mut ready_at = vec![SimTime::ZERO; n_reducers];
    let mut map_finish = SimTime::ZERO;
    let (mut cpu, mut spill, mut snap) = (
        vec![SimDuration::ZERO; n_reducers],
        vec![0u64; n_reducers],
        vec![0u64; n_reducers],
    );
    let mut effects = 0u64;
    macro_rules! replay_into {
        ($r:expr, $log:expr, $t0:expr) => {{
            let (r, log) = ($r, $log);
            effects += log.len() as u64;
            let s = Instant::now();
            let done = replay(
                log,
                $t0,
                &spec,
                ReplayTarget {
                    node: r % n_nodes,
                    res: &mut res,
                    progress: &mut progress,
                    output: &mut output,
                    reduce_cpu: &mut cpu[r],
                    spill_written: &mut spill[r],
                    snapshot_bytes: &mut snap[r],
                },
            );
            sim_d += s.elapsed();
            done
        }};
    }
    macro_rules! in_reduce {
        ($e:expr) => {{
            let s = Instant::now();
            let out = $e;
            reduce_d += s.elapsed();
            out
        }};
    }

    while let Some((t, ev)) = queue.pop() {
        match ev {
            Ev::Map(chunk) => {
                let c = &store.chunks()[chunk];
                let s = Instant::now();
                let plan = compute_map_task(
                    job,
                    fw,
                    &input.records[c.range.clone()],
                    c.bytes,
                    &spec,
                    h1,
                    AdmissionPolicy::Off,
                    CombineScope::Task,
                    None,
                );
                map_d += s.elapsed();
                let s = Instant::now();
                let result = finish_map_task(plan, c.node, t, &spec, &mut res);
                sim_d += s.elapsed();
                map_finish = map_finish.max(result.finish);
                output.extend(result.early_output);
                for granule in result.granules {
                    for (r, payload) in granule.partitions.into_iter().enumerate() {
                        if !payload.is_empty() {
                            let arrival = granule.time + spec.cost.net_time(payload.bytes());
                            queue.push(arrival, Ev::Deliver(r, payload));
                        }
                    }
                }
                if let Some(next) = pending[c.node].pop_front() {
                    queue.push(result.finish, Ev::Map(next));
                }
            }
            Ev::Deliver(r, payload) => {
                // Like the engine: take the whole run of consecutive
                // deliveries, feed each reducer its mailbox in arrival
                // order, then replay the logs in pop order.
                let mut order = vec![(r, t)];
                let mut mail: Vec<VecDeque<Payload>> = vec![VecDeque::new(); n_reducers];
                mail[r].push_back(payload);
                while matches!(queue.peek(), Some((_, Ev::Deliver(..)))) {
                    let Some((t, Ev::Deliver(r, payload))) = queue.pop() else {
                        unreachable!("peeked a delivery");
                    };
                    order.push((r, t));
                    mail[r].push_back(payload);
                }
                let mut logs: Vec<VecDeque<Vec<Effect>>> = vec![VecDeque::new(); n_reducers];
                for (r, items) in mail.into_iter().enumerate() {
                    let mut te = ready_at[r];
                    for payload in items {
                        let mut env = ReduceEnv::new(&spec);
                        te = in_reduce!(reducers[r].on_delivery(te, payload, &mut env));
                        logs[r].push_back(env.into_log());
                    }
                }
                for (r, t) in order {
                    let log = logs[r].pop_front().expect("one log per delivery");
                    let t0 = ready_at[r].max(t);
                    ready_at[r] = replay_into!(r, log, t0);
                }
            }
        }
    }
    for (r, rec) in reducers.iter_mut().enumerate() {
        let t0 = ready_at[r].max(map_finish);
        let mut env = ReduceEnv::new(&spec);
        in_reduce!(rec.finish(t0, &mut env));
        replay_into!(r, env.into_log(), t0);
    }
    let times = DriverTimes {
        map: map_d.as_secs_f64(),
        reduce: reduce_d.as_secs_f64(),
        sim: sim_d.as_secs_f64(),
        effects,
    };
    Ok((output, times))
}

/// Stages of a chain: job, framework, map-output hint.
type Stage = (Shared, Framework, f64);

/// The real chain over `stages`, from raw records or a resident dataset.
fn chain(stages: &[Stage]) -> Dataflow {
    stages
        .iter()
        .fold(Dataflow::new(wl::cluster()), |f, (job, fw, km)| {
            f.then(job.clone(), *fw).stage_km_hint(*km)
        })
}

/// Runs `stages` stage by stage from the benchmark's side, timing the
/// stage runs apart from the handoffs between them (`to_input`,
/// `JobOutcome::dataset`, `verify_placement`). A partition-preserving
/// stage runs as a one-stage `Dataflow::run_from`, the only public door
/// to the shuffle-skip executor.
fn drive_chain(
    stages: &[Stage],
    source: Option<&JobInput>,
    start: Option<&Dataset>,
) -> Result<ChainRun> {
    let spec: ClusterSpec = wl::cluster();
    let (mut stage_s, mut handoff_s, mut bytes_saved) = (0.0, 0.0, 0);
    let mut current: Option<Dataset> = start.cloned();
    for (job, fw, km) in stages {
        let ds = match (&current, source) {
            (None, Some(input)) => {
                let (dt, out) = timed(|| engine(job.clone(), *fw, *km, 1, false).run(input));
                stage_s += dt;
                let out = out?;
                let (dt, ds) = timed(|| out.dataset(&spec));
                handoff_s += dt;
                ds
            }
            (Some(ds), _) if job.partition_preserving() => {
                let (dt, ok) = timed(|| ds.verify_placement());
                handoff_s += dt;
                if !ok {
                    return Err(opa_common::Error::job("placement does not verify"));
                }
                let one = Dataflow::new(spec)
                    .then(job.clone(), *fw)
                    .stage_km_hint(*km);
                let (dt, out) = timed(|| one.run_from(ds));
                stage_s += dt;
                let out = out?;
                bytes_saved += out.stages[0].bytes_saved;
                out.output
            }
            (Some(ds), _) => {
                let (dt, input) = timed(|| ds.to_input());
                handoff_s += dt;
                let (dt, out) = timed(|| engine(job.clone(), *fw, *km, 1, false).run(&input));
                stage_s += dt;
                let out = out?;
                let (dt, ds) = timed(|| out.dataset(&spec));
                handoff_s += dt;
                ds
            }
            (None, None) => unreachable!("a chain starts from records or a dataset"),
        };
        current = Some(ds);
    }
    Ok(ChainRun {
        output: current.expect("a chain has stages").sorted_pairs(),
        stage_s,
        handoff_s,
        bytes_saved,
    })
}

/// What [`drive_chain`] measured.
struct ChainRun {
    output: Vec<Pair>,
    stage_s: f64,
    handoff_s: f64,
    bytes_saved: u64,
}

fn breakdown(w: Workload, size: &Size, seed: u64) -> Result<Report> {
    let prep: Prepared = wl::setup(w, size, seed)?;
    let expect = Expect::compute(w, size, &prep);
    let mut book = Book::default();
    let mut sound = true;
    let mt = wl::nproc();
    let (job, fw, km) = wl::primary_job(w, size);

    // The primary job's input and reference: one PageRank round runs
    // over the resident graph, the others over the generated records.
    let (input, reference): (Arc<JobInput>, Option<Vec<Pair>>) = match w {
        Workload::PagerankChain => {
            let graph = prep
                .graph
                .as_ref()
                .expect("pagerank set-up builds the graph");
            (
                Arc::new(graph.to_input()),
                Some(refs::pagerank(&prep.inputs[0], 1)),
            )
        }
        _ => (prep.inputs[0].clone(), None),
    };
    let output_ok = |out: &JobOutcome| match &reference {
        Some(r) => refs::sorted(&out.output) == *r,
        None => expect.output_ok(0, &out.output),
    };
    let check = |book: &mut Book, out: &JobOutcome| {
        book.job("batch", 0, output_ok(out), Fingerprint::of(&out.metrics));
    };

    // Untraced and traced engine runs, interleaved.
    // Tracing cost is the median of paired (traced − untraced) walls.
    let (mut wall_1t, mut wall_mt, mut trace_cost, mut rollup_s) = (vec![], vec![], vec![], vec![]);
    let mut events: Option<usize> = None;
    let mut real: Option<JobOutcome> = None;
    for _ in 0..REPS {
        let (dt, out) = timed(|| engine(job.clone(), fw, km, 1, false).run(&input));
        let out = out?;
        check(&mut book, &out);
        wall_1t.push(dt);
        real = Some(out);
        let (dt, out) = timed(|| engine(job.clone(), fw, km, mt, false).run(&input));
        check(&mut book, &out?);
        wall_mt.push(dt);
        let (dt, out) = timed(|| engine(job.clone(), fw, km, 1, true).run(&input));
        let out = out?;
        check(&mut book, &out);
        trace_cost.push(dt - wall_1t[wall_1t.len() - 1]);
        let log = out.trace.as_ref().expect("traced run carries a trace");
        // Determinism guard: the trace repeats exactly.
        sound &= *events.get_or_insert(log.events.len()) == log.events.len();
        let (dt, _) = timed(|| std::hint::black_box(log.rollup()));
        rollup_s.push(dt);
    }
    // The trace is thread-count invariant too.
    let traced_mt = engine(job.clone(), fw, km, mt, true).run(&input)?;
    check(&mut book, &traced_mt);
    let log = traced_mt.trace.expect("traced run carries a trace");
    sound &= events == Some(log.events.len());
    let count = |f: fn(&TraceEvent) -> bool| log.events.iter().filter(|e| f(e)).count() as f64;
    let tasks = count(|e| matches!(e, TraceEvent::MapFinish { .. }));
    let deliveries = count(|e| matches!(e, TraceEvent::Shuffle { .. }));
    let real = real.expect("REPS > 0");
    let fp = Fingerprint::of(&real.metrics);

    // Layer times. Each repetition times an untraced engine run, the
    // same job wrapped in `Timed` (user code inside the real engine, less
    // the probes' own cost) and the unwrapped bench-side driver back to
    // back, so host-speed drift hits all three alike. A layer's self time
    // is its driver call time less the user code measured inside it; the
    // driver must give the engine's output multiset.
    let probe_ns = probe_span_ns();
    let self_s = |(ns, calls): (u64, u64)| (ns as f64 - calls as f64 * probe_ns) / 1e9;
    let want = refs::sorted(&real.output);
    let mut udf: [Vec<f64>; 3] = Default::default();
    let (mut driven, mut coverage, mut loop_s) = (vec![], vec![], vec![]);
    let mut calls = (0u64, 0u64);
    for _ in 0..REPS {
        let (wall, out) = timed(|| engine(job.clone(), fw, km, 1, false).run(&input));
        check(&mut book, &out?);
        let timed_job = Timed::new(job.clone());
        let clock = timed_job.clock.clone();
        let out = JobBuilder::new(timed_job)
            .framework(fw)
            .cluster(wl::cluster())
            .km_hint(km)
            .threads(1)
            .run(&input)?;
        check(&mut book, &out);
        let probes = [
            clock.map.read(),
            clock.reduce_at_map.read(),
            clock.reduce_at_reduce.read(),
        ];
        for (acc, p) in udf.iter_mut().zip(probes) {
            acc.push(self_s(p));
        }
        calls = (probes[0].1, probes[1].1 + probes[2].1);
        let (out, t) = drive(&job, fw, km, &input)?;
        book.record(refs::sorted(&out) == want);
        let layers = t.map + t.reduce + t.sim;
        coverage.push(layers / wall);
        loop_s.push(wall - layers);
        driven.push(t);
    }
    let [map_udf, red_at_map, red_at_reduce] = udf.map(|v| median(&v));
    let pick = |f: fn(&DriverTimes) -> f64| median(&driven.iter().map(f).collect::<Vec<_>>());
    let (map_call, reduce_call, sim) = (pick(|d| d.map), pick(|d| d.reduce), pick(|d| d.sim));
    let map_phase = map_call - map_udf - red_at_map;
    let reduce = reduce_call - red_at_reduce;
    let reduce_udf = red_at_map + red_at_reduce;
    let w1 = median(&wall_1t);
    let emitted: u64 = input
        .records
        .iter()
        .map(|rec| {
            let mut bytes = 0u64;
            job.map(rec, &mut |k, v| bytes += (k.len() + v.len()) as u64);
            bytes
        })
        .sum();

    let stream = stream_probe(w, size, &prep)?;
    let serve = serve_probe(w, size, &prep, seed, &expect, &mut book)?;
    let flow = dataflow_probe(w, size, &prep, &job, fw, km)?;
    sound &= flow.agree;

    let metrics: Vec<Metric> = vec![
        ("map_udf.self_s", map_udf, "s"),
        ("map_udf.calls", calls.0 as f64, "count"),
        ("map_phase.self_s", map_phase, "s"),
        ("map_phase.tasks", tasks, "count"),
        ("map_phase.output_bytes", fp.map_output_bytes as f64, "B"),
        (
            "map_phase.combine_ratio",
            fp.map_output_bytes as f64 / emitted.max(1) as f64,
            "ratio",
        ),
        ("reduce.self_s", reduce, "s"),
        ("reduce.deliveries", deliveries, "count"),
        ("reduce.spill_bytes", fp.reduce_spill_bytes as f64, "B"),
        ("reduce_udf.self_s", reduce_udf, "s"),
        ("reduce_udf.calls", calls.1 as f64, "count"),
        ("reduce.gamma", fp.gamma(), "ratio"),
        ("sim.self_s", sim, "s"),
        ("sim.effects", driven[0].effects as f64, "count"),
        ("sim.io_requests", fp.io_requests as f64, "count"),
        ("sim.io_bytes", fp.io_bytes as f64, "B"),
        ("job.loop_s", median(&loop_s), "s"),
        ("job.coverage", median(&coverage), "ratio"),
        ("exec.speedup", w1 / median(&wall_mt), "ratio"),
        ("trace.overhead_s", median(&trace_cost), "s"),
        ("trace.events", log.events.len() as f64, "count"),
        ("trace.rollup_s", median(&rollup_s), "s"),
        ("stream.wave_s", serve.wave_s, "s"),
        ("stream.ckpt_encode_s", stream.encode_s, "s"),
        ("stream.ckpt_decode_s", stream.decode_s, "s"),
        ("stream.ckpt_bytes", stream.bytes, "B"),
        ("serve.admission_wait_rounds", serve.wait_rounds, "count"),
        (
            "serve.lookup_batch_ns_per_key",
            serve.batch_ns_per_key,
            "ns",
        ),
        ("serve.lookup_p99_us", serve.lookup_p99_us, "us"),
        ("dataflow.stage_s", flow.stage_s, "s"),
        ("dataflow.handoff_s", flow.handoff_s, "s"),
        ("dataflow.bytes_saved", flow.bytes_saved, "B"),
        ("dataflow.shuffles_skipped", flow.skipped, "count"),
    ];
    Ok(Report {
        attempted: book.attempted,
        failed: book.failed,
        sound,
        metrics,
        raw: Vec::new(),
        samples: (REPS * 6) as u64,
    })
}

struct StreamProbe {
    encode_s: f64,
    decode_s: f64,
    bytes: f64,
}

/// Streams the served job with a mid-run checkpoint, then times the
/// checkpoint codec on the file it wrote.
fn stream_probe(w: Workload, size: &Size, prep: &Prepared) -> Result<StreamProbe> {
    let (job, fw, km) = wl::served_job(w, size);
    let dir = std::path::PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    let run = StreamJobBuilder::new(job)
        .framework(fw)
        .cluster(wl::cluster())
        .km_hint(km)
        .batches(wl::SERVE_BATCHES)
        .checkpoint_every(wl::SERVE_BATCHES / 2)
        .checkpoint_dir(&dir)
        .run_stream(&prep.inputs[0], |_| {});
    let bytes = run.and_then(|out| {
        let path = out
            .last_checkpoint
            .ok_or_else(|| opa_common::Error::job("stream run wrote no checkpoint"))?;
        std::fs::read(&path).map_err(|e| opa_common::Error::storage(e.to_string()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    let bytes = bytes?;
    let (mut dec, mut enc) = (vec![], vec![]);
    for _ in 0..REPS {
        let (dt, state) = timed(|| SavedState::decode(&bytes));
        dec.push(dt);
        let state = state?;
        let (dt, again) = timed(|| state.encode());
        enc.push(dt);
        if again != bytes {
            return Err(opa_common::Error::job(
                "checkpoint does not re-encode byte for byte",
            ));
        }
    }
    Ok(StreamProbe {
        encode_s: median(&enc),
        decode_s: median(&dec),
        bytes: bytes.len() as f64,
    })
}

struct ServeProbe {
    lookup_p99_us: f64,
    wave_s: f64,
    wait_rounds: f64,
    batch_ns_per_key: f64,
}

/// One serve drain like the end-to-end run's (every tenant at once, the
/// client querying between waves) timing each `Server::step` and the
/// lookup tail, then batched lookups against a paused job.
fn serve_probe(
    w: Workload,
    size: &Size,
    prep: &Prepared,
    seed: u64,
    expect: &Expect,
    book: &mut Book,
) -> Result<ServeProbe> {
    let (job, fw, km) = wl::served_job(w, size);
    let (inputs, ids): (Vec<Arc<JobInput>>, Vec<usize>) = match w {
        Workload::ServeTopk => (prep.inputs.clone(), (0..prep.inputs.len()).collect()),
        _ => (
            vec![prep.inputs[0].clone(); wl::nproc()],
            vec![0; wl::nproc()],
        ),
    };
    let mut client = Client::new(w, &prep.inputs, seed);
    let d = serve_drain(&job, fw, km, &inputs, &ids, Some(&mut client), expect, book);

    let mut server = Server::new(ServeConfig::default());
    let id = server
        .submit(0, job, prep.inputs[0].clone(), &wl::job_spec(fw, km))?
        .job;
    let mut rng = SplitMix64::new(seed ^ 0xBA7C);
    let keys = wl::lookup_keys(w, &prep.inputs[0], &mut rng, BATCH_KEYS);
    let mut per_key = Vec::with_capacity(REPS * 4);
    let placement = ClientPlacement::new();
    // Untimed: moves the job's thread to its placement.
    book.record(matches!(
        server.query(id, &ServeQuery::Progress),
        Ok(ServeAnswer::Progress(_))
    ));
    for _ in 0..REPS * 4 {
        let (dt, answer) = timed(|| server.query(id, &ServeQuery::LookupBatch(keys.clone())));
        let ok = match answer {
            Ok(ServeAnswer::Values(vals)) => {
                vals.len() == keys.len()
                    && keys
                        .iter()
                        .zip(&vals)
                        .all(|(k, v)| expect.lookup_ok(0, k, v.as_ref()))
            }
            _ => false,
        };
        book.record(ok);
        per_key.push(dt * 1e9 / keys.len() as f64);
    }
    drop(placement);
    server.run_to_completion()?;
    Ok(ServeProbe {
        lookup_p99_us: quantile(&client.lookup_us, 0.99),
        wave_s: median(&d.steps),
        wait_rounds: d.wait_rounds as f64,
        batch_ns_per_key: median(&per_key),
    })
}

struct FlowProbe {
    stage_s: f64,
    handoff_s: f64,
    bytes_saved: f64,
    skipped: f64,
    /// The bench-side chain matched the real one.
    agree: bool,
}

/// The real chain (PageRank's rounds, or the workload's job followed by
/// the partition-preserving carry stage) against the same chain driven
/// stage by stage from the benchmark.
fn dataflow_probe(
    w: Workload,
    size: &Size,
    prep: &Prepared,
    job: &Shared,
    fw: Framework,
    km: f64,
) -> Result<FlowProbe> {
    let carry: Stage = (Shared::new(NodeCarryJob), Framework::MrHash, 1.0);
    let (stages, source, start): (Vec<Stage>, Option<&JobInput>, Option<&Dataset>) = match w {
        Workload::PagerankChain => {
            let round: Stage = (job.clone(), fw, km);
            let stages = (0..size.pagerank_rounds)
                .flat_map(|_| [round.clone(), carry.clone()])
                .collect();
            (stages, None, prep.graph.as_ref())
        }
        _ => (
            vec![(job.clone(), fw, km), carry],
            Some(&*prep.inputs[0]),
            None,
        ),
    };
    let flow = chain(&stages);
    let real = match (source, start) {
        (Some(input), _) => flow.run(input)?,
        (None, Some(ds)) => flow.run_from(ds)?,
        (None, None) => unreachable!("a chain starts from records or a dataset"),
    };
    let bytes_saved: u64 = real.stages.iter().map(|s| s.bytes_saved).sum();
    let want = real.output.sorted_pairs();
    let (mut stage_s, mut handoff_s, mut agree) = (vec![], vec![], true);
    for _ in 0..REPS {
        let run = drive_chain(&stages, source, start)?;
        // Same output, and the skip saved the same bytes (determinism).
        agree &= run.output == want && run.bytes_saved == bytes_saved;
        stage_s.push(run.stage_s);
        handoff_s.push(run.handoff_s);
    }
    Ok(FlowProbe {
        stage_s: median(&stage_s),
        handoff_s: median(&handoff_s),
        bytes_saved: bytes_saved as f64,
        skipped: real
            .stages
            .iter()
            .filter(|s| s.handoff == Handoff::InMemory)
            .count() as f64,
        agree,
    })
}
