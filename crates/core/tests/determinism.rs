//! The engine's determinism contract: a job's [`JobOutcome`] must be
//! bit-identical at any execution-layer thread count. The scheduling
//! layer replays recorded effects in event order, so worker threads may
//! only change wall-clock time — never metrics, output, progress curves,
//! timelines or disk-queue interactions.

use opa_common::fault::FaultConfig;
use opa_common::rng::SplitMix64;
use opa_common::ExecConfig;
use opa_common::{Key, Value};
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobBuilder, JobInput};
use opa_trace::{TraceEvent, TraceLog};

/// Word-count-style job with a combiner and an incremental reducer, so
/// every framework (sort-merge, hash, INC, DINC) has its natural path.
struct WordCount;

impl Job for WordCount {
    fn name(&self) -> &str {
        "word-count"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        for word in record.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            emit(word, &1u64.to_be_bytes());
        }
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
        ctx.emit(key.clone(), Value::from_u64(sum));
    }
    fn combiner(&self) -> Option<&dyn Combiner> {
        Some(self)
    }
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(self)
    }
    fn expected_keys(&self) -> Option<u64> {
        Some(400)
    }
}

impl Combiner for WordCount {
    fn combine(&self, _key: &Key, values: Vec<Value>) -> Vec<Value> {
        vec![Value::from_u64(
            values.iter().filter_map(Value::as_u64).sum(),
        )]
    }
}

impl IncrementalReducer for WordCount {
    fn init(&self, _key: &Key, value: Value) -> Value {
        value
    }
    fn cb(&self, _key: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
        *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + other.as_u64().unwrap_or(0));
    }
    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        ctx.emit(key.clone(), state);
    }
}

/// A seeded input with a skewed key distribution — enough records for
/// several chunks per node and plenty of shuffle traffic.
fn seeded_input(seed: u64, records: usize) -> JobInput {
    let mut rng = SplitMix64::new(seed);
    let recs: Vec<Vec<u8>> = (0..records)
        .map(|_| {
            let words = 3 + rng.next_below(5) as usize;
            let mut line = Vec::new();
            for w in 0..words {
                if w > 0 {
                    line.push(b' ');
                }
                // Zipf-ish skew: a few hot words, a long cold tail.
                let id = if rng.next_below(4) == 0 {
                    rng.next_below(8)
                } else {
                    8 + rng.next_below(300)
                };
                line.extend_from_slice(format!("w{id}").as_bytes());
            }
            line
        })
        .collect();
    JobInput::from_records(recs)
}

/// Records of four words drawn from `vocab(rng)`.
fn words_input(seed: u64, records: usize, vocab: impl Fn(&mut SplitMix64) -> String) -> JobInput {
    let mut rng = SplitMix64::new(seed);
    let recs: Vec<Vec<u8>> = (0..records)
        .map(|_| {
            let words: Vec<String> = (0..4).map(|_| vocab(&mut rng)).collect();
            words.join(" ").into_bytes()
        })
        .collect();
    JobInput::from_records(recs)
}

fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::paper_scaled();
    spec.system.chunk_size = 2048; // many chunks → many map tasks
    spec
}

fn run(framework: Framework, threads: usize, input: &JobInput) -> String {
    let outcome = JobBuilder::new(WordCount)
        .framework(framework)
        .cluster(spec())
        .exec(ExecConfig::oversubscribed(threads))
        .run(input)
        .expect("job runs");
    // JobMetrics has no PartialEq; the Debug form covers every field of
    // the outcome, which is exactly the bit-identity contract.
    format!("{outcome:?}")
}

#[test]
fn outcome_is_bit_identical_across_thread_counts() {
    let input = seeded_input(0xC0FFEE, 1500);
    for framework in [
        Framework::SortMerge,
        Framework::MrHash,
        Framework::IncHash,
        Framework::DincHash,
    ] {
        let seq = run(framework, 1, &input);
        for threads in [2, 4, 8] {
            let par = run(framework, threads, &input);
            assert_eq!(
                seq, par,
                "{framework:?} outcome diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn pipelined_snapshots_are_bit_identical_across_thread_counts() {
    // Snapshot scheduling rides on delivery processing, the part most
    // reshaped by burst mailboxes — worth its own matrix entry.
    let input = seeded_input(0xBEEF, 1200);
    let run_snap = |threads: usize| {
        let outcome = JobBuilder::new(WordCount)
            .framework(Framework::SortMergePipelined)
            .cluster(spec())
            .snapshot_points(&[0.25, 0.5, 0.75])
            .exec(ExecConfig::oversubscribed(threads))
            .run(&input)
            .expect("job runs");
        format!("{outcome:?}")
    };
    let seq = run_snap(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            seq,
            run_snap(threads),
            "snapshots diverged at {threads} threads"
        );
    }
}

#[test]
fn two_wave_jobs_are_bit_identical_across_thread_counts() {
    // Second-wave reducers defer deliveries and re-read map output from
    // disk; their arrival ordering is scheduling-sensitive by design.
    let input = seeded_input(0xDADA, 1200);
    let run_waves = |threads: usize| {
        let mut s = spec();
        s.system.reducers_per_node = s.hardware.reduce_slots * 2;
        let outcome = JobBuilder::new(WordCount)
            .framework(Framework::SortMerge)
            .cluster(s)
            .exec(ExecConfig::oversubscribed(threads))
            .run(&input)
            .expect("job runs");
        format!("{outcome:?}")
    };
    let seq = run_waves(1);
    for threads in [2, 4, 8] {
        assert_eq!(seq, run_waves(threads), "diverged at {threads} threads");
    }
}

#[test]
fn fault_injection_is_bit_identical_across_thread_counts() {
    // Injected faults force retries and recovery reads, which reshuffle
    // the work-stealing pool's task mix mid-job — steal order still must
    // not leak into the outcome, including the recorded fault trace.
    let input = seeded_input(0xFA17, 1200);
    let run_faulty = |framework: Framework, threads: usize| {
        let outcome = JobBuilder::new(WordCount)
            .framework(framework)
            .cluster(spec())
            .faults(FaultConfig::uniform(0xD15C, 0.02))
            .exec(ExecConfig::oversubscribed(threads))
            .run(&input)
            .expect("job terminates under injected faults");
        format!("{outcome:?}")
    };
    for framework in [Framework::SortMerge, Framework::IncHash] {
        let seq = run_faulty(framework, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                seq,
                run_faulty(framework, threads),
                "{framework:?} fault run diverged at {threads} threads"
            );
        }
    }
}

/// Bounds on the payload bytes of a job's largest delivery burst, read
/// from its trace. The loop's bursts are maximal runs of deliveries
/// between two map starts, and events pop in time order: every burst
/// arrives within a closed window between consecutive map-start times,
/// and all deliveries strictly inside one window form a single burst.
/// Returns `(lower, upper)`. Only first-wave reducers (below
/// `wave1_reducers`) count, as the loop parks the others' deliveries.
fn largest_burst_bounds(trace: &TraceLog, wave1_reducers: usize) -> (u64, u64) {
    let mut starts: Vec<u64> = Vec::new();
    let mut arrivals: Vec<(u64, u64)> = Vec::new();
    for ev in &trace.events {
        match *ev {
            TraceEvent::MapStart { t, .. } => starts.push(t),
            TraceEvent::Shuffle {
                t, reducer, bytes, ..
            } if (reducer as usize) < wave1_reducers => arrivals.push((t, bytes)),
            _ => {}
        }
    }
    starts.sort_unstable();
    starts.dedup();
    let edges: Vec<Option<u64>> = std::iter::once(None)
        .chain(starts.into_iter().map(Some))
        .chain(std::iter::once(None))
        .collect();
    let window_bytes = |a: Option<u64>, b: Option<u64>, closed: bool| -> u64 {
        let after = |t: u64| a.is_none_or(|a| t > a || (closed && t == a));
        let before = |t: u64| b.is_none_or(|b| t < b || (closed && t == b));
        arrivals
            .iter()
            .filter(|&&(t, _)| after(t) && before(t))
            .map(|&(_, bytes)| bytes)
            .sum()
    };
    edges.windows(2).fold((0, 0), |(lo, hi), w| {
        (
            lo.max(window_bytes(w[0], w[1], false)),
            hi.max(window_bytes(w[0], w[1], true)),
        )
    })
}

#[test]
fn delivery_bursts_on_both_sides_of_the_inline_gate_are_bit_identical() {
    // The loop records a delivery burst on the scheduler thread when its
    // payload is below one map chunk and fans it out to the pool when it
    // is not. On two nodes (eight map slots) the deliveries of successive
    // map waves arrive as separate bursts. A combining count over eight
    // words ships bursts far below a chunk; distinct 40-byte words ship
    // more bytes than each map task read.
    let below = words_input(0x5EED, 6000, |rng| format!("w{}", rng.next_below(8)));
    let above = words_input(0xB16, 600, |rng| {
        format!("w{:039}", rng.next_below(1 << 40))
    });
    let mut cluster = spec();
    cluster.hardware.nodes = 2;
    let wave1_reducers = cluster.hardware.nodes * cluster.hardware.reduce_slots;
    let run_on = |threads: usize, input: &JobInput| {
        JobBuilder::new(WordCount)
            .framework(Framework::IncHash)
            .cluster(cluster)
            .exec(ExecConfig::oversubscribed(threads))
            .trace(true)
            .run(input)
            .expect("job runs")
    };
    for (side, input) in [("below", &below), ("above", &above)] {
        let seq = run_on(1, input);
        // Each input must keep exercising its side of the gate.
        let trace = seq.trace.as_ref().expect("traced run");
        let (lower, upper) = largest_burst_bounds(trace, wave1_reducers);
        let chunk = cluster.system.chunk_size;
        match side {
            "below" => assert!(upper < chunk, "a burst may reach {upper} B"),
            _ => assert!(lower >= chunk, "no burst is known to reach one chunk"),
        }
        let seq = format!("{seq:?}");
        for threads in [2, 4, 8] {
            assert_eq!(
                seq,
                format!("{:?}", run_on(threads, input)),
                "bursts {side} one chunk diverged at {threads} threads"
            );
        }
    }
}
