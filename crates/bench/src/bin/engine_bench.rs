//! Wall-clock benchmark of the engine's execution layer: sequential
//! (`threads = 1`) versus parallel (`min(host CPUs, 8)` threads) on all
//! five canonical workloads (§2.3/§6 of the paper). Results —
//! host-records-per-second, the parallel speedup, a per-phase busy-time
//! breakdown from the `opa-trace` rollup and (with
//! `--features alloc-stats`) heap allocations per record — land in
//! `BENCH_engine.json` so later changes have a perf trajectory to regress
//! against.
//!
//! ```text
//! cargo run -p opa-bench --release --bin engine_bench [-- OUT.json]
//! cargo run -p opa-bench --release --features alloc-stats --bin engine_bench
//! ```

use opa_common::rng::SplitMix64;
use opa_common::units::KB;
use opa_common::{AdmissionPolicy, CombineScope, ExecConfig};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobBuilder, JobInput};
use opa_trace::SpanKind;
use opa_workloads::clickstream::{format_click, ClickStreamSpec};
use opa_workloads::documents::DocumentSpec;
use opa_workloads::zipf::Zipf;
use opa_workloads::{ClickCountJob, FrequentUsersJob, PageFreqJob, SessionizeJob, TrigramCountJob};
use std::time::Instant;

/// Counting global allocator: every heap allocation (and reallocation) on
/// any thread bumps two relaxed counters. Zero-cost when the feature is
/// off — the default system allocator is used untouched.
#[cfg(feature = "alloc-stats")]
mod alloc_stats {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: defers every operation to `System`; the counters are plain
    // relaxed atomics with no allocation of their own.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Current (allocation count, bytes requested) totals.
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

/// Allocation deltas of one closure invocation, when counting is compiled
/// in.
fn count_allocs(f: impl Fn() -> opa_core::job::JobOutcome) -> Option<(u64, u64)> {
    #[cfg(feature = "alloc-stats")]
    {
        let (a0, b0) = alloc_stats::snapshot();
        let _ = f();
        let (a1, b1) = alloc_stats::snapshot();
        return Some((a1 - a0, b1 - b0));
    }
    #[cfg(not(feature = "alloc-stats"))]
    {
        let _ = &f;
        None
    }
}

/// Best-of-N timing of one engine run; returns (seconds, outcome digest).
fn time_run(runs: usize, f: impl Fn() -> opa_core::job::JobOutcome) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut digest = 0u64;
    for _ in 0..runs {
        let start = Instant::now();
        let outcome = f();
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        // Cheap run-to-run sanity digest: outputs must never vary.
        digest = outcome.metrics.output_records ^ outcome.metrics.running_time.0;
    }
    (best, digest)
}

struct Row {
    workload: &'static str,
    framework: &'static str,
    records: usize,
    seq_secs: f64,
    par_secs: f64,
    par_threads: usize,
    /// Virtual-time busy microseconds per phase, from the trace rollup:
    /// `[map, shuffle, merge, reduce]`. Thread-count invariant, so one
    /// traced run outside the timed loop describes both columns.
    phase_busy: [u64; 4],
    /// (allocations, bytes) of one sequential run, with `alloc-stats`.
    allocs: Option<(u64, u64)>,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.seq_secs / self.par_secs
    }
}

fn bench_workload(
    name: &'static str,
    framework: &'static str,
    input: &JobInput,
    threads: usize,
    run: impl Fn(usize, bool) -> opa_core::job::JobOutcome,
) -> Row {
    let runs = 3;
    let (seq_secs, seq_digest) = time_run(runs, || run(1, false));
    let (par_secs, par_digest) = time_run(runs, || run(threads, false));
    assert_eq!(
        seq_digest, par_digest,
        "{name}: parallel outcome diverged from sequential"
    );
    // The traced run sits outside the timed loop: event recording has its
    // own cost, and the rollup is bit-identical at any thread count anyway.
    let rollup = run(1, true)
        .trace
        .expect("traced run carries a trace log")
        .rollup();
    let phase_busy = [
        rollup.span_time_of(SpanKind::Map),
        rollup.span_time_of(SpanKind::Shuffle),
        rollup.span_time_of(SpanKind::Merge),
        rollup.span_time_of(SpanKind::Reduce),
    ];
    // Allocation accounting also runs outside the timed loop so the atomic
    // bumps never skew the wall-clock numbers.
    let allocs = count_allocs(|| run(1, false));
    Row {
        workload: name,
        framework,
        records: input.len(),
        seq_secs,
        par_secs,
        par_threads: threads,
        phase_busy,
        allocs,
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // The parallel run uses min(host CPUs, 8) threads — the speedup
    // column should measure scheduling quality, not NUMA topology on big
    // boxes. A 1-CPU host still runs 2 workers to exercise the scheduling
    // machinery (hence the explicit oversubscribed exec below, which
    // lifts the engine's host-core cap), but its threads just time-slice,
    // so the result is flagged `oversubscribed` and the speedup reported
    // as null rather than as a misleading ~1.0x.
    let threads = cpus.clamp(2, 8);
    let oversubscribed = threads > cpus;
    // The null-speedup escape hatch exists solely for the 1-CPU case. On
    // a multi-core host an oversubscribed row means the thread-selection
    // logic above regressed — fail loudly instead of silently publishing
    // `speedup: null` rows that downstream dashboards drop on the floor.
    if oversubscribed && cpus > 1 {
        eprintln!(
            "engine_bench: internal error: host reports {cpus} CPUs but the \
             parallel run would use {threads} oversubscribed threads; a null \
             speedup is only legitimate on a 1-CPU host"
        );
        std::process::exit(1);
    }
    let mut spec = ClusterSpec::paper_scaled();
    spec.system.chunk_size = 64 * 1024; // many map tasks to schedule

    println!("engine_bench: {threads} threads vs sequential ({cpus} host CPUs)");

    let docs = DocumentSpec::paper_scaled(12 << 20).generate(42);
    let clicks = ClickStreamSpec::paper_scaled(12 << 20).generate(42);

    // All five workloads of §2.3, spread across the frameworks so the
    // sort-merge, MR-hash, INC-hash and DINC-hash data paths all get a
    // trajectory: trigram is the headline large-key-space run.
    let rows = [
        bench_workload("trigram", "inc_hash", &docs, threads, |t, tr| {
            JobBuilder::new(TrigramCountJob {
                threshold: 1000,
                expected_trigrams: 1 << 20,
            })
            .framework(Framework::IncHash)
            .cluster(spec)
            .km_hint(8.0)
            .exec(ExecConfig::oversubscribed(t))
            .trace(tr)
            .run(&docs)
            .expect("trigram job runs")
        }),
        bench_workload("sessionization", "dinc_hash", &clicks, threads, |t, tr| {
            JobBuilder::new(SessionizeJob {
                gap_secs: 300,
                slack_secs: 400,
                state_capacity: 512,
                charge_fixed_footprint: true,
                expected_users: 50_000,
            })
            .framework(Framework::DincHash)
            .cluster(spec)
            .exec(ExecConfig::oversubscribed(t))
            .trace(tr)
            .run(&clicks)
            .expect("sessionize job runs")
        }),
        bench_workload("click_count", "inc_hash", &clicks, threads, |t, tr| {
            JobBuilder::new(ClickCountJob {
                expected_users: 50_000,
            })
            .framework(Framework::IncHash)
            .cluster(spec)
            .exec(ExecConfig::oversubscribed(t))
            .trace(tr)
            .run(&clicks)
            .expect("click count job runs")
        }),
        bench_workload("frequent_users", "dinc_hash", &clicks, threads, |t, tr| {
            JobBuilder::new(FrequentUsersJob {
                threshold: 50,
                expected_users: 50_000,
            })
            .framework(Framework::DincHash)
            .cluster(spec)
            .exec(ExecConfig::oversubscribed(t))
            .trace(tr)
            .run(&clicks)
            .expect("frequent users job runs")
        }),
        bench_workload("page_freq", "mr_hash", &clicks, threads, |t, tr| {
            JobBuilder::new(PageFreqJob {
                expected_pages: 100_000,
            })
            .framework(Framework::MrHash)
            .cluster(spec)
            .exec(ExecConfig::oversubscribed(t))
            .trace(tr)
            .run(&clicks)
            .expect("page frequency job runs")
        }),
    ];

    // Frequency-gated admission sweep: Zipf skew × {off, lfu} at fixed
    // reduce memory (4 KB against ~450 distinct users, so the table
    // always overflows). γ, spill attribution and `U_4` are virtual-time
    // quantities of the deterministic simulation — identical on every
    // host — so the sweep doubles as an acceptance check: at skew ≥ 1.0
    // the gate must raise measured coverage and cut reduce-spill bytes.
    let adm_rows = admission_sweep();

    // In-node combining sweep: Zipf skew × {off, task, node} on i.i.d.
    // draws, where the model's expected-distinct math is exact. Doubles
    // as the tentpole acceptance check: node scope must ship strictly
    // fewer shuffle bytes than task scope at skew ≥ 1.0, and the
    // combiner-ratio model must track the measurement within 10% for
    // every scope.
    let cmb_rows = combine_sweep();

    let mut json = format!(
        "{{\n  \"host_cpus\": {cpus},\n  \"oversubscribed\": {oversubscribed},\n  \"benchmarks\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        // An oversubscribed "speedup" is scheduling noise, not a
        // measurement — report null so downstream tooling can't chart it.
        let speedup = if oversubscribed {
            "null".to_string()
        } else {
            format!("{:.2}", r.speedup())
        };
        let (apr, bpr) = match r.allocs {
            Some((a, b)) => (
                format!("{:.2}", a as f64 / r.records as f64),
                format!("{:.1}", b as f64 / r.records as f64),
            ),
            None => ("null".to_string(), "null".to_string()),
        };
        let [map_us, shuffle_us, merge_us, reduce_us] = r.phase_busy;
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"framework\": \"{}\", \"records\": {}, \"seq_secs\": {:.4}, \"par_secs\": {:.4}, \"par_threads\": {}, \"seq_records_per_sec\": {:.0}, \"par_records_per_sec\": {:.0}, \"speedup\": {speedup}, \"phase_busy_usecs\": {{\"map\": {map_us}, \"shuffle\": {shuffle_us}, \"merge\": {merge_us}, \"reduce\": {reduce_us}}}, \"allocs_per_record\": {apr}, \"alloc_bytes_per_record\": {bpr}}}{sep}\n",
            r.workload,
            r.framework,
            r.records,
            r.seq_secs,
            r.par_secs,
            r.par_threads,
            r.records as f64 / r.seq_secs,
            r.records as f64 / r.par_secs,
        ));
        let alloc_note = match r.allocs {
            Some((a, _)) => format!("  allocs/rec {:.2}", a as f64 / r.records as f64),
            None => String::new(),
        };
        println!(
            "  {:<14} {:>8} records  seq {:>7.3}s  par {:>7.3}s  speedup {}{alloc_note}",
            r.workload,
            r.records,
            r.seq_secs,
            r.par_secs,
            if oversubscribed {
                "n/a (oversubscribed)".to_string()
            } else {
                format!("{:.2}x", r.speedup())
            }
        );
    }
    json.push_str("  ],\n  \"admission_sweep\": [\n");
    for (i, r) in adm_rows.iter().enumerate() {
        let sep = if i + 1 < adm_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"zipf\": {:.1}, \"admission\": \"{}\", \"gamma_measured\": {:.4}, \"spill_bytes_admitted\": {}, \"spill_bytes_rejected\": {}, \"reduce_spill_bytes\": {}, \"resident_keys\": {}, \"resident_frequency\": {}}}{sep}\n",
            r.zipf,
            r.policy,
            r.gamma,
            r.spill_admitted,
            r.spill_rejected,
            r.reduce_spill_bytes,
            r.resident_keys,
            r.resident_frequency,
        ));
        println!(
            "  admission zipf {:.1} {:<4} γ {:.4}  U4 {:>8}  split {:>7}/{:<7}  resident {}",
            r.zipf,
            r.policy,
            r.gamma,
            r.reduce_spill_bytes,
            r.spill_admitted,
            r.spill_rejected,
            r.resident_keys
        );
    }
    json.push_str("  ],\n  \"combine_sweep\": [\n");
    for (i, r) in cmb_rows.iter().enumerate() {
        let sep = if i + 1 < cmb_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"zipf\": {:.1}, \"combine\": \"{}\", \"shuffle_bytes\": {}, \"map_output_bytes\": {}, \"combine_ratio\": {:.4}, \"node_flushes\": {}, \"merged_rows\": {}, \"model_shuffle_bytes\": {:.0}, \"model_rel_err\": {:.4}}}{sep}\n",
            r.zipf,
            r.scope,
            r.shuffle_bytes,
            r.map_output_bytes,
            r.ratio,
            r.flushes,
            r.merged_rows,
            r.model_bytes,
            r.model_rel_err,
        ));
        println!(
            "  combine zipf {:.1} {:<4} shuffle {:>8}  ratio {:.4}  model {:>8.0} (err {:>5.2}%)",
            r.zipf,
            r.scope,
            r.shuffle_bytes,
            r.ratio,
            r.model_bytes,
            r.model_rel_err * 100.0
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write benchmark json");
    println!("wrote {out}");
}

struct CombineRow {
    zipf: f64,
    scope: &'static str,
    shuffle_bytes: u64,
    map_output_bytes: u64,
    ratio: f64,
    flushes: u64,
    merged_rows: u64,
    model_bytes: f64,
    model_rel_err: f64,
}

/// Runs the Zipf × combine-scope grid on MR-hash over *i.i.d.* Zipf
/// clicks (one pair per record, so the model's draw count is exact) and
/// asserts the tentpole acceptance: node < task shuffle bytes at skew
/// ≥ 1.0, and combiner-term drift ≤ 10% for all three scopes.
fn combine_sweep() -> Vec<CombineRow> {
    const USERS: usize = 1500;
    const RECORDS: usize = 24_000;
    let mut cluster = ClusterSpec::tiny();
    // A roomy staging budget: each node flushes once, the regime where
    // the model's ν = 1 flush-count prediction is exact.
    cluster.node_combine_buffer = 1 << 20;
    let mut rows = Vec::new();
    for zipf in [0.8f64, 1.0, 1.2] {
        // i.i.d. Zipf clicks — deliberately NOT the sessionized generator,
        // whose per-user click *runs* violate the model's independence
        // assumption.
        let mut rng = SplitMix64::new(0xC0B1 + (zipf * 10.0) as u64);
        let sampler = Zipf::new(USERS, zipf);
        let input = JobInput::from_records(
            (0..RECORDS)
                .map(|i| format_click(i as u64, sampler.sample(&mut rng) as u64, 0))
                .collect(),
        );
        let mut booked = [0u64; 3];
        for (slot, scope) in [CombineScope::Off, CombineScope::Task, CombineScope::Node]
            .into_iter()
            .enumerate()
        {
            let outcome = JobBuilder::new(ClickCountJob {
                expected_users: USERS as u64,
            })
            .framework(Framework::MrHash)
            .cluster(cluster)
            .combine(scope)
            .trace(true)
            .run(&input)
            .expect("combine sweep job runs");
            let rollup = outcome
                .trace
                .as_ref()
                .expect("traced run carries a trace log")
                .rollup();
            let model = opa_model::CombineModel {
                pairs: RECORDS as f64,
                pair_bytes: 24.0, // 8-byte user key + 8-byte count + record overhead
                keys: USERS as u64,
                zipf,
                maps: rollup.map_tasks as f64,
                nodes: cluster.hardware.nodes as f64,
                stage_budget: cluster.node_combine_buffer as f64,
            };
            let report = opa_trace::drift::check_with_combine(
                cluster.system,
                cluster.hardware,
                &rollup,
                Some((scope, model)),
            )
            .expect("drift check runs");
            let term = report.combine.expect("combiner term present");
            let nc = outcome.metrics.node_combine;
            booked[slot] = outcome.metrics.shuffle_bytes;
            rows.push(CombineRow {
                zipf,
                scope: scope.label(),
                shuffle_bytes: outcome.metrics.shuffle_bytes,
                map_output_bytes: outcome.metrics.map_output_bytes,
                ratio: outcome.metrics.shuffle_bytes as f64 / (RECORDS as f64 * model.pair_bytes),
                flushes: nc.map_or(0, |s| s.flushes),
                merged_rows: nc.map_or(0, |s| s.merged_rows),
                model_bytes: model.shuffle_bytes(scope),
                model_rel_err: term.rel_err(),
            });
            assert!(
                term.rel_err() <= 0.10,
                "zipf {zipf} {}: combiner-term drift {:.2}% exceeds 10% \
                 (predicted {:.0}, measured {:.0} per node)",
                scope.label(),
                term.rel_err() * 100.0,
                term.predicted,
                term.measured
            );
        }
        let [off, task, node] = booked;
        assert!(
            task < off,
            "zipf {zipf}: task combining did not shrink the shuffle ({task} vs {off})"
        );
        if zipf >= 1.0 {
            assert!(
                node < task,
                "zipf {zipf}: node scope did not beat task scope ({node} vs {task})"
            );
        }
    }
    rows
}

struct AdmRow {
    zipf: f64,
    policy: &'static str,
    gamma: f64,
    spill_admitted: u64,
    spill_rejected: u64,
    reduce_spill_bytes: u64,
    resident_keys: u64,
    resident_frequency: u64,
}

/// Runs the Zipf × policy grid on INC-hash at fixed reduce memory and
/// asserts the tentpole acceptance at skew ≥ 1.0: measured γ strictly
/// beats first-come's and `U_4` strictly drops.
fn admission_sweep() -> Vec<AdmRow> {
    let mut cluster = ClusterSpec::tiny();
    cluster.hardware.reduce_buffer = 4 * KB;
    let mut rows = Vec::new();
    for zipf in [0.8f64, 1.0, 1.2] {
        let mut spec = ClickStreamSpec::counting_scaled(6 << 20);
        spec.zipf_exponent = zipf;
        // A wide user pool against 4 KB of state: the resident set can
        // hold only a few percent of the keys, so admission quality —
        // not raw capacity — decides γ.
        spec.users = 4000;
        let input = spec.generate(42);
        let mut gamma = [0.0f64; 2];
        let mut u4 = [0u64; 2];
        for (slot, policy) in [AdmissionPolicy::Off, AdmissionPolicy::Lfu]
            .into_iter()
            .enumerate()
        {
            let outcome = JobBuilder::new(ClickCountJob {
                expected_users: 1000,
            })
            .framework(Framework::IncHash)
            .cluster(cluster)
            .admission(policy)
            .run(&input)
            .expect("admission sweep job runs");
            let s = outcome
                .metrics
                .admission
                .expect("incremental run reports admission stats");
            gamma[slot] = s.gamma_measured();
            u4[slot] = outcome.metrics.reduce_spill_bytes;
            rows.push(AdmRow {
                zipf,
                policy: policy.label(),
                gamma: s.gamma_measured(),
                spill_admitted: s.spill.admitted_evict,
                spill_rejected: s.spill.rejected_arrival,
                reduce_spill_bytes: outcome.metrics.reduce_spill_bytes,
                resident_keys: s.resident_keys,
                resident_frequency: s.resident_frequency,
            });
        }
        if zipf >= 1.0 {
            assert!(
                gamma[1] > gamma[0],
                "zipf {zipf}: γ_lfu {:.4} does not beat first-come {:.4}",
                gamma[1],
                gamma[0]
            );
            assert!(
                u4[1] < u4[0],
                "zipf {zipf}: U4 did not drop ({} lfu vs {} off)",
                u4[1],
                u4[0]
            );
        }
    }
    rows
}
