//! The four workloads: their inputs, set-up, reference checks, and the
//! operations the end-to-end run times.

use crate::affinity::ClientPlacement;
use crate::jobs::{NodeCarryJob, Shared};
use crate::reference as refs;
use opa_common::rng::SplitMix64;
use opa_common::{ExecConfig, Key, Pair, Value};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::dataflow::{Dataflow, DataflowOutcome, Dataset, Handoff};
use opa_core::job::{JobBuilder, JobInput};
use opa_core::metrics::JobMetrics;
use opa_serve::{JobPhase, JobSpec, ServeAnswer, ServeConfig, ServeQuery, Server};
use opa_workloads::clickstream::ClickStreamSpec;
use opa_workloads::documents::DocumentSpec;
use opa_workloads::pagerank::{PageRankInitJob, PageRankRoundJob};
use opa_workloads::{ClickCountJob, FrequentUsersJob, TrigramCountJob};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Micro-batches (serve waves) per served job.
pub const SERVE_BATCHES: usize = 8;
/// Jobs each tenant submits per serve drain; with one slot per tenant
/// the second one waits in the admission queue.
pub const JOBS_PER_TENANT: usize = 2;
/// Point lookups the client issues per running job between two waves.
pub const LOOKUPS_PER_WAVE: usize = 128;
/// `k` of the client's top-k query per running job and wave.
pub const TOPK: usize = 10;
/// Frequent-user threshold (the paper's 50 clicks).
pub const FREQUENT_THRESHOLD: u64 = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ClicksCount,
    TrigramsSpill,
    ServeTopk,
    PagerankChain,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClicksCount,
        Workload::TrigramsSpill,
        Workload::ServeTopk,
        Workload::PagerankChain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClicksCount => "clicks_count",
            Workload::TrigramsSpill => "trigrams_spill",
            Workload::ServeTopk => "serve_topk",
            Workload::PagerankChain => "pagerank_chain",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and the knobs that must scale with them.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub click_bytes: u64,
    pub doc_bytes: u64,
    /// Click-stream bytes per serve tenant.
    pub serve_bytes: u64,
    pub pagerank_bytes: u64,
    pub pagerank_rounds: usize,
    /// Trigram output threshold; chosen so the output is non-empty.
    pub trigram_threshold: u64,
}

impl Size {
    /// The size the benchmark's recorded runs use.
    pub const FULL: Size = Size {
        click_bytes: 48 << 20,
        doc_bytes: 6 << 20,
        serve_bytes: 16 << 20,
        pagerank_bytes: 8 << 20,
        pagerank_rounds: 10,
        trigram_threshold: 20,
    };

    /// The self-test size: every code path, a fraction of a second each.
    pub const SMOKE: Size = Size {
        click_bytes: 1 << 20,
        doc_bytes: 512 << 10,
        serve_bytes: 1 << 20,
        pagerank_bytes: 512 << 10,
        pagerank_rounds: 2,
        trigram_threshold: 3,
    };
}

/// The simulated cluster every workload runs on: the paper's 10 nodes
/// and 40 reducers at 1/1024 scale.
pub fn cluster() -> ClusterSpec {
    ClusterSpec::paper_scaled()
}

/// Host CPUs: the thread count of the multi-threaded runs and the number
/// of serve tenants.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Click stream for `clicks_count`: Zipf-1.0 users from a 50k pool, short
/// sessions and high concurrency, so each map task sees many distinct
/// users while the whole key space still fits in reducer memory.
fn click_spec(bytes: u64) -> ClickStreamSpec {
    ClickStreamSpec {
        target_bytes: bytes,
        users: 50_000,
        zipf_exponent: 1.0,
        mean_session_clicks: 4,
        click_gap_secs: (5, 35),
        concurrency: 200,
        disorder_secs: 60,
    }
}

/// Click stream for one `serve_topk` tenant: a 20k-user Zipf-1.0 pool,
/// so a few hundred users cross the frequent-user threshold.
fn serve_spec(bytes: u64) -> ClickStreamSpec {
    ClickStreamSpec {
        target_bytes: bytes,
        users: 20_000,
        zipf_exponent: 1.0,
        mean_session_clicks: 8,
        click_gap_secs: (5, 35),
        concurrency: 30,
        disorder_secs: 60,
    }
}

/// The job whose work a workload measures, with its framework and
/// map-output hint. For `pagerank_chain` this is one round.
pub fn primary_job(w: Workload, size: &Size) -> (Shared, Framework, f64) {
    match w {
        Workload::ClicksCount => (
            Shared::new(ClickCountJob {
                expected_users: 50_000,
            }),
            Framework::IncHash,
            1.0,
        ),
        Workload::TrigramsSpill => (
            Shared::new(TrigramCountJob {
                threshold: size.trigram_threshold,
                expected_trigrams: 1 << 20,
            }),
            Framework::IncHash,
            8.0,
        ),
        Workload::ServeTopk => (
            Shared::new(FrequentUsersJob {
                threshold: FREQUENT_THRESHOLD,
                expected_users: 20_000,
            }),
            Framework::DincHash,
            1.0,
        ),
        Workload::PagerankChain => (Shared::new(PageRankRoundJob), Framework::MrHash, 1.0),
    }
}

/// The job a serve drain runs: the primary job, except that PageRank
/// serves its graph-building init job (a round needs the whole graph).
pub fn served_job(w: Workload, size: &Size) -> (Shared, Framework, f64) {
    match w {
        Workload::PagerankChain => (Shared::new(PageRankInitJob), Framework::MrHash, 1.0),
        _ => primary_job(w, size),
    }
}

/// What set-up produces: the generated inputs and, for PageRank, the
/// producer job's resident graph.
pub struct Prepared {
    pub inputs: Vec<Arc<JobInput>>,
    pub graph: Option<Dataset>,
}

fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    seed ^ (tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Generates a workload's inputs from `seed` (and runs PageRank's
/// producer job). This is the work `setup_s` times.
pub fn setup(w: Workload, size: &Size, seed: u64) -> opa_common::Result<Prepared> {
    let one = |input: JobInput| vec![Arc::new(input)];
    Ok(match w {
        Workload::ClicksCount => Prepared {
            inputs: one(click_spec(size.click_bytes).generate(seed)),
            graph: None,
        },
        Workload::TrigramsSpill => Prepared {
            inputs: one(DocumentSpec::paper_scaled(size.doc_bytes).generate(seed)),
            graph: None,
        },
        Workload::ServeTopk => Prepared {
            inputs: (0..nproc())
                .map(|t| Arc::new(serve_spec(size.serve_bytes).generate(tenant_seed(seed, t))))
                .collect(),
            graph: None,
        },
        Workload::PagerankChain => {
            let clicks = ClickStreamSpec::counting_scaled(size.pagerank_bytes).generate(seed);
            let spec = cluster();
            let graph = JobBuilder::new(PageRankInitJob)
                .framework(Framework::MrHash)
                .cluster(spec)
                .run(&clicks)?
                .dataset(&spec);
            Prepared {
                inputs: one(clicks),
                graph: Some(graph),
            }
        }
    })
}

/// Reference answers for every input of a workload.
pub enum Expect {
    Clicks(HashMap<u64, u64>),
    Trigrams(HashMap<Vec<u8>, u64>, u64),
    Frequent(Vec<HashMap<u64, u64>>),
    /// The graph after 0 rounds (the served init job) and after the
    /// chain's rounds.
    PageRank {
        graph: Vec<Pair>,
        ranked: Vec<Pair>,
    },
}

impl Expect {
    pub fn compute(w: Workload, size: &Size, prep: &Prepared) -> Expect {
        let first = &prep.inputs[0];
        match w {
            Workload::ClicksCount => Expect::Clicks(refs::click_counts(first)),
            Workload::TrigramsSpill => {
                Expect::Trigrams(refs::trigram_counts(first), size.trigram_threshold)
            }
            Workload::ServeTopk => {
                Expect::Frequent(prep.inputs.iter().map(|i| refs::click_counts(i)).collect())
            }
            Workload::PagerankChain => Expect::PageRank {
                graph: refs::pagerank(first, 0),
                ranked: refs::pagerank(first, size.pagerank_rounds),
            },
        }
    }

    /// Whether one job's output over input `input` is right. For
    /// PageRank this is the served init job's output.
    pub fn output_ok(&self, input: usize, output: &[Pair]) -> bool {
        match self {
            Expect::Clicks(c) => refs::check_click_counts(output, c),
            Expect::Trigrams(c, t) => refs::check_trigrams(output, c, *t),
            Expect::Frequent(cs) => {
                refs::check_frequent_users(output, &cs[input], FREQUENT_THRESHOLD)
            }
            Expect::PageRank { graph, .. } => refs::sorted(output) == *graph,
        }
    }

    /// Whether a live lookup answer is consistent: a resident partial
    /// count never exceeds the key's true count. (PageRank's init job
    /// runs on MR-hash, which keeps no queryable state.)
    pub fn lookup_ok(&self, input: usize, key: &Key, answer: Option<&Value>) -> bool {
        let Some(v) = answer else {
            return true;
        };
        let got = refs::count_of(v);
        let user = || {
            <[u8; 8]>::try_from(key.bytes())
                .ok()
                .map(u64::from_be_bytes)
        };
        match self {
            Expect::Clicks(c) => got <= user().and_then(|u| c.get(&u).copied()),
            Expect::Frequent(cs) => got <= user().and_then(|u| cs[input].get(&u).copied()),
            Expect::Trigrams(c, _) => got <= c.get(key.bytes()).copied(),
            Expect::PageRank { .. } => true,
        }
    }
}

/// Counters that must repeat exactly across every job of a run and
/// across thread counts (the determinism guard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub map_output_bytes: u64,
    pub reduce_spill_bytes: u64,
    pub io_requests: u64,
    pub io_bytes: u64,
    /// DINC monitor (offered, rejected) tuples, from which γ follows.
    pub dinc: Option<(u64, u64)>,
    pub bytes_saved: u64,
}

impl Fingerprint {
    pub fn of(m: &JobMetrics) -> Fingerprint {
        Fingerprint {
            map_output_bytes: m.map_output_bytes,
            reduce_spill_bytes: m.reduce_spill_bytes,
            io_requests: m.io.total_seeks(),
            io_bytes: m.io.total_bytes(),
            dinc: m.dinc.map(|d| (d.offered, d.rejected)),
            bytes_saved: 0,
        }
    }

    pub fn of_chain(out: &DataflowOutcome) -> Fingerprint {
        let mut fp = Fingerprint::of(&out.stages[0].metrics);
        for s in &out.stages[1..] {
            let f = Fingerprint::of(&s.metrics);
            fp.map_output_bytes += f.map_output_bytes;
            fp.reduce_spill_bytes += f.reduce_spill_bytes;
            fp.io_requests += f.io_requests;
            fp.io_bytes += f.io_bytes;
        }
        fp.bytes_saved = out.stages.iter().map(|s| s.bytes_saved).sum();
        fp
    }

    /// Monitor coverage γ: the share of offered tuples the DINC monitor
    /// absorbed; 0 when the framework has no monitor.
    pub fn gamma(&self) -> f64 {
        match self.dinc {
            Some((offered, rejected)) if offered > 0 => 1.0 - rejected as f64 / offered as f64,
            _ => 0.0,
        }
    }
}

/// Operation accounting for one run: every job, submission and query is
/// an attempt; a wrong answer or a determinism-guard mismatch is a
/// failure.
#[derive(Default)]
pub struct Book {
    pub attempted: u64,
    pub failed: u64,
    fingerprints: HashMap<(&'static str, usize), Fingerprint>,
}

impl Book {
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Records one job: its output check and its fingerprint against the
    /// first job of the same kind over the same input.
    pub fn job(&mut self, kind: &'static str, input: usize, output_ok: bool, fp: Fingerprint) {
        let first = *self.fingerprints.entry((kind, input)).or_insert(fp);
        if first != fp {
            eprintln!("determinism guard: {kind} on input {input}: {fp:?} != {first:?}");
        }
        self.record(output_ok && first == fp);
    }
}

/// Runs one batch job and checks it. Returns its wall time.
pub fn batch_job(
    job: &Shared,
    framework: Framework,
    km: f64,
    threads: usize,
    input: &JobInput,
    expect: &Expect,
    book: &mut Book,
) -> f64 {
    let builder = JobBuilder::new(job.clone())
        .framework(framework)
        .cluster(cluster())
        .km_hint(km)
        .threads(threads);
    let t0 = Instant::now();
    let result = builder.run(input);
    let wall = t0.elapsed().as_secs_f64();
    match result {
        Ok(out) => book.job(
            "batch",
            0,
            expect.output_ok(0, &out.output),
            Fingerprint::of(&out.metrics),
        ),
        Err(e) => {
            eprintln!("job failed: {e}");
            book.record(false);
        }
    }
    wall
}

/// The PageRank chain: `rounds` × (a reshuffling round, then the
/// partition-preserving carry stage that skips its shuffle).
pub fn pagerank_chain(rounds: usize, threads: usize) -> Dataflow {
    let mut flow = Dataflow::new(cluster()).exec(ExecConfig::with_threads(threads));
    for _ in 0..rounds {
        flow = flow
            .then(PageRankRoundJob, Framework::MrHash)
            .then(NodeCarryJob, Framework::MrHash);
    }
    flow
}

/// Runs the chain once and checks it. Returns (wall, records consumed by
/// all stages).
pub fn chain_run(
    graph: &Dataset,
    rounds: usize,
    threads: usize,
    expect: &Expect,
    book: &mut Book,
) -> (f64, u64) {
    let flow = pagerank_chain(rounds, threads);
    let t0 = Instant::now();
    let result = flow.run_from(graph);
    let wall = t0.elapsed().as_secs_f64();
    match result {
        Ok(out) => {
            let Expect::PageRank { ranked, .. } = expect else {
                unreachable!("chain runs only for pagerank_chain");
            };
            let skipped = out
                .stages
                .iter()
                .filter(|s| s.handoff == Handoff::InMemory)
                .count();
            let ok = out.output.sorted_pairs() == *ranked && skipped == rounds;
            book.job("chain", 0, ok, Fingerprint::of_chain(&out));
            (wall, out.stages.iter().map(|s| s.records_in).sum())
        }
        Err(e) => {
            eprintln!("chain failed: {e}");
            book.record(false);
            (wall, 0)
        }
    }
}

/// The closed-loop client of a serve drain: between waves it issues
/// [`LOOKUPS_PER_WAVE`] point lookups and one top-k query to every
/// running job, each after the previous answer arrived.
pub struct Client {
    /// Candidate lookup keys per input (indexed like `Prepared::inputs`).
    keys: Vec<Vec<Key>>,
    rng: SplitMix64,
    pub lookup_us: Vec<f64>,
}

impl Client {
    pub fn new(w: Workload, inputs: &[Arc<JobInput>], seed: u64) -> Client {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_C11E);
        let keys = inputs
            .iter()
            .map(|input| lookup_keys(w, input, &mut rng, 1024))
            .collect();
        Client {
            keys,
            rng,
            lookup_us: Vec::new(),
        }
    }
}

/// `n` lookup candidates drawn from random records of `input`.
pub fn lookup_keys(w: Workload, input: &JobInput, rng: &mut SplitMix64, n: usize) -> Vec<Key> {
    (0..n)
        .filter_map(|_| {
            let rec = &input.records[rng.next_below(input.len() as u64) as usize];
            lookup_key(w, rec, rng)
        })
        .collect()
}

/// A key a user of the workload would look up, drawn from one record: the
/// clicking user, a trigram of the document, or the user's graph node.
fn lookup_key(w: Workload, rec: &[u8], rng: &mut SplitMix64) -> Option<Key> {
    let user = || -> Option<u64> { std::str::from_utf8(rec.get(15..23)?).ok()?.parse().ok() };
    match w {
        Workload::ClicksCount | Workload::ServeTopk => {
            Some(Key::from_slice(&user()?.to_be_bytes()))
        }
        Workload::PagerankChain => Some(Key::from_slice(format!("u!{:08}", user()?).as_bytes())),
        Workload::TrigramsSpill => {
            let words: Vec<&[u8]> = rec
                .split(|&b| b == b' ')
                .filter(|w| !w.is_empty())
                .collect();
            if words.len() < 3 {
                return None;
            }
            let i = rng.next_below(words.len() as u64 - 2) as usize;
            Some(Key::from_slice(&words[i..i + 3].join(&b' ')))
        }
    }
}

/// How the server runs one served job: `SERVE_BATCHES` waves on a
/// sequential engine.
pub fn job_spec(framework: Framework, km: f64) -> JobSpec {
    JobSpec {
        framework,
        cluster: cluster(),
        batches: SERVE_BATCHES,
        exec: ExecConfig::sequential(),
        km_hint: km,
        ..JobSpec::default()
    }
}

/// What one serve drain measured.
#[derive(Default)]
pub struct Drain {
    /// Wall time spent in `submit` and `step` — the client's queries are
    /// timed apart.
    pub wall: f64,
    pub records: u64,
    pub jobs: u64,
    /// Wall time of every `Server::step`.
    pub steps: Vec<f64>,
    pub wait_rounds: u64,
}

/// Submits [`JOBS_PER_TENANT`] jobs for each input (one tenant per
/// input, one slot each) and steps the server until it drains, with the
/// client querying between waves. Each job's output is checked.
#[allow(clippy::too_many_arguments)]
pub fn serve_drain(
    job: &Shared,
    framework: Framework,
    km: f64,
    inputs: &[Arc<JobInput>],
    input_ids: &[usize],
    mut client: Option<&mut Client>,
    expect: &Expect,
    book: &mut Book,
) -> Drain {
    let tenants = inputs.len();
    let mut server = Server::new(ServeConfig {
        slots_per_tenant: 1,
        queue_per_tenant: JOBS_PER_TENANT,
        queue_total: tenants * JOBS_PER_TENANT,
    });
    let spec = job_spec(framework, km);
    let mut d = Drain::default();
    let mut owner: Vec<usize> = Vec::new();
    let t0 = Instant::now();
    for _ in 0..JOBS_PER_TENANT {
        for (t, input) in inputs.iter().enumerate() {
            let ok = server
                .submit(t as u32, job.clone(), input.clone(), &spec)
                .is_ok();
            book.record(ok);
            owner.push(t);
            d.records += input.len() as u64;
        }
    }
    d.wall += t0.elapsed().as_secs_f64();
    loop {
        if let Some(c) = client.as_deref_mut() {
            query_wave(&server, c, &owner, input_ids, expect, book);
        }
        let t0 = Instant::now();
        let more = server.step();
        let dt = t0.elapsed().as_secs_f64();
        d.wall += dt;
        match more {
            Ok(true) => d.steps.push(dt),
            Ok(false) => break,
            Err(e) => {
                eprintln!("serve step failed: {e}");
                book.record(false);
                break;
            }
        }
    }
    for (id, &t) in owner.iter().enumerate() {
        match server.outcome(id as u32) {
            Some(out) => {
                let ok = expect.output_ok(input_ids[t], &out.job.output);
                book.job(
                    "served",
                    input_ids[t],
                    ok,
                    Fingerprint::of(&out.job.metrics),
                );
                d.jobs += 1;
            }
            None => {
                eprintln!("served job {id} did not finish");
                book.record(false);
            }
        }
    }
    d.wait_rounds = server.books().iter().map(|(_, b)| b.wait_rounds).sum();
    d
}

/// One round of client queries against every running job.
fn query_wave(
    server: &Server,
    c: &mut Client,
    owner: &[usize],
    input_ids: &[usize],
    expect: &Expect,
    book: &mut Book,
) {
    let running: Vec<_> = server
        .status()
        .into_iter()
        .filter(|st| st.phase == JobPhase::Running)
        .collect();
    if running.is_empty() {
        return;
    }
    let _placement = ClientPlacement::new();
    for st in running {
        // Untimed: the first answer after the placement change pays for
        // moving the job's thread, which is the benchmark's doing.
        let ok = matches!(
            server.query(st.job, &ServeQuery::Progress),
            Ok(ServeAnswer::Progress(_))
        );
        book.record(ok);
        let input = input_ids[owner[st.job as usize]];
        let keys = &c.keys[input];
        for _ in 0..LOOKUPS_PER_WAVE {
            let key = keys[c.rng.next_below(keys.len() as u64) as usize].clone();
            let q = ServeQuery::Lookup(key.clone());
            let t0 = Instant::now();
            let answer = server.query(st.job, &q);
            c.lookup_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let ok = match &answer {
                Ok(ServeAnswer::Value(v)) => expect.lookup_ok(input, &key, v.as_ref()),
                _ => false,
            };
            book.record(ok);
        }
        let ok = matches!(
            server.query(st.job, &ServeQuery::TopK(TOPK)),
            Ok(ServeAnswer::TopK(_))
        );
        book.record(ok);
    }
}
