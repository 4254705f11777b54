//! The end-to-end run (`--trace 0`): set-up timed on its own, then
//! alternating one-thread and `nproc`-thread operations for the measured
//! time, then (for the batch workloads) a serve phase that times point
//! lookups. Tracing is off throughout.

use crate::hostclock::{HostClock, REFERENCE_MS};
use crate::stats::median;
use crate::workloads::{
    self as wl, batch_job, chain_run, serve_drain, Book, Client, Expect, Prepared, Size, Workload,
};
use crate::Report;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Minimum timed operations per thread count, whatever the run length.
const MIN_PAIRS: usize = 3;
/// Share of the run the batch workloads spend on throughput; the rest
/// goes to the lookup phase.
const THROUGHPUT_SHARE: f64 = 0.85;

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set-up `SETUP_REPS` times; returns the last result, the median time
/// and the median host-speed sample around the repetitions, relative to
/// the reference.
fn timed_setup(
    w: Workload,
    size: &Size,
    seed: u64,
    clock: &mut HostClock,
) -> Result<(Prepared, f64, f64), String> {
    let (mut times, mut speed) = (Vec::new(), vec![clock.sample_ms()]);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let prep = wl::setup(w, size, seed).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64());
        speed.push(clock.sample_ms());
        last = Some(prep);
    }
    Ok((
        last.expect("at least one set-up"),
        median(&times),
        median(&speed) / REFERENCE_MS,
    ))
}

pub fn run(w: Workload, size: &Size, seed: u64, seconds: f64) -> Report {
    let mut clock = HostClock::new();
    let (prep, setup_raw, setup_k) = match timed_setup(w, size, seed, &mut clock) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return Report {
                attempted: 1,
                failed: 1,
                sound: false,
                metrics: Vec::new(),
                raw: Vec::new(),
                samples: 0,
            };
        }
    };
    let expect = Expect::compute(w, size, &prep);
    let mt = wl::nproc();
    let mut book = Book::default();
    let (job, framework, km) = wl::served_job(w, size);
    let mut client = Client::new(w, &prep.inputs, seed);

    // One operation at `threads` (serve: tenants): (wall, records, passes).
    let op = |threads: usize, book: &mut Book, client: &mut Client| -> (f64, u64, u64) {
        match w {
            Workload::ClicksCount | Workload::TrigramsSpill => {
                let input = &prep.inputs[0];
                let wall = batch_job(&job, framework, km, threads, input, &expect, book);
                (wall, input.len() as u64, 1)
            }
            Workload::PagerankChain => {
                let graph = prep
                    .graph
                    .as_ref()
                    .expect("pagerank set-up builds the graph");
                let (wall, records) =
                    chain_run(graph, size.pagerank_rounds, threads, &expect, book);
                (wall, records, size.pagerank_rounds as u64)
            }
            Workload::ServeTopk => {
                // One tenant alone, or every tenant at once with the
                // client querying between waves.
                let ids: Vec<usize> = (0..prep.inputs.len()).collect();
                let (inputs, c) = if threads == 1 {
                    (&prep.inputs[..1], None)
                } else {
                    (&prep.inputs[..], Some(client))
                };
                let d = serve_drain(&job, framework, km, inputs, &ids, c, &expect, book);
                (d.wall, d.records, d.jobs)
            }
        }
    };

    // Warm-up, untimed but checked.
    op(1, &mut book, &mut client);
    op(mt, &mut book, &mut client);
    client.lookup_us.clear();

    let share = if w == Workload::ServeTopk {
        1.0
    } else {
        THROUGHPUT_SHARE
    };
    // Host speed (see `hostclock`) is sampled before every operation;
    // the rates' medians are scaled by the samples' median.
    let (mut rate1, mut rate_mt, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let mut speed = Vec::new();
    let t0 = Instant::now();
    while rate1.len() < MIN_PAIRS || t0.elapsed().as_secs_f64() < seconds * share {
        // Alternate so drift hits both thread counts alike.
        speed.push(clock.sample_ms());
        let (wall, records, _) = op(1, &mut book, &mut client);
        rate1.push(records as f64 / wall);
        speed.push(clock.sample_ms());
        let (wall, records, n) = op(mt, &mut book, &mut client);
        rate_mt.push(records as f64 / wall);
        passes.push(n as f64 / wall);
    }
    let k = median(&speed) / REFERENCE_MS;

    // Lookup phase for the batch workloads: serve their job to `nproc`
    // tenants and query it between waves.
    if w != Workload::ServeTopk {
        let inputs = vec![prep.inputs[0].clone(); mt];
        let ids = vec![0; mt];
        let mut drains = 0;
        while drains < MIN_PAIRS || t0.elapsed().as_secs_f64() < seconds {
            serve_drain(
                &job,
                framework,
                km,
                &inputs,
                &ids,
                Some(&mut client),
                &expect,
                &mut book,
            );
            drains += 1;
        }
    }
    let lat = &client.lookup_us;
    let samples = (rate1.len() + rate_mt.len() + lat.len()) as u64;
    Report {
        attempted: book.attempted,
        failed: book.failed,
        sound: !lat.is_empty(),
        metrics: vec![
            ("setup_s", setup_raw / setup_k, "s"),
            ("records_per_s_1t", median(&rate1) * k, "1/s"),
            ("records_per_s_mt", median(&rate_mt) * k, "1/s"),
            ("lookup_p50_us", median(lat), "us"),
            ("rounds_per_s", median(&passes) * k, "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        raw: vec![
            ("setup_s", setup_raw, "s"),
            ("records_per_s_1t", median(&rate1), "1/s"),
            ("records_per_s_mt", median(&rate_mt), "1/s"),
            ("rounds_per_s", median(&passes), "1/s"),
            ("host_slowdown", k, "ratio"),
        ],
        samples,
    }
}
