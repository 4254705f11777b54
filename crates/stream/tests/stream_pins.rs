//! Byte pins for stream runs: the CRC-32 of the traced JSONL (pause-point
//! `batch_seal`/`checkpoint` lines included) and of the checkpoint file
//! written at batch 2. The other stream suites compare runs with each
//! other; these pin the absolute bytes, so any change to the event
//! sequence, the pause points or the checkpoint layout shows up here.

use opa_common::fault::FaultConfig;
use opa_common::ExecConfig;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_simio::codec::crc32;
use opa_stream::{QueuedEvent, SavedState, StreamJobBuilder};
use opa_workloads::click_count::ClickCountJob;
use opa_workloads::clickstream::ClickStreamSpec;
use std::path::Path;

/// CRC-32s of one pinned scenario.
#[derive(Debug, PartialEq)]
struct Pins {
    /// The traced JSONL of the checkpointing run.
    trace: u32,
    /// The `stream-ckpt-b2.opac` file it wrote.
    ckpt: u32,
    /// The resumed run's traced JSONL plus its `Debug` metrics.
    resumed: u32,
}

/// Runs a traced stream with `k = 4` and a checkpoint every 2 batches
/// into `dir`, then resumes a second traced run from that checkpoint.
/// Returns the pins plus the decoded checkpoint.
fn pinned_run(
    build: impl Fn() -> StreamJobBuilder<ClickCountJob>,
    data: &opa_core::job::JobInput,
    dir: &Path,
) -> (Pins, SavedState) {
    std::fs::create_dir_all(dir).expect("mkdir");
    let out = build()
        .batches(4)
        .checkpoint_every(2)
        .checkpoint_dir(dir)
        .trace(true)
        .run_stream(data, |_| {})
        .expect("stream runs");
    assert_eq!(out.checkpoints_written, 1);
    let jsonl = out.job.trace.expect("trace enabled").to_jsonl();
    let ckpt = dir.join("stream-ckpt-b2.opac");
    let bytes = std::fs::read(&ckpt).expect("checkpoint written");
    let saved = SavedState::decode(&bytes).expect("checkpoint decodes");
    let resumed = build()
        .batches(4)
        .trace(true)
        .resume_stream(data, &ckpt, |_| {})
        .expect("resume runs");
    let resumed_text = format!(
        "{}{:?}",
        resumed.job.trace.expect("trace enabled").to_jsonl(),
        resumed.job.metrics
    );
    std::fs::remove_dir_all(dir).ok();
    let pins = Pins {
        trace: crc32(jsonl.as_bytes()),
        ckpt: crc32(&bytes),
        resumed: crc32(resumed_text.as_bytes()),
    };
    (pins, saved)
}

#[test]
fn inc_hash_stream_trace_and_checkpoint_bytes_are_pinned() {
    let data = ClickStreamSpec::small().generate(101);
    let dir = std::env::temp_dir().join("opa-stream-pin-inc");
    for threads in [1, 2] {
        let build = || {
            StreamJobBuilder::new(ClickCountJob {
                expected_users: 100,
            })
            .framework(Framework::IncHash)
            .cluster(ClusterSpec::tiny())
            .exec(ExecConfig::oversubscribed(threads))
        };
        let (pins, _) = pinned_run(build, &data, &dir);
        println!("inc-hash stream @ {threads} threads: {pins:08X?}");
        assert_eq!(
            pins,
            Pins {
                trace: 0x2D57_08EE,
                ckpt: 0x6E43_B4D4,
                resumed: 0xD265_4C20,
            },
            "stream bytes moved @ {threads} threads"
        );
    }
}

#[test]
fn dinc_hash_crash_stream_trace_and_checkpoint_bytes_are_pinned() {
    let data = ClickStreamSpec::counting_scaled(1_000_000).generate(8);
    let dir = std::env::temp_dir().join("opa-stream-pin-dinc");
    for threads in [1, 2] {
        let build = || {
            StreamJobBuilder::new(ClickCountJob {
                expected_users: 1000,
            })
            .framework(Framework::DincHash)
            .cluster(ClusterSpec::paper_scaled())
            .exec(ExecConfig::oversubscribed(threads))
            .faults(FaultConfig {
                seed: 9,
                reduce_failure_rate: 0.15,
                max_retries: 50,
                ..FaultConfig::disabled()
            })
        };
        let (pins, saved) = pinned_run(build, &data, &dir);
        println!("dinc-hash crash stream @ {threads} threads: {pins:08X?}");
        // The checkpoint must carry what this pin is for: deliveries still
        // in flight at the pause point, and reducers that have crashed.
        assert!(
            saved
                .queue
                .iter()
                .any(|e| matches!(e, QueuedEvent::Deliver { .. })),
            "checkpoint holds no in-flight delivery"
        );
        assert!(
            saved.crash_count.iter().any(|&c| c > 0),
            "checkpoint holds no crash count"
        );
        assert_eq!(
            pins,
            Pins {
                trace: 0xFAEC_E89F,
                ckpt: 0x80B5_DBFB,
                resumed: 0xF756_63B9,
            },
            "stream bytes moved @ {threads} threads"
        );
    }
}
