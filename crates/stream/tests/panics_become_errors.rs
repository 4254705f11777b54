//! A panic in user code ends the run with an `Err`, not an unwind into the
//! caller: the job loop catches it in one place, for batch runs and
//! stream runs alike, whether the panic fires on the scheduler thread or
//! on an execution-layer worker.

use opa_common::{ExecConfig, Key, Result, Value};
use opa_core::api::{Job, ReduceCtx};
use opa_core::cluster::ClusterSpec;
use opa_core::job::{JobBuilder, JobInput};
use opa_stream::StreamJobBuilder;

/// Counts records per first byte; panics on one chosen record in `map` or
/// on one chosen key in `reduce`.
#[derive(Clone, Copy)]
enum Panicky {
    Map,
    Reduce,
}

impl Job for Panicky {
    fn name(&self) -> &str {
        "panicky"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if matches!(self, Panicky::Map) && &record[1..4] == b"150" {
            panic!("map UDF bug on record 150");
        }
        emit(&record[..1], &1u64.to_be_bytes());
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        if matches!(self, Panicky::Reduce) && key.bytes() == b"q" {
            panic!("reduce UDF bug");
        }
        ctx.emit(key.clone(), Value::from_u64(values.len() as u64));
    }
}

/// Enough records for several map chunks on the tiny cluster.
fn input() -> JobInput {
    JobInput::from_records(
        (0..300)
            .map(|i| {
                let first = [b'p', b'q', b'r'][i % 3];
                format!("{}{i:03}-padding-to-make-several-chunks", first as char).into_bytes()
            })
            .collect(),
    )
}

fn check(what: &str, threads: usize, run: Result<impl std::fmt::Debug>, msg: &str) {
    let err = run.expect_err(&format!("{what} @ {threads} threads must fail"));
    let text = err.to_string();
    assert!(
        text.starts_with("job panicked: ") && text.contains(msg),
        "{what} @ {threads} threads: {text}"
    );
}

#[test]
fn udf_panics_return_errors_from_batch_and_stream_runs() {
    let data = input();
    for (job, msg) in [
        (Panicky::Map, "map UDF bug on record 150"),
        (Panicky::Reduce, "reduce UDF bug"),
    ] {
        for threads in [1, 2] {
            let exec = ExecConfig::oversubscribed(threads);
            let batch = JobBuilder::new(job)
                .cluster(ClusterSpec::tiny())
                .exec(exec)
                .run(&data);
            check("batch run", threads, batch, msg);
            let stream = StreamJobBuilder::new(job)
                .cluster(ClusterSpec::tiny())
                .exec(exec)
                .batches(3)
                .run_stream(&data, |_| {});
            check("stream run", threads, stream, msg);
        }
    }
}
