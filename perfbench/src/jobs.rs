//! Job handles the benchmark passes to the engine: a cloneable shared
//! handle over any workload job, the partition-preserving stage of the
//! PageRank chain, and a wrapper that times user code from outside.

use opa_common::{decode_kv, Key, Value};
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx, Site};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cloneable, `'static` handle on a job, so one job value can go to
/// `JobBuilder`, `StreamJobBuilder`, `Dataflow::then` and
/// `Server::submit` alike.
#[derive(Clone)]
pub struct Shared(pub Arc<dyn Job>);

impl Shared {
    pub fn new(job: impl Job + 'static) -> Shared {
        Shared(Arc::new(job))
    }
}

impl Job for Shared {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        self.0.map(record, emit)
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        self.0.reduce(key, values, ctx)
    }
    fn combiner(&self) -> Option<&dyn Combiner> {
        self.0.combiner()
    }
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        self.0.incremental()
    }
    fn expected_keys(&self) -> Option<u64> {
        self.0.expected_keys()
    }
    fn state_size_hint(&self) -> Option<u64> {
        self.0.state_size_hint()
    }
    fn partition_preserving(&self) -> bool {
        self.0.partition_preserving()
    }
}

/// The PageRank chain's per-round bookkeeping stage: re-emits every node
/// record under its own key. It stands in for the identity-keyed stages
/// an iterative job runs between rounds (rank snapshots, convergence
/// checks); because it declares itself partition-preserving, the chain
/// skips its shuffle and runs it on the in-memory path.
#[derive(Clone, Copy, Default)]
pub struct NodeCarryJob;

impl Job for NodeCarryJob {
    fn name(&self) -> &str {
        "node-carry"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if let Some((key, value)) = decode_kv(record) {
            emit(key, value);
        }
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        for v in values {
            ctx.emit(key.clone(), v);
        }
    }
    fn state_size_hint(&self) -> Option<u64> {
        Some(256)
    }
    fn partition_preserving(&self) -> bool {
        true
    }
}

/// Wall time and call counts of user code, accumulated by [`Timed`],
/// split by the site the engine runs it at.
#[derive(Default)]
pub struct UdfClock {
    /// `Job::map`, including the engine's emit path (the `BatchBuilder`
    /// push) that the map function calls into.
    pub map: Probe,
    /// Reduce-side user code run inside map tasks: `init`, `cb` at
    /// [`Site::Map`], and the combiner.
    pub reduce_at_map: Probe,
    /// Reduce-side user code run by reducers: `cb` at [`Site::Reduce`],
    /// `finalize`, `evict` and `reduce`.
    pub reduce_at_reduce: Probe,
}

/// Nanoseconds and calls of one kind of user code. Statistics only, so
/// relaxed atomics suffice.
#[derive(Default)]
pub struct Probe {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Probe {
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// (nanoseconds, calls) so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.ns.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
        )
    }
}

/// Times every call into the wrapped job's user code.
pub struct Timed {
    inner: Shared,
    pub clock: Arc<UdfClock>,
}

impl Timed {
    pub fn new(inner: Shared) -> Timed {
        Timed {
            inner,
            clock: Arc::new(UdfClock::default()),
        }
    }

    fn inc(&self) -> &dyn IncrementalReducer {
        self.inner
            .incremental()
            .expect("wrapped job is incremental")
    }

    fn comb(&self) -> &dyn Combiner {
        self.inner.combiner().expect("wrapped job has a combiner")
    }
}

impl Job for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        self.clock.map.time(|| self.inner.map(record, emit))
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        self.clock
            .reduce_at_reduce
            .time(|| self.inner.reduce(key, values, ctx))
    }
    fn combiner(&self) -> Option<&dyn Combiner> {
        self.inner.combiner().map(|_| self as &dyn Combiner)
    }
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        self.inner
            .incremental()
            .map(|_| self as &dyn IncrementalReducer)
    }
    fn expected_keys(&self) -> Option<u64> {
        self.inner.expected_keys()
    }
    fn state_size_hint(&self) -> Option<u64> {
        self.inner.state_size_hint()
    }
    fn partition_preserving(&self) -> bool {
        self.inner.partition_preserving()
    }
}

impl Combiner for Timed {
    fn combine(&self, key: &Key, values: Vec<Value>) -> Vec<Value> {
        self.clock
            .reduce_at_map
            .time(|| self.comb().combine(key, values))
    }
    fn supports_fold(&self) -> bool {
        self.comb().supports_fold()
    }
    fn fold(&self, key: &Key, acc: &mut Value, value: Value) {
        self.clock
            .reduce_at_map
            .time(|| self.comb().fold(key, acc, value))
    }
}

impl IncrementalReducer for Timed {
    fn init(&self, key: &Key, value: Value) -> Value {
        self.clock
            .reduce_at_map
            .time(|| self.inc().init(key, value))
    }
    fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx) {
        let probe = match ctx.site {
            Site::Map => &self.clock.reduce_at_map,
            Site::Reduce => &self.clock.reduce_at_reduce,
        };
        probe.time(|| self.inc().cb(key, acc, other, ctx))
    }
    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        self.clock
            .reduce_at_reduce
            .time(|| self.inc().finalize(key, state, ctx))
    }
    fn state_mem_size(&self, state: &Value) -> u64 {
        self.inc().state_mem_size(state)
    }
    fn event_time(&self, state: &Value) -> Option<u64> {
        self.inc().event_time(state)
    }
    fn can_evict(&self, key: &Key, state: &Value, watermark: Option<u64>) -> bool {
        self.inc().can_evict(key, state, watermark)
    }
    fn evict(
        &self,
        key: &Key,
        state: Value,
        watermark: Option<u64>,
        ctx: &mut ReduceCtx,
    ) -> Option<Value> {
        self.clock
            .reduce_at_reduce
            .time(|| self.inc().evict(key, state, watermark, ctx))
    }
}
