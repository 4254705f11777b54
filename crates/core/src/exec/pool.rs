//! A scoped work-stealing worker pool built on `std::thread::scope`.
//!
//! Tasks are `FnOnce` closures that may borrow from the enclosing job run
//! (the job, the cluster spec, the input records): the pool's lifetime
//! parameter ties every task to the scope that owns the worker threads.
//! With zero workers the pool degrades to immediate inline execution on
//! the submitting thread, which is what makes the `threads = 1`
//! configuration share the exact code path of the parallel one.
//!
//! # Scheduling
//!
//! Each worker owns a deque; submissions are dealt round-robin across the
//! deques so a burst of tasks lands spread out instead of funneling
//! through one contended queue. A worker drains its own deque first and,
//! when that runs dry, *steals half* of the oldest tasks from the first
//! non-empty victim (scanning from its own index so thieves fan out).
//! Stealing in halves means one expensive task queued behind cheap ones
//! cannot serialize a wave: the straggler's backlog migrates to idle
//! workers in O(log n) steals.
//!
//! Steal order never influences results: tasks communicate only through
//! [`Pool::fan_out`]'s result slots and [`super::Planner`] slots, and the
//! scheduling layer replays their effect logs in event order regardless
//! of which thread produced them.
//!
//! # Parking
//!
//! Idle workers park on a condvar behind a sleeper count; submitters skip
//! the notify syscall entirely while every worker is busy (the common
//! case mid-wave). [`Pool::fan_out`] enqueues a whole batch with one wake
//! decision instead of one notify per task.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::Scope;
use std::time::Duration;

use opa_common::{Error, Result};

use super::Gather;

/// A unit of pool work: a boxed closure tied to the job-run scope.
pub type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

struct Shared<'env> {
    /// One deque per worker. Round-robin submission targets, steal-half
    /// victims. Tasks never need a particular queue: any thread may run
    /// any task.
    queues: Vec<Mutex<VecDeque<Task<'env>>>>,
    /// Tasks currently queued (in any deque). Checked by parking workers
    /// under `park` so a submit between "queues looked empty" and "wait"
    /// cannot be lost.
    pending: AtomicUsize,
    /// Round-robin cursors: submission target and steal scan start.
    submit_cursor: AtomicUsize,
    steal_cursor: AtomicUsize,
    /// Workers currently parked (or committing to park) on `cv`.
    sleepers: AtomicUsize,
    park: Mutex<ParkState>,
    cv: Condvar,
    /// The first worker panic's message, re-raised by
    /// [`Pool::assert_healthy`]. Set once, with release/acquire ordering.
    panicked: OnceLock<String>,
}

struct ParkState {
    shutdown: bool,
}

/// A fixed-size pool of scoped worker threads with per-worker deques and
/// steal-half work stealing.
pub struct Pool<'env> {
    shared: Arc<Shared<'env>>,
    workers: usize,
}

impl<'env> Pool<'env> {
    /// Spawns `workers` threads on `scope`. Zero workers is valid: tasks
    /// then run inline at submission.
    pub fn new<'scope>(scope: &'scope Scope<'scope, 'env>, workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            submit_cursor: AtomicUsize::new(0),
            steal_cursor: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(ParkState { shutdown: false }),
            cv: Condvar::new(),
            panicked: OnceLock::new(),
        });
        for i in 0..workers {
            let sh = Arc::clone(&shared);
            scope.spawn(move || worker_loop(&sh, i));
        }
        Pool { shared, workers }
    }

    /// Number of worker threads (0 means inline execution).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a task — or runs it immediately when the pool has no
    /// workers.
    pub fn submit(&self, task: impl FnOnce() + Send + 'env) {
        if self.workers == 0 {
            task();
            return;
        }
        self.enqueue(Box::new(task));
        self.wake(1);
    }

    /// Runs one task per item and returns the results in item order.
    /// Every task but the last goes to the pool as one batch, dealt
    /// round-robin with a single wake decision, and the caller runs the
    /// last one itself: no handoff for a one-task batch, and the caller
    /// stays busy instead of waiting. It then helps the pool drain until
    /// every result is in. With no workers every task runs inline, in
    /// order, without being boxed.
    ///
    /// A task that panics becomes [`Error::Panicked`]. On the pool the
    /// other tasks still run to completion; inline, the run stops there.
    pub fn fan_out<T, F>(&self, mut tasks: Vec<F>) -> Result<Vec<T>>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        if self.workers == 0 {
            return tasks.into_iter().map(caught).collect();
        }
        let Some(last) = tasks.pop() else {
            return Ok(Vec::new());
        };
        let n = tasks.len();
        let gather = Gather::new(n);
        for (slot, task) in tasks.into_iter().enumerate() {
            let g = gather.clone();
            self.enqueue(Box::new(move || g.put(slot, caught(task))));
        }
        self.wake(n);
        let last = caught(last);
        let mut out = gather.wait(self).into_iter().collect::<Result<Vec<T>>>()?;
        out.push(last?);
        Ok(out)
    }

    fn enqueue(&self, task: Task<'env>) {
        let q = self.shared.submit_cursor.fetch_add(1, Ordering::Relaxed) % self.workers;
        self.shared.queues[q]
            .lock()
            .expect("pool queue lock")
            .push_back(task);
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
    }

    /// Wakes up to `n` parked workers — and skips the syscall entirely
    /// when nobody is parked, which is the common case mid-wave.
    fn wake(&self, n: usize) {
        if self.shared.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Take the park lock so the notify cannot slip between a worker's
        // final pending check and its wait.
        let _st = self.shared.park.lock().expect("pool park lock");
        if n == 1 {
            self.shared.cv.notify_one();
        } else {
            self.shared.cv.notify_all();
        }
    }

    /// Runs one queued task on the calling thread, if any is pending.
    /// Waiters use this to help drain the pool instead of blocking. The
    /// helper steals a single task (not half): it is about to re-check
    /// its own wait condition, not build a backlog.
    pub fn try_run_one(&self) -> bool {
        if self.workers == 0 || self.shared.pending.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let start = self.shared.steal_cursor.fetch_add(1, Ordering::Relaxed);
        for k in 0..self.workers {
            let q = (start + k) % self.workers;
            let task = self.shared.queues[q]
                .lock()
                .expect("pool queue lock")
                .pop_front();
            if let Some(task) = task {
                self.shared.pending.fetch_sub(1, Ordering::SeqCst);
                task();
                return true;
            }
        }
        false
    }

    /// Propagates a worker-thread panic, with its message, to the caller.
    /// Waiters call this inside their wait loops so a crashed worker
    /// cannot deadlock the scheduler.
    pub fn assert_healthy(&self) {
        if let Some(msg) = self.shared.panicked.get() {
            panic!("an execution-layer worker thread panicked: {msg}");
        }
    }

    /// A short bounded sleep used by wait loops between health checks.
    pub(crate) fn wait_beat() -> Duration {
        Duration::from_millis(25)
    }
}

impl Drop for Pool<'_> {
    fn drop(&mut self) {
        let mut st = self.shared.park.lock().expect("pool park lock");
        st.shutdown = true;
        drop(st);
        self.shared.cv.notify_all();
    }
}

/// Pops from the worker's own deque, or steals the oldest half of the
/// first non-empty victim's deque. Returns the task to run now; surplus
/// stolen tasks are re-queued on the worker's own deque.
fn grab<'env>(sh: &Shared<'env>, me: usize) -> Option<Task<'env>> {
    if sh.pending.load(Ordering::SeqCst) == 0 {
        return None;
    }
    if let Some(task) = sh.queues[me].lock().expect("pool queue lock").pop_front() {
        sh.pending.fetch_sub(1, Ordering::SeqCst);
        return Some(task);
    }
    let n = sh.queues.len();
    for k in 1..n {
        let victim = (me + k) % n;
        // Move the stolen half out under the victim's lock alone — never
        // hold two queue locks at once (symmetric steals would deadlock).
        let mut stolen: VecDeque<Task<'env>> = {
            let mut vq = sh.queues[victim].lock().expect("pool queue lock");
            let len = vq.len();
            if len == 0 {
                continue;
            }
            vq.drain(..len.div_ceil(2)).collect()
        };
        let first = stolen.pop_front().expect("stole at least one task");
        sh.pending.fetch_sub(1, Ordering::SeqCst);
        if !stolen.is_empty() {
            sh.queues[me]
                .lock()
                .expect("pool queue lock")
                .extend(stolen.drain(..));
            // The surplus is stealable in turn; offer it to a parked
            // worker (no-op syscall-free when none are parked).
            if sh.sleepers.load(Ordering::SeqCst) > 0 {
                let _st = sh.park.lock().expect("pool park lock");
                sh.cv.notify_one();
            }
        }
        return Some(first);
    }
    None
}

/// Runs `task`, turning a panic into [`Error::Panicked`].
fn caught<T>(task: impl FnOnce() -> T) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(task))
        .map_err(|payload| Error::panicked(panic_message(payload.as_ref())))
}

/// The message of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

fn worker_loop(sh: &Shared<'_>, me: usize) {
    loop {
        if let Some(task) = grab(sh, me) {
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                let _ = sh.panicked.set(panic_message(payload.as_ref()).to_string());
            }
            continue;
        }
        // Park. The sleeper count is registered and `pending` re-checked
        // under the park lock; a submitter bumps `pending` before reading
        // `sleepers` and notifies under the same lock, so the wakeup
        // cannot be lost. The timed wait is a safety beat, not a poll.
        let st = sh.park.lock().expect("pool park lock");
        if st.shutdown {
            return;
        }
        sh.sleepers.fetch_add(1, Ordering::SeqCst);
        if sh.pending.load(Ordering::SeqCst) == 0 {
            let _ = sh
                .cv
                .wait_timeout(st, Pool::wait_beat())
                .expect("pool park cv");
        }
        sh.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn zero_workers_runs_inline() {
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let pool = Pool::new(s, 0);
            pool.submit(|| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 1, "inline = done at submit");
            assert!(!pool.try_run_one(), "nothing queued");
        });
    }

    #[test]
    fn workers_drain_the_queue() {
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let pool = Pool::new(s, 3);
            for _ in 0..64 {
                pool.submit(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Help from the main thread too; then wait for quiescence.
            while hits.load(Ordering::SeqCst) < 64 {
                if !pool.try_run_one() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn stealing_rebalances_a_lopsided_backlog() {
        // One slow task occupies its worker while many quick tasks queue
        // up round-robin behind it; idle workers must steal the backlog
        // rather than wait for the straggler. The assertion is progress
        // with the submitter refusing to help: only stealing can finish.
        let done = AtomicUsize::new(0);
        let gate = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let pool = Pool::new(s, 4);
            pool.submit(|| {
                while gate.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
            for _ in 0..63 {
                pool.submit(|| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Every quick task finishes while the straggler still holds
            // its worker hostage.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while done.load(Ordering::SeqCst) < 63 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "steal-half failed to drain a straggler's backlog"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            gate.store(1, Ordering::SeqCst);
            while done.load(Ordering::SeqCst) < 64 {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn fan_out_returns_results_in_item_order() {
        let caller = std::thread::current().id();
        for workers in [0, 3] {
            std::thread::scope(|s| {
                let pool = Pool::new(s, workers);
                // Early items sleep longest, so on the pool they finish last.
                let tasks: Vec<_> = (0..16u64)
                    .map(|i| {
                        move || {
                            std::thread::sleep(Duration::from_micros((16 - i) * 200));
                            (i, std::thread::current().id() == caller)
                        }
                    })
                    .collect();
                let out = pool.fan_out(tasks).unwrap();
                assert!(out.iter().map(|o| o.0).eq(0..16));
                if workers == 0 {
                    assert!(out.iter().all(|o| o.1), "no workers: every task inline");
                }
                assert!(pool.fan_out(Vec::<fn() -> u8>::new()).unwrap().is_empty());
            });
        }
    }

    #[test]
    fn fan_out_turns_a_task_panic_into_err() {
        for workers in [0, 2] {
            let ran = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let pool = Pool::new(s, workers);
                let tasks: Vec<_> = (0..8usize)
                    .map(|i| {
                        let ran = &ran;
                        move || {
                            if i == 3 {
                                panic!("task {i} failed");
                            }
                            ran.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .collect();
                match pool.fan_out(tasks) {
                    Err(Error::Panicked(msg)) => assert_eq!(msg, "task 3 failed"),
                    other => panic!("expected a panic error, got {other:?}"),
                }
                // A caught task panic leaves the pool usable.
                pool.assert_healthy();
                assert_eq!(pool.fan_out(vec![|| 7u8]).unwrap(), vec![7]);
            });
            // Inline, the run stops at the panic; on the pool, every
            // other task still runs.
            let others = if workers == 0 { 3 } else { 7 };
            assert_eq!(ran.load(Ordering::SeqCst), others);
        }
    }

    #[test]
    fn pool_drop_releases_idle_workers() {
        // The scope would hang forever if Drop failed to wake the workers.
        std::thread::scope(|s| {
            let _pool = Pool::new(s, 2);
        });
    }
}
