//! Persistent deterministic worker pool for the engine's flash phase.
//!
//! [`WorkerPool`] owns a fixed set of parked OS threads, each with its own
//! FIFO job lane. Work is assigned to a lane by a *stable index* supplied
//! by the caller (the engine maps die `d` to lane `d % workers`) — there
//! is no work stealing, so the set of dies executed by a given worker is a
//! pure function of the die index and the pool size, and per-die results
//! are keyed by die index rather than completion order. Both properties
//! together keep engine digests bit-identical for any pool size.

use std::collections::VecDeque;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work shipped to a pool lane. Jobs own everything they touch
/// (the engine moves the die itself into the closure) and report results
/// out of band, so the pool needs no return channel of its own.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// One worker's job lane: a FIFO queue plus the parking signal.
struct Lane {
    state: Mutex<LaneState>,
    signal: Condvar,
}

#[derive(Default)]
struct LaneState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// A persistent pool of parked worker threads with per-worker FIFO lanes
/// and no work stealing (see the module docs for why that matters).
///
/// Dropping the pool shuts it down: each worker finishes the jobs already
/// in its lane, then exits, and the drop joins every thread. A job that
/// panics is dropped where it unwound; its lane goes on to the next job.
pub struct WorkerPool {
    lanes: Vec<Arc<Lane>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` parked threads (at least one). Threads
    /// are named `rd-pool-{i}`.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let lanes: Vec<Arc<Lane>> = (0..workers)
            .map(|_| {
                Arc::new(Lane { state: Mutex::new(LaneState::default()), signal: Condvar::new() })
            })
            .collect();
        let handles = lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let lane = Arc::clone(lane);
                std::thread::Builder::new()
                    .name(format!("rd-pool-{i}"))
                    .spawn(move || worker_loop(&lane))
                    .expect("spawn pool worker thread")
            })
            .collect();
        Self { lanes, handles }
    }

    /// Number of worker threads in the pool.
    pub(crate) fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// Enqueues `job` on lane `worker % workers()` and wakes that worker.
    pub fn submit(&self, worker: usize, job: Job) {
        let lane = &self.lanes[worker % self.lanes.len()];
        let mut state = lane.state.lock().expect("pool lane lock poisoned");
        state.jobs.push_back(job);
        drop(state);
        lane.signal.notify_one();
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.lanes.len()).finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.state.lock().expect("pool lane lock poisoned").shutdown = true;
            lane.signal.notify_one();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(lane: &Lane) {
    loop {
        let job = {
            let mut state = lane.state.lock().expect("pool lane lock poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                // Drain-then-exit: shutdown only takes effect once the
                // lane is empty, so in-flight batches always complete.
                if state.shutdown {
                    return;
                }
                state = lane.signal.wait(state).expect("pool lane lock poisoned");
            }
        };
        // A panicking job must not take the lane with it: the lane's other
        // jobs are queued behind it. The job's owner learns of the panic
        // from the job itself (the engine's die jobs report it where their
        // die would have landed).
        let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn jobs_on_one_lane_run_in_fifo_order() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..32 {
            let tx = tx.clone();
            pool.submit(0, Box::new(move || tx.send(i).unwrap()));
        }
        let got: Vec<i32> = (0..32).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn drop_drains_queued_jobs_before_exit() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(3);
            for lane in 0..9 {
                let counter = Arc::clone(&counter);
                pool.submit(
                    lane,
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }),
                );
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn a_lane_survives_a_panicking_job() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.submit(0, Box::new(|| panic!("job refuses to run")));
        pool.submit(0, Box::new(move || tx.send(42usize).unwrap()));
        assert_eq!(rx.recv().unwrap(), 42, "the job behind a panicking one ran");
    }
}
