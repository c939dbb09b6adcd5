//! A fixed-size worker pool: requests are executed off the connection
//! threads so N connections contend for `workers` mining slots instead
//! of spawning unbounded work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A pool job panicked instead of producing its result (the panic
/// message went to the process's panic hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPanicked;

/// A fixed-size thread pool. Jobs run in submission order as workers
/// free up; dropping the pool finishes queued jobs and joins every
/// worker. A job that panics costs the pool nothing: the worker catches
/// the unwind and takes the next job.
#[derive(Debug)]
pub struct WorkerPool {
    jobs: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("k2-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the dequeue;
                        // the job itself runs unlocked.
                        let job = {
                            let guard = rx.lock().expect("pool queue lock");
                            guard.recv()
                        };
                        match job {
                            // The job owns everything it touches and
                            // nothing of the worker's, so there is no
                            // state a caught unwind could leave broken.
                            Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
                            Err(_) => break, // queue hung up
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            jobs: Some(tx),
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job for execution on some worker.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.jobs
            .as_ref()
            .expect("job queue open until drop")
            .send(Box::new(job))
            .expect("pool workers alive");
    }

    /// Runs `job` on a worker and blocks for its result — the
    /// request/response shape both clients use. A panic inside the job
    /// comes back as `Err`; the worker survives it.
    pub fn try_run<R: Send + 'static>(
        &self,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> Result<R, JobPanicked> {
        let (tx, rx) = channel();
        self.execute(move || {
            let _ = tx.send(job());
        });
        // A panicking job unwinds past the send and drops `tx`.
        rx.recv().map_err(|_| JobPanicked)
    }

    /// [`try_run`](Self::try_run) for jobs that cannot panic.
    pub fn run<R: Send + 'static>(&self, job: impl FnOnce() -> R + Send + 'static) -> R {
        self.try_run(job).expect("pool job must not panic")
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.jobs.take(); // hang up: workers drain the queue and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn pool_runs_every_job() {
        let pool = WorkerPool::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let hits = hits.clone();
            pool.execute(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // joins after draining
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn run_returns_the_job_result() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.run(|| 6 * 7), 42);
    }

    #[test]
    fn a_panicking_job_leaves_its_worker_serving() {
        let pool = WorkerPool::new(1);
        assert_eq!(
            pool.try_run(|| -> u32 { panic!("job blew up") }),
            Err(JobPanicked)
        );
        // A fire-and-forget job may panic too.
        pool.execute(|| panic!("nobody is waiting for this one"));
        // The only worker is still there for the next jobs.
        assert_eq!(pool.try_run(|| 6 * 7), Ok(42));
        assert_eq!(pool.run(|| 7), 7);
    }
}
