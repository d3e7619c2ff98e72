//! The fixed worker pool behind the reactor: a bounded pending-request
//! queue drained by `N` threads.
//!
//! The bound *is* the admission-control backstop — when the queue is
//! full, [`WorkerPool::try_submit`] refuses immediately and the reactor
//! sheds the request with `503` instead of queueing unboundedly (the
//! thread-per-connection failure mode this crate exists to remove).

use fp_httpd::Request;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One offloaded request, addressed back to its connection.
pub struct Job {
    /// Connection slot in the reactor's table.
    pub slot: usize,
    /// The slot's generation when the job was created; a completion for
    /// a stale generation is dropped (the connection died meanwhile).
    pub generation: u64,
    /// Per-connection sequence number, for pipelined response ordering.
    pub seq: u64,
    /// Whether the response must close the connection.
    pub close: bool,
    /// The parsed request.
    pub request: Box<Request>,
    /// When the reactor enqueued it (queue-wait phase measurement).
    pub enqueued_at: Instant,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    capacity: usize,
}

/// A fixed set of worker threads over one bounded queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads running `run` over submitted jobs. A
    /// zero-worker pool is legal (fast-path-only servers): submissions
    /// queue until the bound, then shed.
    pub fn new<F>(workers: usize, capacity: usize, run: F) -> WorkerPool
    where
        F: Fn(Job) + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            capacity: capacity.max(1),
        });
        let run = Arc::new(run);
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let run = Arc::clone(&run);
                std::thread::Builder::new()
                    .name(format!("edge-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &*run))
                    .expect("spawn edge worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: threads,
        }
    }

    /// Enqueues a job, or hands it back when the queue is at capacity
    /// (the caller sheds the request).
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if queue.len() >= self.shared.capacity {
                return Err(job);
            }
            queue.push_back(job);
        }
        self.shared.available.notify_one();
        Ok(())
    }

    /// Jobs currently waiting for a worker.
    pub fn queued(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// The queue bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Stops the pool and joins every worker. With `discard_queued`,
    /// jobs still waiting are dropped (hard shutdown); otherwise the
    /// workers finish the backlog first (graceful drain).
    pub fn stop(mut self, discard_queued: bool) {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if discard_queued {
                queue.clear();
            }
            // Under the queue lock: a worker that found the queue empty
            // and `stop` unset is then already waiting, so it gets the
            // notification below instead of missing it and never waking.
            self.shared.stop.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, run: &(dyn Fn(Job) + Send + Sync)) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        run(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_httpd::Request;
    use std::sync::atomic::AtomicUsize;

    fn job(seq: u64) -> Job {
        Job {
            slot: 0,
            generation: 0,
            seq,
            close: false,
            request: Box::new(Request::get("/x")),
            enqueued_at: Instant::now(),
        }
    }

    #[test]
    fn runs_submitted_jobs_and_bounds_the_queue() {
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let pool = WorkerPool::new(2, 64, move |_job| {
            ran2.fetch_add(1, Ordering::SeqCst);
        });
        for seq in 0..10 {
            pool.try_submit(job(seq)).map_err(|_| ()).unwrap();
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while ran.load(Ordering::SeqCst) < 10 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(ran.load(Ordering::SeqCst), 10);
        pool.stop(false);
    }

    #[test]
    fn zero_workers_queue_fills_then_refuses() {
        let pool = WorkerPool::new(0, 3, |_job| {});
        assert!(pool.try_submit(job(0)).is_ok());
        assert!(pool.try_submit(job(1)).is_ok());
        assert!(pool.try_submit(job(2)).is_ok());
        let refused = pool.try_submit(job(3));
        assert!(refused.is_err(), "fourth job must be refused");
        assert_eq!(pool.queued(), 3);
        pool.stop(true);
    }

    #[test]
    fn graceful_stop_finishes_the_backlog() {
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let pool = WorkerPool::new(1, 64, move |_job| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            ran2.fetch_add(1, Ordering::SeqCst);
        });
        for seq in 0..5 {
            pool.try_submit(job(seq)).map_err(|_| ()).unwrap();
        }
        pool.stop(false);
        assert_eq!(ran.load(Ordering::SeqCst), 5, "drain runs every queued job");
    }
}
