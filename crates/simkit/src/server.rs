//! Capacity-limited FIFO servers.
//!
//! A [`Server`] models a device execution resource — a GPU compute engine,
//! a DMA copy engine, a CPU worker pool — as `capacity` parallel slots fed
//! by a FIFO queue. Jobs carry a service time and a completion callback;
//! queueing delay emerges from contention, which is exactly the effect the
//! serving experiments (Figs 6 and 8) need to capture.

use crate::{Sim, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Timing summary handed to a job's completion callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobStats {
    /// When the job was submitted.
    pub submitted: SimTime,
    /// When a slot was granted and service began.
    pub started: SimTime,
    /// When service finished.
    pub finished: SimTime,
}

impl JobStats {
    /// Time spent in service.
    pub fn service(&self) -> SimTime {
        self.finished - self.started
    }
    /// Total sojourn time.
    pub fn total(&self) -> SimTime {
        self.finished - self.submitted
    }
}

/// Completion callback type for queued jobs.
type OnDone = Box<dyn FnOnce(&mut Sim, JobStats)>;

struct Pending {
    service: SimTime,
    submitted: SimTime,
    on_done: OnDone,
}

struct Inner {
    name: String,
    capacity: u32,
    busy: u32,
    queue: VecDeque<Pending>,
    completed: u64,
}

/// A shared handle to a FIFO server. Cloning the handle shares the server.
#[derive(Clone)]
pub struct Server {
    inner: Rc<RefCell<Inner>>,
}

impl Server {
    /// Create a server with `capacity` parallel slots.
    pub fn new(name: impl Into<String>, capacity: u32) -> Self {
        assert!(capacity > 0, "server needs at least one slot");
        Server {
            inner: Rc::new(RefCell::new(Inner {
                name: name.into(),
                capacity,
                busy: 0,
                queue: VecDeque::new(),
                completed: 0,
            })),
        }
    }

    /// Server name (used in traces and assertions).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.inner.borrow().completed
    }

    /// Jobs currently queued (not yet in service).
    pub fn queued(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Slots currently busy.
    pub fn busy(&self) -> u32 {
        self.inner.borrow().busy
    }

    /// Submit a job needing `service` time; `on_done` fires at completion.
    pub fn submit(
        &self,
        sim: &mut Sim,
        service: SimTime,
        on_done: impl FnOnce(&mut Sim, JobStats) + 'static,
    ) {
        let job = Pending {
            service,
            submitted: sim.now(),
            on_done: Box::new(on_done),
        };
        self.inner.borrow_mut().queue.push_back(job);
        self.try_dispatch(sim);
    }

    /// Start as many queued jobs as free slots allow.
    fn try_dispatch(&self, sim: &mut Sim) {
        loop {
            let job = {
                let mut inner = self.inner.borrow_mut();
                if inner.busy >= inner.capacity {
                    return;
                }
                match inner.queue.pop_front() {
                    Some(job) => {
                        inner.busy += 1;
                        job
                    }
                    None => return,
                }
            };
            let started = sim.now();
            let this = self.clone();
            let finished_at = started + job.service;
            sim.schedule_at(finished_at, move |sim| {
                {
                    let mut inner = this.inner.borrow_mut();
                    inner.busy -= 1;
                    inner.completed += 1;
                }
                let stats = JobStats {
                    submitted: job.submitted,
                    started,
                    finished: sim.now(),
                };
                (job.on_done)(sim, stats);
                this.try_dispatch(sim);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn collect_stats(server: &Server, sim: &mut Sim, jobs: &[(u64, u64)]) -> Vec<JobStats> {
        // jobs: (submit_ms, service_ms)
        let out = Rc::new(RefCell::new(Vec::new()));
        for &(submit, service) in jobs {
            let server = server.clone();
            let out = out.clone();
            sim.schedule_at(SimTime::from_millis(submit), move |sim| {
                let out = out.clone();
                server.submit(sim, SimTime::from_millis(service), move |_sim, stats| {
                    out.borrow_mut().push(stats)
                });
            });
        }
        sim.run();
        Rc::try_unwrap(out).expect("all handlers done").into_inner()
    }

    #[test]
    fn single_slot_serializes() {
        let mut sim = Sim::new();
        let server = Server::new("gpu", 1);
        let stats = collect_stats(&server, &mut sim, &[(0, 10), (0, 10), (0, 10)]);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].started, SimTime::ZERO);
        assert_eq!(stats[1].started, SimTime::from_millis(10));
        assert_eq!(stats[2].started, SimTime::from_millis(20));
        assert_eq!(
            stats[2].started - stats[2].submitted,
            SimTime::from_millis(20)
        );
        assert_eq!(server.completed(), 3);
    }

    #[test]
    fn two_slots_run_in_parallel() {
        let mut sim = Sim::new();
        let server = Server::new("gpu", 2);
        let stats = collect_stats(&server, &mut sim, &[(0, 10), (0, 10), (0, 10)]);
        assert_eq!(stats[0].started, SimTime::ZERO);
        assert_eq!(stats[1].started, SimTime::ZERO);
        assert_eq!(stats[2].started, SimTime::from_millis(10));
        assert_eq!(sim.now(), SimTime::from_millis(20));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut sim = Sim::new();
        let server = Server::new("gpu", 1);
        // Later-submitted shorter job must not overtake.
        let stats = collect_stats(&server, &mut sim, &[(0, 100), (1, 1), (2, 1)]);
        assert_eq!(stats[0].service(), SimTime::from_millis(100));
        assert!(stats[1].started >= stats[0].finished);
        assert!(stats[2].started >= stats[1].finished);
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut sim = Sim::new();
        let server = Server::new("gpu", 1);
        let stats = collect_stats(&server, &mut sim, &[(5, 3)]);
        assert_eq!(stats[0].started, SimTime::from_millis(5));
        assert_eq!(stats[0].started, stats[0].submitted);
        assert_eq!(stats[0].finished, SimTime::from_millis(8));
    }

    #[test]
    fn zero_service_jobs_complete_in_order() {
        let mut sim = Sim::new();
        let server = Server::new("gpu", 1);
        let stats = collect_stats(&server, &mut sim, &[(0, 0), (0, 0)]);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].finished, SimTime::ZERO);
        assert_eq!(stats[1].finished, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = Server::new("bad", 0);
    }
}
