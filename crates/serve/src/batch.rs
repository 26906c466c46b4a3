//! Request coalescing and per-deployment work queues.
//!
//! The dispatcher drains every envelope queued at the moment it wakes up and
//! feeds admitted `Infer` requests through a [`Coalescer`]. Requests for the
//! same deployment accumulate until either the configured `max_batch` is
//! reached, an ordering barrier for that deployment arrives (a `LearnOnline`,
//! `Snapshot` or `Stats` must observe every inference admitted before it),
//! or the drain cycle ends. One coalesced job costs one batched backbone +
//! FCR forward instead of `n`, which is where the `serve_throughput` bench's
//! speedup comes from.
//!
//! Ordering is enforced by construction, not by luck of the worker race:
//! jobs land in a per-deployment FIFO [`WorkQueue`], and the global queue
//! carries *deployment tokens*. The work queue is a reader/writer claim
//! state machine: infer batches only read the model, so up to `workers`
//! workers run one deployment's consecutive infer batches at once, while
//! learns, snapshots and stats are barriers that wait for the infers ahead
//! of them to drain and hold back everything behind them. The contract:
//! barriers are totally ordered in admission order, and infers between two
//! barriers may run and reply in any order. Different deployments run fully
//! in parallel.

use crate::registry::Deployment;
use crate::request::Reply;
use ofscil_data::Batch;
use ofscil_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One admitted `Infer` request waiting to be batched.
pub(crate) struct InferItem {
    pub image: Tensor,
    pub reply: Reply,
}

/// A unit of work in a deployment's FIFO queue.
pub(crate) enum DeploymentJob {
    /// A coalesced batch of inference requests.
    InferBatch(Vec<InferItem>),
    /// A single-pass online learning request.
    Learn { batch: Batch, reply: Reply },
    /// An explicit-memory snapshot request.
    Snapshot { reply: Reply },
    /// A statistics read.
    Stats { reply: Reply },
}

/// A job as the claim state machine of [`WorkQueue`] sees it.
pub(crate) trait Job {
    /// `true` for the jobs that run alone on their deployment.
    fn is_barrier(&self) -> bool;
}

impl Job for DeploymentJob {
    /// A learn mutates the explicit memory, and a snapshot or stats read
    /// must observe exactly the work admitted before it. Infer batches only
    /// read the model, so they may share it.
    fn is_barrier(&self) -> bool {
        !matches!(self, DeploymentJob::InferBatch(_))
    }
}

/// What a worker holding a deployment token does next (see
/// [`WorkQueue::claim`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Claim<J> {
    /// Run `job`, after putting `spawn` more tokens for this deployment on
    /// the worker pool so idle workers can claim the jobs behind it.
    Run { job: J, spawn: usize },
    /// Nothing may start now: the worker gives its token back.
    Release,
}

/// A deployment's FIFO job queue plus its reader/writer claim state.
///
/// A *token* stands for one worker's right to claim this deployment's jobs;
/// it is either queued on the worker pool or held by a worker. Infer batches
/// are readers and barrier jobs (learn, snapshot, stats) are writers:
///
/// * consecutive infer batches at the head of the queue are claimed
///   concurrently, one per token, with at most `workers` tokens out;
/// * a barrier waits until the infers running ahead of it have drained, and
///   nothing behind it starts until it has finished.
///
/// Jobs therefore start in admission order, every barrier observes exactly
/// the work admitted before it, and infers between two barriers may run and
/// finish in any order. No job is stranded: a token holder only gives its
/// token back when nothing can start, and then a running job's worker claims
/// again once it finishes; with nothing running, the head job can always
/// start.
///
/// The state machine is plain data, no locks or threads: the runtime holds
/// it under the deployment's work lock, and tests drive it step by step.
#[derive(Debug)]
pub(crate) struct WorkQueue<J = DeploymentJob> {
    jobs: VecDeque<J>,
    /// Tokens out: queued on the pool or held by a worker.
    tokens: usize,
    /// Infer batches running.
    infers: usize,
    /// Whether a barrier job is running.
    barrier: bool,
}

impl<J> Default for WorkQueue<J> {
    fn default() -> Self {
        WorkQueue { jobs: VecDeque::new(), tokens: 0, infers: 0, barrier: false }
    }
}

impl<J: Job> WorkQueue<J> {
    /// Appends an admitted job. Returns how many new tokens the caller must
    /// put on the worker pool.
    pub fn push(&mut self, job: J, workers: usize) -> usize {
        self.jobs.push_back(job);
        self.grant(workers)
    }

    /// Called by a worker holding one of this deployment's tokens, with no
    /// job of its own running: claims the head job when it may start now,
    /// otherwise gives the token back.
    pub fn claim(&mut self, workers: usize) -> Claim<J> {
        if self.startable(1) == 0 {
            self.tokens -= 1;
            return Claim::Release;
        }
        let job = self.jobs.pop_front().expect("a startable job is queued");
        if job.is_barrier() {
            self.barrier = true;
        } else {
            self.infers += 1;
        }
        Claim::Run { job, spawn: self.grant(workers) }
    }

    /// Marks a claimed job finished. The worker keeps its token and claims
    /// again.
    pub fn finish(&mut self, barrier: bool) {
        if barrier {
            self.barrier = false;
        } else {
            self.infers -= 1;
        }
    }

    fn running(&self) -> usize {
        self.infers + usize::from(self.barrier)
    }

    /// How many queued jobs could start right now, counting at most `cap`.
    fn startable(&self, cap: usize) -> usize {
        match self.jobs.front() {
            _ if self.barrier => 0,
            None => 0,
            Some(head) if head.is_barrier() => usize::from(self.infers == 0),
            Some(_) => self.jobs.iter().take(cap).take_while(|job| !job.is_barrier()).count(),
        }
    }

    /// Grants the tokens that give every job able to start now a worker on
    /// its way, without ever having more than `workers` tokens out.
    fn grant(&mut self, workers: usize) -> usize {
        let running = self.running();
        let idle = self.tokens - running;
        let room = workers.saturating_sub(running);
        let new = self.startable(room).saturating_sub(idle);
        self.tokens += new;
        new
    }
}

/// Groups admitted inference requests per deployment up to a batch cap.
pub(crate) struct Coalescer {
    max_batch: usize,
    pending: HashMap<String, (Arc<Deployment>, Vec<InferItem>)>,
}

impl Coalescer {
    pub fn new(max_batch: usize) -> Self {
        Coalescer { max_batch: max_batch.max(1), pending: HashMap::new() }
    }

    /// Queues an admitted inference; returns a full batch once the
    /// deployment's pending batch reaches `max_batch`.
    pub fn push(
        &mut self,
        deployment: Arc<Deployment>,
        item: InferItem,
    ) -> Option<(Arc<Deployment>, DeploymentJob)> {
        let name = deployment.name.clone();
        let entry = self
            .pending
            .entry(name.clone())
            .or_insert_with(|| (deployment, Vec::new()));
        entry.1.push(item);
        if entry.1.len() >= self.max_batch {
            self.pending
                .remove(&name)
                .map(|(deployment, items)| (deployment, DeploymentJob::InferBatch(items)))
        } else {
            None
        }
    }

    /// Flushes the pending batch of one deployment, in front of that
    /// deployment's next barrier job (learn, snapshot or stats).
    pub fn flush_deployment(
        &mut self,
        name: &str,
    ) -> Option<(Arc<Deployment>, DeploymentJob)> {
        self.pending
            .remove(name)
            .map(|(deployment, items)| (deployment, DeploymentJob::InferBatch(items)))
    }

    /// Flushes every pending batch at the end of a dispatch cycle.
    pub fn flush_all(&mut self) -> Vec<(Arc<Deployment>, DeploymentJob)> {
        self.pending
            .drain()
            .map(|(_, (deployment, items))| (deployment, DeploymentJob::InferBatch(items)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::SeedRng;

    /// A job reduced to what the claim state machine sees, plus an id that
    /// records admission order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Infer(usize),
        Barrier(usize),
    }

    impl Job for Kind {
        fn is_barrier(&self) -> bool {
            matches!(self, Kind::Barrier(_))
        }
    }

    fn id(job: Kind) -> usize {
        match job {
            Kind::Infer(id) | Kind::Barrier(id) => id,
        }
    }

    #[test]
    fn two_infers_are_claimed_at_once() {
        let mut work = WorkQueue::default();
        assert_eq!(work.push(Kind::Infer(0), 2), 1);
        // The second infer may run beside the first, so it gets a token too.
        assert_eq!(work.push(Kind::Infer(1), 2), 1);
        assert_eq!(work.claim(2), Claim::Run { job: Kind::Infer(0), spawn: 0 });
        assert_eq!(work.claim(2), Claim::Run { job: Kind::Infer(1), spawn: 0 });
        assert_eq!((work.tokens, work.infers), (2, 2));
    }

    #[test]
    fn a_learn_waits_for_running_infers() {
        let mut work = WorkQueue::default();
        work.push(Kind::Infer(0), 3);
        work.push(Kind::Infer(1), 3);
        assert_eq!(work.claim(3), Claim::Run { job: Kind::Infer(0), spawn: 0 });
        assert_eq!(work.claim(3), Claim::Run { job: Kind::Infer(1), spawn: 0 });
        // Nothing can start while infers run ahead of the learn: no token.
        assert_eq!(work.push(Kind::Barrier(2), 3), 0);
        work.finish(false);
        // One infer still runs: the first finisher gives its token back...
        assert_eq!(work.claim(3), Claim::Release);
        work.finish(false);
        // ...and the last one runs the learn.
        assert_eq!(work.claim(3), Claim::Run { job: Kind::Barrier(2), spawn: 0 });
        assert!(work.barrier);
        assert_eq!(work.tokens, 1);
    }

    #[test]
    fn infers_behind_a_learn_wait_for_it() {
        let mut work = WorkQueue::default();
        work.push(Kind::Barrier(0), 2);
        assert_eq!(work.claim(2), Claim::Run { job: Kind::Barrier(0), spawn: 0 });
        assert_eq!(work.push(Kind::Infer(1), 2), 0);
        assert_eq!(work.push(Kind::Infer(2), 2), 0);
        work.finish(true);
        // The learn's worker takes the first infer and calls a second
        // worker for the one behind it.
        assert_eq!(work.claim(2), Claim::Run { job: Kind::Infer(1), spawn: 1 });
        assert_eq!(work.claim(2), Claim::Run { job: Kind::Infer(2), spawn: 0 });
    }

    #[test]
    fn a_snapshot_behind_a_learn_runs_alone_after_it() {
        let mut work = WorkQueue::default();
        work.push(Kind::Barrier(0), 4);
        assert_eq!(work.push(Kind::Barrier(1), 4), 0);
        assert_eq!(work.claim(4), Claim::Run { job: Kind::Barrier(0), spawn: 0 });
        work.finish(true);
        assert_eq!(work.claim(4), Claim::Run { job: Kind::Barrier(1), spawn: 0 });
        work.finish(true);
        assert_eq!(work.claim(4), Claim::Release);
        assert_eq!(work.tokens, 0);
    }

    #[test]
    fn one_worker_runs_everything_in_order() {
        let mut work = WorkQueue::default();
        let jobs = [Kind::Infer(0), Kind::Infer(1), Kind::Barrier(2)];
        for (i, job) in jobs.into_iter().enumerate() {
            assert_eq!(work.push(job, 1), usize::from(i == 0));
        }
        for want in jobs {
            assert_eq!(work.claim(1), Claim::Run { job: want, spawn: 0 });
            work.finish(want.is_barrier());
        }
        assert_eq!(work.claim(1), Claim::Release);
    }

    /// A seeded random interleaving of admissions, token pops, claims and
    /// completions over a pool of `workers` workers. After every step:
    /// tokens out never exceed `workers` and match the pool plus the held
    /// ones, jobs start in admission order, a barrier only starts with
    /// nothing running and runs alone, and once admissions stop the pool
    /// drains every job (nothing is stranded).
    #[test]
    fn random_interleavings_keep_the_claim_invariants() {
        let mut peak_infers = 0;
        for seed in 0..200u64 {
            let mut rng = SeedRng::new(seed);
            let workers = 1 + rng.below(4);
            let mut work = WorkQueue::default();
            // Tokens queued on the pool, and per worker: None when idle,
            // Some(None) holding a token between jobs, Some(Some(job)) running.
            let mut pool = 0usize;
            let mut held: Vec<Option<Option<Kind>>> = vec![None; workers];
            let mut admitted = 0usize;
            let mut started = 0usize;
            let mut steps = 0usize;
            loop {
                steps += 1;
                let admitting = steps < 400;
                let move_ = rng.below(3);
                if admitting && move_ == 0 {
                    let job = if rng.chance(0.3) {
                        Kind::Barrier(admitted)
                    } else {
                        Kind::Infer(admitted)
                    };
                    admitted += 1;
                    pool += work.push(job, workers);
                } else if move_ == 1 && pool > 0 {
                    let idle = held.iter().position(Option::is_none).expect("a worker per token");
                    pool -= 1;
                    held[idle] = Some(None);
                } else {
                    let busy: Vec<usize> =
                        (0..workers).filter(|&w| matches!(held[w], Some(Some(_)))).collect();
                    if busy.is_empty() {
                        if !admitting && pool == 0 {
                            break;
                        }
                    } else {
                        let w = busy[rng.below(busy.len())];
                        let job = held[w].unwrap().unwrap();
                        work.finish(job.is_barrier());
                        held[w] = Some(None);
                    }
                }
                // Every token holder between jobs claims right away.
                for w in 0..workers {
                    if held[w] != Some(None) {
                        continue;
                    }
                    match work.claim(workers) {
                        Claim::Run { job, spawn } => {
                            assert_eq!(id(job), started, "seed {seed}: out-of-order start");
                            started += 1;
                            if job.is_barrier() {
                                let others =
                                    held.iter().filter(|h| matches!(h, Some(Some(_)))).count();
                                assert_eq!(others, 0, "seed {seed}: barrier beside a job");
                            }
                            pool += spawn;
                            held[w] = Some(Some(job));
                        }
                        Claim::Release => held[w] = None,
                    }
                }
                let holding = held.iter().filter(|h| h.is_some()).count();
                assert_eq!(work.tokens, pool + holding, "seed {seed}: token count drifted");
                assert!(work.tokens <= workers, "seed {seed}: {} tokens > {workers}", work.tokens);
                assert!(!work.barrier || work.infers == 0, "seed {seed}: barrier beside infers");
                peak_infers = peak_infers.max(work.infers);
            }
            assert_eq!(started, admitted, "seed {seed}: jobs stranded");
            assert!(work.jobs.is_empty());
            assert_eq!((work.tokens, work.infers, work.barrier), (0, 0, false));
        }
        // The interleavings did run infers side by side.
        assert!(peak_infers >= 3, "peak {peak_infers} concurrent infers");
    }
}
