//! The commit-journal hook a durable store plugs into the runtime.
//!
//! The serving runtime is storage-agnostic: it exposes one narrow trait,
//! [`CommitJournal`], and calls it at the two points where durable state
//! changes — a committed `LearnOnline` (journaled **while the deployment's
//! model write lock is still held**, so the journal's record order provably
//! matches the order of memory mutations) and a budget top-up (journaled by the
//! dispatcher right after the meter moves). `ofscil_store` implements the
//! trait with a per-deployment write-ahead log + checkpoint store; tests can
//! implement it with a `Vec` behind a mutex.

use crate::runtime::LearnCommit;

/// Durability counters of one deployment's journal, surfaced through the
/// `Stats` response so operators can watch log growth and checkpoint cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Records currently in the write-ahead log (since the last checkpoint).
    pub wal_records: u64,
    /// Size of the write-ahead log file in bytes.
    pub wal_bytes: u64,
    /// Delta compactions performed on the log so far.
    pub compactions: u64,
    /// Replication sequence number of the latest full-snapshot checkpoint.
    pub last_checkpoint_seq: u64,
}

/// A sink for the runtime's durable state changes.
///
/// Implementations must be cheap enough to sit on the learn path (the learn
/// journal call happens under the deployment's model write lock) and must be
/// callable from several threads at once for *different* deployments.
///
/// Errors are strings: a failed journal write fails the request it was part
/// of (the client learns its commit is not durable), but must not poison the
/// runtime.
pub trait CommitJournal: Sync {
    /// Journals one committed `LearnOnline`.
    ///
    /// Called while the deployment's model write lock is held, after the meter
    /// settled the batch's amortized price — `spent_mj`/`budget_mj` are the
    /// post-commit meter state a recovery must restore.
    ///
    /// # Errors
    ///
    /// Returns a description of the failed write; the runtime answers the
    /// request with [`ServeError::Execution`](crate::ServeError::Execution).
    fn journal_learn(
        &self,
        commit: &LearnCommit,
        spent_mj: f64,
        budget_mj: Option<f64>,
    ) -> Result<(), String>;

    /// Journals a budget top-up. `seq` is the deployment's current
    /// replication sequence number (top-ups do not advance it).
    ///
    /// # Errors
    ///
    /// Returns a description of the failed write; the runtime answers the
    /// request with [`ServeError::Execution`](crate::ServeError::Execution).
    fn journal_top_up(
        &self,
        deployment: &str,
        seq: u64,
        spent_mj: f64,
        budget_mj: Option<f64>,
    ) -> Result<(), String>;

    /// The deployment's durability counters, if it is journaled. Feeds the
    /// `durability` field of
    /// [`DeploymentStats`](crate::DeploymentStats).
    fn durability_stats(&self, deployment: &str) -> Option<DurabilityStats>;
}
