//! `ofscil_serve` — a multi-tenant serving runtime for online few-shot
//! class-incremental learners.
//!
//! The rest of the workspace exercises O-FSCIL through the one-shot
//! [`run_experiment`](ofscil_core::run_experiment) driver. This crate keeps
//! models **alive**: many independent [`OFscilModel`](ofscil_core::OFscilModel)
//! deployments serve mixed inference and online-learning traffic from
//! concurrent clients, under the paper's energy envelope, across restarts.
//!
//! The pieces:
//!
//! * [`LearnerRegistry`] — named deployments behind sharded `RwLock`s; each
//!   model sits behind its own `RwLock`, so tenants proceed concurrently and
//!   one tenant's inferences share its model as readers,
//! * [`ServeRequest`] / [`ServeResponse`] — the typed request API (`Infer`,
//!   `LearnOnline`, `Snapshot`, `Stats`, `TopUpBudget`), dispatched over
//!   `std::sync::mpsc` channels to a `std::thread::scope` worker pool by
//!   [`ServeRuntime::run`],
//! * a coalescing batcher — concurrent `Infer` requests for one deployment
//!   merge into a single batched forward pass, amortizing the matmul (the
//!   `serve_throughput` bench prints the batched-vs-sequential ratio),
//! * per-deployment ordering — up to [`ServeConfig::workers`] workers run
//!   one deployment's infer batches at once, while `LearnOnline`, `Snapshot`
//!   and `Stats` are barriers: barriers are totally ordered in admission
//!   order and each observes exactly the work admitted before it, and infers
//!   between two barriers may run and reply in any order,
//! * energy-budget admission — every request is priced in millijoules on the
//!   GAP9 cost model ([`RequestPricing`]); once a deployment's budget is
//!   spent, work is rejected or deferred per [`BudgetPolicy`], turning the
//!   paper's 12 mJ/class headline into a runtime policy. Coalesced batches
//!   are settled at their **amortized** energy after running: the batch
//!   streams the weights once, so the meter refunds the difference to `n`
//!   independent passes,
//! * [`snapshot`] — an in-tree binary codec that round-trips the explicit
//!   memory bit-exactly for warm restart and replication (the workspace's
//!   `serde` stand-in is marker-only, so the wire format lives here),
//! * [`bytes`] — the one byte reader/writer, typed decode error and FNV-1a
//!   under the snapshot and every downstream format (wire, store, router),
//! * replication hooks — [`ServeRuntime::run_replicated`] streams every
//!   committed `LearnOnline` as a sequence-numbered [`LearnCommit`], and a
//!   runtime configured [`read_only`](ServeConfig::read_only) serves replica
//!   traffic while rejecting writes (`ofscil_wire` builds its socket server
//!   and follower mode on these),
//! * durability hooks — [`ServeRuntime::run_journaled`] additionally writes
//!   every commit and budget top-up to a [`CommitJournal`] (journaled under
//!   the deployment's model lock, so record order provably matches mutation
//!   order); `ofscil_store` implements the trait with a WAL + checkpoint
//!   store and recovers deployments bit-exactly after a crash,
//! * backpressure — [`ServeConfig::queue_depth`] bounds the dispatcher queue
//!   and sheds excess submissions with [`ServeError::QueueFull`].
//!
//! # Example
//!
//! ```no_run
//! use ofscil_serve::{
//!     DeploymentSpec, LearnerRegistry, ServeConfig, ServeRequest, ServeRuntime,
//! };
//! use ofscil_core::OFscilModel;
//! use ofscil_nn::models::BackboneKind;
//! use ofscil_tensor::{SeedRng, Tensor};
//!
//! let mut rng = SeedRng::new(42);
//! let registry = LearnerRegistry::new();
//! registry
//!     .register(
//!         DeploymentSpec::new("tenant-a", (32, 32)),
//!         OFscilModel::new(BackboneKind::Micro, 32, &mut rng),
//!     )
//!     .unwrap();
//! ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
//!     let response = client.call(ServeRequest::Infer {
//!         deployment: "tenant-a".into(),
//!         image: Tensor::zeros(&[3, 32, 32]),
//!     });
//!     println!("{response:?}");
//! })
//! .unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod bytes;
mod config;
mod error;
mod journal;
mod registry;
mod request;
mod runtime;
pub mod snapshot;
pub mod traffic;

pub use config::ServeConfig;
pub use error::ServeError;
pub use journal::{CommitJournal, DurabilityStats};
pub use registry::{
    BudgetPolicy, DeploymentExport, DeploymentSpec, DeploymentStats, ExportStats,
    LearnerRegistry, RequestPricing,
};
pub use request::{PendingResponse, ServeRequest, ServeResponse};
pub use runtime::{LearnCommit, ServeClient, ServeRuntime};
pub use snapshot::{decode_explicit_memory, encode_explicit_memory, SnapshotError};

/// Result alias used across the serve crate.
pub type Result<T> = std::result::Result<T, ServeError>;
