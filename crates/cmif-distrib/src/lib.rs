//! # cmif-distrib — the simulated distributed document and media store
//!
//! The paper's research-directions section (§6) plans a distributed
//! multimedia system on top of the Amoeba distributed OS and a distributed
//! DBMS: documents shared freely between hosts, media fetched on demand.
//! This crate simulates that environment so the transportability claims can
//! be measured without a 1991 machine room:
//!
//! * [`network`] — a latency/bandwidth cost model over a set of hosts;
//! * [`placement`] — a consistent-hash ring choosing which hosts hold each
//!   block/document replica;
//! * [`store`] — per-host shards (one lock per host, no global lock) with
//!   one placement index for blocks and documents, configurable
//!   replication and one nearest-replica fetch walk for both kinds;
//!   documents travel as wire bytes (the compact binary form by default,
//!   canonical text on request — see [`WireEncoding`]), blocks move only
//!   when fetched;
//! * [`traffic`] — cluster-wide totals plus per-link `(from, to)` traffic
//!   accounting, delivered and failed transfers kept apart;
//! * [`transport`] — the structure-only vs structure-plus-data comparison
//!   (the `ext_distrib` benchmark);
//! * [`health`] — the per-host `Up → Suspect → Down` state machine driven
//!   by observed transfer failures;
//! * [`fault`] — deterministic, seeded fault injection (host kills,
//!   transfer failures/delays, partitions) layered on the network;
//! * [`retry`] — bounded retries with exponential backoff and jitter for
//!   degraded fetches;
//! * [`repair`] — the self-healing queue re-replicating under-replicated
//!   blocks/documents after a host loss.
//!
//! ```
//! use cmif_distrib::network::{Link, Network};
//! use cmif_distrib::store::DistributedStore;
//!
//! # fn main() -> Result<(), cmif_distrib::DistribError> {
//! let cluster = DistributedStore::new(Network::uniform(&["cwi", "home"], Link::wan()));
//! assert!(cluster.documents_on("home")?.is_empty());
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod fault;
pub mod health;
pub mod network;
pub mod placement;
pub mod repair;
pub mod retry;
pub mod store;
pub mod traffic;
pub mod transport;

pub use cmif_format::WireEncoding;
pub use error::{DistribError, FetchAttempt, Result};
pub use fault::{FaultPlan, InjectedFault, TransferDecision};
pub use health::{HealthPolicy, HealthState, HealthTransition, HostHealth};
pub use network::{HostId, Link, Network};
pub use placement::PlacementRing;
pub use repair::{RepairAction, RepairItem, RepairQueue, RepairReport, RepairWorker};
pub use retry::RetryPolicy;
pub use store::{DistributedStore, FetchReport};
pub use traffic::{LinkStats, TrafficStats};
pub use transport::{compare_transport, referenced_keys, TransportComparison, TransportCost};
