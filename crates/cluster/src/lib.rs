//! # llmsched-cluster — the serving-cluster model
//!
//! The data model of a production LLM serving cluster, shared by the
//! simulator's executor backends and the experiment harness:
//!
//! * [`latency`] — per-token decode-latency curves `l(b)` over batch size
//!   (moved here from `llmsched-sim` so cluster specs can carry per-group
//!   curves; the simulator re-exports it unchanged).
//! * [`replica`] — [`ReplicaGroup`]s (homogeneous pools of replicas),
//!   [`ClusterSpec`] (groups + routing + optional disaggregation) and
//!   [`DisaggSpec`] (prefill pool, prefill rate, KV-transfer delay).
//! * [`router`] — the [`Router`] trait and the three shipped policies:
//!   least-loaded, join-shortest-queue, and session affinity.
//!
//! Everything here is plain data plus pure decision logic: no event queue,
//! no clocks. The discrete-event machinery that *executes* a spec lives in
//! `llmsched-sim`'s executor backends (`ClusterExec`, `DisaggExec`), which
//! consume these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod replica;
pub mod router;

pub use latency::{LatencyProfile, LatencyProfileError};
pub use replica::{ClusterSpec, ClusterSpecError, DisaggSpec, ReplicaGroup};
pub use router::{
    home_replica, JoinShortestQueue, LeastLoaded, ReplicaView, RouteRequest, Router, RoutingPolicy,
    SessionAffinity,
};

/// Convenient glob-import of the cluster-model surface.
pub mod prelude {
    pub use crate::latency::{LatencyProfile, LatencyProfileError};
    pub use crate::replica::{ClusterSpec, ClusterSpecError, DisaggSpec, ReplicaGroup};
    pub use crate::router::{ReplicaView, RouteRequest, Router, RoutingPolicy};
}
