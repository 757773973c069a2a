//! The TCP server: a `poll(2)` reactor over one single-writer actor per
//! tenant. Unix only — the reactor needs `poll(2)`.
//!
//! # Thread topology
//!
//! ```text
//!                  reactor thread (Server::run caller)
//!   clients ──TCP──▶ listener, connections, tenant map ──try_send──▶ tenant actor threads
//!                        ▲                                                 │
//!                        └──── completion channel + self-pipe wake ◀───────┘
//! ```
//!
//! The reactor (see the `reactor` module docs for the state machine and
//! backpressure story) runs on the thread that called [`Server::run`]. It
//! owns the listener, every connection, and the tenant map — tenant id →
//! actor handle and join handle — creating each tenant's actor from the
//! [`WorkspaceFactory`] on its first request. Each actor owns its
//! [`Workspace`]. There is no shared mutable state and no other server
//! thread: OS threads are the reactor plus one per live tenant,
//! independent of connection count, and an idle server blocks in `poll`
//! with zero wakeups.
//!
//! # Shutdown
//!
//! A `Shutdown` request is answered with `ShuttingDown`, then the reactor
//! drops every actor handle. Each actor drains and answers the commands
//! already queued to it, then exits; the reactor joins them all, routes
//! their last replies to the waiting connections, flushes, and only then
//! returns — closing the listener after every actor thread has exited.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::thread;

use dagwave_core::{CoreError, SolutionDelta, Workspace, WorkspaceStats};
use dagwave_graph::ArcId;
use dagwave_paths::PathId;

use crate::actor::{ActorConfig, ActorOp, ActorStats, ServeError, Snapshot};
use crate::protocol::{ErrorCode, Response, WireDelta, WireError, WireOp, WireSolution, WireStats};

/// Builds the initial [`Workspace`] for a tenant id the server has not
/// seen before. Owned by the reactor thread, so `Send` suffices.
pub type WorkspaceFactory = Box<dyn Fn(u64) -> Result<Workspace, CoreError> + Send>;

/// The connection-handling model. It carries no choice any more — the
/// `poll(2)` reactor is the only front-end — and is kept only so existing
/// `ServerConfig { front_end: FrontEnd::Evented, .. }` literals still
/// build; it goes with the next benchmark revision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontEnd {
    /// A single-threaded `poll(2)` reactor over nonblocking sockets:
    /// OS thread count is independent of connection count.
    #[default]
    Evented,
}

/// Default cap on one connection's queued response bytes before the
/// reactor stops reading more requests from it.
pub const DEFAULT_MAX_WRITE_BUFFER: usize = 1 << 20;

/// Server-wide knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// The knobs of every tenant's actor: span budget, admission policy,
    /// coalescing cap, and queue depth. A request that finds its tenant's
    /// queue full is answered with a typed `Busy`.
    pub actor: ActorConfig,
    /// Carries no choice (see [`FrontEnd`]); removed with the next
    /// benchmark revision.
    pub front_end: FrontEnd,
    /// Per-connection cap on queued response bytes: past it, the
    /// connection stops being read until the client drains.
    pub max_write_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            actor: ActorConfig::default(),
            front_end: FrontEnd::Evented,
            max_write_buffer: DEFAULT_MAX_WRITE_BUFFER,
        }
    }
}

/// Transport counters surfaced through [`WireStats`]: one reactor-wide
/// instance, summed over every connection the server has served.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Transport {
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
    pub(crate) busy_rejections: u64,
    pub(crate) max_write_queue: u64,
}

/// A bound-but-not-yet-running server. [`Server::run`] blocks the calling
/// thread until a client sends `Shutdown`; [`Server::spawn`] runs it on
/// its own thread and returns a joinable handle.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    factory: WorkspaceFactory,
    config: ServerConfig,
}

/// Handle to a server running on its own thread (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    join: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (use it to connect when binding to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the server to shut down.
    pub fn join(self) -> io::Result<()> {
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

impl Server {
    /// Bind a listener. `factory` builds the workspace for each new
    /// tenant id.
    pub fn bind(
        addr: impl ToSocketAddrs,
        factory: WorkspaceFactory,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            factory,
            config,
        })
    }

    /// The bound address (use it to connect when binding to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept and serve connections on the calling thread until a
    /// `Shutdown` request arrives; returns once every tenant actor has
    /// exited and the listener is closed.
    pub fn run(self) -> io::Result<()> {
        crate::reactor::run(self.listener, self.factory, self.config)
    }

    /// Run the server on its own thread; returns once it is accepting.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        // lint: allow(no-raw-sync): hands the reactor its own thread; the handle's join() is the only coupling
        let join = thread::spawn(move || self.run());
        ServerHandle { addr, join }
    }
}

/// Shape a successful single-`Add` apply into the `Admitted` response.
pub(crate) fn admitted_response(ids: Vec<PathId>) -> Response {
    match ids.first() {
        Some(id) => Response::Admitted { id: id.0 },
        None => error_response(ServeError::Core(CoreError::InvalidPath(
            "admit produced no id".into(),
        ))),
    }
}

/// Shape a snapshot into the full-solution wire response.
pub(crate) fn solution_response(snap: &Snapshot) -> Response {
    Response::Solution(WireSolution {
        num_colors: snap.num_colors as u32,
        load: snap.load as u32,
        optimal: snap.optimal,
        shard_count: snap.shard_count as u32,
        strategy: snap.strategy.to_string(),
        colors: snap
            .table
            .iter_live()
            .map(|(slot, c)| (slot as u32, c))
            .collect(),
    })
}

/// Shape a workspace delta into the delta-sync wire response.
pub(crate) fn delta_response(d: &SolutionDelta) -> Response {
    Response::Delta(WireDelta {
        epoch: d.epoch.0,
        span: d.span as u32,
        full_resync: d.full_resync,
        changes: d.changes.iter().map(|&(id, c)| (id.0, c)).collect(),
        removed: d.removed.iter().map(|id| id.0).collect(),
    })
}

/// Merge workspace, actor, and reactor-wide transport counters into the
/// stats wire response.
pub(crate) fn stats_response(
    ws: &WorkspaceStats,
    actor: &ActorStats,
    transport: &Transport,
) -> Response {
    Response::Stats(WireStats {
        live_paths: ws.live_paths as u64,
        shard_count: ws.shard_count as u64,
        max_load: ws.max_load as u64,
        recomputes: ws.recomputes as u64,
        shards_reused: ws.shards_reused as u64,
        shards_resolved: ws.shards_resolved as u64,
        batches: actor.batches,
        applies: actor.applies,
        queries: actor.queries,
        interned_arc_lists: ws.interned_arc_lists as u64,
        intern_hits: ws.intern_hits,
        intern_misses: ws.intern_misses,
        epoch: ws.epoch,
        delta_queries: ws.delta_queries,
        delta_resyncs: ws.delta_resyncs,
        bytes_in: transport.bytes_in,
        bytes_out: transport.bytes_out,
        busy_rejections: transport.busy_rejections,
        max_write_queue: transport.max_write_queue,
    })
}

pub(crate) fn to_arc_ids(arcs: Vec<u32>) -> Vec<ArcId> {
    arcs.into_iter().map(ArcId).collect()
}

/// Convert wire batch ops into actor ops.
pub(crate) fn to_actor_ops(ops: Vec<WireOp>) -> Vec<ActorOp> {
    ops.into_iter()
        .map(|op| match op {
            WireOp::Add(arcs) => ActorOp::Add(to_arc_ids(arcs)),
            WireOp::Remove(id) => ActorOp::Remove(PathId(id)),
        })
        .collect()
}

pub(crate) fn wire_error_code(e: &WireError) -> ErrorCode {
    match e {
        WireError::UnknownVersion(_) => ErrorCode::UnknownVersion,
        WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
        WireError::Oversized(_) => ErrorCode::Oversized,
        _ => ErrorCode::Malformed,
    }
}

pub(crate) fn error_response(e: ServeError) -> Response {
    let code = match &e {
        ServeError::SpanBudgetExceeded { .. } => ErrorCode::SpanBudgetExceeded,
        ServeError::Stopped => ErrorCode::ShuttingDown,
        ServeError::Busy => ErrorCode::Busy,
        ServeError::Core(CoreError::UnknownPath(_)) => ErrorCode::UnknownPath,
        ServeError::Core(CoreError::InvalidPath(_)) => ErrorCode::InvalidPath,
        ServeError::Core(_) => ErrorCode::Solver,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}
