//! The single-writer tenant actor: one thread owns one [`Workspace`]
//! behind a **bounded** mpsc command queue.
//!
//! The `Workspace` is single-writer by design (every mutation rewrites
//! shard caches in place), so the service never shares it behind a lock.
//! Instead each tenant gets an **actor**: a dedicated thread that drains a
//! command channel. Every command carries a one-shot reply callback; the
//! server's reactor posts replies back to itself through it, and the
//! cloneable [`TenantHandle`] wraps a per-request channel in it to offer a
//! blocking round trip. Ordering within one connection is the order it
//! sends; across connections, the queue order.
//!
//! # Backpressure
//!
//! The command queue is a `sync_channel` bounded at
//! [`ActorConfig::queue_depth`]. Blocking callers ([`TenantHandle`]
//! methods) simply wait when the actor is behind. The server's reactor
//! instead uses the non-blocking crate-internal send and surfaces a full
//! queue to the client as a typed `Busy` error, so the reactor thread
//! never blocks on a saturated actor.
//!
//! # Coalescing
//!
//! When mutations arrive faster than the workspace re-solves, the actor
//! drains every already-queued mutation batch (up to a configurable cap)
//! and applies them as **one** `Workspace::apply` call. Id assignment is
//! deterministic (smallest free slot, in op order), so a coalesced apply
//! assigns exactly the ids a sequential application would — coalescing is
//! invisible to clients except in the [`ActorStats::applies`] counter
//! staying below [`ActorStats::batches`]. Queries and stats are never
//! reordered past the point they were queued: the drain defers the first
//! non-mutation command and handles it right after the combined apply.
//!
//! # Admission control
//!
//! Each drained batch is first turned into workspace mutations — a bad
//! dipath fails its own batch right there — and then checked by one rule:
//! [`Workspace::projected_load`] over the mutations already admitted in
//! this drain followed by the batch's own. That call runs
//! `Workspace::apply`'s validation, with or without a budget, so a batch a
//! sequential apply would reject fails alone, with that error; validation
//! comes before the budget, so [`CoreError::InvalidPath`] beats
//! [`ServeError::SpanBudgetExceeded`]. The projection is exact: a `Remove`
//! is credited once, for the dipath live at that point in the sequence —
//! one an earlier op of the same batch added included — and a rejected
//! batch contributes nothing. With a span budget configured, a batch whose
//! projected load exceeds it is rejected with
//! [`ServeError::SpanBudgetExceeded`] before anything is applied. The
//! combined apply then has nothing left to reject, so there is no
//! per-batch retry.
//!
//! Under [`AdmissionPolicy::Wait`] an over-budget batch **parks** instead
//! of failing: it waits until retirements free enough capacity, falling
//! back to the same typed rejection when its timeout elapses or the
//! parking queue is full. Batches that fit the budget — retirements in
//! particular — still apply immediately while others are parked:
//! otherwise the capacity a `Remove` would free could never free. Parked
//! batches retry in arrival order after every mutation, and the timeout
//! bounds how long an overtaken batch can wait. Queries are served
//! immediately against the current state either way.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
// lint: allow(no-wallclock): Wait-admission deadlines are client-visible wall time, not solver timing
use std::time::Instant;

use dagwave_core::{
    CoreError, Epoch, Mutation, SolutionDelta, TableSnapshot, Workspace, WorkspaceStats,
};
use dagwave_graph::ArcId;
use dagwave_paths::PathId;

/// One mutation as the service expresses it: arc-id sequences in, stable
/// path ids out. The actor owns the graph, so it (not the connection
/// thread) builds the dipaths, through [`Workspace::dipath`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ActorOp {
    /// Admit the dipath with this arc sequence.
    Add(Vec<ArcId>),
    /// Retire this live stable id.
    Remove(PathId),
}

/// Service-layer failures surfaced to clients.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The solver/workspace rejected the request.
    Core(CoreError),
    /// Admission control rejected a mutation batch: applying it would
    /// raise some arc's load past the configured budget (immediately
    /// under [`AdmissionPolicy::Reject`]; after the wait timeout or on
    /// queue overflow under [`AdmissionPolicy::Wait`]).
    SpanBudgetExceeded {
        /// The configured ceiling.
        budget: usize,
        /// The projected post-batch maximum load.
        projected: usize,
    },
    /// The actor has stopped (server shutting down).
    Stopped,
    /// The actor's bounded command queue is full (server requests only —
    /// blocking handles wait instead). Transient: retry after draining
    /// responses.
    Busy,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::SpanBudgetExceeded { budget, projected } => write!(
                f,
                "admission rejected: projected span {projected} exceeds budget {budget}"
            ),
            ServeError::Stopped => write!(f, "tenant actor has stopped"),
            ServeError::Busy => write!(f, "tenant actor queue is full; retry"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// What admission control does with a batch whose projected load exceeds
/// the span budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject immediately with [`ServeError::SpanBudgetExceeded`].
    Reject,
    /// Park the batch until retirements free capacity, then apply it
    /// (batches that fit the budget still apply immediately meanwhile).
    /// Falls back to the typed rejection when `timeout` elapses or the
    /// parking queue already holds `max_queue` batches.
    Wait {
        /// Most batches the parking queue holds before rejecting
        /// immediately.
        max_queue: usize,
        /// How long one batch may wait before the typed rejection.
        timeout: Duration,
    },
}

/// Per-tenant actor knobs (see [`spawn_tenant`]).
#[derive(Clone, Copy, Debug)]
pub struct ActorConfig {
    /// Admission ceiling on any arc's load (`None` = admit everything).
    pub span_budget: Option<usize>,
    /// Max queued mutation batches one `Workspace::apply` may coalesce.
    pub max_coalesce: usize,
    /// Bound on the actor's command queue; blocking handles beyond it
    /// wait, server requests get [`ServeError::Busy`].
    pub queue_depth: usize,
    /// What to do with over-budget batches.
    pub admission: AdmissionPolicy,
}

impl Default for ActorConfig {
    fn default() -> Self {
        ActorConfig {
            span_budget: None,
            max_coalesce: 64,
            queue_depth: 256,
            admission: AdmissionPolicy::Reject,
        }
    }
}

/// Cumulative service-side counters for one tenant actor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActorStats {
    /// Client mutation batches accepted (admission passed, apply
    /// succeeded).
    pub batches: u64,
    /// `Workspace::apply` calls those batches were coalesced into.
    /// `batches / applies` is the coalescing ratio; above 1 means queued
    /// batches shared recomputations.
    pub applies: u64,
    /// Solution queries served.
    pub queries: u64,
}

/// An immutable, shared view of one solved state: the summary and the
/// color table keyed by stable id, as [`Workspace::table_snapshot`]
/// returns them. Cloning is a refcount bump.
pub type Snapshot = Arc<TableSnapshot>;

/// The actor's answer to one command; the variant mirrors the command
/// kind so non-blocking callers can route completions without a typed
/// channel per request.
pub(crate) enum ActorReply {
    /// Answer to [`Command::Apply`].
    Applied(Result<Vec<PathId>, ServeError>),
    /// Answer to [`Command::Query`].
    Snapshot(Result<Snapshot, ServeError>),
    /// Answer to [`Command::QueryDelta`].
    Delta(Result<SolutionDelta, ServeError>),
    /// Answer to [`Command::Stats`].
    Stats(Box<(WorkspaceStats, ActorStats)>),
}

/// Where one command's reply goes. Decouples the actor from reactor
/// types, and guarantees exactly one reply per command: [`Responder::send`]
/// delivers the actor's answer, and a responder dropped unanswered — its
/// command discarded by an exiting or unwinding actor — delivers
/// `Applied(Err(Stopped))` instead. Both reply routers map a reply of the
/// wrong kind to a typed error, so that fallback fits every command.
pub(crate) struct Responder(Option<Box<dyn FnOnce(ActorReply) + Send>>);

impl Responder {
    pub(crate) fn new(deliver: impl FnOnce(ActorReply) + Send + 'static) -> Self {
        Responder(Some(Box::new(deliver)))
    }

    /// Deliver the reply.
    pub(crate) fn send(mut self, reply: ActorReply) {
        if let Some(deliver) = self.0.take() {
            deliver(reply);
        }
    }

    /// Drop without replying — for a sender whose enqueue failed and who
    /// answers the request itself.
    pub(crate) fn disarm(mut self) {
        self.0 = None;
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(deliver) = self.0.take() {
            deliver(ActorReply::Applied(Err(ServeError::Stopped)));
        }
    }
}

pub(crate) enum Command {
    Apply {
        ops: Vec<ActorOp>,
        respond: Responder,
    },
    Query {
        respond: Responder,
    },
    QueryDelta {
        since: u64,
        respond: Responder,
    },
    Stats {
        respond: Responder,
    },
    Stop,
}

impl Command {
    /// Discard a command that never reached the actor without replying
    /// through its responder.
    pub(crate) fn disarm(self) {
        match self {
            Command::Apply { respond, .. }
            | Command::Query { respond }
            | Command::QueryDelta { respond, .. }
            | Command::Stats { respond } => respond.disarm(),
            Command::Stop => {}
        }
    }
}

/// A cloneable client handle to one tenant actor. Every method enqueues a
/// command and blocks for the reply; [`ServeError::Stopped`] means the
/// actor is gone (shutdown). The queue is bounded, so a handle blocks in
/// `send` when the actor is [`ActorConfig::queue_depth`] commands behind.
#[derive(Clone)]
pub struct TenantHandle {
    tx: SyncSender<Command>,
}

impl TenantHandle {
    fn round_trip(
        &self,
        make: impl FnOnce(Responder) -> Command,
    ) -> Result<ActorReply, ServeError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        // A dropped receiver just means the caller went away.
        let respond = Responder::new(move |reply| drop(reply_tx.send(reply)));
        self.tx
            .send(make(respond))
            .map_err(|_| ServeError::Stopped)?;
        reply_rx.recv().map_err(|_| ServeError::Stopped)
    }

    /// Apply one mutation batch atomically. Returns the stable ids
    /// assigned to the batch's `Add` ops, in op order.
    pub fn apply(&self, ops: Vec<ActorOp>) -> Result<Vec<PathId>, ServeError> {
        match self.round_trip(|respond| Command::Apply { ops, respond })? {
            ActorReply::Applied(r) => r,
            _ => Err(ServeError::Stopped),
        }
    }

    /// Fetch the current solution snapshot: the summary and color table
    /// of [`Workspace::table_snapshot`], with no `Solution` materialized
    /// (cached until the next mutation).
    pub fn query(&self) -> Result<Snapshot, ServeError> {
        match self.round_trip(|respond| Command::Query { respond })? {
            ActorReply::Snapshot(r) => r,
            _ => Err(ServeError::Stopped),
        }
    }

    /// Fetch everything that changed since the client's last synced
    /// epoch — O(changed) on the actor thread, no full solution
    /// materialized. Replaying the deltas in epoch order reconstructs
    /// exactly the color table [`TenantHandle::query`] would report.
    pub fn query_delta(&self, since: u64) -> Result<SolutionDelta, ServeError> {
        match self.round_trip(|respond| Command::QueryDelta { since, respond })? {
            ActorReply::Delta(r) => r,
            _ => Err(ServeError::Stopped),
        }
    }

    /// Fetch the workspace's cumulative counters plus the actor's own.
    pub fn stats(&self) -> Result<(WorkspaceStats, ActorStats), ServeError> {
        match self.round_trip(|respond| Command::Stats { respond })? {
            ActorReply::Stats(pair) => Ok(*pair),
            _ => Err(ServeError::Stopped),
        }
    }

    /// Ask the actor to exit after draining already-queued commands.
    pub fn stop(&self) {
        let _ = self.tx.send(Command::Stop);
    }

    /// Non-blocking enqueue for the server's reactor: a full queue comes
    /// back as `Err` instead of blocking the reactor thread.
    pub(crate) fn try_send(&self, cmd: Command) -> Result<(), TrySendError<Command>> {
        self.tx.try_send(cmd)
    }
}

/// Stack size of every tenant actor thread, matching the rayon shim's
/// 16 MiB workers. A refresh waits on its shard solves, and while it
/// waits the pool's caller-helps loop runs other queued shard jobs on the
/// actor's own stack; those jobs recurse linearly in their shard, so the
/// 2 MiB spawned-thread default overflows on large tenants (a
/// `federated(3584)` first refresh always did), and an overflow aborts
/// the whole process.
const ACTOR_STACK_SIZE: usize = 16 << 20;

/// Spawn the actor thread for one tenant workspace.
pub fn spawn_tenant(
    workspace: Workspace,
    config: ActorConfig,
) -> (TenantHandle, thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::sync_channel(config.queue_depth.max(1));
    // lint: allow(no-raw-sync): the actor thread IS the synchronization design — one owner per workspace, mpsc the only coupling
    let join = thread::Builder::new()
        .name("dagwave-tenant".into())
        .stack_size(ACTOR_STACK_SIZE)
        .spawn(move || run_actor(workspace, rx, config))
        // lint: allow(no-panic): same failure contract as `thread::spawn`, which panics when the OS refuses a thread
        .expect("failed to spawn tenant actor thread");
    (TenantHandle { tx }, join)
}

struct PendingBatch {
    ops: Vec<ActorOp>,
    respond: Responder,
}

/// A batch held back by [`AdmissionPolicy::Wait`].
struct Parked {
    muts: Vec<Mutation>,
    respond: Responder,
    /// When the typed rejection fires.
    // lint: allow(no-wallclock): the Wait deadline is wall time by contract
    deadline: Instant,
    /// The projected load reported if this batch times out.
    projected: usize,
}

enum Wake {
    Cmd(Command),
    /// The head parked batch's deadline passed.
    Tick,
    /// Every handle dropped.
    Closed,
}

fn next_wake(rx: &Receiver<Command>, parked: &VecDeque<Parked>) -> Wake {
    let Some(head) = parked.front() else {
        return match rx.recv() {
            Ok(cmd) => Wake::Cmd(cmd),
            Err(_) => Wake::Closed,
        };
    };
    // lint: allow(no-wallclock): sleeping toward the Wait deadline, not measuring solver time
    let wait = head.deadline.saturating_duration_since(Instant::now());
    match rx.recv_timeout(wait) {
        Ok(cmd) => Wake::Cmd(cmd),
        Err(RecvTimeoutError::Timeout) => Wake::Tick,
        Err(RecvTimeoutError::Disconnected) => Wake::Closed,
    }
}

fn run_actor(mut ws: Workspace, rx: Receiver<Command>, cfg: ActorConfig) {
    let mut stats = ActorStats::default();
    let mut snapshot: Option<Snapshot> = None;
    let mut parked: VecDeque<Parked> = VecDeque::new();
    loop {
        let cmd = match next_wake(&rx, &parked) {
            Wake::Cmd(cmd) => cmd,
            Wake::Tick => {
                expire_overdue(&cfg, &mut parked);
                // The expired head may have been the only thing blocking a
                // smaller parked batch.
                if retry_parked(&mut ws, &cfg, &mut parked, &mut stats) {
                    snapshot = None;
                }
                continue;
            }
            Wake::Closed => {
                fail_parked(&mut parked);
                return;
            }
        };
        match cmd {
            Command::Apply { ops, respond } => {
                // Drain whatever mutation batches are already queued so one
                // recomputation serves them all; defer the first
                // non-mutation command to preserve queue order.
                let mut pending = vec![PendingBatch { ops, respond }];
                let mut deferred = None;
                while pending.len() < cfg.max_coalesce.max(1) {
                    match rx.try_recv() {
                        Ok(Command::Apply { ops, respond }) => {
                            pending.push(PendingBatch { ops, respond })
                        }
                        Ok(other) => {
                            deferred = Some(other);
                            break;
                        }
                        Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                    }
                }
                if handle_mutations(&mut ws, &cfg, pending, &mut parked, &mut stats) {
                    snapshot = None;
                }
                match deferred {
                    Some(Command::Stop) => {
                        fail_parked(&mut parked);
                        return;
                    }
                    Some(cmd) => serve_read(&mut ws, cmd, &mut stats, &mut snapshot),
                    None => {}
                }
            }
            Command::Stop => {
                fail_parked(&mut parked);
                return;
            }
            other => serve_read(&mut ws, other, &mut stats, &mut snapshot),
        }
    }
}

/// Validate each drained batch, admit, park, or reject it per policy,
/// apply the admitted ones in one combined `Workspace::apply`, then retry
/// parked batches if capacity changed. Returns whether the workspace
/// mutated.
fn handle_mutations(
    ws: &mut Workspace,
    cfg: &ActorConfig,
    pending: Vec<PendingBatch>,
    parked: &mut VecDeque<Parked>,
    stats: &mut ActorStats,
) -> bool {
    // The admitted batches' mutations in drain order, and per batch its
    // `Add` count and reply channel.
    let mut combined: Vec<Mutation> = Vec::new();
    let mut admitted: Vec<(usize, Responder)> = Vec::new();
    for batch in pending {
        let muts = match to_mutations(ws, batch.ops) {
            Ok(muts) => muts,
            Err(e) => {
                batch.respond.send(ActorReply::Applied(Err(e)));
                continue;
            }
        };
        let start = combined.len();
        combined.extend(muts);
        // Batches that fit the budget apply immediately even while others
        // are parked — a later `Remove` must be able to overtake a parked
        // over-budget `Add`, or the capacity it would free never frees.
        // Parked batches retry in arrival order once something mutates,
        // and their timeout bounds how long an overtaken batch can wait.
        match admit(ws, cfg, &combined) {
            Ok(()) => admitted.push((count_adds(&combined[start..]), batch.respond)),
            Err(e) => turn_away(cfg, combined.split_off(start), batch.respond, e, parked),
        }
    }
    let mut mutated = apply_admitted(ws, combined, admitted, stats);
    if mutated {
        mutated |= retry_parked(ws, cfg, parked, stats);
    }
    mutated
}

/// Turn one batch's ops into workspace mutations; a bad dipath fails the
/// batch.
fn to_mutations(ws: &Workspace, ops: Vec<ActorOp>) -> Result<Vec<Mutation>, ServeError> {
    ops.into_iter()
        .map(|op| match op {
            ActorOp::Add(arcs) => Ok(Mutation::Add(ws.dipath(&arcs)?)),
            ActorOp::Remove(id) => Ok(Mutation::Remove(id)),
        })
        .collect()
}

fn count_adds(muts: &[Mutation]) -> usize {
    muts.iter()
        .filter(|m| matches!(m, Mutation::Add(_)))
        .count()
}

/// The admission rule: `muts` — the mutations admitted so far in this
/// drain, then the batch under test — must validate, and their projected
/// load must fit the budget. Validation runs with no budget too, so a batch
/// a sequential apply would reject fails alone, with that error.
fn admit(ws: &Workspace, cfg: &ActorConfig, muts: &[Mutation]) -> Result<(), ServeError> {
    let projected = ws.projected_load(muts)?;
    match cfg.span_budget {
        Some(budget) if projected > budget => {
            Err(ServeError::SpanBudgetExceeded { budget, projected })
        }
        _ => Ok(()),
    }
}

/// Answer a batch admission turned away with its error — unless it is
/// over budget under [`AdmissionPolicy::Wait`] and the parking queue has
/// room, in which case it parks.
fn turn_away(
    cfg: &ActorConfig,
    muts: Vec<Mutation>,
    respond: Responder,
    err: ServeError,
    parked: &mut VecDeque<Parked>,
) {
    match (err, cfg.admission) {
        (
            ServeError::SpanBudgetExceeded { projected, .. },
            AdmissionPolicy::Wait { max_queue, timeout },
        ) if parked.len() < max_queue => parked.push_back(Parked {
            muts,
            respond,
            // lint: allow(no-wallclock): stamping the client-visible Wait deadline
            deadline: Instant::now() + timeout,
            projected,
        }),
        (err, _) => respond.send(ActorReply::Applied(Err(err))),
    }
}

/// Reject every parked batch whose deadline has passed. Deadlines are
/// monotone in arrival order (one shared timeout), so checking heads
/// suffices.
fn expire_overdue(cfg: &ActorConfig, parked: &mut VecDeque<Parked>) {
    // Only an over-budget batch parks, so a budget is set.
    let budget = cfg.span_budget.unwrap_or(usize::MAX);
    // lint: allow(no-wallclock): comparing against the client-visible Wait deadline
    let now = Instant::now();
    while parked.front().is_some_and(|p| p.deadline <= now) {
        if let Some(p) = parked.pop_front() {
            p.respond
                .send(ActorReply::Applied(Err(ServeError::SpanBudgetExceeded {
                    budget,
                    projected: p.projected,
                })));
        }
    }
}

/// Apply parked batches from the head while they fit the freed capacity
/// (strict FIFO — stop at the first that still does not); a head that no
/// longer validates fails. Returns whether anything mutated.
fn retry_parked(
    ws: &mut Workspace,
    cfg: &ActorConfig,
    parked: &mut VecDeque<Parked>,
    stats: &mut ActorStats,
) -> bool {
    let mut mutated = false;
    while let Some(head) = parked.front() {
        let verdict = admit(ws, cfg, &head.muts);
        if matches!(verdict, Err(ServeError::SpanBudgetExceeded { .. })) {
            break;
        }
        let Some(p) = parked.pop_front() else { break };
        match verdict {
            Ok(()) => {
                let adds = count_adds(&p.muts);
                mutated |= apply_admitted(ws, p.muts, vec![(adds, p.respond)], stats);
            }
            Err(e) => p.respond.send(ActorReply::Applied(Err(e))),
        }
    }
    mutated
}

/// Answer every parked batch with `Stopped` (actor shutting down).
fn fail_parked(parked: &mut VecDeque<Parked>) {
    for p in parked.drain(..) {
        p.respond
            .send(ActorReply::Applied(Err(ServeError::Stopped)));
    }
}

/// Handle a Query/Stats command (never Apply/Stop).
fn serve_read(
    ws: &mut Workspace,
    cmd: Command,
    stats: &mut ActorStats,
    snapshot: &mut Option<Snapshot>,
) {
    match cmd {
        Command::Query { respond } => {
            stats.queries += 1;
            let snap = match snapshot {
                Some(snap) => Ok(snap.clone()),
                // Served from the persistent table: no `Solution` is
                // materialized, and a repeat query bumps a refcount.
                None => ws
                    .table_snapshot()
                    .map(|snap| Arc::clone(snapshot.insert(Arc::new(snap))))
                    .map_err(ServeError::Core),
            };
            respond.send(ActorReply::Snapshot(snap));
        }
        Command::QueryDelta { since, respond } => {
            let delta = ws.delta_since(Epoch(since)).map_err(ServeError::Core);
            respond.send(ActorReply::Delta(delta));
        }
        Command::Stats { respond } => {
            respond.send(ActorReply::Stats(Box::new((ws.stats(), *stats))));
        }
        // Unreachable by construction; a dropped Apply answers `Stopped`.
        Command::Apply { .. } | Command::Stop => {}
    }
}

/// Apply the admitted batches' mutations in a single `Workspace::apply`
/// and answer every reply channel, splitting the returned ids by each
/// batch's `Add` count. Smallest-free-slot id assignment makes the
/// combined ids identical to what sequential per-batch applies would
/// assign. Returns whether the workspace mutated.
fn apply_admitted(
    ws: &mut Workspace,
    combined: Vec<Mutation>,
    admitted: Vec<(usize, Responder)>,
    stats: &mut ActorStats,
) -> bool {
    if admitted.is_empty() {
        return false;
    }
    match ws.apply(combined) {
        Ok(ids) => {
            stats.applies += 1;
            let mut ids = ids.into_iter();
            for (adds, respond) in admitted {
                stats.batches += 1;
                respond.send(ActorReply::Applied(Ok(ids.by_ref().take(adds).collect())));
            }
            true
        }
        // Admission validated exactly this sequence, so this does not
        // happen; the apply is atomic, so the workspace is untouched.
        Err(e) => {
            for (_, respond) in admitted {
                respond.send(ActorReply::Applied(Err(ServeError::Core(e.clone()))));
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_core::SolveSession;
    use dagwave_graph::builder::from_edges;
    use dagwave_paths::DipathFamily;

    fn line_workspace(n: usize) -> Workspace {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = from_edges(n, &edges);
        Workspace::new(SolveSession::auto(), g, DipathFamily::new()).expect("line DAG is valid")
    }

    fn arc_ids(ids: &[u32]) -> Vec<ArcId> {
        ids.iter().map(|&i| ArcId(i)).collect()
    }

    fn config(span_budget: Option<usize>) -> ActorConfig {
        ActorConfig {
            span_budget,
            ..ActorConfig::default()
        }
    }

    #[test]
    fn dropped_responder_answers_stopped_exactly_once() {
        let (tx, rx) = mpsc::channel();
        let respond = Responder::new(move |reply| drop(tx.send(reply)));
        drop(respond);
        assert!(
            matches!(
                rx.try_recv(),
                Ok(ActorReply::Applied(Err(ServeError::Stopped)))
            ),
            "an uncalled responder answers when dropped"
        );
        assert!(rx.try_recv().is_err(), "and answers only once");

        // An answered responder does not answer again; a disarmed one
        // never answers.
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        Responder::new(move |reply| drop(tx.send(reply)))
            .send(ActorReply::Delta(Err(ServeError::Busy)));
        Responder::new(move |reply| drop(tx2.send(reply))).disarm();
        assert!(matches!(
            rx.try_recv(),
            Ok(ActorReply::Delta(Err(ServeError::Busy)))
        ));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn actor_round_trip_apply_query_stats_stop() {
        let (h, join) = spawn_tenant(line_workspace(5), config(None));
        let ids = h
            .apply(vec![
                ActorOp::Add(arc_ids(&[0, 1])),
                ActorOp::Add(arc_ids(&[1, 2])),
            ])
            .expect("two adds");
        assert_eq!(ids, vec![PathId(0), PathId(1)]);
        let snap = h.query().expect("solution");
        assert_eq!(snap.num_colors, 2);
        let live: Vec<usize> = snap.table.iter_live().map(|(slot, _)| slot).collect();
        assert_eq!(live, [0, 1]);
        h.apply(vec![ActorOp::Remove(PathId(0))]).expect("remove");
        let snap = h.query().expect("solution after remove");
        assert_eq!(snap.num_colors, 1);
        assert_eq!(snap.table.iter_live().collect::<Vec<_>>(), [(1, 0)]);
        let (ws_stats, actor_stats) = h.stats().expect("stats");
        assert_eq!(ws_stats.live_paths, 1);
        assert_eq!(actor_stats.batches, 2);
        assert_eq!(actor_stats.queries, 2);
        h.stop();
        join.join().expect("actor exits cleanly");
        assert!(matches!(h.query(), Err(ServeError::Stopped)));
    }

    #[test]
    fn delta_queries_flow_through_the_actor() {
        let (h, join) = spawn_tenant(line_workspace(5), config(None));
        h.apply(vec![ActorOp::Add(arc_ids(&[0, 1]))]).expect("add");
        let d0 = h.query_delta(0).expect("initial delta");
        assert!(!d0.full_resync);
        assert_eq!(d0.changes.len(), 1, "one live member, one change");
        h.apply(vec![ActorOp::Remove(PathId(0))]).expect("remove");
        let d1 = h.query_delta(d0.epoch.0).expect("second delta");
        assert_eq!(d1.removed, vec![PathId(0)]);
        assert!(d1.changes.is_empty());
        let (ws_stats, _) = h.stats().expect("stats");
        assert_eq!(ws_stats.delta_queries, 2);
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn budget_rejects_without_mutating() {
        let (h, join) = spawn_tenant(line_workspace(3), config(Some(2)));
        h.apply(vec![
            ActorOp::Add(arc_ids(&[0])),
            ActorOp::Add(arc_ids(&[0])),
        ])
        .expect("fills the budget");
        let err = h
            .apply(vec![ActorOp::Add(arc_ids(&[0, 1]))])
            .expect_err("third path through arc 0 exceeds budget 2");
        assert!(matches!(
            err,
            ServeError::SpanBudgetExceeded {
                budget: 2,
                projected: 3
            }
        ));
        // Retiring frees headroom: the credit is visible to admission.
        h.apply(vec![
            ActorOp::Remove(PathId(0)),
            ActorOp::Add(arc_ids(&[0, 1])),
        ])
        .expect("retire then admit inside one batch stays at load 2");
        let (ws_stats, _) = h.stats().expect("stats");
        assert_eq!(ws_stats.live_paths, 2);
        assert_eq!(ws_stats.max_load, 2);
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn stale_remove_fails_only_its_own_batch() {
        let (h, join) = spawn_tenant(line_workspace(4), config(None));
        let err = h
            .apply(vec![ActorOp::Remove(PathId(7))])
            .expect_err("id 7 was never allocated");
        assert!(matches!(
            err,
            ServeError::Core(CoreError::UnknownPath(PathId(7)))
        ));
        let ids = h
            .apply(vec![ActorOp::Add(arc_ids(&[2]))])
            .expect("workspace still healthy");
        assert_eq!(ids, vec![PathId(0)]);
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn invalid_arcs_yield_typed_invalid_path() {
        let (h, join) = spawn_tenant(line_workspace(3), config(None));
        let err = h
            .apply(vec![ActorOp::Add(arc_ids(&[99]))])
            .expect_err("arc 99 is out of range");
        assert!(matches!(err, ServeError::Core(CoreError::InvalidPath(_))));
        let err = h
            .apply(vec![ActorOp::Add(vec![ArcId(1), ArcId(0)])])
            .expect_err("non-contiguous arc order");
        assert!(matches!(err, ServeError::Core(CoreError::InvalidPath(_))));
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn wait_policy_parks_until_capacity_frees() {
        let cfg = ActorConfig {
            span_budget: Some(2),
            admission: AdmissionPolicy::Wait {
                max_queue: 4,
                timeout: Duration::from_secs(10),
            },
            ..ActorConfig::default()
        };
        let (h, join) = spawn_tenant(line_workspace(3), cfg);
        h.apply(vec![
            ActorOp::Add(arc_ids(&[0])),
            ActorOp::Add(arc_ids(&[0])),
        ])
        .expect("fills the budget");
        // The over-budget batch parks, so the blocking apply waits on a
        // helper thread while the main thread frees capacity.
        let h2 = h.clone();
        let waiter = thread::spawn(move || h2.apply(vec![ActorOp::Add(arc_ids(&[0, 1]))]));
        thread::sleep(Duration::from_millis(50));
        h.apply(vec![ActorOp::Remove(PathId(0))])
            .expect("retire frees a slot");
        let ids = waiter
            .join()
            .expect("waiter thread")
            .expect("parked batch applies once capacity frees");
        assert_eq!(ids.len(), 1);
        let (ws_stats, _) = h.stats().expect("stats");
        assert_eq!(ws_stats.live_paths, 2);
        assert_eq!(ws_stats.max_load, 2);
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn wait_policy_times_out_with_typed_error() {
        let cfg = ActorConfig {
            span_budget: Some(1),
            admission: AdmissionPolicy::Wait {
                max_queue: 4,
                timeout: Duration::from_millis(50),
            },
            ..ActorConfig::default()
        };
        let (h, join) = spawn_tenant(line_workspace(3), cfg);
        h.apply(vec![ActorOp::Add(arc_ids(&[0]))])
            .expect("fills the budget");
        let err = h
            .apply(vec![ActorOp::Add(arc_ids(&[0]))])
            .expect_err("no capacity ever frees, so the wait times out");
        assert!(matches!(
            err,
            ServeError::SpanBudgetExceeded {
                budget: 1,
                projected: 2
            }
        ));
        let (ws_stats, _) = h.stats().expect("stats");
        assert_eq!(ws_stats.live_paths, 1, "timed-out batch applied nothing");
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn wait_policy_overflow_rejects_immediately() {
        let cfg = ActorConfig {
            span_budget: Some(1),
            admission: AdmissionPolicy::Wait {
                max_queue: 1,
                timeout: Duration::from_secs(10),
            },
            ..ActorConfig::default()
        };
        let (h, join) = spawn_tenant(line_workspace(3), cfg);
        h.apply(vec![ActorOp::Add(arc_ids(&[0]))])
            .expect("fills the budget");
        // First over-budget batch parks (helper thread blocks on it).
        let h2 = h.clone();
        let waiter = thread::spawn(move || h2.apply(vec![ActorOp::Add(arc_ids(&[0]))]));
        thread::sleep(Duration::from_millis(50));
        // Second over-budget batch finds the queue full: typed rejection
        // without waiting out the 10s timeout.
        let err = h
            .apply(vec![ActorOp::Add(arc_ids(&[0]))])
            .expect_err("parking queue is full");
        assert!(matches!(err, ServeError::SpanBudgetExceeded { .. }));
        // Free capacity so the parked batch (still FIFO head) applies.
        h.apply(vec![ActorOp::Remove(PathId(0))])
            .expect("retire frees a slot");
        waiter
            .join()
            .expect("waiter thread")
            .expect("parked batch applies after the retire");
        h.stop();
        join.join().expect("clean exit");
    }

    /// One batch's answer; `None` while it is parked.
    type Answer = Option<Result<Vec<PathId>, ServeError>>;

    /// Run one coalesced drain through `handle_mutations` and return each
    /// batch's answer, in drain order, plus the number of batches parked.
    fn drain(
        ws: &mut Workspace,
        cfg: &ActorConfig,
        batches: Vec<Vec<ActorOp>>,
    ) -> (Vec<Answer>, usize) {
        let (tx, rx) = mpsc::channel();
        let count = batches.len();
        let pending = batches
            .into_iter()
            .enumerate()
            .map(|(i, ops)| {
                let tx = tx.clone();
                PendingBatch {
                    ops,
                    respond: Responder::new(move |reply| drop(tx.send((i, reply)))),
                }
            })
            .collect();
        let mut parked = VecDeque::new();
        handle_mutations(ws, cfg, pending, &mut parked, &mut ActorStats::default());
        let mut answers: Vec<Answer> = (0..count).map(|_| None).collect();
        while let Ok((i, reply)) = rx.try_recv() {
            if let ActorReply::Applied(r) = reply {
                answers[i] = Some(r);
            }
        }
        (answers, parked.len())
    }

    /// A budget-1 line whose only live dipath `X = PathId(0)` fills both
    /// arcs to the budget.
    fn full_line() -> Workspace {
        let mut ws = line_workspace(3);
        let x = ws.dipath(&arc_ids(&[0, 1])).expect("line dipath");
        ws.apply([Mutation::Add(x)]).expect("X admitted");
        assert_eq!(ws.max_load(), 1);
        ws
    }

    fn assert_b_rejected_at_budget(answers: &[Answer]) {
        assert!(
            matches!(
                answers[1],
                Some(Err(ServeError::SpanBudgetExceeded {
                    budget: 1,
                    projected: 2
                }))
            ),
            "B must not borrow A's credit: {:?}",
            answers[1]
        );
    }

    #[test]
    fn invalid_batch_lends_no_remove_credit() {
        let mut ws = full_line();
        let (answers, parked) = drain(
            &mut ws,
            &config(Some(1)),
            vec![
                vec![ActorOp::Remove(PathId(0)), ActorOp::Add(arc_ids(&[99]))],
                vec![ActorOp::Add(arc_ids(&[0, 1]))],
            ],
        );
        assert!(matches!(
            answers[0],
            Some(Err(ServeError::Core(CoreError::InvalidPath(_))))
        ));
        assert_b_rejected_at_budget(&answers);
        assert_eq!(parked, 0);
        assert_eq!(ws.max_load(), 1, "the budget held");
    }

    #[test]
    fn double_remove_lends_no_remove_credit() {
        let mut ws = full_line();
        let (answers, parked) = drain(
            &mut ws,
            &config(Some(1)),
            vec![
                vec![ActorOp::Remove(PathId(0)), ActorOp::Remove(PathId(0))],
                vec![ActorOp::Add(arc_ids(&[0, 1]))],
            ],
        );
        assert!(matches!(
            answers[0],
            Some(Err(ServeError::Core(CoreError::UnknownPath(PathId(0)))))
        ));
        assert_b_rejected_at_budget(&answers);
        assert_eq!(parked, 0);
        assert_eq!(ws.max_load(), 1, "the budget held");
    }

    #[test]
    fn wait_policy_fails_invalid_over_budget_batch_at_once() {
        let mut ws = full_line();
        let cfg = ActorConfig {
            span_budget: Some(1),
            admission: AdmissionPolicy::Wait {
                max_queue: 4,
                timeout: Duration::from_secs(10),
            },
            ..ActorConfig::default()
        };
        let (answers, parked) = drain(
            &mut ws,
            &cfg,
            vec![vec![
                ActorOp::Add(arc_ids(&[0, 1])),
                ActorOp::Add(arc_ids(&[99])),
            ]],
        );
        assert_eq!(parked, 0, "an invalid batch never parks");
        assert!(matches!(
            answers[0],
            Some(Err(ServeError::Core(CoreError::InvalidPath(_))))
        ));
        assert_eq!(ws.max_load(), 1);
    }

    #[test]
    fn stop_fails_parked_batches_with_stopped() {
        let cfg = ActorConfig {
            span_budget: Some(1),
            admission: AdmissionPolicy::Wait {
                max_queue: 4,
                timeout: Duration::from_secs(10),
            },
            ..ActorConfig::default()
        };
        let (h, join) = spawn_tenant(line_workspace(3), cfg);
        h.apply(vec![ActorOp::Add(arc_ids(&[0]))])
            .expect("fills the budget");
        let h2 = h.clone();
        let waiter = thread::spawn(move || h2.apply(vec![ActorOp::Add(arc_ids(&[0]))]));
        thread::sleep(Duration::from_millis(50));
        h.stop();
        let err = waiter
            .join()
            .expect("waiter thread")
            .expect_err("shutdown fails the parked batch");
        assert!(matches!(err, ServeError::Stopped));
        join.join().expect("clean exit");
    }
}
