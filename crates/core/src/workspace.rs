//! Incremental re-solve: a persistent [`Workspace`] with shard-level
//! caching and a mutation API.
//!
//! The one-shot entry points rebuild everything per call, but a production
//! RWA service sees *churn*: lightpaths arrive and depart while most of
//! the instance is unchanged. Because wavelength assignment decomposes
//! exactly over conflict-graph components (the decompose-solve-merge
//! invariant), a mutation can only affect the components it touches — a
//! removed dipath dirties its own component (which may split), an added
//! dipath dirties every component it shares an arc with (which it may
//! bridge) — and every other shard's cached coloring stays valid verbatim.
//!
//! A [`Workspace`] owns the instance (graph + an editable
//! [`PathFamily`] with stable ids), tracks the component partition
//! incrementally, and caches one solved [`Solution`] per shard. The
//! mutation API ([`Workspace::add_path`], [`Workspace::remove_path`],
//! [`Workspace::apply`] with [`Mutation`] batches) re-derives components
//! only over the dirty member pool
//! ([`dagwave_paths::conflict_components_among`], scoped to the dirty arc
//! buckets); [`Workspace::solution`] then re-solves only the unsolved
//! shards and re-merges with the shared normalized palette.
//!
//! Everything heavyweight is O(dirty), not O(instance): the family keeps an
//! incrementally-patched dense view ([`PathFamily::dense_view`]) so the
//! query path never deep-clones, the instance class is computed once (the
//! graph is immutable) and `π(G, P)` is maintained through a per-load
//! histogram patched at each arc-user edit, and each shard carries a
//! content fingerprint so a shard dropped and reconstituted with identical
//! dipaths (e.g. remove + re-add) adopts its old solve from a reuse pool
//! instead of recomputing — [`Resolve::shards_reused`] counts adoptions.
//!
//! Bookkeeping is O(dirty) as well: nothing in a mutation or a refresh
//! walks every shard or every live dipath. The shards sit in a map keyed
//! by each shard's smallest stable member, so iterating it yields the
//! canonical shard order without sorting, and a slot table maps every
//! live stable id to its shard's key — rewritten only for the members of
//! the shards a batch drops and re-derives, so finding the shards a
//! mutation dirties is a table read. A refresh solves and patches only the
//! shards derived since the last one (the *fresh* set), feeds the decompose
//! gate the shard count instead of the dense component lists, translates
//! only the fresh shards' members to dense ranks, extracts them through
//! one long-lived `ExtractScratch`, and reads the first failing shard and
//! the merged span from a set of failed keys and a per-span shard count.
//! What is still O(live): [`Workspace::solution`]'s materialization (the
//! oracle's snapshot is instance-sized), [`Workspace::components`], a full resync
//! from [`Workspace::delta_since`], the monolithic path when the gate
//! declines to shard, and the first sharded refresh after a monolithic one
//! (it re-patches every shard) — plus, per mutation, the dense view's
//! pointer-sized memmove inside [`PathFamily`].
//!
//! The *query* side is O(dirty) too. Every refresh patches a persistent
//! [`ColorTable`] (structurally-shared `Arc` pages keyed by stable id)
//! with only the re-solved shards' colors, so [`Workspace::span`],
//! [`Workspace::color_of`], and [`Workspace::delta_since`] answer without
//! merging — the last returns exactly the `(PathId, color)` pairs that
//! changed since a client's [`Epoch`], the surface `dagwave-serve`'s
//! `QueryDelta` frames ride on. A full snapshot is served the same way:
//! [`Workspace::table_snapshot`] returns the summary (read off the cached
//! monolithic solve, or folded over the shard caches) plus a page-sharing
//! clone of the table, and `dagwave-serve` answers `Query` from it — no
//! read materializes a [`Solution`]. [`Workspace::solution`] is the
//! bit-identity oracle only: it merges every shard into an instance-sized
//! `Arc<Solution>` (a cache hit is a refcount bump), and the tests and
//! report rows check the table snapshot and the deltas against it.
//!
//! **Invariant:** after any mutation sequence, [`Workspace::solution`] is
//! bit-identical to a from-scratch [`SolveSession::solve`] on the mutated
//! instance (the live members in ascending stable-id order), at every
//! thread budget. This holds by construction, not by luck: the workspace
//! runs the *same* decompose gate ([`SolveSession`]'s plan), the same
//! per-shard solver, and the same merge as the one-shot path — only the
//! component scan and the already-solved shards are served from cache. The
//! [`Resolve`] record on the returned solution says how much was reused.
//!
//! ```
//! use dagwave_core::{DecomposePolicy, Mutation, SolverBuilder, Workspace};
//! use dagwave_graph::builder::from_edges;
//! use dagwave_graph::VertexId;
//! use dagwave_paths::{Dipath, DipathFamily};
//!
//! // Two arc-disjoint chains — two conflict components.
//! let g = from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
//! let v = |i| VertexId::from_index(i);
//! let p = |route: &[usize]| {
//!     let r: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
//!     Dipath::from_vertices(&g, &r).unwrap()
//! };
//! let family = DipathFamily::from_paths(vec![
//!     p(&[0, 1, 2]),
//!     p(&[1, 2]),
//!     p(&[3, 4, 5]),
//!     p(&[4, 5]),
//! ]);
//! let session = SolverBuilder::new()
//!     .decompose(DecomposePolicy::Always)
//!     .build();
//! let mut ws = Workspace::new(session, g.clone(), family.clone()).unwrap();
//! let first = ws.solution().unwrap();
//! assert_eq!(first.num_colors, 2);
//!
//! // Admit one more dipath on the second chain: only that shard recolors.
//! ws.apply([Mutation::Add(p(&[3, 4, 5]))]).unwrap();
//! let second = ws.solution().unwrap();
//! let resolve = second.resolve.unwrap();
//! assert_eq!(resolve.shards_reused, 1);
//! assert_eq!(resolve.shards_resolved, 1);
//! assert_eq!(second.num_colors, 3, "arc 4→5 now carries load 3");
//! ```

use crate::backend::InstanceContext;
use crate::colortable::ColorTable;
use crate::error::CoreError;
use crate::internal::DagClass;
use crate::solver::{fold_shards, merge_shards, Solution, SolveSession, Strategy};
use dagwave_graph::{ArcId, Digraph};
use dagwave_paths::{
    conflict_components_among, Dipath, DipathFamily, ExtractScratch, PathFamily, PathId,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Refresh generations retained for [`Workspace::delta_since`]: a client
/// further behind than this gets a full resync instead of a delta. Bounds
/// the delta log at ~64 × O(dirty) entries regardless of uptime.
const DELTA_RETAIN: usize = 64;

/// `Workspace::shard_of` entry of a slot no shard holds (tombstoned, or
/// added by a batch still in flight).
const NO_SHARD: PathId = PathId(u32::MAX);

/// One instance mutation: admit or retire a dipath.
///
/// Batched through [`Workspace::apply`]; a batch is invalidation-minimal —
/// components are re-derived once for the whole batch, not per op.
#[derive(Clone, Debug)]
pub enum Mutation {
    /// Add this dipath to the family (it gets the smallest free stable id;
    /// see [`PathFamily::insert`]).
    Add(Dipath),
    /// Remove the live dipath with this stable id.
    Remove(PathId),
}

/// How an incremental re-solve was obtained: shards served from cache vs.
/// actually recomputed. Attached to [`Solution::resolve`] by
/// [`Workspace::solution`] (monolithic re-solves count as one shard).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Resolve {
    /// Shards whose cached coloring was reused verbatim: the clean shards
    /// the refresh left untouched (plus pool adoptions), *counted* — a
    /// refresh never visits them.
    pub shards_reused: usize,
    /// Shards (or the single monolithic solve) recomputed this call.
    pub shards_resolved: usize,
}

/// A refresh generation of a [`Workspace`]: advances by one every time the
/// workspace folds pending mutations into its persistent color table.
/// Clients remember the epoch of their last sync and pass it to
/// [`Workspace::delta_since`] to receive only what changed since.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

/// The answer to a [`Workspace::delta_since`] query: the current epoch and
/// span, plus the changed colors since the client's epoch — O(changed),
/// never O(instance), unless a resync is needed.
///
/// When `full_resync` is true the client's epoch was unknown or too far
/// behind the retained delta log: `changes` then lists **every** live
/// `(id, color)` pair, `removed` is empty, and the client must drop any
/// state not re-listed. Replaying deltas in order reconstructs exactly the
/// color table of [`Workspace::solution`] — the bit-identity oracle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolutionDelta {
    /// The workspace epoch this delta brings the client up to.
    pub epoch: Epoch,
    /// The merged span (number of wavelengths) at that epoch.
    pub span: usize,
    /// `true` when `changes` is a complete snapshot, not a delta.
    pub full_resync: bool,
    /// Members whose color changed (or appeared) since the client's epoch,
    /// with their new colors; ascending stable id.
    pub changes: Vec<(PathId, u32)>,
    /// Members removed since the client's epoch; ascending stable id.
    pub removed: Vec<PathId>,
}

/// A full snapshot of the solved state, served from what the workspace
/// maintains anyway: the persistent [`ColorTable`] plus the summary a
/// [`Workspace::solution`] would report. Returned by
/// [`Workspace::table_snapshot`]; every field equals the oracle's, and
/// [`ColorTable::iter_live`] over `table` lists exactly the oracle's
/// `(stable id, color)` pairs in ascending id order.
#[derive(Clone, Debug)]
pub struct TableSnapshot {
    /// Number of wavelengths used ([`Solution::num_colors`]).
    pub num_colors: usize,
    /// `π(G, P)` ([`Solution::load`]).
    pub load: usize,
    /// `true` when `num_colors` is provably minimum ([`Solution::optimal`]).
    pub optimal: bool,
    /// Conflict components the solve was split into; 1 for a monolithic
    /// solve (the shard count of [`Solution::decomposition`], else 1).
    pub shard_count: usize,
    /// The backend that determined the span ([`Solution::strategy`]).
    pub strategy: Strategy,
    /// The merged colors keyed by stable id — a page-sharing clone of the
    /// workspace's table.
    pub table: ColorTable,
}

/// One retained refresh generation: what the refresh changed, for
/// [`Workspace::delta_since`] to replay.
#[derive(Clone, Debug)]
struct DeltaRecord {
    epoch: u64,
    changes: Vec<(PathId, u32)>,
    removed: Vec<PathId>,
}

/// Cumulative workspace counters since [`Workspace::new`], exposed by
/// [`Workspace::stats`] — the aggregate twin of the per-solve
/// [`Resolve`] record, so a service `Stats` endpoint (or a report row)
/// reads the totals directly instead of re-deriving them by summing
/// every [`Solution::resolve`] it ever saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Live dipaths in the current family.
    pub live_paths: usize,
    /// Conflict components tracked in the current state.
    pub shard_count: usize,
    /// `π(G, P)` of the current family (maintained per mutation, O(1)).
    pub max_load: usize,
    /// [`Workspace::solution`] cache misses — full recomputations run.
    pub recomputes: usize,
    /// Shards served from cache, summed over every recomputation
    /// (fingerprint-pool adoptions count here, exactly as they do in
    /// [`Resolve::shards_reused`]). Counts untouched clean shards, not
    /// shards visited: a refresh reads this off the shard count.
    pub shards_reused: usize,
    /// Shards (or monolithic solves) actually recomputed, summed over
    /// every recomputation.
    pub shards_resolved: usize,
    /// Distinct arc sequences held by the family's append-only interner
    /// (the arena never shrinks; see [`dagwave_paths::ArcListArena`]).
    pub interned_arc_lists: usize,
    /// Interner lookups answered by an existing allocation.
    pub intern_hits: u64,
    /// Interner lookups that stored a new allocation.
    pub intern_misses: u64,
    /// Current refresh generation ([`Workspace::epoch`]).
    pub epoch: u64,
    /// [`Workspace::delta_since`] queries served.
    pub delta_queries: u64,
    /// Delta queries that fell back to a full resync (client epoch unknown
    /// or older than the retained log).
    pub delta_resyncs: u64,
}

/// One tracked component: its live members (stable ids, ascending), the
/// shared handles of their dipaths, a content fingerprint, and, once
/// solved, the cached shard-local solution. Stored under its smallest
/// member (`Workspace::shards`).
#[derive(Clone, Debug)]
struct CachedShard {
    /// Stable member ids, ascending.
    members: Vec<PathId>,
    /// The members' dipaths (shared handles, parallel to `members`) — kept
    /// so a dropped shard's content outlives the family mutation that
    /// dropped it, which is what lets the fingerprint reuse pool verify an
    /// exact content match instead of trusting a 64-bit hash.
    paths: Vec<Arc<Dipath>>,
    /// Hash of the member dipaths' arc sequences in canonical (ascending
    /// member id) order. Deliberately content-only — ids are excluded — so
    /// a shard whose membership came back under different stable ids but
    /// identical dipaths still matches: the shard-local solve depends only
    /// on content and order, never on the ids themselves.
    fingerprint: u64,
    /// The shard-local solve result; `None` while dirty. Colors are indexed
    /// by the member's *rank* within the shard, which removals elsewhere in
    /// the family never change — that is what makes the cache survive id
    /// compaction in the dense view.
    solved: Option<Result<Solution, CoreError>>,
}

/// A solved shard banked when a mutation dropped it: if a freshly derived
/// component has the same fingerprint *and* identical dipath contents, the
/// solve is adopted instead of redone (e.g. remove + re-add of the same
/// dipath reconstitutes its old shard verbatim).
#[derive(Clone, Debug)]
struct ReuseEntry {
    fingerprint: u64,
    paths: Vec<Arc<Dipath>>,
    solved: Result<Solution, CoreError>,
}

/// Hash of a shard's member dipath contents in canonical order — see
/// [`CachedShard::fingerprint`]. `DefaultHasher` with default keys is
/// deterministic, which keeps workspaces reproducible across runs.
fn shard_fingerprint(paths: &[Arc<Dipath>]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    paths.len().hash(&mut h);
    for p in paths {
        // Every dipath caches its own content fingerprint (computed once at
        // interning), so a shard fingerprint is O(members), not O(content).
        p.fingerprint().hash(&mut h);
    }
    h.finish()
}

/// Exact content equality between two shards' dipath lists. Pointer
/// equality short-circuits the shared-handle case, and because the family
/// interns every arc list through one arena, a remove + re-add
/// reconstitution hits the `ArcList` pointer check — O(members), no
/// content walk. The exact comparison underneath is what makes fingerprint
/// adoption safe against hash collisions.
fn same_paths(a: &[Arc<Dipath>], b: &[Arc<Dipath>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| Arc::ptr_eq(x, y) || x.same_arcs(y))
}

/// A persistent solving surface over one mutable instance.
///
/// See the [module docs](self) for the caching model and the bit-identity
/// invariant. The workspace is deliberately *not* `Sync`-shared — it is the
/// single writer a service front-end funnels admissions/retirements
/// through; concurrency lives inside each re-solve (dirty shards still fan
/// out onto the rayon pool).
#[derive(Clone, Debug)]
pub struct Workspace {
    session: SolveSession,
    graph: Digraph,
    family: PathFamily,
    /// arc index → live stable path ids using that arc, ascending — the
    /// mutable arc→paths index (the editable twin of
    /// [`dagwave_paths::ArcIndex`]); `arc_users[a].len()` is arc `a`'s
    /// load, which is what lets the load be patched per mutation below.
    arc_users: Vec<Vec<u32>>,
    /// The component partition, keyed by each shard's smallest member —
    /// iteration order is the canonical shard order for free, and a
    /// dropped shard leaves in O(log S), not a `Vec` shift.
    shards: BTreeMap<PathId, CachedShard>,
    /// Stable slot → key of the shard holding that member (`NO_SHARD`
    /// for tombstoned slots). Rewritten only for the members of dropped
    /// and freshly derived shards, so a mutation finds the shards it
    /// dirties without scanning any.
    shard_of: Vec<PathId>,
    /// Keys of the shards derived since the last sharded refresh. Only
    /// these can be unsolved or missing from the color table, so a refresh
    /// solves and patches exactly this set.
    fresh: BTreeSet<PathId>,
    /// `true` while the table holds a monolithic coloring, which a
    /// per-shard normalization may disagree with: the next sharded refresh
    /// re-patches every shard, not just the fresh ones.
    repatch_all: bool,
    /// Keys of the shards whose cached solve is an error; the first one is
    /// the error a refresh surfaces (canonical order, like the merge).
    errored: BTreeSet<PathId>,
    /// `span_hist[c]` = shards solved with span `c`, trailing zeros
    /// trimmed — the merged span is its top index, maintained per solve
    /// and per dropped shard instead of rescanned.
    span_hist: Vec<u32>,
    /// Extraction tables reused by every refresh's dirty shards, instead
    /// of host-sized tables allocated and zero-filled per refresh.
    scratch: ExtractScratch,
    /// Cached merged snapshot of the current state (dropped on any
    /// mutation). Queries hand out clones of the `Arc` — a cache hit is a
    /// refcount bump, never an instance-sized copy.
    merged: Option<Arc<Solution>>,
    /// The [`Resolve`] of the last refresh; stamped onto the snapshot when
    /// it is materialized.
    last_resolve: Resolve,
    /// The persistent merged color table, keyed by stable id and patched
    /// per refresh — the O(dirty) query substrate behind
    /// [`Workspace::span`] / [`Workspace::color_of`] /
    /// [`Workspace::delta_since`].
    table: ColorTable,
    /// The merged span at the current epoch (the top of `span_hist` on
    /// the sharded path, the full solve's span on the monolithic one).
    current_span: usize,
    /// Refresh generation: bumped once per refresh that folded mutations
    /// into the table.
    epoch: u64,
    /// The last [`DELTA_RETAIN`] refresh generations, oldest first.
    deltas: VecDeque<DeltaRecord>,
    /// Stable ids removed since the last refresh and not re-occupied by a
    /// later addition — the next refresh clears their table slots.
    pending_removed: BTreeSet<PathId>,
    /// `true` once the table/span/epoch reflect every mutation applied so
    /// far (cleared by [`Workspace::apply`], set by the refresh).
    refreshed: bool,
    /// The error the last refresh surfaced, if any — replayed to every
    /// query until a mutation invalidates it, exactly as the merged cache
    /// used to replay cached errors.
    refresh_error: Option<CoreError>,
    /// The instance class, computed once at open: mutations never touch the
    /// graph, and the class depends on the graph alone.
    class: DagClass,
    /// `load_hist[l]` = number of arcs currently carrying load `l` (`l ≥
    /// 1`) — patched on every arc-user insert/remove so `π(G, P)` is
    /// maintained, never rescanned.
    load_hist: Vec<u32>,
    /// `π(G, P)` of the current family (the top of `load_hist`).
    max_load: usize,
    /// Solved shards dropped by mutations since the last recompute, keyed
    /// by content fingerprint — drained on adoption, cleared per recompute.
    reuse_pool: Vec<ReuseEntry>,
    /// Cumulative counters behind [`Workspace::stats`]: recomputations run
    /// and reused/resolved shard totals (accumulated only on cache misses,
    /// so repeated queries of an unchanged workspace add nothing).
    recomputes: usize,
    total_reused: usize,
    total_resolved: usize,
    delta_queries: u64,
    delta_resyncs: u64,
}

impl Workspace {
    /// Open a workspace over an instance, validating the DAG precondition
    /// once (mutations never touch the graph, so it never re-fails).
    ///
    /// The initial family is adopted as slots `0..len` of the editable
    /// [`PathFamily`]; nothing is solved until the first
    /// [`Workspace::solution`] call.
    pub fn new(
        session: SolveSession,
        graph: Digraph,
        family: DipathFamily,
    ) -> Result<Self, CoreError> {
        // Same rejection the one-shot path performs, hoisted to open time;
        // the class and load it computes seed the patched caches below.
        let ctx = InstanceContext::new(&graph, &family, session.request())?;
        let class = ctx.class;
        let max_load = ctx.load;
        drop(ctx);
        let editable = PathFamily::from_family(&family);
        let mut arc_users: Vec<Vec<u32>> = vec![Vec::new(); graph.arc_count()];
        for (id, p) in editable.iter() {
            for &a in p.arcs() {
                arc_users[a.index()].push(id.0);
            }
        }
        let mut load_hist = vec![0u32; max_load + 1];
        for users in &arc_users {
            if !users.is_empty() {
                load_hist[users.len()] += 1;
            }
        }
        let mut shard_of = vec![NO_SHARD; editable.slot_count()];
        let shards: BTreeMap<PathId, CachedShard> = conflict_components_among(editable.iter())
            .into_iter()
            .map(|members| {
                let key = members[0];
                let paths: Vec<Arc<Dipath>> = members
                    .iter()
                    .map(|&id| {
                        shard_of[id.index()] = key;
                        editable
                            .get_shared(id)
                            .expect("component members are live") // lint: allow(no-panic): components are derived from the live family on the previous line
                            .clone()
                    })
                    .collect();
                let shard = CachedShard {
                    fingerprint: shard_fingerprint(&paths),
                    members,
                    paths,
                    solved: None,
                };
                (key, shard)
            })
            .collect();
        let ws = Workspace {
            session,
            graph,
            family: editable,
            arc_users,
            fresh: shards.keys().copied().collect(),
            shards,
            shard_of,
            repatch_all: false,
            errored: BTreeSet::new(),
            span_hist: Vec::new(),
            scratch: ExtractScratch::new(),
            merged: None,
            last_resolve: Resolve::default(),
            class,
            load_hist,
            max_load,
            table: ColorTable::new(),
            current_span: 0,
            epoch: 0,
            deltas: VecDeque::new(),
            pending_removed: BTreeSet::new(),
            refreshed: false,
            refresh_error: None,
            reuse_pool: Vec::new(),
            recomputes: 0,
            total_reused: 0,
            total_resolved: 0,
            delta_queries: 0,
            delta_resyncs: 0,
        };
        ws.debug_validate();
        Ok(ws)
    }

    /// The session this workspace solves under.
    pub fn session(&self) -> &SolveSession {
        &self.session
    }

    /// The (immutable) host graph.
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }

    /// The editable family: live members under their stable ids.
    pub fn family(&self) -> &PathFamily {
        &self.family
    }

    /// Number of tracked conflict components in the current state.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The current component partition: stable member ids per shard, in
    /// canonical order (ascending within a shard, shards by smallest
    /// member) — without solving anything.
    pub fn components(&self) -> Vec<Vec<PathId>> {
        self.shards.values().map(|s| s.members.clone()).collect()
    }

    /// `π(G, P)` of the current family — the universal lower bound on the
    /// span, maintained per mutation through the load histogram (O(1), no
    /// rescan).
    pub fn max_load(&self) -> usize {
        self.max_load
    }

    /// Number of live dipaths currently using arc `a` (its load).
    pub fn arc_load(&self, a: ArcId) -> usize {
        self.arc_users.get(a.index()).map_or(0, |users| users.len())
    }

    /// The largest load any arc the batch adds to would carry once the
    /// whole `batch` is applied (0 when the batch adds nothing), or the
    /// error [`Workspace::apply`] would return for it — the admission
    /// figure: by `π ≤ w` it is a certified lower bound on the span.
    ///
    /// It runs `apply`'s own validation pass and changes nothing, so `Ok`
    /// means `apply` accepts the batch, and the figure is exact: a removal
    /// is credited once, for the dipath live at that point in the
    /// sequence — including one an earlier op of the same batch added.
    pub fn projected_load(&self, batch: &[Mutation]) -> Result<usize, CoreError> {
        // arc → (net load change, whether an addition uses it)
        let mut touched: BTreeMap<ArcId, (isize, bool)> = BTreeMap::new();
        self.validate(batch, |arcs, add| {
            for &a in arcs {
                let (delta, added) = touched.entry(a).or_default();
                *delta += if add { 1 } else { -1 };
                *added |= add;
            }
        })?;
        Ok(touched
            .into_iter()
            .filter(|&(_, (_, added))| added)
            .map(|(a, (delta, _))| self.arc_load(a).saturating_add_signed(delta))
            .max()
            .unwrap_or(0))
    }

    /// The dipath with this arc sequence on the workspace's graph, or
    /// [`CoreError::InvalidPath`]. Arc ids are range-checked first: the
    /// contiguity check indexes the graph's arc tables.
    pub fn dipath(&self, arcs: &[ArcId]) -> Result<Dipath, CoreError> {
        let arc_count = self.graph.arc_count();
        if let Some(a) = arcs.iter().find(|a| a.index() >= arc_count) {
            return Err(CoreError::InvalidPath(format!(
                "arc {a} out of range for this graph ({arc_count} arcs)"
            )));
        }
        Dipath::from_arcs(&self.graph, arcs.to_vec())
            .map_err(|e| CoreError::InvalidPath(e.to_string()))
    }

    /// Cumulative counters since [`Workspace::new`]: live paths, shard
    /// count, current load, and the reused/resolved shard totals summed
    /// over every recomputation — see [`WorkspaceStats`].
    pub fn stats(&self) -> WorkspaceStats {
        let arena = self.family.arena_stats();
        WorkspaceStats {
            live_paths: self.family.len(),
            shard_count: self.shards.len(),
            max_load: self.max_load,
            recomputes: self.recomputes,
            shards_reused: self.total_reused,
            shards_resolved: self.total_resolved,
            interned_arc_lists: arena.lists,
            intern_hits: arena.hits,
            intern_misses: arena.misses,
            epoch: self.epoch,
            delta_queries: self.delta_queries,
            delta_resyncs: self.delta_resyncs,
        }
    }

    /// The index [`Workspace::solution`]'s assignment uses for the live
    /// member `id` in the current state: its rank among the live stable
    /// ids (the dense view skips tombstones). `None` when `id` is not
    /// live.
    pub fn dense_index_of(&self, id: PathId) -> Option<usize> {
        self.family.dense_rank(id)
    }

    /// Admit one dipath. Returns its stable id.
    pub fn add_path(&mut self, p: Dipath) -> Result<PathId, CoreError> {
        let mut added = self.apply([Mutation::Add(p)])?;
        Ok(added.pop().expect("one add yields one id")) // lint: allow(no-panic): apply() of one Add returns exactly one id
    }

    /// Retire the dipath with this stable id.
    pub fn remove_path(&mut self, id: PathId) -> Result<(), CoreError> {
        self.apply([Mutation::Remove(id)]).map(|_| ())
    }

    /// Apply a mutation batch atomically with one invalidation pass:
    /// the components touched by any removal or addition are re-derived
    /// over the dirty member pool only, every other shard keeps its cached
    /// solution. Returns the stable ids assigned to the batch's additions,
    /// in batch order (an addition the same batch later removes still
    /// reports its id).
    ///
    /// A removal may name an id assigned by an earlier addition *in the
    /// same batch* — id assignment is deterministic (smallest free slot),
    /// so script generators can predict it (see
    /// [`PathFamily::next_id`]).
    ///
    /// On error (unknown id, dipath invalid on this graph) the workspace is
    /// left exactly as before the batch — validation happens up front,
    /// before any state changes. [`Workspace::projected_load`] runs the
    /// same validation without applying.
    pub fn apply(
        &mut self,
        batch: impl IntoIterator<Item = Mutation>,
    ) -> Result<Vec<PathId>, CoreError> {
        let batch: Vec<Mutation> = batch.into_iter().collect();
        self.validate(&batch, |_, _| {})?;

        // ---- Execute, accumulating the dirty shard keys and the added ids.
        let mut dirty: BTreeSet<PathId> = BTreeSet::new();
        let mut added: Vec<PathId> = Vec::new();
        for m in batch {
            match m {
                Mutation::Remove(id) => {
                    let p = self.family.remove(id).expect("validated live"); // lint: allow(no-panic): the validation pass above confirmed the id is live
                    self.pending_removed.insert(id);
                    // The slot leaves its shard now, so a later addition
                    // that re-occupies it is never taken for a member of
                    // the old shard. (An id this batch added may lie past
                    // the table, which grows once the batch is done.)
                    if let Some(slot) = self.shard_of.get_mut(id.index()) {
                        let key = std::mem::replace(slot, NO_SHARD);
                        if key != NO_SHARD {
                            dirty.insert(key);
                        }
                    }
                    for &a in p.arcs() {
                        let users = &mut self.arc_users[a.index()];
                        if let Ok(pos) = users.binary_search(&id.0) {
                            users.remove(pos);
                            let new_load = users.len();
                            self.note_load_dec(new_load + 1);
                        }
                    }
                }
                Mutation::Add(p) => {
                    // Every component sharing an arc with the new dipath is
                    // dirtied — the addition may bridge several. Users
                    // added earlier in this batch belong to no shard yet
                    // (their slot reads `NO_SHARD`, or lies past the table).
                    for &a in p.arcs() {
                        for &user in &self.arc_users[a.index()] {
                            match self.shard_of.get(user as usize) {
                                Some(&key) if key != NO_SHARD => {
                                    dirty.insert(key);
                                }
                                _ => {}
                            }
                        }
                    }
                    let id = self.family.insert(p);
                    // A reused slot is live again: its pending removal (from
                    // this batch or an earlier one) is superseded — the next
                    // refresh reports a color change, not a removal.
                    self.pending_removed.remove(&id);
                    let p = self
                        .family
                        .get_shared(id)
                        .expect("just inserted") // lint: allow(no-panic): the id was inserted on the previous line
                        .clone();
                    for &a in p.arcs() {
                        let users = &mut self.arc_users[a.index()];
                        if let Err(pos) = users.binary_search(&id.0) {
                            users.insert(pos, id.0);
                            let new_load = users.len();
                            self.note_load_inc(new_load);
                        }
                    }
                    added.push(id);
                }
            }
        }
        self.shard_of.resize(self.family.slot_count(), NO_SHARD);

        // ---- Re-derive components over the dirty pool only: members of
        // dirtied shards that are still live, plus the additions (some of
        // which may already be counted via a dirtied shard, or removed
        // again by the same batch; the set deduplicates). Each dirty shard
        // leaves the index as it is read, and the solved ones are banked
        // in the reuse pool — a later batch (or this one) may reconstitute
        // a shard with identical content, and its solve is then adopted
        // instead of redone…
        let mut pool: BTreeSet<PathId> = added
            .iter()
            .copied()
            .filter(|&id| self.family.contains(id))
            .collect();
        for key in dirty.iter().rev() {
            let shard = self
                .shards
                .remove(key)
                .expect("dirty keys name tracked shards"); // lint: allow(no-panic): keys are read from shard_of, which mirrors the index
            self.fresh.remove(key);
            self.errored.remove(key);
            pool.extend(
                shard
                    .members
                    .iter()
                    .copied()
                    .filter(|&id| self.family.contains(id)),
            );
            if let Some(solved) = shard.solved {
                if let Ok(sol) = &solved {
                    span_hist_remove(&mut self.span_hist, sol.num_colors);
                }
                self.reuse_pool.push(ReuseEntry {
                    fingerprint: shard.fingerprint,
                    paths: shard.paths,
                    solved,
                });
            }
        }
        // …and index the freshly derived components under their smallest
        // members, checking each against the pool (fingerprint gate, then
        // exact content equality — a hash collision can never adopt a
        // wrong solve). Dense ranks are monotone in stable ids, so keying
        // by the smallest stable member is exactly the order the
        // from-scratch component scan produces.
        let fresh = conflict_components_among(
            pool.iter()
                .map(|&id| (id, self.family.get(id).expect("pool is live"))), // lint: allow(no-panic): shard pools only hold live ids by construction
        );
        for members in fresh {
            let key = members[0];
            let paths: Vec<Arc<Dipath>> = members
                .iter()
                .map(|&id| {
                    self.shard_of[id.index()] = key;
                    self.family
                        .get_shared(id)
                        .expect("pool is live") // lint: allow(no-panic): shard pools only hold live ids by construction
                        .clone()
                })
                .collect();
            let fingerprint = shard_fingerprint(&paths);
            let solved = self
                .reuse_pool
                .iter()
                .position(|e| e.fingerprint == fingerprint && same_paths(&paths, &e.paths))
                .map(|i| self.reuse_pool.swap_remove(i).solved);
            match &solved {
                Some(Ok(sol)) => span_hist_add(&mut self.span_hist, sol.num_colors),
                Some(Err(_)) => {
                    self.errored.insert(key);
                }
                None => {}
            }
            // Adopted solves included: the banked solve is content-
            // identical, but the reconstituted shard may sit under
            // different stable ids, so the table patch must re-run.
            self.fresh.insert(key);
            let shard = CachedShard {
                members,
                paths,
                fingerprint,
                solved,
            };
            let displaced = self.shards.insert(key, shard);
            debug_assert!(displaced.is_none(), "shard key {key} already indexed");
        }
        self.merged = None;
        self.refreshed = false;
        self.refresh_error = None;
        self.debug_validate();
        Ok(added)
    }

    /// Validate `batch` against a simulated id state (the exact free-list
    /// discipline of `PathFamily`), changing nothing, and report each op's
    /// effect on the loads in batch order: `visit(arcs, true)` for an
    /// addition, `visit(arcs, false)` for the dipath a removal retires.
    /// The simulation is delta-based — the family's tombstones plus the
    /// batch's own removals/additions — so a batch costs
    /// O((tombstones + batch) log), never O(live): an id is live iff it was
    /// added by an earlier op in the batch, or is live in the family and not
    /// removed by an earlier op.
    fn validate<'b>(
        &'b self,
        batch: &'b [Mutation],
        mut visit: impl FnMut(&'b [ArcId], bool),
    ) -> Result<(), CoreError> {
        let mut free: BTreeSet<u32> = self.family.free_slots().into_iter().collect();
        let mut slots = self.family.slot_count() as u32;
        let mut removed_sim: BTreeSet<PathId> = BTreeSet::new();
        let mut added_sim: BTreeMap<PathId, &'b Dipath> = BTreeMap::new();
        for m in batch {
            match m {
                Mutation::Remove(id) => {
                    // Un-adding a batch addition frees its slot again.
                    let p = match added_sim.remove(id) {
                        Some(p) => p,
                        None => match self.family.get(*id) {
                            Some(p) if removed_sim.insert(*id) => p,
                            // Not family-live, or already removed this batch.
                            _ => return Err(CoreError::UnknownPath(*id)),
                        },
                    };
                    free.insert(id.0);
                    visit(p.arcs(), false);
                }
                Mutation::Add(p) => {
                    // Re-derive the dipath against *this* graph: catches
                    // out-of-range arcs and non-contiguous sequences from
                    // paths built elsewhere.
                    self.dipath(p.arcs())?;
                    // Mirror the insert: smallest free slot, else growth.
                    let id = match free.pop_first() {
                        Some(slot) => PathId(slot),
                        None => {
                            slots += 1;
                            PathId(slots - 1)
                        }
                    };
                    added_sim.insert(id, p);
                    visit(p.arcs(), true);
                }
            }
        }
        Ok(())
    }

    /// The current solution, recomputing only what the mutations since the
    /// last call dirtied. Bit-identical to
    /// `self.session().solve(graph, dense_family)` on the current live
    /// members (ascending stable-id order), with [`Solution::resolve`]
    /// additionally recording the cache split of the refresh that produced
    /// it.
    ///
    /// Returns a shared snapshot: repeated calls without intervening
    /// mutations hand out the *same* `Arc` (a refcount bump — the
    /// instance-sized clone per cache hit is gone). The query surface
    /// ([`Workspace::table_snapshot`] / [`Workspace::span`] /
    /// [`Workspace::color_of`] / [`Workspace::delta_since`]) answers
    /// without materializing a snapshot at all; this method stays the
    /// bit-identity oracle.
    pub fn solution(&mut self) -> Result<Arc<Solution>, CoreError> {
        self.refresh()?;
        if self.merged.is_none() {
            let sol = self.materialize();
            self.merged = Some(Arc::new(sol));
        }
        // lint: allow(no-panic): the branch above just populated self.merged
        Ok(Arc::clone(self.merged.as_ref().expect("just materialized")))
    }

    /// The merged span (number of wavelengths) of the current state —
    /// O(dirty): refreshes the per-shard caches if mutations are pending,
    /// then reads the maintained maximum without merging anything.
    pub fn span(&mut self) -> Result<usize, CoreError> {
        self.refresh()?;
        Ok(self.current_span)
    }

    /// The merged color of live member `id` — O(dirty) for the refresh,
    /// then O(1) from the persistent table. `None` when `id` is not live.
    /// Agrees exactly with [`Workspace::solution`]'s assignment at the
    /// member's dense rank.
    pub fn color_of(&mut self, id: PathId) -> Result<Option<u32>, CoreError> {
        self.refresh()?;
        if !self.family.contains(id) {
            return Ok(None);
        }
        Ok(self.table.get(id.index()))
    }

    /// The current refresh generation, without refreshing — advances once
    /// per refresh that folded mutations into the color table, so a just-
    /// mutated workspace still reports the epoch of its last refresh.
    pub fn epoch(&self) -> Epoch {
        Epoch(self.epoch)
    }

    /// Everything that changed since the client's `since` epoch — the
    /// O(changed) query the serve layer's `QueryDelta` frames ride on.
    ///
    /// Replaying the returned [`SolutionDelta`]s in epoch order (apply
    /// `changes`, drop `removed`, replace wholesale on `full_resync`)
    /// reconstructs exactly the color table of [`Workspace::solution`].
    /// The log retains `DELTA_RETAIN` (64) generations; older (or
    /// unknown, including future) epochs get a full resync.
    pub fn delta_since(&mut self, since: Epoch) -> Result<SolutionDelta, CoreError> {
        self.refresh()?;
        self.delta_queries += 1;
        let epoch = Epoch(self.epoch);
        let span = self.current_span;
        if since.0 == self.epoch {
            return Ok(SolutionDelta {
                epoch,
                span,
                full_resync: false,
                changes: Vec::new(),
                removed: Vec::new(),
            });
        }
        let covered = since.0 < self.epoch
            && self
                .deltas
                .front()
                .is_some_and(|oldest| oldest.epoch <= since.0 + 1);
        if !covered {
            self.delta_resyncs += 1;
            let changes = self
                .family
                .dense_ids()
                .iter()
                .map(|&id| {
                    let color = self
                        .table
                        .get(id.index())
                        .expect("refreshed table covers every live member"); // lint: allow(no-panic): refresh() patched every live member above
                    (id, color)
                })
                .collect();
            return Ok(SolutionDelta {
                epoch,
                span,
                full_resync: true,
                changes,
                removed: Vec::new(),
            });
        }
        // Coalesce the covered generations, newest writer wins per id: a
        // member changed then removed reports only the removal, a removal
        // whose slot was re-added reports only the new color.
        let mut merged: BTreeMap<PathId, Option<u32>> = BTreeMap::new();
        for rec in self.deltas.iter().filter(|r| r.epoch > since.0) {
            for &(id, color) in &rec.changes {
                merged.insert(id, Some(color));
            }
            for &id in &rec.removed {
                merged.insert(id, None);
            }
        }
        let mut changes = Vec::new();
        let mut removed = Vec::new();
        for (id, color) in merged {
            match color {
                Some(c) => changes.push((id, c)),
                None => removed.push(id),
            }
        }
        Ok(SolutionDelta {
            epoch,
            span,
            full_resync: false,
            changes,
            removed,
        })
    }

    /// A snapshot of the persistent merged color table at the current
    /// epoch (refreshing first). O(pages) pointer copies; consecutive
    /// snapshots share every page no refresh in between touched.
    pub fn color_table(&mut self) -> Result<ColorTable, CoreError> {
        self.refresh()?;
        Ok(self.table.clone())
    }

    /// The full solved state without materializing a [`Solution`]: the
    /// summary plus a snapshot of the persistent color table (refreshing
    /// first). After a monolithic refresh the summary is read off the
    /// cached monolithic solution; on the sharded path it is folded over
    /// the cached shard solves in canonical order, O(shards) — nothing is
    /// O(live). Fails exactly when [`Workspace::solution`] does, with the
    /// same error.
    pub fn table_snapshot(&mut self) -> Result<TableSnapshot, CoreError> {
        self.refresh()?;
        let (num_colors, load, optimal, shard_count, strategy) = if self.repatch_all {
            // The table holds a monolithic coloring, whose refresh cached
            // its solution; no mutation has cleared it since.
            let sol = self
                .merged
                .as_ref()
                .expect("a monolithic refresh caches its solution"); // lint: allow(no-panic): repatch_all is set together with merged, and apply() clears both refreshed and merged
            let shard_count = sol.decomposition.as_ref().map_or(1, |d| d.shard_count());
            (
                sol.num_colors,
                sol.load,
                sol.optimal,
                shard_count,
                sol.strategy,
            )
        } else {
            let summary = fold_shards(self.shards.values().map(|shard| match &shard.solved {
                Some(Ok(sol)) => sol,
                // lint: allow(no-panic): refresh() solved every shard and surfaced any error before this runs
                _ => unreachable!("refresh solved every shard"),
            }))
            .expect("a sharded refresh has at least one shard"); // lint: allow(no-panic): the decompose gate declines an empty family
            debug_assert_eq!(summary.span, self.current_span, "folded span diverged");
            (
                summary.span,
                self.max_load,
                summary.optimal,
                self.shards.len(),
                summary.strategy,
            )
        };
        Ok(TableSnapshot {
            num_colors,
            load,
            optimal,
            shard_count,
            strategy,
            table: self.table.clone(),
        })
    }

    /// Fold every pending mutation into the per-shard caches, the
    /// persistent color table, the span, and the delta log — O(dirty).
    /// Idempotent until the next mutation; every query path calls it
    /// first.
    fn refresh(&mut self) -> Result<(), CoreError> {
        if self.refreshed {
            return match &self.refresh_error {
                Some(e) => Err(e.clone()),
                None => Ok(()),
            };
        }
        self.refreshed = true;
        self.recomputes += 1;
        // Whatever the pool still holds was not reconstituted by the
        // mutations since the last refresh — drop it so the pool's size
        // stays bounded by the shards dropped between consecutive solves.
        self.reuse_pool.clear();

        // Borrow-heavy stage: gate + dirty-shard solving. Scoped so the
        // dense-view and context borrows end before the table is patched.
        let mono: Option<Result<Solution, CoreError>> = {
            // The family's incrementally-patched dense view, plus the class
            // and load maintained per mutation — nothing rescans the
            // instance.
            let dense = self.family.dense_view();
            let ctx = InstanceContext::from_parts(
                &self.graph,
                dense,
                self.class,
                self.max_load,
                self.session.request(),
            );
            // The shared decompose gate, fed the size of the cached
            // component partition instead of a from-scratch scan.
            let shard_count = self.shards.len();
            if !self.session.decompose_gate(&ctx, || shard_count) {
                // Monolithic path (small instance, no split, or the
                // Theorem-1 fast-path skip): same dispatch as one-shot.
                self.last_resolve = Resolve {
                    shards_reused: 0,
                    shards_resolved: 1,
                };
                self.total_resolved += 1;
                Some(self.session.dispatch(&ctx))
            } else {
                // Solve only the unsolved shards — all of them fresh —
                // concurrently, through the same per-shard engine as the
                // one-shot decomposed path. Only their members are
                // translated to dense ranks.
                let family = &self.family;
                let shards = &self.shards;
                let dirty: Vec<PathId> = self
                    .fresh
                    .iter()
                    .copied()
                    .filter(|key| shards[key].solved.is_none())
                    .collect();
                let dirty_components: Vec<Vec<PathId>> = dirty
                    .iter()
                    .map(|key| {
                        shards[key]
                            .members
                            .iter()
                            .map(|&id| {
                                let rank = family.dense_rank(id).expect("shard members are live"); // lint: allow(no-panic): apply() keeps every shard member live
                                PathId::from_index(rank)
                            })
                            .collect()
                    })
                    .collect();
                let results = self.session.shard_session().solve_components(
                    &self.graph,
                    dense,
                    &dirty_components,
                    &mut self.scratch,
                );
                self.scratch.forget_interned();
                for (key, result) in dirty.iter().zip(results) {
                    // Cache the shard-local solution only — the dense ids
                    // it was solved under are recomputed per merge, so
                    // later removals elsewhere cannot stale the cache.
                    let solved = result.map(|(_, sol)| sol);
                    match &solved {
                        Ok(sol) => span_hist_add(&mut self.span_hist, sol.num_colors),
                        Err(_) => {
                            self.errored.insert(*key);
                        }
                    }
                    self.shards
                        .get_mut(key)
                        .expect("dirty keys name tracked shards") // lint: allow(no-panic): collected from the index above
                        .solved = Some(solved);
                }
                // Reused = the clean shards left untouched, counted, not
                // visited.
                self.last_resolve = Resolve {
                    shards_reused: shard_count - dirty.len(),
                    shards_resolved: dirty.len(),
                };
                self.total_reused += shard_count - dirty.len();
                self.total_resolved += dirty.len();
                None
            }
        };

        let result = match mono {
            Some(Ok(mut sol)) => {
                sol.resolve = Some(self.last_resolve);
                self.patch_from_full(&sol);
                // The table now holds the *monolithic* coloring, which a
                // later per-shard normalization may disagree with — no
                // shard's entries are trustworthy as shard-normalized.
                self.repatch_all = true;
                self.merged = Some(Arc::new(sol));
                Ok(())
            }
            Some(Err(e)) => {
                self.refresh_error = Some(e.clone());
                Err(e)
            }
            None => self.patch_from_shards(),
        };
        self.debug_validate();
        result
    }

    /// Patch the persistent table from the fresh shards (every shard after
    /// a monolithic refresh), normalizing each shard's palette by first
    /// appearance — byte-for-byte the rule [`merge_shards`] applies, and
    /// because that normalization is *per shard* (it never looks across
    /// shards), a clean shard's table entries stay valid verbatim.
    fn patch_from_shards(&mut self) -> Result<(), CoreError> {
        // First error in canonical shard order wins — same rule as the
        // merge. The table, span, epoch, and delta log stay untouched; the
        // error replays to every query until a mutation clears it, and the
        // fresh shards stay fresh so a later refresh still patches them.
        if let Some(key) = self.errored.first() {
            let e = match &self.shards[key].solved {
                Some(Err(e)) => e.clone(),
                // lint: allow(no-panic): errored keys only ever name shards whose solve failed
                _ => unreachable!("errored keys name failed shards"),
            };
            self.refresh_error = Some(e.clone());
            return Err(e);
        }
        let keys: Vec<PathId> = if std::mem::take(&mut self.repatch_all) {
            self.fresh.clear();
            self.shards.keys().copied().collect()
        } else {
            std::mem::take(&mut self.fresh).into_iter().collect()
        };
        let mut changes: Vec<(PathId, u32)> = Vec::new();
        let mut palette: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
        for key in keys {
            let shard = &self.shards[&key];
            let sol = match &shard.solved {
                Some(Ok(sol)) => sol,
                // lint: allow(no-panic): refresh() solved every fresh shard, and the error check above returned on failures
                _ => unreachable!("refresh solved every shard"),
            };
            palette.clear();
            for (local, &orig) in shard.members.iter().enumerate() {
                let raw = sol.assignment.color(PathId::from_index(local));
                let next = palette.len() as u32;
                let color = *palette.entry(raw).or_insert(next);
                if self.table.get(orig.index()) != Some(color) {
                    self.table.set(orig.index(), color);
                    changes.push((orig, color));
                }
            }
        }
        let removed = self.drain_removed();
        self.current_span = self.span_hist.len().saturating_sub(1);
        self.record_delta(changes, removed);
        Ok(())
    }

    /// Monolithic twin of [`Workspace::patch_from_shards`]: diff the full
    /// dispatch solution against the table (O(live) — the monolithic solve
    /// was already O(live), so the diff adds no asymptotic cost).
    fn patch_from_full(&mut self, sol: &Solution) {
        let mut changes: Vec<(PathId, u32)> = Vec::new();
        for (rank, &id) in self.family.dense_ids().iter().enumerate() {
            let color = sol.assignment.color(PathId::from_index(rank)) as u32;
            if self.table.get(id.index()) != Some(color) {
                self.table.set(id.index(), color);
                changes.push((id, color));
            }
        }
        let removed = self.drain_removed();
        self.current_span = sol.num_colors;
        self.record_delta(changes, removed);
    }

    /// Clear the table slots of members removed since the last refresh
    /// (skipping slots a later addition re-occupied — those surface as
    /// changes instead) and report which ids actually left the table.
    fn drain_removed(&mut self) -> Vec<PathId> {
        let pending = std::mem::take(&mut self.pending_removed);
        let mut removed = Vec::new();
        for id in pending {
            if !self.family.contains(id) && self.table.get(id.index()).is_some() {
                self.table.clear(id.index());
                removed.push(id);
            }
        }
        removed
    }

    /// Advance the epoch and append its delta record, trimming the log to
    /// [`DELTA_RETAIN`] generations.
    fn record_delta(&mut self, changes: Vec<(PathId, u32)>, removed: Vec<PathId>) {
        self.epoch += 1;
        self.deltas.push_back(DeltaRecord {
            epoch: self.epoch,
            changes,
            removed,
        });
        while self.deltas.len() > DELTA_RETAIN {
            self.deltas.pop_front();
        }
    }

    /// Merge the (refreshed, all-solved) shard caches into a full
    /// [`Solution`] — the lazy half behind a [`Workspace::solution`] cache
    /// miss; the delta surface never runs this. Only the sharded refresh
    /// path lands here (the monolithic path caches its snapshot directly).
    fn materialize(&mut self) -> Solution {
        let dense = self.family.dense_view();
        let ctx = InstanceContext::from_parts(
            &self.graph,
            dense,
            self.class,
            self.max_load,
            self.session.request(),
        );
        let mut rank_of: Vec<u32> = vec![u32::MAX; self.family.slot_count()];
        for (rank, &id) in self.family.dense_ids().iter().enumerate() {
            rank_of[id.index()] = rank as u32;
        }
        // Merge every shard (cached + fresh) in canonical order — the same
        // merge as the one-shot path, by reference: a re-merge never deep-
        // clones the clean shards' solutions.
        let shards: Vec<(Vec<PathId>, &Solution)> = self
            .shards
            .values()
            .map(|shard| {
                let members = shard
                    .members
                    .iter()
                    .map(|&id| PathId(rank_of[id.index()]))
                    .collect();
                match shard.solved.as_ref() {
                    Some(Ok(sol)) => (members, sol),
                    // lint: allow(no-panic): refresh() solved every shard and surfaced any error before this runs
                    _ => unreachable!("refresh solved every shard"),
                }
            })
            .collect();
        let mut sol = merge_shards(&ctx, shards);
        sol.resolve = Some(self.last_resolve);
        sol
    }

    /// An arc's load just rose to `new_load`: move it between histogram
    /// buckets and raise `max_load` if it set a new top. O(1).
    fn note_load_inc(&mut self, new_load: usize) {
        if new_load > 1 {
            self.load_hist[new_load - 1] -= 1;
        }
        if new_load >= self.load_hist.len() {
            self.load_hist.resize(new_load + 1, 0);
        }
        self.load_hist[new_load] += 1;
        self.max_load = self.max_load.max(new_load);
    }

    /// An arc's load just fell from `old_load`: move it between histogram
    /// buckets and walk `max_load` down past emptied buckets. Amortized
    /// O(1) — the walk only retraces ground previous increments covered.
    fn note_load_dec(&mut self, old_load: usize) {
        self.load_hist[old_load] -= 1;
        if old_load > 1 {
            self.load_hist[old_load - 1] += 1;
        }
        while self.max_load > 0 && self.load_hist[self.max_load] == 0 {
            self.max_load -= 1;
        }
    }

    /// Shadow validation of the shard index (debug builds only; release
    /// builds compile this to nothing), run after every mutation and
    /// refresh: every shard sits under its smallest member, the slot table
    /// names exactly the shard of each live member and `NO_SHARD` for every
    /// other slot, every unsolved shard is fresh, and the error set and
    /// span histogram match the cached solves.
    fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut expected = vec![NO_SHARD; self.family.slot_count()];
        let mut span_hist: Vec<u32> = Vec::new();
        let mut members = 0usize;
        for (&key, shard) in &self.shards {
            debug_assert_eq!(
                shard.members.first(),
                Some(&key),
                "shard keyed off its smallest member"
            );
            for &id in &shard.members {
                debug_assert!(self.family.contains(id), "shard member {id} is not live");
                expected[id.index()] = key;
            }
            members += shard.members.len();
            match &shard.solved {
                None => debug_assert!(
                    self.fresh.contains(&key),
                    "unsolved shard {key} is not fresh"
                ),
                Some(Ok(sol)) => span_hist_add(&mut span_hist, sol.num_colors),
                Some(Err(_)) => debug_assert!(
                    self.errored.contains(&key),
                    "failed shard {key} not in the error set"
                ),
            }
        }
        debug_assert_eq!(
            members,
            self.family.len(),
            "shards do not partition the live family"
        );
        debug_assert_eq!(
            self.shard_of, expected,
            "slot → shard table diverged from shard membership"
        );
        debug_assert!(
            self.fresh
                .iter()
                .chain(&self.errored)
                .all(|key| self.shards.contains_key(key)),
            "fresh or error set names a dropped shard"
        );
        debug_assert_eq!(
            self.span_hist, span_hist,
            "span histogram diverged from the cached solves"
        );
    }
}

/// Count one more shard solved with span `span` in a trimmed histogram.
fn span_hist_add(hist: &mut Vec<u32>, span: usize) {
    if span >= hist.len() {
        hist.resize(span + 1, 0);
    }
    hist[span] += 1;
}

/// Count one shard of span `span` less, trimming trailing zeros so the
/// histogram's top index stays the maximum span.
fn span_hist_remove(hist: &mut Vec<u32>, span: usize) {
    hist[span] -= 1;
    while hist.last() == Some(&0) {
        hist.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::DecomposePolicy;
    use crate::solver::SolverBuilder;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::VertexId;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn path(g: &Digraph, route: &[usize]) -> Dipath {
        let route: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
        Dipath::from_vertices(g, &route).unwrap()
    }

    /// Two arc-disjoint chains (0→1→2 and 3→4→5), two paths each.
    fn two_chain_instance() -> (Digraph, DipathFamily) {
        let g = from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[1, 2]),
            path(&g, &[3, 4, 5]),
            path(&g, &[4, 5]),
        ]);
        (g, f)
    }

    fn sharded_session() -> SolveSession {
        SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build()
    }

    /// From-scratch reference on the workspace's current live members.
    fn from_scratch(ws: &Workspace) -> Result<Solution, CoreError> {
        let (dense, _) = ws.family().to_dense();
        ws.session().solve(ws.graph(), &dense)
    }

    fn assert_matches_scratch(ws: &mut Workspace) {
        let incremental = ws.solution();
        let scratch = from_scratch(ws);
        match (incremental, scratch) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.assignment.colors(), b.assignment.colors());
                assert_eq!(a.num_colors, b.num_colors);
                assert_eq!(a.strategy, b.strategy);
                assert_eq!(a.optimal, b.optimal);
                assert_eq!(a.attempts, b.attempts);
                match (&a.decomposition, &b.decomposition) {
                    (Some(da), Some(db)) => {
                        assert_eq!(da.shard_count(), db.shard_count());
                        for (sa, sb) in da.shards.iter().zip(&db.shards) {
                            assert_eq!(sa.members, sb.members);
                            assert_eq!(sa.num_colors, sb.num_colors);
                            assert_eq!(sa.strategy, sb.strategy);
                        }
                    }
                    (None, None) => {}
                    other => panic!("decomposition presence diverged: {other:?}"),
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            other => panic!("incremental vs from-scratch diverged: {other:?}"),
        }
    }

    #[test]
    fn fresh_workspace_matches_from_scratch() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g, f).unwrap();
        assert_eq!(ws.shard_count(), 2);
        let sol = ws.solution().unwrap();
        let r = sol.resolve.unwrap();
        assert_eq!(r.shards_resolved, 2, "first solve computes everything");
        assert_eq!(r.shards_reused, 0);
        assert_matches_scratch(&mut ws);
    }

    #[test]
    fn cache_hit_returns_the_same_snapshot() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g, f).unwrap();
        let first = ws.solution().unwrap();
        let again = ws.solution().unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "a cache hit is a refcount bump, not a clone"
        );
        let r = again.resolve.unwrap();
        assert_eq!(r.shards_resolved, 2, "snapshot keeps its refresh's split");
        assert_eq!(r.shards_reused, 0);
    }

    #[test]
    fn add_touches_only_its_shard() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        ws.solution().unwrap();
        ws.add_path(path(&g, &[3, 4])).unwrap();
        let sol = ws.solution().unwrap();
        let r = sol.resolve.unwrap();
        assert_eq!(r.shards_reused, 1, "first chain untouched");
        assert_eq!(r.shards_resolved, 1);
        assert_matches_scratch(&mut ws);
    }

    #[test]
    fn remove_unknown_id_is_an_error_and_mutates_nothing() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let before = ws.components();
        let err = ws.remove_path(PathId(9)).unwrap_err();
        assert_eq!(err, CoreError::UnknownPath(PathId(9)));
        // A failing batch leaves the workspace untouched, even when a valid
        // op precedes the invalid one.
        let err = ws
            .apply([
                Mutation::Remove(PathId(0)),
                Mutation::Remove(PathId(0)), // second removal of the same id
            ])
            .unwrap_err();
        assert_eq!(err, CoreError::UnknownPath(PathId(0)));
        assert_eq!(ws.components(), before);
        assert_eq!(ws.family().len(), 4);
    }

    #[test]
    fn foreign_path_is_rejected() {
        let (g, f) = two_chain_instance();
        // A dipath whose arc ids exceed the workspace graph's arc count —
        // the revalidation must catch it (arc ids are dense indices, so
        // only out-of-range or non-contiguous foreign paths can fail).
        let other = from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
            ],
        );
        let foreign = path(&other, &[6, 7, 8]);
        let mut ws = Workspace::new(sharded_session(), g, f).unwrap();
        match ws.add_path(foreign) {
            Err(CoreError::InvalidPath(_)) => {}
            other => panic!("expected InvalidPath, got {other:?}"),
        }
    }

    #[test]
    fn stats_accumulate_across_mutations_and_queries() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let s0 = ws.stats();
        assert_eq!(s0.live_paths, 4);
        assert_eq!(s0.shard_count, 2);
        assert_eq!(s0.max_load, 2);
        assert_eq!(s0.recomputes, 0, "nothing solved yet");
        ws.solution().unwrap();
        let s1 = ws.stats();
        assert_eq!(s1.recomputes, 1);
        assert_eq!(s1.shards_resolved, 2, "first solve computes both shards");
        assert_eq!(s1.shards_reused, 0);
        // A cache hit adds nothing to the cumulative counters.
        ws.solution().unwrap();
        assert_eq!(ws.stats(), s1);
        // One mutation dirties one shard: totals grow by one reuse and one
        // re-solve, and the maintained load reflects the new path.
        ws.add_path(path(&g, &[4, 5])).unwrap();
        ws.solution().unwrap();
        let s2 = ws.stats();
        assert_eq!(s2.live_paths, 5);
        assert_eq!(s2.recomputes, 2);
        assert_eq!(s2.shards_reused, 1);
        assert_eq!(s2.shards_resolved, 3);
        assert_eq!(s2.max_load, 3, "arc 4→5 now carries load 3");
        assert_eq!(s2.max_load, ws.max_load());
    }

    #[test]
    fn arc_load_tracks_mutations() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        // Arc ids follow from_edges order: 0→1, 1→2, 3→4, 4→5.
        assert_eq!(ws.arc_load(ArcId(0)), 1);
        assert_eq!(ws.arc_load(ArcId(1)), 2);
        let id = ws.add_path(path(&g, &[0, 1, 2])).unwrap();
        assert_eq!(ws.arc_load(ArcId(0)), 2);
        assert_eq!(ws.arc_load(ArcId(1)), 3);
        ws.remove_path(id).unwrap();
        assert_eq!(ws.arc_load(ArcId(1)), 2);
        // Out-of-range arcs report zero load rather than panicking.
        assert_eq!(ws.arc_load(ArcId(99)), 0);
    }

    #[test]
    fn stable_ids_survive_removal_and_slots_are_reused() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        ws.remove_path(PathId(1)).unwrap();
        assert!(ws.family().contains(PathId(0)));
        assert!(!ws.family().contains(PathId(1)));
        assert!(ws.family().contains(PathId(3)));
        let id = ws.add_path(path(&g, &[0, 1])).unwrap();
        assert_eq!(id, PathId(1), "smallest tombstone reused");
        assert_matches_scratch(&mut ws);
    }

    /// The oracle's color of each live member, keyed by stable id.
    fn solution_colors(ws: &mut Workspace) -> BTreeMap<PathId, u32> {
        let sol = ws.solution().unwrap();
        ws.family()
            .dense_ids()
            .iter()
            .enumerate()
            .map(|(rank, &id)| (id, sol.assignment.color(PathId::from_index(rank)) as u32))
            .collect()
    }

    /// Apply one delta to a client-side mirror of the color table.
    fn replay(mirror: &mut BTreeMap<PathId, u32>, delta: &SolutionDelta) {
        if delta.full_resync {
            mirror.clear();
        }
        for &id in &delta.removed {
            mirror.remove(&id);
        }
        for &(id, c) in &delta.changes {
            mirror.insert(id, c);
        }
    }

    #[test]
    fn span_and_color_of_agree_with_solution() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let expected = solution_colors(&mut ws);
        assert_eq!(ws.span().unwrap(), ws.solution().unwrap().num_colors);
        for (&id, &c) in &expected {
            assert_eq!(ws.color_of(id).unwrap(), Some(c));
        }
        assert_eq!(ws.color_of(PathId(99)).unwrap(), None, "not live");
        ws.add_path(path(&g, &[4, 5])).unwrap();
        let expected = solution_colors(&mut ws);
        assert_eq!(ws.span().unwrap(), 3, "arc 4→5 carries load 3");
        for (&id, &c) in &expected {
            assert_eq!(ws.color_of(id).unwrap(), Some(c));
        }
    }

    #[test]
    fn delta_replay_reconstructs_the_solution_table() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let mut mirror = BTreeMap::new();
        let mut synced = Epoch::default();
        // Initial sync from epoch 0 delivers the whole table as changes.
        let d0 = ws.delta_since(synced).unwrap();
        assert!(!d0.full_resync);
        replay(&mut mirror, &d0);
        synced = d0.epoch;
        assert_eq!(mirror, solution_colors(&mut ws));

        // Churn: add to one chain, remove from the other, then replay.
        let added = ws.add_path(path(&g, &[4, 5])).unwrap();
        ws.remove_path(PathId(1)).unwrap();
        let d1 = ws.delta_since(synced).unwrap();
        assert!(!d1.full_resync);
        assert!(d1.epoch > synced);
        assert!(d1.removed.contains(&PathId(1)));
        replay(&mut mirror, &d1);
        synced = d1.epoch;
        assert_eq!(mirror, solution_colors(&mut ws));
        assert_eq!(d1.span, ws.span().unwrap());
        assert!(mirror.contains_key(&added));

        // Already synced: the delta is empty and the epoch stands still.
        let d2 = ws.delta_since(synced).unwrap();
        assert_eq!(d2.epoch, synced);
        assert!(d2.changes.is_empty() && d2.removed.is_empty() && !d2.full_resync);
    }

    #[test]
    fn unknown_epoch_gets_a_full_resync() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g, f).unwrap();
        ws.solution().unwrap();
        // A client claiming an epoch from the future is beyond the log.
        let d = ws.delta_since(Epoch(999)).unwrap();
        assert!(d.full_resync);
        assert!(d.removed.is_empty());
        let mut mirror = BTreeMap::new();
        replay(&mut mirror, &d);
        assert_eq!(mirror, solution_colors(&mut ws));
        let s = ws.stats();
        assert_eq!(s.delta_queries, 1);
        assert_eq!(s.delta_resyncs, 1);
    }

    #[test]
    fn epoch_older_than_the_log_gets_a_full_resync() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let first = ws.delta_since(Epoch::default()).unwrap();
        // Push the log past DELTA_RETAIN generations.
        for _ in 0..DELTA_RETAIN + 1 {
            let id = ws.add_path(path(&g, &[0, 1])).unwrap();
            ws.span().unwrap();
            ws.remove_path(id).unwrap();
            ws.span().unwrap();
        }
        let d = ws.delta_since(first.epoch).unwrap();
        assert!(d.full_resync, "epoch fell off the retained log");
        let mut mirror = BTreeMap::new();
        replay(&mut mirror, &d);
        assert_eq!(mirror, solution_colors(&mut ws));
    }

    #[test]
    fn remove_and_readd_of_identical_path_changes_nothing() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let synced = ws.delta_since(Epoch::default()).unwrap().epoch;
        // Retire and re-admit the same dipath in one batch: the slot is
        // re-occupied, the shard adopts its pooled solve, and the delta
        // carries neither a change nor a removal.
        ws.apply([
            Mutation::Remove(PathId(1)),
            Mutation::Add(path(&g, &[1, 2])),
        ])
        .unwrap();
        let d = ws.delta_since(synced).unwrap();
        assert!(d.epoch > synced, "the refresh still advances the epoch");
        assert!(!d.full_resync);
        assert!(
            d.changes.is_empty(),
            "same path, same color: {:?}",
            d.changes
        );
        assert!(
            d.removed.is_empty(),
            "slot was re-occupied: {:?}",
            d.removed
        );
        assert_matches_scratch(&mut ws);
    }

    #[test]
    fn color_table_snapshots_share_pages_across_cache_hits() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let t1 = ws.color_table().unwrap();
        let t2 = ws.color_table().unwrap();
        assert_eq!(t1.shared_pages_with(&t2), t1.page_count());
        assert!(t1.page_count() > 0);
        // The old snapshot keeps its colors after further churn.
        ws.add_path(path(&g, &[4, 5])).unwrap();
        ws.span().unwrap();
        assert_eq!(t1.get(0), ws.color_of(PathId(0)).unwrap());
    }
}
