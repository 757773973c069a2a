//! The solving surface: sessions, policies, batch and streaming entry
//! points.
//!
//! A [`SolveSession`] (built with [`SolverBuilder`]) carries a
//! [`SolveRequest`] — every budget and threshold, plus a [`Policy`]:
//!
//! * [`Policy::Auto`] — classify the instance and dispatch to the strongest
//!   applicable method (the paper's taxonomy, the historical behavior):
//!
//!   | class | method | guarantee |
//!   |-------|--------|-----------|
//!   | no internal cycle | Theorem 1 | `w = π`, polynomial |
//!   | UPP, one internal cycle | Theorem 6 (+ weighted rescue) | `w ≤ ⌈4π/3⌉` |
//!   | otherwise | exact B&B (small) or DSATUR (+ weighted rescue) | best effort, `w ≥ π` |
//!
//! * [`Policy::Pinned`] — run exactly one named [`BackendKind`].
//! * [`Policy::Portfolio`] — race several backends on the rayon pool and
//!   keep the fewest-colors result deterministically.
//!
//! Instances can be solved one at a time ([`SolveSession::solve`]), as a
//! materialized batch ([`SolveSession::solve_batch`]), or from an iterator
//! that is fed onto the pool incrementally without ever materializing the
//! whole family ([`SolveSession::solve_stream`]).

use crate::assignment::WavelengthAssignment;
use crate::backend::{
    backend, BackendAttempt, BackendKind, BackendOutcome, InstanceContext, Policy, SolveRequest,
};
use crate::bounds;
use crate::certify;
use crate::decompose::{DecomposePolicy, Decomposition, ShardOutcome};
use crate::error::CoreError;
use crate::internal::DagClass;
use dagwave_color::ugraph::UGraph;
use dagwave_paths::{
    conflict_components, ConflictGraph, DipathFamily, ExtractScratch, PathId, SubInstance,
};
use std::collections::VecDeque;

/// How many in-flight instances [`SolveSession::solve_stream`] keeps per
/// pool thread. A few windows of slack keep every worker busy across the
/// tail of one window and the head of the next without materializing an
/// unbounded prefix of the source iterator.
const STREAM_WINDOW_PER_THREAD: usize = 4;

/// Which backend produced a [`Solution`] — an alias for [`BackendKind`],
/// kept so pre-portfolio code (`Strategy::Theorem1`, …) reads unchanged.
pub type Strategy = BackendKind;

/// One shard result awaiting merge: the shard's original path ids plus its
/// solution (or the error that shard produced).
type ShardSlot = Option<Result<(Vec<PathId>, Solution), CoreError>>;

/// A solved instance, with full provenance.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The wavelength assignment.
    pub assignment: WavelengthAssignment,
    /// Number of wavelengths used.
    pub num_colors: usize,
    /// `π(G, P)` — the universal lower bound.
    pub load: usize,
    /// `true` when `num_colors` is provably minimum (`w`).
    pub optimal: bool,
    /// The instance class per the paper's taxonomy.
    pub class: DagClass,
    /// The backend that produced the kept assignment. For a decomposed
    /// solve this is the winning backend of the shard that determined the
    /// merged span (the first shard attaining the maximum).
    pub strategy: Strategy,
    /// Every backend consulted for this solve, in consultation order, with
    /// its bounds and `certify`-backed validity verdict. For a decomposed
    /// solve: the shards' attempts concatenated in shard order (the
    /// per-shard split lives in [`Solution::decomposition`]).
    pub attempts: Vec<BackendAttempt>,
    /// Present when the instance was sharded by conflict-graph components
    /// (decompose-solve-merge): one [`ShardOutcome`] per component, in
    /// deterministic shard order. `None` for monolithic solves. Behind an
    /// [`Arc`](std::sync::Arc) because the provenance is immutable and can
    /// be large (one record per shard): cloning a solution — which the
    /// incremental engine does on every query of its merged cache — bumps
    /// a refcount instead of deep-copying every shard report.
    pub decomposition: Option<std::sync::Arc<Decomposition>>,
    /// Present when this solution came out of an incremental
    /// [`crate::workspace::Workspace`] re-solve: how many shards were
    /// served from cache vs. actually recomputed. Always `None` for the
    /// one-shot entry points — the assignment itself is bit-identical
    /// either way, this field only records how it was obtained.
    pub resolve: Option<crate::workspace::Resolve>,
}

/// An owned instance, the item type of [`SolveSession::solve_stream`].
#[derive(Clone, Debug)]
pub struct Instance {
    /// The DAG.
    pub graph: dagwave_graph::Digraph,
    /// The dipath family to color.
    pub family: DipathFamily,
}

impl Instance {
    /// Bundle a graph and family into a streamable instance.
    pub fn new(graph: dagwave_graph::Digraph, family: DipathFamily) -> Self {
        Instance { graph, family }
    }
}

/// Fluent constructor for a [`SolveSession`].
///
/// ```
/// use dagwave_core::{BackendKind, Policy, SolverBuilder};
///
/// let session = SolverBuilder::new()
///     .policy(Policy::Portfolio(vec![
///         BackendKind::Dsatur,
///         BackendKind::KempeGreedy,
///     ]))
///     .exact_limit(120)
///     .build();
/// # let _ = session;
/// ```
#[derive(Clone, Debug, Default)]
pub struct SolverBuilder {
    request: SolveRequest,
}

impl SolverBuilder {
    /// Builder with default budgets and [`Policy::Auto`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the backend-selection policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.request.policy = policy;
        self
    }

    /// Shorthand for [`Policy::Pinned`].
    pub fn pinned(self, kind: BackendKind) -> Self {
        self.policy(Policy::Pinned(kind))
    }

    /// Shorthand for [`Policy::Portfolio`] (empty = all applicable).
    pub fn portfolio(self, kinds: Vec<BackendKind>) -> Self {
        self.policy(Policy::Portfolio(kinds))
    }

    /// Set the decompose-solve-merge policy: when to shard the instance by
    /// conflict-graph connected components and solve the shards
    /// concurrently (see [`DecomposePolicy`]).
    pub fn decompose(mut self, policy: DecomposePolicy) -> Self {
        self.request.decompose = policy;
        self
    }

    /// Enable per-shard backend *selection*: under [`Policy::Auto`], each
    /// shard of a decomposed solve is dispatched straight to the one
    /// backend its own class pins (Theorem 1 / Theorem 6 /
    /// exact-or-DSATUR) instead of re-running the full Auto dispatch —
    /// see [`SolveRequest::per_shard_backend`].
    pub fn per_shard_backend(mut self, enabled: bool) -> Self {
        self.request.per_shard_backend = enabled;
        self
    }

    /// Largest conflict graph (vertices) handed to the exact solver.
    pub fn exact_limit(mut self, limit: usize) -> Self {
        self.request.exact_limit = limit;
        self
    }

    /// Branch-node budget for the exact solver.
    pub fn exact_budget(mut self, budget: u64) -> Self {
        self.request.exact_budget = budget;
        self
    }

    /// Largest deduplicated base family the weighted backend accepts.
    pub fn weighted_dedup_limit(mut self, limit: usize) -> Self {
        self.request.weighted_dedup_limit = limit;
        self
    }

    /// Base-size threshold below which weighted coloring is exact.
    pub fn weighted_exact_base_limit(mut self, limit: usize) -> Self {
        self.request.weighted_exact_base_limit = limit;
        self
    }

    /// Total-weight threshold below which weighted coloring is exact.
    pub fn weighted_exact_weight_limit(mut self, limit: usize) -> Self {
        self.request.weighted_exact_weight_limit = limit;
        self
    }

    /// Finalize into a session.
    pub fn build(self) -> SolveSession {
        SolveSession {
            request: self.request,
        }
    }
}

/// A configured solving surface: policy + budgets, reusable across any
/// number of instances (it is `Sync`, so one session can serve a whole
/// parameter sweep).
#[derive(Clone, Debug, Default)]
pub struct SolveSession {
    request: SolveRequest,
}

impl SolveSession {
    /// Session from an explicit request.
    pub fn new(request: SolveRequest) -> Self {
        SolveSession { request }
    }

    /// Session with default budgets and [`Policy::Auto`]; the default
    /// [`DecomposePolicy::Auto`] shards large multi-component instances.
    pub fn auto() -> Self {
        Self::default()
    }

    /// Start building a customized session.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::new()
    }

    /// The request this session runs.
    pub fn request(&self) -> &SolveRequest {
        &self.request
    }

    /// Solve one instance under this session's policy.
    ///
    /// Runs the decompose-solve-merge pipeline when the session's
    /// [`DecomposePolicy`] elects to shard (the instance is cut by
    /// conflict-graph connected components, each shard is classified and
    /// solved independently on the rayon pool, and the shard colorings are
    /// merged with a shared palette); otherwise solves monolithically.
    pub fn solve(
        &self,
        g: &dagwave_graph::Digraph,
        family: &DipathFamily,
    ) -> Result<Solution, CoreError> {
        // One context serves both paths: DAG validation, classification,
        // and the load are computed exactly once per solve, whether the
        // decompose stage elects to shard or falls through.
        let ctx = InstanceContext::new(g, family, &self.request)?;
        match self.decomposition_plan(&ctx) {
            Some(components) => self.solve_decomposed(&ctx, components),
            None => self.dispatch(&ctx),
        }
    }

    /// One undecomposed solve — the per-shard engine of the decomposed
    /// path (shards build their own shard-local contexts).
    ///
    /// When [`SolveRequest::per_shard_backend`] is set and the policy is
    /// [`Policy::Auto`], the shard is dispatched straight to the one
    /// backend its class pins (Theorem 1 / Theorem 6 /
    /// exact-or-DSATUR) instead of the full Auto dispatch with its
    /// weighted-rescue consult — shards re-classify independently, so the
    /// class decides the backend once and for all.
    fn solve_monolithic(
        &self,
        g: &dagwave_graph::Digraph,
        family: &DipathFamily,
    ) -> Result<Solution, CoreError> {
        let ctx = InstanceContext::new(g, family, &self.request)?;
        if self.request.per_shard_backend && self.request.policy == Policy::Auto {
            return self.solve_pinned(auto_shard_backend(&ctx), &ctx);
        }
        self.dispatch(&ctx)
    }

    /// Route one instance context to the configured backend policy.
    pub(crate) fn dispatch(&self, ctx: &InstanceContext<'_>) -> Result<Solution, CoreError> {
        match &self.request.policy {
            Policy::Auto => self.solve_auto(ctx),
            Policy::Pinned(kind) => self.solve_pinned(*kind, ctx),
            Policy::Portfolio(kinds) => self.solve_portfolio(kinds, ctx),
        }
    }

    /// The decompose stage: decide whether to shard and, if so, return the
    /// conflict-graph components in deterministic shard order.
    ///
    /// The component scan never builds the conflict graph — dipaths are
    /// unioned through the arc buckets directly
    /// ([`dagwave_paths::conflict_components`]), so deciding costs
    /// `O(Σ|P| · α)` even when the conflict graph would be enormous.
    /// Checks run cheapest-first against the already-validated context
    /// (no graph pass is duplicated on the fall-through).
    fn decomposition_plan(&self, ctx: &InstanceContext<'_>) -> Option<Vec<Vec<PathId>>> {
        let scan = || conflict_components(ctx.graph, ctx.family);
        let mut components = None;
        let shard = self.decompose_gate(ctx, || components.get_or_insert_with(scan).len());
        shard.then(|| components.unwrap_or_else(scan))
    }

    /// The shard/monolithic decision behind
    /// [`SolveSession::decomposition_plan`], with the component count
    /// injected (and consulted only when the policy needs it): the one-shot
    /// path scans from scratch, the incremental
    /// [`crate::workspace::Workspace`] reads the size of its cached
    /// partition — both run through this one gate, so the decision can
    /// never diverge between the two paths.
    pub(crate) fn decompose_gate<F>(&self, ctx: &InstanceContext<'_>, component_count: F) -> bool
    where
        F: FnOnce() -> usize,
    {
        let auto = match self.request.decompose {
            DecomposePolicy::Off => return false,
            DecomposePolicy::Auto { min_paths } => {
                if ctx.family.len() < min_paths.max(1) {
                    return false;
                }
                true
            }
            DecomposePolicy::Always => return !ctx.family.is_empty(),
        };
        // Auto declines when the Auto backend policy would take the
        // Theorem 1 fast path anyway: on an internal-cycle-free host the
        // monolithic solve is already optimal (`w = π`) in near-linear
        // time, so sharding could only add overhead, never save colors.
        // Pinned/Portfolio policies still shard (smaller per-shard graphs
        // genuinely help heuristic and exact backends), as does `Always`.
        if auto && self.request.policy == Policy::Auto && ctx.class == DagClass::InternalCycleFree {
            return false;
        }
        // Auto only pays the shard machinery when it actually splits.
        component_count() > 1
    }

    /// Solve the shards concurrently and merge with a shared palette.
    ///
    /// Each component is extracted into a [`SubInstance`] (dense local ids,
    /// host graph restricted to the arcs the shard uses) and solved with
    /// this session's policy and budgets — but with decomposition off, a
    /// shard is never re-sharded. Shard tasks run on the rayon pool;
    /// results are merged in deterministic shard order regardless of
    /// completion order, so the output is bit-identical at every thread
    /// budget.
    fn solve_decomposed(
        &self,
        ctx: &InstanceContext<'_>,
        components: Vec<Vec<PathId>>,
    ) -> Result<Solution, CoreError> {
        // First shard error wins, in shard order — deterministic.
        let shards: Vec<(Vec<PathId>, Solution)> = self
            .shard_session()
            .solve_components(
                ctx.graph,
                ctx.family,
                &components,
                &mut ExtractScratch::new(),
            )
            .into_iter()
            .collect::<Result<_, _>>()?;
        Ok(merge_shards(ctx, shards))
    }

    /// The session a shard is solved under: same policy and budgets, but
    /// with decomposition pinned off — a shard is never re-sharded.
    pub(crate) fn shard_session(&self) -> SolveSession {
        SolveSession::new(SolveRequest {
            decompose: DecomposePolicy::Off,
            ..self.request.clone()
        })
    }

    /// Solve each component of `family` as an independent shard on the
    /// rayon pool under this session (callers pass the
    /// [`SolveSession::shard_session`]). Each shard is extracted into a
    /// [`SubInstance`] and solved with its original ids recorded; results
    /// come back in component order regardless of completion order, so the
    /// caller's merge is bit-identical at every thread budget. Shared by
    /// the one-shot decomposed solve (a fresh `scratch` per solve) and the
    /// incremental workspace (its dirty components only, through the one
    /// scratch it keeps across refreshes).
    pub(crate) fn solve_components(
        &self,
        g: &dagwave_graph::Digraph,
        family: &DipathFamily,
        components: &[Vec<PathId>],
        scratch: &mut ExtractScratch,
    ) -> Vec<Result<(Vec<PathId>, Solution), CoreError>> {
        // Extraction is a near-linear renumbering pass; it runs sequentially
        // through ONE shared scratch (flat host-indexed tables, stamped per
        // shard — see [`ExtractScratch`]) so every shard reuses the same
        // buffers instead of sorting and binary-searching its own. Only the
        // solves — the actual work — fan out onto the pool.
        let subs: Vec<SubInstance> = components
            .iter()
            .map(|members| SubInstance::extract_with(g, family, members, scratch))
            .collect();
        let mut slots: Vec<ShardSlot> = components.iter().map(|_| None).collect();
        rayon::scope(|s| {
            for (slot, sub) in slots.iter_mut().zip(&subs) {
                s.spawn(move |_| {
                    *slot = Some(
                        self.solve_monolithic(&sub.graph, &sub.family)
                            .map(|sol| (sub.original_ids().to_vec(), sol)),
                    );
                });
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("shard task completed")) // lint: allow(no-panic): the scope barrier filled every shard slot
            .collect()
    }

    /// Solve many instances in parallel — the batch entry point for
    /// parameter sweeps. Each instance becomes its own task on the rayon
    /// pool (a `scope` spawn, so heterogeneous instance costs load-balance
    /// across workers), panics are isolated per instance and surfaced as
    /// [`CoreError::SolverPanic`], and the output order always matches the
    /// input order regardless of completion order.
    pub fn solve_batch(
        &self,
        instances: &[(&dagwave_graph::Digraph, &DipathFamily)],
    ) -> Vec<Result<Solution, CoreError>> {
        let mut results: Vec<Option<Result<Solution, CoreError>>> =
            instances.iter().map(|_| None).collect();
        rayon::scope(|s| {
            for (slot, &(g, family)) in results.iter_mut().zip(instances) {
                s.spawn(move |_| *slot = Some(solve_isolated(self, g, family)));
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("batch task completed")) // lint: allow(no-panic): the scope barrier filled every batch slot
            .collect()
    }

    /// Solve a *stream* of instances: the iterator is pulled one bounded
    /// window at a time, each window's instances are fanned out onto the
    /// rayon pool, and results are yielded in input order as windows
    /// complete. Memory stays bounded by the window (a few multiples of
    /// the thread count) no matter how many instances the iterator yields —
    /// the entry point for million-path instance families that must never
    /// be materialized as a slice.
    ///
    /// Output is exactly what [`SolveSession::solve_batch`] would return on
    /// the materialized slice, including per-instance panic isolation.
    pub fn solve_stream<I>(&self, instances: I) -> SolveStream<'_, I::IntoIter>
    where
        I: IntoIterator<Item = Instance>,
    {
        SolveStream {
            session: self,
            source: instances.into_iter(),
            window: rayon::current_num_threads().max(1) * STREAM_WINDOW_PER_THREAD,
            ready: VecDeque::new(),
        }
    }

    /// The a-priori upper bound the paper guarantees for this instance
    /// class (`π` / `⌈4π/3⌉` / `⌈(4/3)^C π⌉`), or `None` for non-UPP DAGs
    /// with internal cycles (unbounded ratio, Figure 1).
    pub fn guaranteed_bound(
        &self,
        g: &dagwave_graph::Digraph,
        family: &DipathFamily,
    ) -> Option<usize> {
        let pi = dagwave_paths::load::max_load(g, family);
        bounds::class_bound(crate::internal::classify(g), pi)
    }

    /// The historical classify-and-dispatch.
    fn solve_auto(&self, ctx: &InstanceContext<'_>) -> Result<Solution, CoreError> {
        match ctx.class {
            DagClass::InternalCycleFree => {
                let (attempt, outcome) = run_required(BackendKind::Theorem1, ctx)?;
                Ok(build_solution(
                    ctx,
                    BackendKind::Theorem1,
                    outcome,
                    vec![attempt],
                ))
            }
            DagClass::UppSingleCycle => {
                let (attempt, outcome) = run_required(BackendKind::Theorem6, ctx)?;
                // Replicated families sidestep the constructive merge's
                // duplicate penalty via weighted coloring (Theorem 7's
                // ⌈8h/3⌉); keep whichever uses fewer wavelengths.
                Ok(self.improve_with_weighted(ctx, BackendKind::Theorem6, attempt, outcome))
            }
            DagClass::UppMultiCycle { .. } | DagClass::General { .. } => {
                let primary = if backend(BackendKind::Exact).unsupported(ctx).is_none() {
                    BackendKind::Exact
                } else {
                    BackendKind::Dsatur
                };
                let (attempt, outcome) = run_required(primary, ctx)?;
                if outcome.optimal {
                    return Ok(build_solution(ctx, primary, outcome, vec![attempt]));
                }
                Ok(self.improve_with_weighted(ctx, primary, attempt, outcome))
            }
        }
    }

    /// Consult the weighted backend and keep whichever of the two outcomes
    /// uses fewer wavelengths (primary wins ties). The weighted result can
    /// only displace the primary when its certify verdict passed — an
    /// uncertified improvement is no improvement.
    fn improve_with_weighted(
        &self,
        ctx: &InstanceContext<'_>,
        primary_kind: BackendKind,
        primary_attempt: BackendAttempt,
        primary: BackendOutcome,
    ) -> Solution {
        let weighted = consult(BackendKind::Weighted, ctx);
        let weighted_valid = weighted.attempt.valid;
        let attempts = vec![primary_attempt, weighted.attempt];
        match weighted.outcome {
            Some(w)
                if weighted_valid
                    && w.assignment.num_colors() < primary.assignment.num_colors() =>
            {
                build_solution(ctx, BackendKind::Weighted, w, attempts)
            }
            _ => build_solution(ctx, primary_kind, primary, attempts),
        }
    }

    fn solve_pinned(
        &self,
        kind: BackendKind,
        ctx: &InstanceContext<'_>,
    ) -> Result<Solution, CoreError> {
        if let Some(reason) = backend(kind).unsupported(ctx) {
            return Err(CoreError::BackendUnsupported {
                backend: kind,
                reason,
            });
        }
        let (attempt, outcome) = run_required(kind, ctx)?;
        // Same gate the portfolio applies to its winner: an assignment that
        // fails certification is an error, not a result.
        if !attempt.valid {
            return Err(CoreError::BackendInvalid { backend: kind });
        }
        Ok(build_solution(ctx, kind, outcome, vec![attempt]))
    }

    /// Race the portfolio members on the rayon pool; keep the
    /// fewest-colors valid result, ties breaking toward the earlier list
    /// entry — a deterministic choice independent of scheduling.
    fn solve_portfolio(
        &self,
        kinds: &[BackendKind],
        ctx: &InstanceContext<'_>,
    ) -> Result<Solution, CoreError> {
        let kinds: Vec<BackendKind> = if kinds.is_empty() {
            BackendKind::ALL
                .into_iter()
                .filter(|&k| backend(k).unsupported(ctx).is_none())
                .collect()
        } else {
            kinds.to_vec()
        };
        if kinds.is_empty() {
            return Err(CoreError::NoApplicableBackend);
        }
        let mut slots: Vec<Option<Attempted>> = kinds.iter().map(|_| None).collect();
        rayon::scope(|s| {
            for (slot, &kind) in slots.iter_mut().zip(&kinds) {
                s.spawn(move |_| *slot = Some(consult(kind, ctx)));
            }
        });
        let mut attempted: Vec<Attempted> = slots
            .into_iter()
            .map(|s| s.expect("portfolio member completed")) // lint: allow(no-panic): the scope barrier filled every portfolio slot
            .collect();
        let best = attempted
            .iter()
            .enumerate()
            .filter(|(_, a)| a.attempt.valid)
            .filter_map(|(i, a)| a.outcome.as_ref().map(|o| (o.assignment.num_colors(), i)))
            .min()
            .map(|(_, i)| i);
        let attempts: Vec<BackendAttempt> = attempted.iter().map(|a| a.attempt.clone()).collect();
        match best {
            Some(i) => {
                let winner = attempted[i].attempt.backend;
                let outcome = attempted
                    .swap_remove(i)
                    .outcome
                    .expect("winner has an outcome"); // lint: allow(no-panic): the winner was selected among attempts that all carry outcomes
                Ok(build_solution(ctx, winner, outcome, attempts))
            }
            // No member produced a valid coloring: surface the first
            // runtime error, or report that nothing was applicable.
            None => Err(attempted
                .into_iter()
                .find_map(|a| a.error)
                .unwrap_or(CoreError::NoApplicableBackend)),
        }
    }
}

/// Lazily solving iterator returned by [`SolveSession::solve_stream`].
pub struct SolveStream<'s, I: Iterator<Item = Instance>> {
    session: &'s SolveSession,
    source: I,
    window: usize,
    ready: VecDeque<Result<Solution, CoreError>>,
}

impl<I: Iterator<Item = Instance>> SolveStream<'_, I> {
    /// Pull one window from the source and fan it out onto the pool.
    fn refill(&mut self) {
        let window: Vec<Instance> = self.source.by_ref().take(self.window).collect();
        if window.is_empty() {
            return;
        }
        let mut slots: Vec<Option<Result<Solution, CoreError>>> =
            window.iter().map(|_| None).collect();
        let session = self.session;
        rayon::scope(|s| {
            for (slot, inst) in slots.iter_mut().zip(&window) {
                s.spawn(move |_| *slot = Some(solve_isolated(session, &inst.graph, &inst.family)));
            }
        });
        self.ready
            // lint: allow(no-panic): the scope barrier filled every stream slot
            .extend(slots.into_iter().map(|r| r.expect("stream task completed")));
    }
}

impl<I: Iterator<Item = Instance>> Iterator for SolveStream<'_, I> {
    type Item = Result<Solution, CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.ready.is_empty() {
            self.refill();
        }
        self.ready.pop_front()
    }
}

// ---------------------------------------------------------------------------
// Backend orchestration internals
// ---------------------------------------------------------------------------

/// One consulted backend: the provenance record plus (when it ran to
/// completion) its outcome or (when it failed) its error.
struct Attempted {
    attempt: BackendAttempt,
    outcome: Option<BackendOutcome>,
    error: Option<CoreError>,
}

/// Consult a backend with full isolation: declines and failures (including
/// panics) become provenance records instead of propagating.
fn consult(kind: BackendKind, ctx: &InstanceContext<'_>) -> Attempted {
    let b = backend(kind);
    if let Some(reason) = b.unsupported(ctx) {
        return Attempted {
            attempt: BackendAttempt {
                backend: kind,
                lower_bound: ctx.load,
                upper_bound: None,
                valid: false,
                note: Some(reason),
            },
            outcome: None,
            error: None,
        };
    }
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.run(ctx)))
        .unwrap_or_else(|payload| Err(CoreError::SolverPanic(panic_message(payload.as_ref()))));
    match run {
        Ok(outcome) => Attempted {
            attempt: record(kind, ctx, &outcome),
            outcome: Some(outcome),
            error: None,
        },
        Err(e) => Attempted {
            attempt: BackendAttempt {
                backend: kind,
                lower_bound: ctx.load,
                upper_bound: None,
                valid: false,
                note: Some(e.to_string()),
            },
            outcome: None,
            error: Some(e),
        },
    }
}

/// Run a backend whose errors should propagate (Auto / Pinned paths).
fn run_required(
    kind: BackendKind,
    ctx: &InstanceContext<'_>,
) -> Result<(BackendAttempt, BackendOutcome), CoreError> {
    let outcome = backend(kind).run(ctx)?;
    Ok((record(kind, ctx, &outcome), outcome))
}

/// Provenance record for a completed run, including the `certify`-backed
/// validity re-check (independent of the backend's own bookkeeping).
fn record(
    kind: BackendKind,
    ctx: &InstanceContext<'_>,
    outcome: &BackendOutcome,
) -> BackendAttempt {
    let valid = certify::is_conflict_free(ctx.graph, ctx.family, &outcome.assignment);
    BackendAttempt {
        backend: kind,
        lower_bound: outcome.lower_bound.max(ctx.load),
        upper_bound: Some(outcome.assignment.num_colors()),
        valid,
        note: None,
    }
}

/// Assemble the final [`Solution`], pooling lower bounds across every
/// attempt (each is a valid bound on `w`, whichever backend proved it).
fn build_solution(
    ctx: &InstanceContext<'_>,
    winner: BackendKind,
    outcome: BackendOutcome,
    attempts: Vec<BackendAttempt>,
) -> Solution {
    let num_colors = outcome.assignment.num_colors();
    let best_lower = attempts
        .iter()
        .map(|a| a.lower_bound)
        .chain([outcome.lower_bound, ctx.load])
        .max()
        .unwrap_or(ctx.load);
    Solution {
        num_colors,
        assignment: outcome.assignment,
        load: ctx.load,
        optimal: outcome.optimal || num_colors == best_lower,
        class: ctx.class,
        strategy: winner,
        attempts,
        decomposition: None,
        resolve: None,
    }
}

/// The single backend [`Policy::Auto`] would lead with for this context's
/// class — the per-shard-selection shortcut
/// ([`SolveRequest::per_shard_backend`]): a shard's class pins its backend
/// directly, skipping the full Auto dispatch.
fn auto_shard_backend(ctx: &InstanceContext<'_>) -> BackendKind {
    match ctx.class {
        DagClass::InternalCycleFree => BackendKind::Theorem1,
        DagClass::UppSingleCycle => BackendKind::Theorem6,
        DagClass::UppMultiCycle { .. } | DagClass::General { .. } => {
            if backend(BackendKind::Exact).unsupported(ctx).is_none() {
                BackendKind::Exact
            } else {
                BackendKind::Dsatur
            }
        }
    }
}

/// Merge per-shard solutions into one whole-instance [`Solution`] with a
/// shared palette.
///
/// Shard palettes are normalized to dense `0..k` before writing back, so
/// the merged span is exactly the maximum over shard spans (the chromatic
/// number of a disjoint union is the max over its components — merging
/// loses nothing). Properness is structural: colors can only collide
/// across shards, and cross-shard dipaths never conflict.
///
/// Generic over [`Borrow<Solution>`] so the incremental engine can merge
/// its cached shard solutions by reference — a re-merge after a mutation
/// batch never deep-clones the clean shards.
pub(crate) fn merge_shards<S: std::borrow::Borrow<Solution>>(
    ctx: &InstanceContext<'_>,
    shards: Vec<(Vec<PathId>, S)>,
) -> Solution {
    let summary = fold_shards(shards.iter().map(|(_, sol)| sol.borrow()))
        .expect("decomposed solve has at least one shard"); // lint: allow(no-panic): decomposition plans always contain at least one shard
    let mut colors = vec![usize::MAX; ctx.family.len()];
    let mut attempts = Vec::new();
    let mut reports = Vec::with_capacity(shards.len());
    // One palette map reused across shards (cleared per shard): same
    // first-appearance numbering as `WavelengthAssignment::normalized`,
    // without materializing a normalized copy per shard.
    let mut palette: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for (original_ids, sol) in shards {
        let sol = sol.borrow();
        palette.clear();
        for (local, &orig) in original_ids.iter().enumerate() {
            let raw = sol.assignment.color(PathId::from_index(local));
            let next = palette.len();
            colors[orig.index()] = *palette.entry(raw).or_insert(next);
        }
        attempts.extend(sol.attempts.iter().cloned());
        reports.push(ShardOutcome {
            paths: original_ids.len(),
            class: sol.class,
            strategy: sol.strategy,
            num_colors: sol.num_colors,
            load: sol.load,
            optimal: sol.optimal,
            attempts: sol.attempts.clone(),
            members: original_ids,
        });
    }
    debug_assert!(
        colors.iter().all(|&c| c != usize::MAX),
        "components partition the family"
    );
    let assignment = WavelengthAssignment::new(colors);
    // Shadow re-certification (debug builds only): audit the *merged*
    // assignment with the same independent oracle tests use, so a bad
    // merge (palette collision across shards, rank/id mix-up) dies here
    // with a certificate instead of surfacing as a wrong answer later.
    // `cfg!` keeps the block type-checked; release builds compile it out.
    if cfg!(debug_assertions) {
        let cert = crate::certify::certify_assignment(ctx.graph, ctx.family, &assignment);
        debug_assert!(
            cert.conflict_free,
            "merged assignment has an arc conflict: {cert:?}"
        );
        debug_assert_eq!(
            cert.colors_used, summary.span,
            "merged span diverged from max shard span: {cert:?}"
        );
    }
    Solution {
        assignment,
        num_colors: summary.span,
        // Every arc's users live in exactly one shard, so the whole-
        // instance load (already on the context) is the max shard load.
        load: ctx.load,
        optimal: summary.optimal,
        class: ctx.class,
        strategy: summary.strategy,
        attempts,
        decomposition: Some(std::sync::Arc::new(Decomposition { shards: reports })),
        resolve: None,
    }
}

/// The summary a decomposed solve reports, folded over its shard
/// solutions in canonical shard order by [`fold_shards`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShardSummary {
    /// The merged span: the maximum shard span.
    pub(crate) span: usize,
    /// The winning backend of the first shard attaining the merged span.
    pub(crate) strategy: Strategy,
    /// Every shard optimal, or the merged span meets the best shard lower
    /// bound.
    pub(crate) optimal: bool,
}

/// Fold shard solutions, in canonical shard order, into the merged
/// summary — the one copy of the rule that [`merge_shards`] and the
/// workspace's table snapshot both apply. `None` for zero shards.
pub(crate) fn fold_shards<'a>(
    shards: impl IntoIterator<Item = &'a Solution>,
) -> Option<ShardSummary> {
    let mut span = 0usize;
    let mut best_lower = 0usize;
    let mut strategy: Option<Strategy> = None;
    let mut all_optimal = true;
    for sol in shards {
        // The merged strategy tag: winner of the first shard attaining the
        // merged span (strictly-greater update keeps the earliest).
        if strategy.is_none() || sol.num_colors > span {
            strategy = Some(sol.strategy);
        }
        span = span.max(sol.num_colors);
        // Each shard's lower bound is a bound on the whole chromatic
        // number (the union contains the shard as an induced subgraph).
        let shard_lower = sol
            .attempts
            .iter()
            .map(|a| a.lower_bound)
            .max()
            .unwrap_or(sol.load);
        best_lower = best_lower.max(shard_lower);
        all_optimal &= sol.optimal;
    }
    strategy.map(|strategy| ShardSummary {
        span,
        strategy,
        // Max of per-shard optima is the optimum of the union.
        optimal: all_optimal || span == best_lower,
    })
}

/// One batch/stream instance with panic isolation: a panic anywhere inside
/// `solve` is caught and converted to [`CoreError::SolverPanic`] so one
/// poisoned instance cannot take down the rest of the sweep.
fn solve_isolated(
    session: &SolveSession,
    g: &dagwave_graph::Digraph,
    family: &DipathFamily,
) -> Result<Solution, CoreError> {
    run_isolated(|| session.solve(g, family))
}

/// The catch_unwind-to-[`CoreError::SolverPanic`] conversion, factored out
/// so the panic path itself is unit-testable.
fn run_isolated(f: impl FnOnce() -> Result<Solution, CoreError>) -> Result<Solution, CoreError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        // `.as_ref()`, not `&payload`: a `&Box<dyn Any>` would itself
        // unsize-coerce to `&dyn Any` and hide the real payload.
        .unwrap_or_else(|payload| Err(CoreError::SolverPanic(panic_message(payload.as_ref()))))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Adapt a [`ConflictGraph`] to the coloring toolkit's [`UGraph`].
pub fn conflict_to_ugraph(cg: &ConflictGraph) -> UGraph {
    let adj: Vec<Vec<u32>> = (0..cg.vertex_count())
        .map(|i| cg.neighbors(PathId::from_index(i)).to_vec())
        .collect();
    UGraph::from_sorted_adjacency(adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::{Digraph, VertexId};
    use dagwave_paths::Dipath;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn path(g: &Digraph, route: &[usize]) -> Dipath {
        let route: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
        Dipath::from_vertices(g, &route).unwrap()
    }

    fn general_instance() -> (Digraph, DipathFamily) {
        // Guarded diamond: internal cycle, not UPP.
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 4), (1, 3), (3, 4), (4, 5)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[1, 2, 4]),
            path(&g, &[1, 3, 4]),
            path(&g, &[3, 4, 5]),
        ]);
        (g, f)
    }

    #[test]
    fn dispatches_theorem1_on_tree() {
        let g = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[0, 1, 3]),
            path(&g, &[1, 2]),
        ]);
        let sol = SolveSession::auto().solve(&g, &f).unwrap();
        assert_eq!(sol.strategy, Strategy::Theorem1);
        assert!(sol.optimal);
        assert_eq!(sol.num_colors, sol.load);
        assert!(sol.assignment.is_valid(&g, &f));
        assert_eq!(sol.attempts.len(), 1);
        assert_eq!(sol.attempts[0].backend, BackendKind::Theorem1);
        assert!(sol.attempts[0].valid);
        assert_eq!(sol.attempts[0].upper_bound, Some(sol.num_colors));
        assert_eq!(
            SolveSession::auto().guaranteed_bound(&g, &f),
            Some(sol.load)
        );
    }

    #[test]
    fn dispatches_theorem6_on_single_cycle_upp() {
        // Single-arc dipaths over the crossing pattern.
        let g = from_edges(
            8,
            &[
                (0, 2),
                (1, 3),
                (2, 4),
                (2, 5),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 7),
            ],
        );
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 2, 4, 6]),
            path(&g, &[1, 3, 5, 7]),
            path(&g, &[2, 5]),
            path(&g, &[3, 4]),
        ]);
        let sol = SolveSession::auto().solve(&g, &f).unwrap();
        assert_eq!(sol.strategy, Strategy::Theorem6);
        assert!(sol.assignment.is_valid(&g, &f));
        // Provenance: theorem6 ran, weighted was consulted and declined
        // (no duplicated dipaths in this family).
        assert_eq!(sol.attempts.len(), 2);
        assert_eq!(sol.attempts[1].backend, BackendKind::Weighted);
        assert!(sol.attempts[1].note.is_some());
        let bound = SolveSession::auto().guaranteed_bound(&g, &f).unwrap();
        assert!(sol.num_colors <= bound);
    }

    #[test]
    fn dispatches_exact_on_general_dag() {
        let (g, f) = general_instance();
        let sol = SolveSession::auto().solve(&g, &f).unwrap();
        assert_eq!(sol.strategy, Strategy::Exact);
        assert!(sol.optimal);
        assert!(sol.assignment.is_valid(&g, &f));
        assert!(sol.num_colors >= sol.load);
        assert_eq!(SolveSession::auto().guaranteed_bound(&g, &f), None);
    }

    #[test]
    fn dsatur_fallback_on_large_conflict_graph() {
        let (g, f) = general_instance();
        let f = f.replicate(30); // 120 paths > exact_limit
        let sol = SolveSession::auto().solve(&g, &f).unwrap();
        assert_eq!(sol.strategy, Strategy::Dsatur);
        assert!(sol.assignment.is_valid(&g, &f));
        assert!(sol.num_colors >= sol.load);
    }

    #[test]
    fn pinned_runs_exactly_that_backend() {
        let (g, f) = general_instance();
        for kind in [
            BackendKind::Dsatur,
            BackendKind::GreedyNatural,
            BackendKind::GreedyLargestFirst,
            BackendKind::GreedySmallestLast,
            BackendKind::KempeGreedy,
            BackendKind::Exact,
        ] {
            let sol = SolveSession::builder()
                .pinned(kind)
                .build()
                .solve(&g, &f)
                .unwrap();
            assert_eq!(sol.strategy, kind);
            assert!(sol.assignment.is_valid(&g, &f), "{kind}");
            assert_eq!(sol.attempts.len(), 1);
            assert!(sol.attempts[0].valid, "{kind}");
        }
    }

    #[test]
    fn pinned_unsupported_backend_errors() {
        let (g, f) = general_instance();
        let err = SolveSession::builder()
            .pinned(BackendKind::Theorem1)
            .build()
            .solve(&g, &f)
            .unwrap_err();
        match err {
            CoreError::BackendUnsupported { backend, reason } => {
                assert_eq!(backend, BackendKind::Theorem1);
                assert!(reason.contains("internal-cycle-free"), "{reason}");
            }
            other => panic!("expected BackendUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn portfolio_keeps_fewest_colors_deterministically() {
        let (g, f) = general_instance();
        let session = SolveSession::builder()
            .portfolio(vec![
                BackendKind::GreedyNatural,
                BackendKind::Dsatur,
                BackendKind::KempeGreedy,
                BackendKind::Exact,
            ])
            .build();
        let sol = session.solve(&g, &f).unwrap();
        assert!(sol.assignment.is_valid(&g, &f));
        assert_eq!(sol.attempts.len(), 4);
        // The winner's color count is the minimum over every attempt.
        let min = sol
            .attempts
            .iter()
            .filter_map(|a| a.upper_bound)
            .min()
            .unwrap();
        assert_eq!(sol.num_colors, min);
        // Every member of this portfolio produced a certified coloring.
        assert!(sol.attempts.iter().all(|a| a.valid));
        // Deterministic: repeated runs pick the same winner & assignment.
        let again = session.solve(&g, &f).unwrap();
        assert_eq!(again.strategy, sol.strategy);
        assert_eq!(again.assignment.colors(), sol.assignment.colors());
    }

    #[test]
    fn empty_portfolio_races_all_applicable_backends() {
        let (g, f) = general_instance();
        let sol = SolveSession::builder()
            .portfolio(vec![])
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(sol.assignment.is_valid(&g, &f));
        // Theorem1/Theorem6/Weighted don't apply here; the six others do.
        assert_eq!(sol.attempts.len(), 6);
        assert!(
            sol.optimal,
            "exact is in the pool, so the result is optimal"
        );
    }

    #[test]
    fn portfolio_of_unsupported_members_reports_no_applicable_backend() {
        let (g, f) = general_instance();
        let err = SolveSession::builder()
            .portfolio(vec![BackendKind::Theorem1, BackendKind::Theorem6])
            .build()
            .solve(&g, &f)
            .unwrap_err();
        assert_eq!(err, CoreError::NoApplicableBackend);
    }

    #[test]
    fn rejects_cyclic_input() {
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        let f = DipathFamily::new();
        assert!(matches!(
            SolveSession::auto().solve(&g, &f),
            Err(CoreError::NotADag(_))
        ));
    }

    #[test]
    fn empty_family_on_any_class() {
        let g = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let sol = SolveSession::auto()
            .solve(&g, &DipathFamily::new())
            .unwrap();
        assert_eq!(sol.num_colors, 0);
        assert_eq!(sol.load, 0);
        assert!(sol.optimal);
    }

    #[test]
    fn batch_solving_matches_individual() {
        let g1 = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let f1 = DipathFamily::from_paths(vec![path(&g1, &[0, 1, 2]), path(&g1, &[0, 1, 3])]);
        let g2 = from_edges(3, &[(0, 1), (1, 2)]);
        let f2 = DipathFamily::from_paths(vec![path(&g2, &[0, 1, 2])]).replicate(4);
        let session = SolveSession::auto();
        let batch = session.solve_batch(&[(&g1, &f1), (&g2, &f2)]);
        assert_eq!(batch.len(), 2);
        let s1 = batch[0].as_ref().unwrap();
        let s2 = batch[1].as_ref().unwrap();
        assert_eq!(s1.num_colors, session.solve(&g1, &f1).unwrap().num_colors);
        assert_eq!(s2.num_colors, 4);
    }

    #[test]
    fn batch_isolates_panics_per_instance() {
        // A healthy instance passes through untouched...
        let g = from_edges(2, &[(0, 1)]);
        let f = DipathFamily::new();
        let session = SolveSession::auto();
        assert!(super::solve_isolated(&session, &g, &f).is_ok());
        // ...and an actually panicking solve is converted to SolverPanic
        // (the same run_isolated path solve_batch's tasks go through),
        // for both &str and String payloads.
        match super::run_isolated(|| panic!("poisoned instance")) {
            Err(CoreError::SolverPanic(msg)) => assert_eq!(msg, "poisoned instance"),
            other => panic!("expected SolverPanic, got {other:?}"),
        }
        match super::run_isolated(|| panic!("{} of {}", 3, 7)) {
            Err(CoreError::SolverPanic(msg)) => assert_eq!(msg, "3 of 7"),
            other => panic!("expected SolverPanic, got {other:?}"),
        }
        let payload: Box<dyn std::any::Any + Send> = Box::new(7usize);
        assert_eq!(
            super::panic_message(payload.as_ref()),
            "non-string panic payload"
        );
    }

    #[test]
    fn batch_output_order_matches_input_order() {
        // Many instances with distinct answers: the result vector must line
        // up index-for-index with the inputs however tasks were scheduled.
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let session = SolveSession::auto();
        let families: Vec<DipathFamily> = (1..=12)
            .map(|h| DipathFamily::from_paths(vec![path(&g, &[0, 1, 2])]).replicate(h))
            .collect();
        let instances: Vec<_> = families.iter().map(|f| (&g, f)).collect();
        let batch = session.solve_batch(&instances);
        for (i, sol) in batch.iter().enumerate() {
            assert_eq!(sol.as_ref().unwrap().num_colors, i + 1, "instance {i}");
        }
    }

    #[test]
    fn batch_reports_errors_per_instance() {
        let good = from_edges(2, &[(0, 1)]);
        let bad = from_edges(2, &[(0, 1), (1, 0)]);
        let f = DipathFamily::new();
        let batch = SolveSession::auto().solve_batch(&[(&good, &f), (&bad, &f)]);
        assert!(batch[0].is_ok());
        assert!(matches!(batch[1], Err(CoreError::NotADag(_))));
    }

    #[test]
    fn stream_matches_batch_and_is_windowed() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let session = SolveSession::auto();
        let families: Vec<DipathFamily> = (1..=25)
            .map(|h| DipathFamily::from_paths(vec![path(&g, &[0, 1, 2])]).replicate(h))
            .collect();
        let slice: Vec<_> = families.iter().map(|f| (&g, f)).collect();
        let batch = session.solve_batch(&slice);
        let streamed: Vec<_> = session
            .solve_stream(families.iter().map(|f| Instance::new(g.clone(), f.clone())))
            .collect();
        assert_eq!(streamed.len(), batch.len());
        for (i, (s, b)) in streamed.iter().zip(&batch).enumerate() {
            let (s, b) = (s.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(s.num_colors, b.num_colors, "instance {i}");
            assert_eq!(s.assignment.colors(), b.assignment.colors());
        }
    }

    #[test]
    fn stream_is_lazy() {
        // The source iterator must not be exhausted up-front: pulling one
        // result consumes at most one window.
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let session = SolveSession::auto();
        let pulled = std::cell::Cell::new(0usize);
        let source = (0..1_000_000).map(|_| {
            pulled.set(pulled.get() + 1);
            Instance::new(
                g.clone(),
                DipathFamily::from_paths(vec![path(&g, &[0, 1, 2])]),
            )
        });
        let mut stream = session.solve_stream(source);
        assert!(stream.next().unwrap().is_ok());
        let window = rayon::current_num_threads().max(1) * 4;
        assert!(
            pulled.get() <= window,
            "pulled {} instances for one result (window {window})",
            pulled.get()
        );
    }

    /// Three conflict components: the guarded diamond family splits in two
    /// ({p0,p1} and {p2,p3} share no arc) and a disjoint chain part adds a
    /// third. Every shard's restricted graph is internal-cycle-free even
    /// though the whole DAG is general — the reclassification win the
    /// decompose stage exists for.
    fn three_component_instance() -> (Digraph, DipathFamily) {
        let (d, df) = general_instance(); // vertices 0..6, arcs 0..6
        let mut g = d.clone();
        // Second part: disjoint chain 6→7→8 with three overlapping paths.
        let v6 = g.add_vertex();
        let v7 = g.add_vertex();
        let v8 = g.add_vertex();
        let a67 = g.add_arc(v6, v7);
        let a78 = g.add_arc(v7, v8);
        let mut paths: Vec<Dipath> = df.iter().map(|(_, p)| p.clone()).collect();
        paths.push(Dipath::from_arcs(&g, vec![a67, a78]).unwrap());
        paths.push(Dipath::from_arcs(&g, vec![a67]).unwrap());
        paths.push(Dipath::from_arcs(&g, vec![a78]).unwrap());
        (g, DipathFamily::from_paths(paths))
    }

    #[test]
    fn decomposed_solve_merges_with_shared_palette() {
        let (g, f) = three_component_instance();
        let session = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build();
        let sol = session.solve(&g, &f).unwrap();
        assert!(sol.assignment.is_valid(&g, &f));
        let d = sol.decomposition.as_ref().expect("decomposed solve");
        assert_eq!(d.shard_count(), 3);
        // Merged span = max over shards (shared palette).
        let max_shard = d.shards.iter().map(|s| s.num_colors).max().unwrap();
        assert_eq!(sol.num_colors, max_shard);
        assert_eq!(sol.num_colors, sol.assignment.num_colors());
        // Every shard's restricted graph drops the arcs that made the
        // whole DAG general: all three reclassify as internal-cycle-free
        // and solve via Theorem 1, so the merged solve is provably optimal.
        assert_eq!(d.class_histogram(), vec![(DagClass::InternalCycleFree, 3)]);
        assert!(d
            .shards
            .iter()
            .all(|s| s.strategy == Strategy::Theorem1 && s.optimal));
        assert!(sol.optimal);
        // Whole-instance stats survive the merge.
        assert_eq!(sol.load, dagwave_paths::load::max_load(&g, &f));
        assert_eq!(sol.class, crate::internal::classify(&g));
        // Flattened provenance matches the per-shard records.
        let flat: usize = d.shards.iter().map(|s| s.attempts.len()).sum();
        assert_eq!(sol.attempts.len(), flat);
        assert_eq!(d.largest_shard(), 3);
    }

    #[test]
    fn decomposed_never_worse_than_monolithic_auto() {
        let (g, f) = three_component_instance();
        let mono = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Off)
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(mono.decomposition.is_none());
        let dec = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(dec.num_colors <= mono.num_colors);
    }

    #[test]
    fn decomposition_composes_with_pinned_and_portfolio() {
        let (g, f) = three_component_instance();
        for policy in [
            Policy::Pinned(BackendKind::Dsatur),
            Policy::Portfolio(vec![BackendKind::Dsatur, BackendKind::KempeGreedy]),
        ] {
            let sol = SolveSession::builder()
                .policy(policy)
                .decompose(crate::DecomposePolicy::Always)
                .build()
                .solve(&g, &f)
                .unwrap();
            assert!(sol.assignment.is_valid(&g, &f));
            assert_eq!(sol.decomposition.unwrap().shard_count(), 3);
        }
    }

    #[test]
    fn auto_decompose_respects_threshold_and_split() {
        let (g, f) = three_component_instance();
        // Above the threshold and split: decomposes.
        let on = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Auto { min_paths: 2 })
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(on.decomposition.is_some());
        // Threshold above the family size: monolithic.
        let off = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Auto { min_paths: 100 })
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(off.decomposition.is_none());
        // Single-component instance: Auto stays monolithic at any size.
        let g1 = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let f1 = DipathFamily::from_paths(vec![
            path(&g1, &[0, 1, 2]),
            path(&g1, &[0, 1, 3]),
            path(&g1, &[1, 2]),
        ]);
        let single = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Auto { min_paths: 1 })
            .build()
            .solve(&g1, &f1)
            .unwrap();
        assert!(single.decomposition.is_none());
        // ...but Always shards even a single component.
        let forced = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build()
            .solve(&g1, &f1)
            .unwrap();
        assert_eq!(forced.decomposition.unwrap().shard_count(), 1);
        assert_eq!(forced.num_colors, single.num_colors);
    }

    #[test]
    fn auto_decompose_skips_the_theorem1_fast_path() {
        // Two disjoint chains: multi-component but internal-cycle-free, so
        // the monolithic Auto solve is already optimal and near-linear.
        let g = from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[1, 2]),
            path(&g, &[3, 4, 5]),
            path(&g, &[4, 5]),
        ]);
        // Auto backend policy: stays monolithic despite the split.
        let auto = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Auto { min_paths: 1 })
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(auto.decomposition.is_none());
        assert_eq!(auto.strategy, Strategy::Theorem1);
        // A pinned heuristic backend still shards (smaller graphs help it).
        let pinned = SolveSession::builder()
            .pinned(BackendKind::Dsatur)
            .decompose(crate::DecomposePolicy::Auto { min_paths: 1 })
            .build()
            .solve(&g, &f)
            .unwrap();
        assert_eq!(pinned.decomposition.unwrap().shard_count(), 2);
        // And Always overrides the fast-path skip.
        let always = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build()
            .solve(&g, &f)
            .unwrap();
        assert_eq!(always.decomposition.unwrap().shard_count(), 2);
        assert_eq!(always.num_colors, auto.num_colors, "both hit π");
    }

    #[test]
    fn decomposed_solve_rejects_cyclic_input_like_monolithic() {
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        let f = DipathFamily::from_paths(vec![Dipath::single(g.find_arc(v(0), v(1)).unwrap())]);
        let err = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build()
            .solve(&g, &f)
            .unwrap_err();
        assert!(matches!(err, CoreError::NotADag(_)));
    }

    #[test]
    fn decomposed_empty_family_falls_back_to_monolithic() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let sol = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build()
            .solve(&g, &DipathFamily::new())
            .unwrap();
        assert_eq!(sol.num_colors, 0);
        assert!(sol.decomposition.is_none());
    }

    #[test]
    fn decomposition_flows_through_batch_and_stream() {
        let (g, f) = three_component_instance();
        let session = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build();
        let single = session.solve(&g, &f).unwrap();
        let batch = session.solve_batch(&[(&g, &f), (&g, &f)]);
        let streamed: Vec<_> = session
            .solve_stream([
                Instance::new(g.clone(), f.clone()),
                Instance::new(g.clone(), f.clone()),
            ])
            .collect();
        for sol in batch.iter().chain(&streamed) {
            let sol = sol.as_ref().unwrap();
            assert_eq!(sol.num_colors, single.num_colors);
            assert_eq!(sol.assignment.colors(), single.assignment.colors());
            assert_eq!(
                sol.decomposition.as_ref().unwrap().shard_count(),
                single.decomposition.as_ref().unwrap().shard_count()
            );
        }
    }

    #[test]
    fn conflict_to_ugraph_preserves_structure() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[1, 2, 3]),
            path(&g, &[2, 3]),
        ]);
        let cg = ConflictGraph::build(&g, &f);
        let ug = conflict_to_ugraph(&cg);
        assert_eq!(ug.vertex_count(), 3);
        assert_eq!(ug.edge_count(), cg.edge_count());
        assert!(ug.has_edge(0, 1));
    }
}
