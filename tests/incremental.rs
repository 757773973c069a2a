//! Incremental re-solve acceptance: after ANY mutation sequence, a
//! `Workspace`'s solution must be bit-identical to a from-scratch
//! `SolveSession::solve` on the mutated instance (live members in
//! ascending stable-id order), across thread budgets 1/2/4 — with
//! `Resolve` provenance showing that untouched shards were actually served
//! from cache, not recomputed.

use dagwave::core::{certify, CoreError};
use dagwave::gen::compose::churn;
use dagwave::paths::{Dipath, DipathFamily, PathId};
use dagwave::{
    BackendKind, DecomposePolicy, Epoch, Mutation, Policy, Resolve, Solution, SolveSession,
    SolverBuilder, Strategy, Workspace,
};
use dagwave_graph::builder::from_edges;
use dagwave_graph::{Digraph, VertexId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The thread budgets every check runs under (no-op on the sequential
/// `--no-default-features` build).
const BUDGETS: [usize; 3] = [1, 2, 4];

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools are infallible")
        .install(f)
}

fn v(i: usize) -> VertexId {
    VertexId::from_index(i)
}

fn path(g: &Digraph, route: &[usize]) -> Dipath {
    let route: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
    Dipath::from_vertices(g, &route).unwrap()
}

fn sharded() -> SolveSession {
    SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .build()
}

/// From-scratch reference on the workspace's current live members.
fn from_scratch(ws: &Workspace) -> Solution {
    let (dense, _) = ws.family().to_dense();
    ws.session()
        .solve(ws.graph(), &dense)
        .expect("reference solve succeeds")
}

/// Bit-identity: assignment, span, strategy, provenance, and (when
/// decomposed) the per-shard records — everything except the
/// workspace-only `resolve` field.
fn assert_identical(incremental: &Solution, scratch: &Solution) {
    assert_eq!(incremental.assignment.colors(), scratch.assignment.colors());
    assert_eq!(incremental.num_colors, scratch.num_colors);
    assert_eq!(incremental.load, scratch.load);
    assert_eq!(incremental.optimal, scratch.optimal);
    assert_eq!(incremental.class, scratch.class);
    assert_eq!(incremental.strategy, scratch.strategy);
    assert_eq!(incremental.attempts, scratch.attempts);
    match (&incremental.decomposition, &scratch.decomposition) {
        (Some(a), Some(b)) => {
            assert_eq!(a.shard_count(), b.shard_count());
            for (x, y) in a.shards.iter().zip(&b.shards) {
                assert_eq!(x.members, y.members);
                assert_eq!(x.paths, y.paths);
                assert_eq!(x.class, y.class);
                assert_eq!(x.strategy, y.strategy);
                assert_eq!(x.num_colors, y.num_colors);
                assert_eq!(x.optimal, y.optimal);
                assert_eq!(x.attempts, y.attempts);
            }
        }
        (None, None) => {}
        other => panic!("decomposition presence diverged: {other:?}"),
    }
    assert!(
        scratch.resolve.is_none(),
        "one-shot solves carry no resolve"
    );
}

/// The admission oracle: `projected_load` runs `apply`'s own validation,
/// so it fails exactly when `apply` (on a copy) does, with an equal error,
/// and otherwise equals the post-apply max `arc_load` over the arcs the
/// batch adds to.
fn assert_projection_exact(ws: &Workspace, batch: &[Mutation]) {
    let mut after = ws.clone();
    match (ws.projected_load(batch), after.apply(batch.to_vec())) {
        (Ok(projected), Ok(_)) => {
            let actual = batch
                .iter()
                .filter_map(|m| match m {
                    Mutation::Add(p) => Some(p.arcs()),
                    Mutation::Remove(_) => None,
                })
                .flatten()
                .map(|&a| after.arc_load(a))
                .max()
                .unwrap_or(0);
            assert_eq!(projected, actual, "projection of {batch:?}");
        }
        (Err(projected), Err(applied)) => assert_eq!(projected, applied),
        (projected, applied) => {
            panic!("projected_load {projected:?} disagrees with apply {applied:?} on {batch:?}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random churn scripts keep the workspace bit-identical to the
    /// from-scratch solve after every step, and the final state matches at
    /// every thread budget.
    #[test]
    fn random_mutation_sequences_match_from_scratch(
        seed in 0u64..10_000,
        k in 2usize..5,
        steps in 1usize..12,
    ) {
        let work = churn(seed, k, steps);
        let mut ws = Workspace::new(
            sharded(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        ).unwrap();
        let mut saw_reuse = false;
        for (i, op) in work.script.iter().enumerate() {
            // The step itself, the step twice (a second `Remove` of one id
            // fails, a second `Add` stacks), and an `Add` retired again in
            // the same batch (its arcs are credited back).
            assert_projection_exact(&ws, std::slice::from_ref(op));
            assert_projection_exact(&ws, &[op.clone(), op.clone()]);
            if let Mutation::Add(_) = op {
                let next = ws.family().next_id();
                assert_projection_exact(&ws, &[op.clone(), Mutation::Remove(next)]);
            }
            ws.apply([op.clone()]).unwrap();
            let incremental = ws.solution().unwrap();
            let scratch = from_scratch(&ws);
            assert_identical(&incremental, &scratch);
            assert_table_snapshot_matches(&mut ws, &incremental, i);
            prop_assert!(certify::is_conflict_free(
                ws.graph(),
                &ws.family().to_dense().0,
                &incremental.assignment,
            ), "step {i} not certified");
            let r = incremental.resolve.expect("workspace stamps resolve");
            saw_reuse |= r.shards_reused > 0;
        }
        // Multi-component instances must actually reuse shards under
        // single-lightpath churn.
        if k >= 2 && !work.script.is_empty() {
            prop_assert!(saw_reuse, "no step reused a shard on {k} components");
        }

        // The final state is bit-identical across thread budgets: replay
        // the whole script under each pool size.
        let reference = ws.solution().unwrap();
        for threads in BUDGETS {
            let colors = with_threads(threads, || {
                let mut ws = Workspace::new(
                    sharded(),
                    work.instance.graph.clone(),
                    work.instance.family.clone(),
                ).unwrap();
                ws.apply(work.script.iter().cloned()).unwrap();
                ws.solution().unwrap().assignment.colors().to_vec()
            });
            prop_assert_eq!(
                colors,
                reference.assignment.colors().to_vec(),
                "{} threads", threads
            );
        }
    }

    /// The delta surface is exact: replaying `delta_since` over any churn
    /// script — syncing after every step — reconstructs precisely the
    /// color table `solution()` reports, at every thread budget, with the
    /// span riding along. The mirror never sees a full solution.
    #[test]
    fn delta_replay_reconstructs_solution_at_every_budget(
        seed in 0u64..10_000,
        k in 2usize..5,
        steps in 1usize..12,
    ) {
        use std::collections::BTreeMap;
        let work = churn(seed, k, steps);
        for threads in BUDGETS {
            with_threads(threads, || {
                let mut ws = Workspace::new(
                    sharded(),
                    work.instance.graph.clone(),
                    work.instance.family.clone(),
                ).unwrap();
                let mut mirror: BTreeMap<dagwave::paths::PathId, u32> = BTreeMap::new();
                let mut synced = dagwave::Epoch::default();
                let sync = |ws: &mut Workspace,
                                mirror: &mut BTreeMap<dagwave::paths::PathId, u32>,
                                synced: &mut dagwave::Epoch| {
                    let d = ws.delta_since(*synced).unwrap();
                    if d.full_resync {
                        mirror.clear();
                    }
                    for id in &d.removed {
                        mirror.remove(id);
                    }
                    for &(id, c) in &d.changes {
                        mirror.insert(id, c);
                    }
                    *synced = d.epoch;
                    d.span
                };
                sync(&mut ws, &mut mirror, &mut synced);
                for op in &work.script {
                    ws.apply([op.clone()]).unwrap();
                    let span = sync(&mut ws, &mut mirror, &mut synced);
                    let sol = ws.solution().unwrap();
                    let expected: BTreeMap<_, _> = ws
                        .family()
                        .dense_ids()
                        .iter()
                        .enumerate()
                        .map(|(rank, &id)| {
                            let c = sol.assignment.colors()[rank] as u32;
                            (id, c)
                        })
                        .collect();
                    prop_assert_eq!(&mirror, &expected, "{} threads", threads);
                    prop_assert_eq!(span, sol.num_colors, "{} threads", threads);
                }
            });
        }
    }

    /// The decompose gate is shared: under the *default* Auto policy
    /// (threshold 512, fast-path skips) the workspace and the one-shot
    /// path must make the same shard/monolithic decision and agree
    /// bit-for-bit.
    #[test]
    fn default_session_gate_parity(seed in 0u64..1_000, steps in 1usize..8) {
        let work = churn(seed, 3, steps);
        let mut ws = Workspace::new(
            SolveSession::auto(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        ).unwrap();
        ws.apply(work.script.iter().cloned()).unwrap();
        let incremental = ws.solution().unwrap();
        let scratch = from_scratch(&ws);
        assert_identical(&incremental, &scratch);
        assert_table_snapshot_matches(&mut ws, &incremental, steps);
    }
}

/// Chain 0→1→2→3→4 with two arc-disjoint paths; the bridge [1,2,3] merges
/// them into one component, and removing it splits them again.
fn bridge_instance() -> (Digraph, DipathFamily) {
    let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let f = DipathFamily::from_paths(vec![path(&g, &[0, 1, 2]), path(&g, &[2, 3, 4])]);
    (g, f)
}

#[test]
fn mutation_that_merges_two_shards() {
    let (g, f) = bridge_instance();
    let mut ws = Workspace::new(sharded(), g.clone(), f).unwrap();
    assert_eq!(ws.shard_count(), 2);
    ws.solution().unwrap();

    let bridge = ws.add_path(path(&g, &[1, 2, 3])).unwrap();
    assert_eq!(ws.shard_count(), 1, "bridge merged both components");
    let merged = ws.solution().unwrap();
    let r = merged.resolve.unwrap();
    assert_eq!(r.shards_resolved, 1);
    assert_eq!(r.shards_reused, 0, "both old shards were consumed");
    assert_identical(&merged, &from_scratch(&ws));
    assert_eq!(merged.num_colors, 2, "bridge conflicts with both chains");

    // And the inverse mutation splits the shard again.
    ws.remove_path(bridge).unwrap();
    assert_eq!(ws.shard_count(), 2);
    let split = ws.solution().unwrap();
    assert_identical(&split, &from_scratch(&ws));
    assert_eq!(split.num_colors, 1, "disjoint chains need one wavelength");
}

#[test]
fn mutation_that_splits_a_shard_keeps_others_cached() {
    // Two regions: the bridge-chain (vertices 0..5) and a disjoint chain
    // 5→6→7 whose shard must stay cached through the split.
    let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]);
    let f = DipathFamily::from_paths(vec![
        path(&g, &[0, 1, 2]),
        path(&g, &[2, 3, 4]),
        path(&g, &[1, 2, 3]), // the bridge: one merged component
        path(&g, &[5, 6, 7]),
        path(&g, &[6, 7]),
    ]);
    let mut ws = Workspace::new(sharded(), g, f).unwrap();
    assert_eq!(ws.shard_count(), 2);
    ws.solution().unwrap();

    ws.remove_path(dagwave::paths::PathId(2)).unwrap();
    assert_eq!(ws.shard_count(), 3, "bridge removal splits the region");
    let sol = ws.solution().unwrap();
    let r = sol.resolve.unwrap();
    assert_eq!(r.shards_resolved, 2, "both split halves recompute");
    assert_eq!(
        r.shards_reused, 1,
        "the disjoint chain is served from cache"
    );
    assert_identical(&sol, &from_scratch(&ws));
}

#[test]
fn remove_to_empty_shard_and_to_empty_family() {
    let (g, f) = bridge_instance();
    let mut ws = Workspace::new(sharded(), g, f).unwrap();
    ws.solution().unwrap();

    // Empty out the second component entirely: its shard disappears.
    ws.remove_path(dagwave::paths::PathId(1)).unwrap();
    assert_eq!(ws.shard_count(), 1);
    let sol = ws.solution().unwrap();
    let r = sol.resolve.unwrap();
    assert_eq!(
        (r.shards_reused, r.shards_resolved),
        (1, 0),
        "survivor cached"
    );
    assert_identical(&sol, &from_scratch(&ws));

    // Empty family: the decompose gate falls back to the monolithic path,
    // exactly as from-scratch does.
    ws.remove_path(dagwave::paths::PathId(0)).unwrap();
    assert_eq!(ws.shard_count(), 0);
    let empty = ws.solution().unwrap();
    assert_eq!(empty.num_colors, 0);
    assert!(empty.decomposition.is_none());
    assert_identical(&empty, &from_scratch(&ws));

    // And the instance can repopulate afterwards.
    let g = ws.graph().clone();
    ws.add_path(path(&g, &[0, 1, 2])).unwrap();
    assert_identical(&ws.solution().unwrap(), &from_scratch(&ws));
}

#[test]
fn arena_reuse_survives_remove_and_readd() {
    // Arena edge case: retiring a dipath and re-admitting the identical
    // arc sequence must hit the interner (the arena never forgets), keep
    // the distinct-list count flat, and leave the delta surface consistent
    // — the re-added path reports the same color a from-scratch solve
    // gives it.
    let (g, f) = bridge_instance();
    let mut ws = Workspace::new(sharded(), g.clone(), f).unwrap();
    ws.solution().unwrap();
    let lists_before = ws.stats().interned_arc_lists;
    let hits_before = ws.stats().intern_hits;
    let epoch_before = ws.epoch();
    let color_before = ws.color_of(dagwave::paths::PathId(1)).unwrap();

    ws.remove_path(dagwave::paths::PathId(1)).unwrap();
    let readded = ws.add_path(path(&g, &[2, 3, 4])).unwrap();
    let stats = ws.stats();
    assert_eq!(
        stats.interned_arc_lists, lists_before,
        "identical arc sequence must not grow the arena"
    );
    assert!(
        stats.intern_hits > hits_before,
        "re-admission is an interner hit"
    );

    let sol = ws.solution().unwrap();
    assert_identical(&sol, &from_scratch(&ws));
    assert_eq!(readded, dagwave::paths::PathId(1), "freed slot is reused");
    assert_eq!(
        ws.color_of(readded).unwrap(),
        color_before,
        "identical path in the identical slot keeps its color"
    );
    // ... which means the delta is silent about it: the remove+re-add
    // round trip cancels out instead of churning downstream mirrors.
    let delta = ws.delta_since(epoch_before).unwrap();
    assert!(!delta.full_resync, "one step back is covered by the log");
    assert!(
        !delta.removed.contains(&readded) && !delta.changes.iter().any(|&(id, _)| id == readded),
        "no-op round trip must not appear in the delta"
    );
}

#[test]
fn per_shard_backend_selection_pins_by_class() {
    // Federated mixes classes; with per-shard selection every shard's
    // strategy is exactly the backend its class pins.
    let inst = dagwave::gen::compose::federated(8);
    let session = SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .per_shard_backend(true)
        .build();
    let sol = session.solve(&inst.graph, &inst.family).unwrap();
    assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
    let d = sol.decomposition.as_ref().expect("sharded");
    assert_eq!(d.shard_count(), 8);
    for s in &d.shards {
        let expected = match s.class {
            dagwave::core::internal::DagClass::InternalCycleFree => Strategy::Theorem1,
            dagwave::core::internal::DagClass::UppSingleCycle => Strategy::Theorem6,
            _ => Strategy::Exact, // figure shards are small enough for exact
        };
        assert_eq!(s.strategy, expected, "shard class {}", s.class);
        // Exactly one backend consulted per shard — no weighted rescue.
        assert_eq!(s.attempts.len(), 1, "class {}", s.class);
    }
    // Same span as the full Auto dispatch on this family (no shard here
    // depends on the weighted rescue).
    let auto = SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .build()
        .solve(&inst.graph, &inst.family)
        .unwrap();
    assert_eq!(sol.num_colors, auto.num_colors);
    // And the incremental invariant holds under the knob too.
    let per_shard_session = SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .per_shard_backend(true)
        .build();
    let mut ws =
        Workspace::new(per_shard_session, inst.graph.clone(), inst.family.clone()).unwrap();
    let work = churn(5, 8, 6);
    ws.apply(work.script.iter().cloned()).unwrap();
    assert_identical(&ws.solution().unwrap(), &from_scratch(&ws));
}

#[test]
fn shard_members_attribute_paths_without_union_find() {
    // The small-fix satellite: Solution::decomposition now carries the
    // shard→PathId membership, consistent with conflict_components.
    let inst = dagwave::gen::compose::federated(5);
    let sol = sharded().solve(&inst.graph, &inst.family).unwrap();
    let d = sol.decomposition.as_ref().unwrap();
    let comps = dagwave::paths::conflict_components(&inst.graph, &inst.family);
    assert_eq!(d.shard_count(), comps.len());
    for (s, c) in d.shards.iter().zip(&comps) {
        assert_eq!(&s.members, c);
        assert_eq!(s.paths, c.len());
    }
    // shard_of agrees with the recorded membership.
    for (i, c) in comps.iter().enumerate() {
        for &p in c {
            assert_eq!(d.shard_of(p), Some(i));
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-index regressions: the workspace keys its shards by smallest member
// and maps every live slot to its shard's key. Each scenario below moves
// that index in a different way and is checked, after every batch and at
// every thread budget, against a from-scratch solve and a mirror rebuilt
// only from `delta_since`.
// ---------------------------------------------------------------------------

/// One scripted step's outcome: the refresh's `Resolve`, or the error it
/// surfaced.
type StepOutcome = Result<Resolve, CoreError>;

/// Open a workspace on `(g, f)` and apply `batches` one at a time, at
/// every thread budget. Before the first batch and after each one,
/// `solution()` must be bit-identical to the from-scratch solve (or fail
/// with the same error, which `delta_since` and `table_snapshot` must
/// replay too), a mirror fed only by `delta_since` must equal the
/// solution's color table, and `table_snapshot` must equal the solution.
/// Returns the outcome of the initial state followed by one per batch,
/// asserted identical across budgets.
fn run_checked(
    session: &SolveSession,
    g: &Digraph,
    f: &DipathFamily,
    batches: &[Vec<Mutation>],
) -> Vec<StepOutcome> {
    let runs: Vec<Vec<StepOutcome>> = BUDGETS
        .iter()
        .map(|&threads| {
            with_threads(threads, || {
                let mut ws = Workspace::new(session.clone(), g.clone(), f.clone()).unwrap();
                let mut mirror: BTreeMap<PathId, u32> = BTreeMap::new();
                let mut synced = Epoch::default();
                let mut outcomes = Vec::new();
                for i in 0..=batches.len() {
                    if i > 0 {
                        ws.apply(batches[i - 1].iter().cloned()).unwrap();
                    }
                    let (dense, _) = ws.family().to_dense();
                    let scratch = ws.session().solve(ws.graph(), &dense);
                    let outcome = match ws.solution() {
                        Ok(sol) => {
                            assert_identical(&sol, &scratch.expect("scratch agrees"));
                            let d = ws.delta_since(synced).unwrap();
                            if d.full_resync {
                                mirror.clear();
                            }
                            for id in &d.removed {
                                mirror.remove(id);
                            }
                            mirror.extend(d.changes.iter().copied());
                            synced = d.epoch;
                            let table: BTreeMap<PathId, u32> = ws
                                .family()
                                .dense_ids()
                                .iter()
                                .zip(sol.assignment.colors())
                                .map(|(&id, &c)| (id, c as u32))
                                .collect();
                            assert_eq!(mirror, table, "batch {i}, {threads} threads");
                            assert_eq!(d.span, sol.num_colors, "batch {i}");
                            assert_table_snapshot_matches(&mut ws, &sol, i);
                            Ok(sol.resolve.expect("workspace stamps resolve"))
                        }
                        Err(e) => {
                            assert_eq!(scratch.err(), Some(e.clone()), "batch {i}");
                            assert_eq!(ws.delta_since(synced).err(), Some(e.clone()));
                            assert_eq!(
                                ws.table_snapshot().err(),
                                Some(e.clone()),
                                "batch {i}: the table snapshot fails like solution()"
                            );
                            Err(e)
                        }
                    };
                    outcomes.push(outcome);
                }
                outcomes
            })
        })
        .collect();
    for (run, threads) in runs.iter().zip(BUDGETS).skip(1) {
        assert_eq!(run, &runs[0], "{threads} threads vs 1");
    }
    runs.into_iter().next().expect("at least one budget")
}

/// `table_snapshot()` must report exactly what the `solution()` oracle
/// does: the five summary fields, and `iter_live()` equal to the live ids
/// (ascending) zipped with the assignment's colors.
fn assert_table_snapshot_matches(ws: &mut Workspace, sol: &Solution, batch: usize) {
    let snap = ws.table_snapshot().expect("solution() succeeded");
    assert_eq!(snap.num_colors, sol.num_colors, "batch {batch}");
    assert_eq!(snap.load, sol.load, "batch {batch}");
    assert_eq!(snap.optimal, sol.optimal, "batch {batch}");
    assert_eq!(snap.strategy, sol.strategy, "batch {batch}");
    assert_eq!(
        snap.shard_count,
        sol.decomposition.as_ref().map_or(1, |d| d.shard_count()),
        "batch {batch}"
    );
    let live: Vec<(PathId, u32)> = snap
        .table
        .iter_live()
        .map(|(slot, c)| (PathId::from_index(slot), c))
        .collect();
    let expected: Vec<(PathId, u32)> = ws
        .family()
        .dense_ids()
        .iter()
        .zip(sol.assignment.colors())
        .map(|(&id, &c)| (id, c as u32))
        .collect();
    assert_eq!(live, expected, "batch {batch}");
}

fn resolved(reused: usize, resolved: usize) -> StepOutcome {
    Ok(Resolve {
        shards_reused: reused,
        shards_resolved: resolved,
    })
}

/// Two arc-disjoint chains, two paths each: shard `{0, 1}` on 0→1→2 and
/// shard `{2, 3}` on 3→4→5.
fn two_chains() -> (Digraph, DipathFamily) {
    let g = from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let f = DipathFamily::from_paths(vec![
        path(&g, &[0, 1, 2]),
        path(&g, &[1, 2]),
        path(&g, &[3, 4, 5]),
        path(&g, &[4, 5]),
    ]);
    (g, f)
}

#[test]
fn removing_a_shards_smallest_member_rekeys_it() {
    let (g, f) = two_chains();
    let outcomes = run_checked(
        &sharded(),
        &g,
        &f,
        &[
            // Shard {0, 1} loses its key and lives on as {1}…
            vec![Mutation::Remove(PathId(0))],
            // …which an addition must still find by its new key: slot 0
            // is reused and joins it, so the shard is keyed 0 again.
            vec![Mutation::Add(path(&g, &[0, 1, 2]))],
            // The other shard's key member goes too, leaving {3} alone.
            vec![Mutation::Remove(PathId(2))],
            vec![Mutation::Add(path(&g, &[4, 5]))],
        ],
    );
    assert_eq!(
        outcomes,
        vec![
            resolved(0, 2),
            resolved(1, 1),
            resolved(1, 1),
            resolved(1, 1),
            resolved(1, 1),
        ]
    );
    let mut ws = Workspace::new(sharded(), g.clone(), f).unwrap();
    ws.remove_path(PathId(0)).unwrap();
    assert_eq!(
        ws.components(),
        vec![vec![PathId(1)], vec![PathId(2), PathId(3)]]
    );
}

#[test]
fn one_add_bridging_two_shards_merges_them() {
    let (g, f) = bridge_instance();
    let outcomes = run_checked(
        &sharded(),
        &g,
        &f,
        &[vec![Mutation::Add(path(&g, &[1, 2, 3]))]],
    );
    assert_eq!(outcomes, vec![resolved(0, 2), resolved(0, 1)]);
}

#[test]
fn a_removal_splitting_a_shard_indexes_both_halves() {
    // The bridge (id 2) holds {0, 1, 2} together; a disjoint chain {3, 4}
    // stays cached throughout. Removing the bridge splits its shard, and
    // each half must then be found again by a later addition.
    let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]);
    let f = DipathFamily::from_paths(vec![
        path(&g, &[0, 1, 2]),
        path(&g, &[2, 3, 4]),
        path(&g, &[1, 2, 3]),
        path(&g, &[5, 6, 7]),
        path(&g, &[6, 7]),
    ]);
    let outcomes = run_checked(
        &sharded(),
        &g,
        &f,
        &[
            vec![Mutation::Remove(PathId(2))],
            vec![Mutation::Add(path(&g, &[3, 4]))],
        ],
    );
    assert_eq!(
        outcomes,
        vec![resolved(0, 2), resolved(1, 2), resolved(2, 1)]
    );
}

#[test]
fn remove_and_readd_of_one_slot_in_one_batch_resolves_nothing() {
    let (g, f) = two_chains();
    let outcomes = run_checked(
        &sharded(),
        &g,
        &f,
        &[
            vec![
                Mutation::Remove(PathId(0)),
                Mutation::Add(path(&g, &[0, 1, 2])),
            ],
            // The same round trip on the other shard's key member.
            vec![
                Mutation::Remove(PathId(2)),
                Mutation::Add(path(&g, &[3, 4, 5])),
            ],
        ],
    );
    assert_eq!(
        outcomes,
        vec![resolved(0, 2), resolved(2, 0), resolved(2, 0)]
    );
}

#[test]
fn additions_past_the_slot_table_can_be_removed_by_their_own_batch() {
    // Both additions take fresh slots (4 and 5) that no shard has held, and
    // the batch retires the second again before it ever joins a shard.
    let (g, f) = two_chains();
    let outcomes = run_checked(
        &sharded(),
        &g,
        &f,
        &[vec![
            Mutation::Add(path(&g, &[3, 4, 5])),
            Mutation::Add(path(&g, &[3, 4, 5])),
            Mutation::Remove(PathId(5)),
        ]],
    );
    assert_eq!(outcomes, vec![resolved(0, 2), resolved(1, 1)]);
}

#[test]
fn auto_threshold_crossings_repatch_the_table() {
    // Pinned backend, so the Auto gate turns on the size threshold and the
    // component count alone: 5 live paths shard, 4 solve monolithically.
    // Each crossing back up re-solves only the shard the mutation touched,
    // and the cached one must then be re-patched over the monolithic
    // coloring the table holds, not left as it was.
    let session = SolverBuilder::new()
        .policy(Policy::Pinned(BackendKind::Dsatur))
        .decompose(DecomposePolicy::Auto { min_paths: 5 })
        .build();
    let g = from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let f = DipathFamily::from_paths(vec![
        path(&g, &[0, 1, 2]),
        path(&g, &[1, 2]),
        path(&g, &[4, 5]),
        path(&g, &[3, 4, 5]),
        path(&g, &[3, 4]),
    ]);
    let outcomes = run_checked(
        &session,
        &g,
        &f,
        &[
            vec![Mutation::Remove(PathId(0))],
            vec![Mutation::Add(path(&g, &[0, 1, 2]))],
            vec![Mutation::Remove(PathId(4))],
            vec![Mutation::Add(path(&g, &[3, 4]))],
        ],
    );
    assert_eq!(
        outcomes,
        vec![
            resolved(0, 2),
            resolved(0, 1),
            resolved(1, 1),
            resolved(0, 1),
            resolved(1, 1),
        ]
    );
}

#[test]
fn first_failing_shard_in_canonical_order_wins_until_removed() {
    // Pinned Theorem 1 fails on every shard outside its class, with the
    // class in the error: the crossing C4 (part 0, UPP single cycle) and
    // Figure 3's C5 (part 1, general) fail differently, the chain (part 2)
    // solves. Retiring the failing parts in order must surface, each time,
    // the error of the first failing shard left — then success.
    let chain = {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let family = DipathFamily::from_paths(vec![path(&g, &[0, 1, 2]), path(&g, &[1, 2])]);
        dagwave::gen::Instance {
            graph: g,
            family,
            name: "chain".into(),
        }
    };
    let inst = dagwave::gen::compose::disjoint_union(&[
        dagwave::gen::figures::crossing_c4(),
        dagwave::gen::figures::figure3(),
        chain,
    ]);
    let session = SolverBuilder::new()
        .policy(Policy::Pinned(BackendKind::Theorem1))
        .decompose(DecomposePolicy::Always)
        .build();
    let parts = Workspace::new(session.clone(), inst.graph.clone(), inst.family.clone())
        .unwrap()
        .components();
    assert_eq!(parts.len(), 3);
    let retire = |part: &Vec<PathId>| part.iter().map(|&id| Mutation::Remove(id)).collect();
    let outcomes = run_checked(
        &session,
        &inst.graph,
        &inst.family,
        &[retire(&parts[0]), retire(&parts[1])],
    );
    let (first, second) = match (&outcomes[0], &outcomes[1]) {
        (Err(a), Err(b)) => (a, b),
        other => panic!("both failing parts must fail: {other:?}"),
    };
    assert_ne!(first, second, "the two failing classes report differently");
    assert_eq!(outcomes[2], resolved(1, 0), "the chain shard stays cached");
}

#[test]
fn decompose_off_serves_table_snapshots_from_the_monolithic_solve() {
    // Never sharded: every refresh is one monolithic solve, and the table
    // snapshot's summary is read off it (shard count 1) while the
    // workspace still tracks two components.
    let session = SolverBuilder::new().decompose(DecomposePolicy::Off).build();
    let (g, f) = two_chains();
    let outcomes = run_checked(
        &session,
        &g,
        &f,
        &[
            vec![Mutation::Remove(PathId(0))],
            vec![Mutation::Add(path(&g, &[0, 1, 2]))],
            vec![
                Mutation::Add(path(&g, &[3, 4, 5])),
                Mutation::Remove(PathId(3)),
            ],
            vec![Mutation::Remove(PathId(2)), Mutation::Remove(PathId(1))],
        ],
    );
    assert_eq!(outcomes, vec![resolved(0, 1); 5]);
    let mut ws = Workspace::new(session, g, f).unwrap();
    assert_eq!(ws.shard_count(), 2);
    assert_eq!(ws.table_snapshot().unwrap().shard_count, 1);
}
