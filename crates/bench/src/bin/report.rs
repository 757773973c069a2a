//! Regenerates every paper-vs-measured number (the EXPERIMENTS.md data)
//! in one run, without Criterion timing overhead, and maintains the
//! persistent benchmark record in `EXPERIMENTS.md`.
//!
//! Modes:
//!
//! * (no args) — print the paper-vs-measured table;
//! * `--speedup` — run the comparison suite (the four pool-backed hot
//!   paths sequential-vs-parallel, plus decomposed-vs-monolithic solving
//!   on the federated multi-component family) and print the ratio table;
//! * `--churn`, `--service`, `--connections` — run only the D3, D4 or D6
//!   rows, with their in-row assertions;
//! * `--experiments [path]` — regenerate the paper table and the speedup
//!   table, rewrite the corresponding sections of `EXPERIMENTS.md`
//!   (default path), and append a line to its run history;
//! * `--baseline [path]` — measure the timing suite and (re)write the
//!   committed wall-clock baseline section;
//! * `--check [path]` — re-measure and compare against the committed
//!   baseline; exits non-zero if any op regressed by more than 20 %
//!   (override with `DAGWAVE_BENCH_TOLERANCE`, a fraction). Timings are
//!   normalized by a fixed arithmetic calibration loop measured on both
//!   sides, which absorbs most machine-speed differences between the
//!   committing host and CI.
//!
//! Run with: `cargo run -p dagwave-bench --bin report --release [-- MODE]`

use dagwave_bench::peak_rss_cell;
use dagwave_core::theorem1::{self, KempeStrategy, PeelOrder};
use dagwave_core::{
    bounds, internal, theorem6, DecomposePolicy, Epoch, Mutation, SolveSession, SolverBuilder,
    Workspace,
};
use dagwave_gen::{compose, figures, havet, random, theorem2};
use dagwave_graph::reach;
use dagwave_paths::{load, ConflictGraph, PathFamily};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Captures every table row so `--experiments` can persist what was printed.
static SINK: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn row(exp: &str, param: &str, claimed: &str, measured: &str) {
    let line = format!("| {exp} | {param} | {claimed} | {measured} |");
    println!("{line}");
    SINK.lock().unwrap().push(line);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = |i: usize| {
        args.get(i)
            .cloned()
            .unwrap_or_else(|| "EXPERIMENTS.md".to_string())
    };
    match args.first().map(|s| s.as_str()) {
        None => paper_report(),
        Some("--speedup") => {
            let comps = speedup_suite();
            print!("{}", speedup_table(&comps));
        }
        Some("--service") => service_row(),
        Some("--connections") => connections_row(),
        Some("--churn") => churn_rows(),
        Some("--experiments") => write_experiments(&path(1)),
        Some("--baseline") => write_baseline(&path(1)),
        Some("--check") => {
            if !check_regression(&path(1)) {
                std::process::exit(1);
            }
        }
        Some(other) => {
            eprintln!(
                "unknown mode {other:?}; expected --speedup, --service, \
                 --connections, --churn, --experiments, --baseline, or --check"
            );
            std::process::exit(2);
        }
    }
}

/// The paper-vs-measured table (also fills [`SINK`]).
fn paper_report() {
    println!("# dagwave experiment report\n");
    println!("| experiment | parameters | paper claim | measured |");
    println!("|------------|------------|-------------|----------|");

    // F1 — Figure 1 staircase.
    for k in [2usize, 4, 8, 12, 16, 24] {
        let inst = figures::staircase(k);
        let sol = SolveSession::auto()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        row(
            "F1 staircase",
            &format!("k={k}"),
            "π=2, w=k (unbounded ratio)",
            &format!("π={}, w={}", sol.load, sol.num_colors),
        );
    }

    // F2 — Figure 2 cycle taxonomy.
    row(
        "F2 oriented cycle (2a)",
        "diamond",
        "not internal (source+sink on cycle)",
        &format!(
            "internal cycles = {}",
            internal::internal_cycle_count(&figures::oriented_cycle_demo())
        ),
    );
    row(
        "F2 internal cycle (2b)",
        "guarded diamond",
        "internal (all vertices interior)",
        &format!(
            "internal cycles = {}",
            internal::internal_cycle_count(&figures::internal_cycle_demo())
        ),
    );

    // F3 — Figure 3.
    {
        let inst = figures::figure3();
        let sol = SolveSession::auto()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        row(
            "F3 C5 instance",
            "5 dipaths",
            "π=2, w=3 (conflict graph C5)",
            &format!("π={}, w={}", sol.load, sol.num_colors),
        );
    }

    // F4 — obstruction walk on Figure 3 (the proof's case C).
    {
        let inst = figures::figure3();
        match theorem1::color_optimal(&inst.graph, &inst.family) {
            Err(dagwave_core::CoreError::InternalCycleObstruction { chain }) => row(
                "F4 recoloring walk",
                "figure-3 family",
                "cascade blocked ⇒ internal cycle",
                &format!(
                    "chain of {} dipaths; witness cycle of {} arcs",
                    chain.len(),
                    internal::find_internal_cycle(&inst.graph).map_or(0, |c| c.len())
                ),
            ),
            other => row(
                "F4 recoloring walk",
                "figure-3 family",
                "blocked",
                &format!("{other:?}"),
            ),
        }
    }

    // F5 — Figure 5 / Theorem 2 generalized.
    for k in [2usize, 4, 8, 16] {
        let inst = figures::theorem2_family(k);
        let sol = SolveSession::auto()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        row(
            "F5 odd-cycle family",
            &format!("k={k}, 2k+1={} dipaths", 2 * k + 1),
            "π=2, w=3",
            &format!("π={}, w={}", sol.load, sol.num_colors),
        );
    }

    // Theorem 2 witness on arbitrary internal cycles.
    for (name, g) in [
        ("figure-3 graph", figures::figure3().graph),
        ("havet graph", havet::havet_graph()),
        ("fig-5 k=5 graph", figures::theorem2_family(5).graph),
    ] {
        let fam = theorem2::witness_family(&g).unwrap();
        let sol = SolveSession::auto().solve(&g, &fam).unwrap();
        row(
            "T2 generic witness",
            name,
            "π=2, w=3 on any internal cycle",
            &format!("π={}, w={}", load::max_load(&g, &fam), sol.num_colors),
        );
    }

    // F8 — crossing lemma C4.
    {
        let inst = figures::crossing_c4();
        let cg = dagwave_paths::ConflictGraph::build(&inst.graph, &inst.family);
        row(
            "F8 crossing pattern",
            "4 dipaths",
            "conflict graph C4, UPP legal",
            &format!(
                "edges={}, UPP={}",
                cg.edge_count(),
                dagwave_graph::pathcount::is_upp(&inst.graph)
            ),
        );
    }

    // F9 / Theorem 7 — Havet series.
    for h in 1..=6usize {
        let inst = havet::havet(h);
        let sol = SolveSession::auto()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        row(
            "F9/T7 Havet",
            &format!("h={h}"),
            &format!("π=2h={}, w=⌈8h/3⌉={}", 2 * h, bounds::havet_wavelengths(h)),
            &format!(
                "π={}, w={} (ratio {:.3}; ⌈4π/3⌉={})",
                sol.load,
                sol.num_colors,
                sol.num_colors as f64 / sol.load as f64,
                bounds::theorem6_bound(sol.load)
            ),
        );
    }

    // T1 — Theorem 1 scaling.
    for &(n, paths) in &[(100usize, 400usize), (400, 3000), (800, 8000)] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let g = random::random_internal_cycle_free(&mut rng, n, n / 4);
        let family = random::random_family(&mut rng, &g, paths, 6);
        let pi = load::max_load(&g, &family);
        let t0 = Instant::now();
        let res = theorem1::color_optimal(&g, &family).unwrap();
        let dt = t0.elapsed();
        assert!(res.assignment.is_valid(&g, &family));
        row(
            "T1 scaling",
            &format!("n={n}, |P|={paths}"),
            "w=π, polynomial",
            &format!(
                "w={}=π={pi}, {} swaps, {:.1} ms",
                res.assignment.num_colors(),
                res.kempe_swaps,
                dt.as_secs_f64() * 1e3
            ),
        );
    }

    // T6 — Theorem 6 on random duplicate-free single-cycle UPP instances.
    for &(k, count) in &[(2usize, 12usize), (4, 30), (8, 80), (16, 200)] {
        let mut rng = ChaCha8Rng::seed_from_u64(k as u64);
        let g = random::single_cycle_upp(k);
        let raw = random::random_family(&mut rng, &g, count, 4);
        let mut seen = std::collections::HashSet::new();
        let family: dagwave_paths::DipathFamily = raw
            .iter()
            .filter(|(_, p)| seen.insert(p.arcs().to_vec()))
            .map(|(_, p)| p.clone())
            .collect();
        let res = theorem6::color_single_cycle_upp(&g, &family).unwrap();
        row(
            "T6 split/merge",
            &format!("k={k}, |P|={}", family.len()),
            "w ≤ ⌈4π/3⌉",
            &format!(
                "π={}, w={}, bound={}, within={}",
                res.load,
                res.assignment.num_colors(),
                res.bound,
                res.within_bound
            ),
        );
    }

    // B1 — baselines.
    {
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        let g = random::random_internal_cycle_free(&mut rng, 80, 20);
        let family = random::random_family(&mut rng, &g, 200, 5);
        let pi = load::max_load(&g, &family);
        let cg = dagwave_paths::ConflictGraph::build(&g, &family);
        let ug = dagwave_core::solver::conflict_to_ugraph(&cg);
        use dagwave_color::{dsatur, greedy};
        row(
            "B1 baselines",
            "n=80, |P|=200",
            "theorem1 = π ≤ heuristics",
            &format!(
                "π={pi}, t1={}, dsatur={}, greedy-nat={}, greedy-sl={}",
                theorem1::color_optimal(&g, &family)
                    .unwrap()
                    .assignment
                    .num_colors(),
                dsatur::dsatur_color_count(&ug),
                greedy::greedy_color_count(&ug, greedy::Order::Natural),
                greedy::greedy_color_count(&ug, greedy::Order::SmallestLast),
            ),
        );
    }

    // B2 — solver portfolio over every applicable backend.
    {
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let g = random::random_internal_cycle_free(&mut rng, 60, 15);
        let family = random::random_family(&mut rng, &g, 150, 5);
        let session = SolverBuilder::new().portfolio(vec![]).build();
        let sol = session.solve(&g, &family).unwrap();
        assert!(sol.assignment.is_valid(&g, &family));
        let attempts: Vec<String> = sol
            .attempts
            .iter()
            .map(|a| {
                let colors = a.upper_bound.map_or("—".to_string(), |c| c.to_string());
                format!("{}={colors}", a.backend)
            })
            .collect();
        row(
            "B2 portfolio",
            &format!("class {}, |P|={}", sol.class, family.len()),
            "winner = min over backends",
            &format!(
                "winner {} w={} [{}]",
                sol.strategy,
                sol.num_colors,
                attempts.join(", ")
            ),
        );
    }

    // D1 — decompose-solve-merge on the federated (multi-component) family.
    for k in [4usize, 16, 48] {
        let inst = compose::federated(k);
        let sol = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        let d = sol.decomposition.as_ref().expect("federated solve shards");
        assert_eq!(d.shard_count(), k, "one shard per glued figure");
        let max_shard = d.shards.iter().map(|s| s.num_colors).max().unwrap();
        assert_eq!(sol.num_colors, max_shard, "merged span = max over shards");
        let classes: Vec<String> = d
            .class_histogram()
            .iter()
            .map(|(c, n)| format!("{c}×{n}"))
            .collect();
        row(
            "D1 federated decomposition",
            &format!("k={k}, |P|={}", inst.family.len()),
            "shards=k, span=max shard",
            &format!(
                "shards={}, largest={}, w={}, optimal={}, classes[{}], peakRSS={} MiB",
                d.shard_count(),
                d.largest_shard(),
                sol.num_colors,
                sol.optimal,
                classes.join(", "),
                peak_rss_cell()
            ),
        );
    }

    // D2 — incremental re-solve on the churn workload: a persistent
    // Workspace applies the mutation script one step at a time, and only
    // the shards each mutation touches are recomputed.
    {
        let work = compose::churn(7, 16, 12);
        let session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();
        let mut ws = Workspace::new(
            session.clone(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        )
        .expect("churn instance is a DAG");
        ws.solution().unwrap();
        let (mut reused, mut resolved) = (0usize, 0usize);
        let mut final_w = 0usize;
        for op in &work.script {
            ws.apply([op.clone()]).unwrap();
            let sol = ws.solution().unwrap();
            let r = sol.resolve.expect("workspace stamps resolve");
            reused += r.shards_reused;
            resolved += r.shards_resolved;
            final_w = sol.num_colors;
        }
        // The headline invariant, asserted while the row is generated.
        let (dense, _) = ws.family().to_dense();
        let scratch = session.solve(ws.graph(), &dense).unwrap();
        assert_eq!(
            ws.solution().unwrap().assignment.colors(),
            scratch.assignment.colors(),
            "workspace must be bit-identical to from-scratch"
        );
        row(
            "D2 incremental churn",
            &format!("churn(16), {} steps", work.script.len()),
            "mutations recolor only touched shards",
            &format!(
                "shards reused Σ={reused}, resolved Σ={resolved}, w={final_w}, \
                 = from-scratch, peakRSS={} MiB",
                peak_rss_cell()
            ),
        );
    }

    // D3 — million-path throughput, full-snapshot and delta paths.
    churn_rows();

    // D4 — the service layer under concurrent writers: a loopback TCP
    // server over the same incremental engine, 8 writer connections
    // mutating tenant 0 while a reader forces re-solves. Gated in-row:
    // the final served solution must be bit-identical to from-scratch
    // (every writer retires exactly what it admitted, so the check is
    // order-independent), and the single-writer actor must coalesce —
    // absorb more client batches than it issues `Workspace::apply` calls.
    service_row();

    // D6 — connection scaling: 8 vs 128 concurrent connections, gated on
    // bit-identity and the server's OS-thread ceiling.
    connections_row();

    // D5 — the O(dirty) query side: after each churn step, a delta query
    // (`Workspace::delta_since`) must stay flat as the instance grows —
    // within 1.5× of the k=256 tier at k=4096 — and at the large tier it
    // must be ≥5× cheaper than materializing the full `Solution` the same
    // step. Gated in-row on both ratios plus bit-identity: the mirror
    // built ONLY from replayed deltas equals the full solution's color
    // table at every step, and the from-scratch solve at the end. Beside
    // them it times `table_snapshot()`, the served `Query` path, against
    // `solution()` and asserts the two agree in-row (no timing gate).
    {
        use std::collections::BTreeMap;
        const DELTA_REPS: u32 = 64;
        let steps = 8usize;
        let mut delta_us_per_k = Vec::new();
        let mut rows = Vec::new();
        for k in [256usize, 4096] {
            let work = compose::churn(13, k, steps);
            let session = SolverBuilder::new()
                .decompose(DecomposePolicy::Always)
                .build();
            let mut ws = Workspace::new(
                session.clone(),
                work.instance.graph.clone(),
                work.instance.family.clone(),
            )
            .expect("churn instance is a DAG");
            // Initial sync: epoch 0 is covered from the first refresh, so
            // the mirror bootstraps through the same API clients use.
            let mut mirror: BTreeMap<dagwave_paths::PathId, u32> = BTreeMap::new();
            let mut synced = dagwave_core::Epoch::default();
            let replay = |mirror: &mut BTreeMap<dagwave_paths::PathId, u32>,
                          d: &dagwave_core::SolutionDelta| {
                if d.full_resync {
                    mirror.clear();
                }
                for id in &d.removed {
                    mirror.remove(id);
                }
                for &(id, c) in &d.changes {
                    mirror.insert(id, c);
                }
            };
            let first = ws.delta_since(synced).expect("initial sync");
            replay(&mut mirror, &first);
            synced = first.epoch;

            let (mut delta_us, mut full_us, mut table_us) = (0.0f64, 0.0f64, 0.0f64);
            let mut identical = true;
            for op in &work.script {
                ws.apply([op.clone()]).unwrap();
                // The O(dirty) re-solve itself is paid once here, untimed:
                // D3 gates it. D5 times only the query side behind it.
                ws.span().unwrap();
                let t0 = Instant::now();
                let mut d = None;
                for _ in 0..DELTA_REPS {
                    d = Some(black_box(ws.delta_since(synced).unwrap()));
                }
                delta_us += t0.elapsed().as_secs_f64() * 1e6 / DELTA_REPS as f64;
                let d = d.expect("at least one rep");
                replay(&mut mirror, &d);
                synced = d.epoch;

                let t0 = Instant::now();
                let mut snap = None;
                for _ in 0..DELTA_REPS {
                    snap = Some(black_box(ws.table_snapshot().unwrap()));
                }
                table_us += t0.elapsed().as_secs_f64() * 1e6 / DELTA_REPS as f64;
                let snap = snap.expect("at least one rep");

                let t0 = Instant::now();
                let sol = ws.solution().unwrap();
                full_us += t0.elapsed().as_secs_f64() * 1e6;
                let expected: BTreeMap<dagwave_paths::PathId, u32> = ws
                    .family()
                    .dense_ids()
                    .iter()
                    .zip(sol.assignment.colors())
                    .map(|(&id, &c)| (id, c as u32))
                    .collect();
                identical &= mirror == expected && d.span == sol.num_colors;
                let listed: BTreeMap<dagwave_paths::PathId, u32> = snap
                    .table
                    .iter_live()
                    .map(|(slot, c)| (dagwave_paths::PathId::from_index(slot), c))
                    .collect();
                assert!(
                    listed == expected
                        && snap.num_colors == sol.num_colors
                        && snap.load == sol.load
                        && snap.optimal == sol.optimal
                        && snap.strategy == sol.strategy
                        && Some(snap.shard_count)
                            == sol.decomposition.as_ref().map(|d| d.shard_count()),
                    "table snapshot diverged from solution() (k={k})"
                );
            }
            assert!(
                identical,
                "delta-replayed mirror diverged from the full solution (k={k})"
            );
            // End-of-script anchor: the mirror equals a from-scratch solve
            // of the mutated instance, not just the workspace's view.
            let (dense, _) = ws.family().to_dense();
            let scratch = session.solve(ws.graph(), &dense).unwrap();
            let scratch_table: BTreeMap<dagwave_paths::PathId, u32> = ws
                .family()
                .dense_ids()
                .iter()
                .zip(scratch.assignment.colors())
                .map(|(&id, &c)| (id, c as u32))
                .collect();
            assert_eq!(
                mirror, scratch_table,
                "delta-replayed mirror diverged from from-scratch (k={k})"
            );

            let delta_avg = delta_us / steps as f64;
            let full_avg = full_us / steps as f64;
            let table_avg = table_us / steps as f64;
            if k == 4096 {
                assert!(
                    full_avg / delta_avg.max(1e-9) >= 5.0,
                    "delta query must be ≥5× cheaper than full materialization \
                     at k=4096: {delta_avg:.1} µs vs {full_avg:.1} µs"
                );
            }
            delta_us_per_k.push(delta_avg);
            rows.push((
                k,
                work.instance.family.len(),
                delta_avg,
                full_avg,
                table_avg,
            ));
        }
        let growth = delta_us_per_k[1] / delta_us_per_k[0].max(1e-9);
        assert!(
            growth <= 1.5,
            "per-query delta latency must stay flat in |P|: \
             {:.1} µs at k=256 vs {:.1} µs at k=4096 ({growth:.2}×)",
            delta_us_per_k[0],
            delta_us_per_k[1]
        );
        for (k, paths, delta_avg, full_avg, table_avg) in rows {
            row(
                "D5 delta query path",
                &format!("churn({k}), |P|={paths}, {steps} steps"),
                "flat in |P| (≤1.5×), ≥5× vs full, bit-identical",
                &format!(
                    "delta {delta_avg:.1} µs/query vs full {full_avg:.1} µs \
                     ({:.0}×), growth {growth:.2}×, table snapshot \
                     {table_avg:.1} µs ({:.0}× below full), mirror = solution \
                     = table snapshot = scratch, peakRSS={} MiB",
                    full_avg / delta_avg.max(1e-9),
                    full_avg / table_avg.max(1e-9),
                    peak_rss_cell()
                ),
            );
        }
    }

    // A1/A2 — ablations.
    {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let g = random::random_internal_cycle_free(&mut rng, 300, 80);
        let family = random::random_family(&mut rng, &g, 2000, 6);
        for order in [PeelOrder::Fifo, PeelOrder::Lifo, PeelOrder::MinId] {
            let t0 = Instant::now();
            let res =
                theorem1::color_optimal_with(&g, &family, order, KempeStrategy::ComponentSwap)
                    .unwrap();
            row(
                "A1 peel order",
                &format!("{order:?}"),
                "w=π for all orders",
                &format!(
                    "w={}, swaps={}, {:.1} ms",
                    res.assignment.num_colors(),
                    res.kempe_swaps,
                    t0.elapsed().as_secs_f64() * 1e3
                ),
            );
        }
        for strat in [KempeStrategy::ComponentSwap, KempeStrategy::Cascade] {
            let t0 = Instant::now();
            let res = theorem1::color_optimal_with(&g, &family, PeelOrder::Fifo, strat).unwrap();
            row(
                "A2 kempe strategy",
                &format!("{strat:?}"),
                "w=π for both",
                &format!(
                    "w={}, swaps={}, {:.1} ms",
                    res.assignment.num_colors(),
                    res.kempe_swaps,
                    t0.elapsed().as_secs_f64() * 1e3
                ),
            );
        }
    }

    println!("\nAll rows verified by assertions during generation.");
}

// ---------------------------------------------------------------------------
// Sequential-vs-parallel comparison suite
// ---------------------------------------------------------------------------

/// One hot path measured both ways. Construction goes through
/// [`Comparison::checked`], so a row existing implies its stated invariant
/// (bit-identical outputs for the seq-vs-par rows; span-and-certification
/// for the decomposition row) was verified during measurement.
struct Comparison {
    op: &'static str,
    size: String,
    seq_ms: f64,
    par_ms: f64,
    invariant: &'static str,
}

impl Comparison {
    /// Build a bit-identity row, asserting the invariant the table reports.
    fn checked(op: &'static str, size: String, seq_ms: f64, par_ms: f64, identical: bool) -> Self {
        Self::invariant_checked(op, size, seq_ms, par_ms, identical, "bit-identical")
    }

    /// Build a row with an arbitrary verified invariant.
    fn invariant_checked(
        op: &'static str,
        size: String,
        seq_ms: f64,
        par_ms: f64,
        holds: bool,
        invariant: &'static str,
    ) -> Self {
        assert!(holds, "{op}: invariant `{invariant}` violated");
        Comparison {
            op,
            size,
            seq_ms,
            par_ms,
            invariant,
        }
    }

    fn ratio(&self) -> f64 {
        self.seq_ms / self.par_ms.max(1e-9)
    }
}

/// D3 — million-path throughput: per-step incremental cost is bounded by
/// the dirty shards (O(dirty)), not the instance (O(|P|)). Measured as
/// per-step latency of a persistent Workspace vs a from-scratch solve
/// after every step, at two instance scales; the incremental side must
/// stay ≥10× cheaper at the large scale and the remove+re-add scenario
/// must adopt its old shard from the fingerprint reuse pool.
///
/// The delta path is what a served client rides: `apply` then
/// `delta_since` per step, no snapshot materialized. Its per-step cost
/// must stay within 2× while |P| grows 16× — every O(shards) or O(live)
/// pass left in a churn step shows up here — and it must re-solve exactly
/// the shards the snapshot path does, with the same per-step spans.
/// Also runnable alone as `report --churn`.
fn churn_rows() {
    let steps = 8usize;
    let reps = 3usize;
    // Best of more reps on the delta path: its per-step cost is tens of
    // microseconds, so its growth ratio needs the quieter minimum.
    let delta_reps = 5usize;
    let mut inc_per_step = Vec::new();
    let mut scratch_per_step = Vec::new();
    let mut delta_rows = Vec::new();
    for k in [256usize, 4096] {
        let work = compose::churn(13, k, steps);
        let session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();

        let (scratch_ms, scratch_spans) = time_ms_with(reps, || {
            let mut mirror = PathFamily::from_family(&work.instance.family);
            let mut spans = Vec::with_capacity(steps);
            for op in &work.script {
                match op {
                    Mutation::Remove(id) => {
                        mirror.remove(*id).expect("script ids are live");
                    }
                    Mutation::Add(p) => {
                        mirror.insert(p.clone());
                    }
                }
                let (dense, _) = mirror.to_dense();
                spans.push(
                    session
                        .solve(&work.instance.graph, &dense)
                        .unwrap()
                        .num_colors,
                );
            }
            spans
        });
        // Steady state: a service mutates an already-open,
        // already-solved workspace, so construction, the initial full
        // solve and the final drop stay outside the timed region — one
        // pre-solved workspace is handed to each rep and parked after it
        // (dropping a k=4096 workspace costs ~10 ms, more than a step).
        let mut pool: Vec<Workspace> = (0..reps)
            .map(|_| {
                let mut ws = Workspace::new(
                    session.clone(),
                    work.instance.graph.clone(),
                    work.instance.family.clone(),
                )
                .expect("churn instance is a DAG");
                ws.solution().unwrap();
                ws
            })
            .collect();
        let mut done = Vec::with_capacity(reps.max(delta_reps));
        let (inc_ms, (inc_spans, resolved)) = time_ms_with(reps, || {
            let mut ws = pool.pop().expect("one pre-solved workspace per rep");
            let mut spans = Vec::with_capacity(steps);
            let mut resolved = 0usize;
            for op in &work.script {
                ws.apply([op.clone()]).unwrap();
                let sol = ws.solution().unwrap();
                resolved += sol
                    .resolve
                    .expect("workspace stamps resolve")
                    .shards_resolved;
                spans.push(sol.num_colors);
            }
            done.push(ws);
            (spans, resolved)
        });
        done.clear();
        assert_eq!(inc_spans, scratch_spans, "per-step spans agree (k={k})");
        // The truly flat quantity: how many shards actually re-solve
        // per step is bounded by what the mutation touched, at every
        // scale.
        assert!(
            resolved <= 2 * steps,
            "O(dirty) solve work per step (k={k}): {resolved} re-solves over {steps} steps"
        );
        inc_per_step.push(inc_ms / steps as f64);
        scratch_per_step.push(scratch_ms / steps as f64);

        // The delta path, from the same steady state: one pre-solved,
        // synced workspace per rep, parked after it.
        let mut pool: Vec<(Workspace, Epoch)> = (0..delta_reps)
            .map(|_| {
                let mut ws = Workspace::new(
                    session.clone(),
                    work.instance.graph.clone(),
                    work.instance.family.clone(),
                )
                .expect("churn instance is a DAG");
                let synced = ws.delta_since(Epoch::default()).unwrap().epoch;
                (ws, synced)
            })
            .collect();
        let (delta_ms, (delta_spans, delta_resolved)) = time_ms_with(delta_reps, || {
            let (mut ws, mut synced) = pool.pop().expect("one synced workspace per rep");
            let before = ws.stats().shards_resolved;
            let mut spans = Vec::with_capacity(steps);
            for op in &work.script {
                ws.apply([op.clone()]).unwrap();
                let d = ws.delta_since(synced).unwrap();
                synced = d.epoch;
                spans.push(d.span);
            }
            let resolved = ws.stats().shards_resolved - before;
            done.push(ws);
            (spans, resolved)
        });
        done.clear();
        assert_eq!(delta_spans, scratch_spans, "delta-path spans (k={k})");
        assert_eq!(
            delta_resolved, resolved,
            "the delta path re-solves exactly the snapshot path's shards (k={k})"
        );
        delta_rows.push((k, work.instance.family.len(), delta_ms * 1e3 / steps as f64));

        // The remove+re-add scenario: identical content reconstitutes
        // the shard, so the fingerprint pool adopts its solve and
        // nothing recomputes.
        let mut ws = Workspace::new(
            session.clone(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        )
        .expect("churn instance is a DAG");
        ws.solution().unwrap();
        let victim = ws.family().ids().next().expect("family is non-empty");
        let copy = ws.family().get(victim).expect("victim is live").clone();
        ws.apply([Mutation::Remove(victim), Mutation::Add(copy)])
            .unwrap();
        let readd = ws.solution().unwrap().resolve.expect("workspace resolve");
        assert_eq!(
            readd.shards_resolved, 0,
            "remove+re-add must adopt the cached shard (k={k})"
        );
        assert!(readd.shards_reused > 0, "k={k}");

        let ratio = scratch_ms / inc_ms.max(1e-9);
        if k == 4096 {
            assert!(
                ratio >= 10.0,
                "incremental must be ≥10× cheaper per step at k=4096, got {ratio:.1}×"
            );
        }
        row(
            "D3 million-path churn",
            &format!(
                "churn({k}), |P|={}, {steps} steps",
                work.instance.family.len()
            ),
            "per-step cost O(dirty), ≥10× vs scratch",
            &format!(
                "inc {:.3} ms/step vs scratch {:.3} ms/step ({ratio:.0}×), \
                     dirty re-solves Σ={resolved}, re-add reused={}, peakRSS={} MiB",
                inc_ms / steps as f64,
                scratch_ms / steps as f64,
                readd.shards_reused,
                peak_rss_cell()
            ),
        );
    }
    // Roughly flat in k: the dirty solve work per step is constant at
    // both scales (asserted above), and what remains of a step —
    // patching the caches plus materializing the O(|P|)-sized Solution
    // the query returns — must grow strictly slower than the instance
    // (from-scratch, which redoes O(|P|) solver work per step, is the
    // linear yardstick measured in the same run).
    let inc_growth = inc_per_step[1] / inc_per_step[0].max(1e-9);
    let scratch_growth = scratch_per_step[1] / scratch_per_step[0].max(1e-9);
    // The 1.25 headroom absorbs timing noise: the incremental side's
    // absolute per-step cost is sub-millisecond at the small scale, so
    // its growth ratio jitters by tens of percent run to run, while
    // the O(dirty) bound above is the noise-free form of the claim.
    assert!(
        inc_growth < scratch_growth * 1.25,
        "per-step incremental cost must grow sublinearly in k: \
             inc {:.3}→{:.3} ms ({inc_growth:.1}×) vs scratch \
             {:.1}→{:.1} ms ({scratch_growth:.1}×) when |P| grows 16×",
        inc_per_step[0],
        inc_per_step[1],
        scratch_per_step[0],
        scratch_per_step[1]
    );
    // The delta path carries no O(|P|) snapshot, so nothing excuses its
    // growth: ≤ 2× over 16× more dipaths and shards.
    let delta_growth = delta_rows[1].2 / delta_rows[0].2.max(1e-9);
    assert!(
        delta_growth <= 2.0,
        "apply + delta_since per step must stay within 2× when |P| grows 16×: \
         {:.1} µs at k=256 vs {:.1} µs at k=4096 ({delta_growth:.2}×)",
        delta_rows[0].2,
        delta_rows[1].2
    );
    for (k, paths, us) in delta_rows {
        row(
            "D3 delta-path churn",
            &format!("churn({k}), |P|={paths}, {steps} steps"),
            "apply+delta per step ≤2× over 16× |P|",
            &format!(
                "{us:.1} µs/step, growth {delta_growth:.2}×, re-solves = snapshot path, \
                 spans = scratch, peakRSS={} MiB",
                peak_rss_cell()
            ),
        );
    }
}

/// D4 — the service layer under concurrent writers: a loopback TCP
/// server over the same incremental engine, 8 writer connections
/// mutating tenant 0 while a reader forces re-solves. Gated in-row: the
/// final served solution must be bit-identical to from-scratch (every
/// writer retires exactly what it admitted, so the check is
/// order-independent), and the single-writer actor must coalesce —
/// absorb more client batches than it issues `Workspace::apply` calls.
/// Also runnable alone as `report --service`.
fn service_row() {
    let report = dagwave_bench::service::service_load(8, 8, 40);
    assert!(
        report.identical,
        "served solution diverged from from-scratch after concurrent churn"
    );
    assert!(
        report.coalesce_ratio() > 1.0,
        "actor never coalesced queued batches: {} batches / {} applies",
        report.batches,
        report.applies
    );
    row(
        "D4 service layer load",
        "federated(8), 8 writers × 40 ops + reader",
        "bit-identical to scratch, coalesce >1",
        &format!(
            "identical={}, {:.0} req/s, p50={:.0} µs, p99={:.0} µs, \
             coalesce {:.2}× ({} batches/{} applies), peakRSS={} MiB",
            report.identical,
            report.requests_per_sec(),
            report.p50_us,
            report.p99_us,
            report.coalesce_ratio(),
            report.batches,
            report.applies,
            peak_rss_cell()
        ),
    );
}

/// D6 — connection scaling: the same admit/query/retire workload driven
/// over 8 vs 128 concurrent connections. Gated in-row: every run must be
/// bit-identical to a from-scratch solve, and the server must hold its
/// OS-thread delta ≤ 4 even at 128 connections (the reactor plus one
/// actor per live tenant, whatever the connection count).
/// Also runnable alone as `report --connections`.
fn connections_row() {
    use dagwave_bench::service::connection_scaling;
    // federated(32): enough disjoint components that 128 connections'
    // duplicate admissions land on distinct donors instead of stacking
    // into one exponentially-colorable clique.
    for &(conns, ops) in &[(8usize, 24usize), (128usize, 3usize)] {
        let r = connection_scaling(32, conns, ops);
        assert!(
            r.identical,
            "served solution diverged from from-scratch at {conns} connections"
        );
        assert!(
            r.thread_delta <= 4,
            "server spent {} threads on {conns} connections",
            r.thread_delta
        );
        row(
            "D6 connection scaling",
            &format!("federated(32), {conns} conns × {ops} ops"),
            "bit-identical, ≤4 srv threads",
            &format!(
                "identical={}, {:.0} req/s, p50={:.0} µs, p99={:.0} µs, \
                 +{} srv threads",
                r.identical,
                r.requests_per_sec(),
                r.p50_us,
                r.p99_us,
                r.thread_delta
            ),
        );
    }
}

/// Best-of-`reps` wall-clock for `f`, in milliseconds, plus the last run's
/// result (so callers can verify outputs without recomputing them).
fn time_ms_with<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(black_box(f()));
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.expect("at least one rep"))
}

/// Best-of-`reps` wall-clock for `f`, in milliseconds.
fn time_ms<R>(reps: usize, f: impl FnMut() -> R) -> f64 {
    time_ms_with(reps, f).0
}

/// Fixed arithmetic loop used to normalize machine speed between the
/// baseline host and the checking host.
fn calibration_ms() -> f64 {
    time_ms(3, || {
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut acc = 0u64;
        for _ in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        acc
    })
}

/// Measure the four pool-backed hot paths sequentially and in parallel on
/// fixed seeded workloads (asserting bit-identical outputs), plus the
/// decompose-solve-merge path against the monolithic solve (asserting its
/// span/certification invariant).
fn speedup_suite() -> Vec<Comparison> {
    const REPS: usize = 5;
    let mut comps = Vec::new();

    // 1. Transitive closure on a wide layered DAG (deep level parallelism).
    {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let g = random::random_layered(&mut rng, 14, 600, 0.05);
        let (seq_ms, seq) = time_ms_with(REPS, || reach::transitive_closure(&g));
        let (par_ms, par) = time_ms_with(REPS, || reach::transitive_closure_parallel(&g));
        let identical =
            seq.len() == par.len() && seq.iter().zip(&par).all(|(s, p)| s.iter().eq(p.iter()));
        comps.push(Comparison::checked(
            "transitive_closure_parallel",
            format!("n={}, m={}", g.vertex_count(), g.arc_count()),
            seq_ms,
            par_ms,
            identical,
        ));
    }

    // 2. Load table on a heavily replicated family.
    {
        let mut rng = ChaCha8Rng::seed_from_u64(202);
        let g = random::random_internal_cycle_free(&mut rng, 400, 150);
        let family = random::random_family(&mut rng, &g, 8_000, 8).replicate(250);
        let (seq_ms, seq) = time_ms_with(REPS, || load::load_table(&g, &family));
        let (par_ms, par) = time_ms_with(REPS, || load::load_table_parallel(&g, &family));
        comps.push(Comparison::checked(
            "load_table_parallel",
            format!("|P|={}, arcs={}", family.len(), g.arc_count()),
            seq_ms,
            par_ms,
            seq == par,
        ));
    }

    // 3. Conflict graph on a large distinct family.
    {
        let mut rng = ChaCha8Rng::seed_from_u64(303);
        let g = random::random_internal_cycle_free(&mut rng, 500, 200);
        let family = random::random_family(&mut rng, &g, 12_000, 7);
        let (seq_ms, seq) = time_ms_with(REPS, || ConflictGraph::build(&g, &family));
        let (par_ms, par) = time_ms_with(REPS, || ConflictGraph::build_parallel(&g, &family));
        let identical = seq.vertex_count() == par.vertex_count()
            && seq.edge_count() == par.edge_count()
            && (0..seq.vertex_count()).all(|i| {
                let id = dagwave_paths::PathId::from_index(i);
                seq.neighbors(id) == par.neighbors(id)
            });
        comps.push(Comparison::checked(
            "ConflictGraph::build_parallel",
            format!("|P|={}, edges={}", family.len(), seq.edge_count()),
            seq_ms,
            par_ms,
            identical,
        ));
    }

    // 4. Batched solving of independent instances.
    {
        let instances_owned: Vec<_> = (0..48u64)
            .map(|i| {
                let mut rng = ChaCha8Rng::seed_from_u64(404 + i);
                let g = random::random_internal_cycle_free(&mut rng, 150, 40);
                let family = random::random_family(&mut rng, &g, 1_200, 6);
                (g, family)
            })
            .collect();
        let instances: Vec<_> = instances_owned.iter().map(|(g, f)| (g, f)).collect();
        let solver = SolveSession::auto();
        let (seq_ms, seq) = time_ms_with(2, || {
            instances
                .iter()
                .map(|&(g, f)| solver.solve(g, f))
                .collect::<Vec<_>>()
        });
        let (par_ms, par) = time_ms_with(2, || solver.solve_batch(&instances));
        let identical = seq.len() == par.len()
            && seq.iter().zip(&par).all(|(s, p)| match (s, p) {
                (Ok(s), Ok(p)) => {
                    s.num_colors == p.num_colors && s.assignment.colors() == p.assignment.colors()
                }
                (Err(a), Err(b)) => a == b,
                _ => false,
            });
        comps.push(Comparison::checked(
            "solve_batch",
            format!("{} instances", instances.len()),
            seq_ms,
            par_ms,
            identical,
        ));
    }

    // 5. Decompose-solve-merge vs monolithic on the federated family:
    //    the intra-instance sharding hot path. "seq" is the monolithic
    //    Auto solve, "par" the decomposed solve, so the ratio is the
    //    decomposition speedup on one giant multi-component instance.
    {
        let inst = compose::federated(256);
        let mono_session = SolverBuilder::new().decompose(DecomposePolicy::Off).build();
        let dec_session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();
        let (seq_ms, mono) = time_ms_with(REPS, || {
            mono_session.solve(&inst.graph, &inst.family).unwrap()
        });
        let (par_ms, dec) = time_ms_with(REPS, || {
            dec_session.solve(&inst.graph, &inst.family).unwrap()
        });
        let holds = dec.num_colors <= mono.num_colors
            && dec.num_colors
                == dec
                    .decomposition
                    .as_ref()
                    .map(|d| d.shards.iter().map(|s| s.num_colors).max().unwrap_or(0))
                    .unwrap_or(usize::MAX)
            && dec.assignment.is_valid(&inst.graph, &inst.family);
        comps.push(Comparison::invariant_checked(
            "decompose_solve",
            format!(
                "federated k=256, |P|={}, shards={}",
                inst.family.len(),
                dec.decomposition.as_ref().map_or(0, |d| d.shard_count())
            ),
            seq_ms,
            par_ms,
            holds,
            "span ≤ monolithic, = max shard, certified",
        ));
    }

    // 6. Incremental re-solve on the churn workload: "seq" re-solves the
    //    mutated instance from scratch after every step, "par" drives one
    //    persistent Workspace through the same script (including its
    //    initial full solve), so the ratio is the steady-state win of
    //    shard-level caching under single-lightpath churn.
    {
        let work = compose::churn(11, 256, 32);
        let session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();

        // Verify the invariant once, untimed: per-step bit-identity plus
        // actual shard reuse.
        let mut ws = Workspace::new(
            session.clone(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        )
        .expect("churn instance is a DAG");
        ws.solution().unwrap();
        let (mut reused, mut identical) = (0usize, true);
        for op in &work.script {
            ws.apply([op.clone()]).unwrap();
            let inc = ws.solution().unwrap();
            reused += inc.resolve.expect("workspace stamps resolve").shards_reused;
            let (dense, _) = ws.family().to_dense();
            let scratch = session.solve(&work.instance.graph, &dense).unwrap();
            identical &= inc.assignment.colors() == scratch.assignment.colors()
                && inc.num_colors == scratch.num_colors;
        }

        let (seq_ms, _) = time_ms_with(3, || {
            let mut mirror = PathFamily::from_family(&work.instance.family);
            let mut spans = Vec::with_capacity(work.script.len());
            for op in &work.script {
                match op {
                    Mutation::Remove(id) => {
                        mirror.remove(*id).expect("script ids are live");
                    }
                    Mutation::Add(p) => {
                        mirror.insert(p.clone());
                    }
                }
                let (dense, _) = mirror.to_dense();
                spans.push(
                    session
                        .solve(&work.instance.graph, &dense)
                        .unwrap()
                        .num_colors,
                );
            }
            spans
        });
        let (par_ms, _) = time_ms_with(3, || {
            let mut ws = Workspace::new(
                session.clone(),
                work.instance.graph.clone(),
                work.instance.family.clone(),
            )
            .expect("churn instance is a DAG");
            ws.solution().unwrap();
            let mut spans = Vec::with_capacity(work.script.len());
            for op in &work.script {
                ws.apply([op.clone()]).unwrap();
                spans.push(ws.solution().unwrap().num_colors);
            }
            spans
        });
        comps.push(Comparison::invariant_checked(
            "incremental_resolve",
            format!(
                "churn(federated 256), {} steps, reused Σ={reused}",
                work.script.len()
            ),
            seq_ms,
            par_ms,
            identical && reused > 0,
            "per-step bit-identical, shards_reused > 0",
        ));
    }

    // 7. The million-path tier: same churn comparison at federated-4096
    //    scale (~24k dipaths). The incremental side's per-step cost is
    //    O(dirty) + trivial O(live) gathers, so the ratio must widen with
    //    the instance; the remove+re-add fingerprint adoption is asserted
    //    as part of the invariant.
    {
        let work = compose::churn(13, 4096, 8);
        let session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();

        // Verify once, untimed: final-state bit-identity plus fingerprint
        // adoption on remove+re-add of an identical dipath.
        let mut ws = Workspace::new(
            session.clone(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        )
        .expect("churn instance is a DAG");
        ws.apply(work.script.iter().cloned()).unwrap();
        let inc = ws.solution().unwrap();
        let (dense, _) = ws.family().to_dense();
        let scratch = session.solve(&work.instance.graph, &dense).unwrap();
        let identical = inc.assignment.colors() == scratch.assignment.colors()
            && inc.num_colors == scratch.num_colors;
        let victim = ws.family().ids().next().expect("family is non-empty");
        let copy = ws.family().get(victim).expect("victim is live").clone();
        ws.apply([Mutation::Remove(victim), Mutation::Add(copy)])
            .unwrap();
        let readd = ws.solution().unwrap().resolve.expect("workspace resolve");
        let adopted = readd.shards_resolved == 0 && readd.shards_reused > 0;

        let (seq_ms, _) = time_ms_with(2, || {
            let mut mirror = PathFamily::from_family(&work.instance.family);
            let mut spans = Vec::with_capacity(work.script.len());
            for op in &work.script {
                match op {
                    Mutation::Remove(id) => {
                        mirror.remove(*id).expect("script ids are live");
                    }
                    Mutation::Add(p) => {
                        mirror.insert(p.clone());
                    }
                }
                let (dense, _) = mirror.to_dense();
                spans.push(
                    session
                        .solve(&work.instance.graph, &dense)
                        .unwrap()
                        .num_colors,
                );
            }
            spans
        });
        // Steady state, as in the D3 row: one pre-solved workspace per rep,
        // so the timed region is exactly the mutate+query loop a service
        // runs — never the open-time full solve.
        let mut pool: Vec<Workspace> = (0..2)
            .map(|_| {
                let mut ws = Workspace::new(
                    session.clone(),
                    work.instance.graph.clone(),
                    work.instance.family.clone(),
                )
                .expect("churn instance is a DAG");
                ws.solution().unwrap();
                ws
            })
            .collect();
        let (par_ms, _) = time_ms_with(2, || {
            let mut ws = pool.pop().expect("one pre-solved workspace per rep");
            let mut spans = Vec::with_capacity(work.script.len());
            for op in &work.script {
                ws.apply([op.clone()]).unwrap();
                spans.push(ws.solution().unwrap().num_colors);
            }
            spans
        });
        comps.push(Comparison::invariant_checked(
            "incremental_resolve_4096",
            format!(
                "churn(federated 4096), |P|={}, {} steps",
                work.instance.family.len(),
                work.script.len()
            ),
            seq_ms,
            par_ms,
            identical && adopted,
            "final state bit-identical, re-add adopted from pool",
        ));
    }

    comps
}

fn speedup_table(comps: &[Comparison]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "threads = {} (RAYON_NUM_THREADS or available_parallelism), \
         physical cores visible = {}\n\n",
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    out.push_str("| op | workload | sequential ms | parallel ms | ratio | verified invariant |\n");
    out.push_str("|----|----------|---------------|-------------|-------|--------------------|\n");
    for c in comps {
        // The invariant column is structurally truthful: Comparison rows
        // can only be constructed through the invariant assertion.
        out.push_str(&format!(
            "| `{}` | {} | {:.2} | {:.2} | {:.2}x | {} |\n",
            c.op,
            c.size,
            c.seq_ms,
            c.par_ms,
            c.ratio(),
            c.invariant,
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// EXPERIMENTS.md persistence
// ---------------------------------------------------------------------------

const EXPERIMENTS_PREAMBLE: &str = "\
# EXPERIMENTS

Persistent benchmark record for the dagwave workspace, maintained by the
`report` binary (`crates/bench/src/bin/report.rs`):

* `cargo run --release -p dagwave-bench --bin report -- --experiments`
  regenerates the paper table and the parallel-speedup table below and
  appends to the run history;
* `-- --baseline` rewrites the committed wall-clock baseline;
* `-- --check` compares a fresh measurement against the baseline and fails
  on >20 % regression (CI runs this on every push).
";

/// Replace (or append) the body of `## {header}` in `text`.
fn replace_section(text: &str, header: &str, body: &str) -> String {
    let needle = format!("## {header}");
    let mut out = String::new();
    let mut lines = text.lines().peekable();
    let mut replaced = false;
    while let Some(line) = lines.next() {
        if line.trim_end() == needle {
            out.push_str(&needle);
            out.push_str("\n\n");
            out.push_str(body.trim_end());
            out.push('\n');
            replaced = true;
            // Skip the old body up to (not including) the next section.
            while let Some(next) = lines.peek() {
                if next.starts_with("## ") {
                    out.push('\n');
                    break;
                }
                lines.next();
            }
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    if !replaced {
        if !out.ends_with("\n\n") {
            out.push('\n');
        }
        out.push_str(&needle);
        out.push_str("\n\n");
        out.push_str(body.trim_end());
        out.push('\n');
    }
    out
}

/// Body of the named section, if present.
fn section_body(text: &str, header: &str) -> Option<String> {
    let needle = format!("## {header}");
    let mut body = String::new();
    let mut inside = false;
    for line in text.lines() {
        if line.trim_end() == needle {
            inside = true;
            continue;
        }
        if inside {
            if line.starts_with("## ") {
                break;
            }
            body.push_str(line);
            body.push('\n');
        }
    }
    inside.then_some(body)
}

fn read_or_init(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|_| EXPERIMENTS_PREAMBLE.to_string())
}

fn write_experiments(path: &str) {
    paper_report();
    let paper_lines = SINK.lock().unwrap().join("\n");
    let paper_body = format!(
        "| experiment | parameters | paper claim | measured |\n\
         |------------|------------|-------------|----------|\n{paper_lines}\n\n\
         All rows are verified by assertions while the table is generated."
    );
    let comps = speedup_suite();
    let speedup_body = speedup_table(&comps);
    println!("\n{speedup_body}");

    let mut text = read_or_init(path);
    text = replace_section(&text, "Paper-vs-measured", &paper_body);
    text = replace_section(&text, "Parallel speedup", &speedup_body);
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut history = section_body(&text, "Run history")
        .unwrap_or_default()
        .trim_end()
        .to_string();
    let ratios = comps
        .iter()
        .map(|c| {
            format!(
                "{} {:.2}x",
                c.op.split(':').next_back().unwrap_or(c.op),
                c.ratio()
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    history.push_str(&format!(
        "\n- unix {ts}: threads={}, {ratios}",
        rayon::current_num_threads()
    ));
    text = replace_section(&text, "Run history", history.trim_start());
    std::fs::write(path, text).expect("write EXPERIMENTS.md");
    println!("updated {path}");
}

// ---------------------------------------------------------------------------
// Wall-clock baseline / regression gate
// ---------------------------------------------------------------------------

/// `(key, ms)` pairs for the baseline block: calibration plus both sides of
/// every comparison.
fn timing_suite() -> Vec<(String, f64)> {
    let mut vals = vec![("calibration_ms".to_string(), calibration_ms())];
    for c in speedup_suite() {
        let key =
            c.op.trim_start_matches("ConflictGraph::")
                .replace("::", "_");
        vals.push((format!("{key}_seq_ms"), c.seq_ms));
        vals.push((format!("{key}_par_ms"), c.par_ms));
    }
    vals
}

/// Per-op minimum over `passes` full suite runs — the gating statistic used
/// on *both* sides of the regression check. Wall-clock noise is right-skewed
/// and a minimum over well-separated passes is insensitive to transient
/// background load, which a single pass's best-of-reps is not.
fn timing_suite_min(passes: usize) -> Vec<(String, f64)> {
    let mut vals = timing_suite();
    for _ in 1..passes.max(1) {
        for (key, again) in timing_suite() {
            if let Some(slot) = vals.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = slot.1.min(again);
            }
        }
    }
    vals
}

fn baseline_body(vals: &[(String, f64)]) -> String {
    let mut body = String::from(
        "Machine-generated by `report --baseline`; wall-clock milliseconds on\n\
         the committing host. `report --check` compares against these after\n\
         normalizing by the calibration loop.\n\n```text\n",
    );
    for (k, v) in vals {
        body.push_str(&format!("{k} = {v:.3}\n"));
    }
    body.push_str("```");
    body
}

fn write_baseline(path: &str) {
    let vals = timing_suite_min(3);
    let mut text = read_or_init(path);
    text = replace_section(&text, "Benchmark baseline", &baseline_body(&vals));
    std::fs::write(path, text).expect("write baseline");
    for (k, v) in &vals {
        println!("{k} = {v:.3}");
    }
    println!("baseline written to {path}");
}

/// Compare fresh timings against the committed baseline. Returns `false`
/// (and prints the offending rows) when any op regressed beyond tolerance.
fn check_regression(path: &str) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return false;
        }
    };
    let Some(body) = section_body(&text, "Benchmark baseline") else {
        eprintln!("{path} has no `## Benchmark baseline` section; run --baseline first");
        return false;
    };
    let mut baseline = std::collections::BTreeMap::new();
    for line in body.lines() {
        if let Some((k, v)) = line.split_once('=') {
            if let Ok(ms) = v.trim().parse::<f64>() {
                baseline.insert(k.trim().to_string(), ms);
            }
        }
    }
    let Some(&cal_base) = baseline.get("calibration_ms") else {
        eprintln!("baseline lacks calibration_ms; run --baseline first");
        return false;
    };
    let tolerance = std::env::var("DAGWAVE_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.20);
    let fresh = timing_suite_min(3);
    let cal_now = fresh
        .iter()
        .find(|(k, _)| k == "calibration_ms")
        .map(|&(_, v)| v)
        .expect("timing suite includes calibration");
    let scale = cal_now / cal_base.max(1e-9);
    println!(
        "regression check: tolerance {:.0}%, machine scale {scale:.3} \
         (calibration {cal_base:.1} ms -> {cal_now:.1} ms)",
        tolerance * 100.0
    );
    let mut ok = true;
    for (key, now_ms) in fresh.iter().filter(|(k, _)| k != "calibration_ms") {
        let Some(&base_ms) = baseline.get(key) else {
            println!("  {key}: no baseline entry (new op) — {now_ms:.2} ms");
            continue;
        };
        let allowed = base_ms * scale * (1.0 + tolerance);
        let verdict = if *now_ms <= allowed {
            "ok"
        } else {
            "REGRESSED"
        };
        println!(
            "  {key}: {now_ms:.2} ms vs baseline {base_ms:.2} ms \
             (allowed {allowed:.2} ms) {verdict}"
        );
        if *now_ms > allowed {
            ok = false;
        }
    }
    if !ok {
        eprintln!("wall-clock regression beyond {:.0}%", tolerance * 100.0);
    }
    ok
}
