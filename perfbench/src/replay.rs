//! The traced replay: the live run's op log, in completion order, sent
//! again one request at a time at three depths — `Client` over loopback,
//! `TenantHandle` (actor, no transport) and a bare `Workspace` — with a
//! span around every call. After each workspace refresh that recomputed
//! something, every re-derived component is solved again on its own with
//! the tenant's `SolveSession`, which attributes the refresh to backends.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use dagwave_core::{BackendKind, Epoch, Mutation, Workspace, WorkspaceStats};
use dagwave_gen::Instance;
use dagwave_graph::ArcId;
use dagwave_paths::{Dipath, PathId, SubInstance};
use dagwave_serve::actor::spawn_tenant;
use dagwave_serve::{ActorConfig, ActorOp, Request, Response, WireStats};

use crate::live::{start_server, stop_server, LoggedOp, Op, PathRef};
use crate::stats::{median, percentile, ratio, Metrics};
use crate::trace::{Depth, Span, Tracer};
use crate::workload::session;

/// What the replay measured besides spans.
#[derive(Default)]
pub struct Replay {
    /// Span id per op at the client and actor depths.
    client_span: Vec<Option<u32>>,
    actor_span: Vec<Option<u32>>,
    /// Workspace spans per op (apply / refresh / delta / solution).
    ws_spans: Vec<Vec<u32>>,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    client_stats: Option<(WireStats, WireStats)>,
    /// Refreshes that recomputed, and the shards they visited (reused +
    /// resolved) and resolved in total.
    refresh_spans: Vec<u32>,
    visited: usize,
    resolved: usize,
    ws_before: Option<WorkspaceStats>,
    ws_after: Option<WorkspaceStats>,
    shard_solves: Vec<ShardSolve>,
    /// Replayed requests that failed (a divergence from the live run).
    pub failed: u64,
    pub attempted: u64,
}

struct ShardSolve {
    micros: f64,
    winner: String,
    exact_consulted: bool,
    optimal: bool,
}

/// The stable ids this depth assigned to the live run's admissions.
#[derive(Default)]
struct IdMap(HashMap<PathRef, u32>);

impl IdMap {
    /// The id to retire; an admission that failed to replay maps to an id
    /// no family holds, so its retirement fails too and is counted.
    fn get(&self, path: PathRef) -> u32 {
        match path {
            PathRef::Initial(id) => id,
            _ => self.0.get(&path).copied().unwrap_or(u32::MAX),
        }
    }
}

pub fn replay(log: &[LoggedOp], inst: &Instance, tracer: &mut Tracer) -> Replay {
    let mut r = Replay {
        client_span: vec![None; log.len()],
        actor_span: vec![None; log.len()],
        ws_spans: vec![Vec::new(); log.len()],
        ..Replay::default()
    };
    let conns = log.iter().map(|o| o.conn + 1).max().unwrap_or(0);
    replay_client(log, inst, tracer, &mut r, conns);
    replay_actor(log, inst, tracer, &mut r, conns);
    replay_workspace(log, inst, tracer, &mut r, conns);
    r
}

fn replay_client(
    log: &[LoggedOp],
    inst: &Instance,
    tracer: &mut Tracer,
    r: &mut Replay,
    conns: usize,
) {
    let Ok((handle, mut client, _)) = start_server(inst) else {
        r.failed += 1;
        return;
    };
    let before = client.stats(0).ok();
    let mut ids = IdMap::default();
    let mut since = vec![0u64; conns];
    for (i, rec) in log.iter().enumerate() {
        let op = i as u32;
        let request = match &rec.op {
            Op::Admit(arcs, _) => Request::Admit {
                tenant: 0,
                arcs: arcs.to_vec(),
            },
            Op::Retire(path) => Request::Retire {
                tenant: 0,
                id: ids.get(*path),
            },
            Op::Delta => Request::QueryDelta {
                tenant: 0,
                since: since[rec.conn],
            },
            Op::Query => Request::Query { tenant: 0 },
        };
        let t = Instant::now();
        let frame = black_box(&request).to_frame();
        r.encode_ns.push(t.elapsed().as_nanos() as f64);
        black_box(frame);
        r.attempted += 1;
        let (response, span) =
            tracer.time(Depth::Client, rec.op.name(), op, None, || match request {
                Request::Admit { arcs, .. } => {
                    client.admit(0, arcs).map(|id| Response::Admitted { id })
                }
                Request::Retire { id, .. } => client.retire(0, id).map(|()| Response::Retired),
                Request::QueryDelta { since, .. } => {
                    client.query_delta(0, since).map(Response::Delta)
                }
                _ => client.query(0).map(Response::Solution),
            });
        r.client_span[i] = Some(span);
        let Ok(response) = response else {
            r.failed += 1;
            continue;
        };
        match (&response, &rec.op) {
            (Response::Admitted { id }, Op::Admit(_, path)) => {
                ids.0.insert(*path, *id);
            }
            (Response::Delta(d), _) => since[rec.conn] = d.epoch,
            _ => {}
        }
        let frame = response.to_frame();
        let t = Instant::now();
        let decoded = Response::from_frame(black_box(&frame));
        r.decode_ns.push(t.elapsed().as_nanos() as f64);
        black_box(decoded).ok();
    }
    let after = client.stats(0).ok();
    r.client_stats = before.zip(after);
    if !stop_server(handle, client) {
        r.failed += 1;
    }
}

fn replay_actor(
    log: &[LoggedOp],
    inst: &Instance,
    tracer: &mut Tracer,
    r: &mut Replay,
    conns: usize,
) {
    let Ok(ws) = Workspace::new(session(), inst.graph.clone(), inst.family.clone()) else {
        r.failed += 1;
        return;
    };
    let (tenant, join) = spawn_tenant(ws, ActorConfig::default());
    if tenant.query_delta(0).is_err() {
        r.failed += 1;
    }
    let mut ids = IdMap::default();
    let mut since = vec![0u64; conns];
    for (i, rec) in log.iter().enumerate() {
        let op = i as u32;
        let parent = r.client_span[i];
        r.attempted += 1;
        let (ok, span) = tracer.time(Depth::Actor, rec.op.name(), op, parent, || match &rec.op {
            Op::Admit(arcs, path) => {
                let arcs = arcs.iter().map(|&a| ArcId(a)).collect();
                tenant.apply(vec![ActorOp::Add(arcs)]).map(|added| {
                    if let Some(id) = added.first() {
                        ids.0.insert(*path, id.0);
                    }
                })
            }
            Op::Retire(path) => tenant
                .apply(vec![ActorOp::Remove(PathId(ids.get(*path)))])
                .map(drop),
            Op::Delta => tenant.query_delta(since[rec.conn]).map(|d| {
                since[rec.conn] = d.epoch.0;
            }),
            Op::Query => tenant.query().map(drop),
        });
        r.actor_span[i] = Some(span);
        if ok.is_err() {
            r.failed += 1;
        }
    }
    tenant.stop();
    if join.join().is_err() {
        r.failed += 1;
    }
}

fn replay_workspace(
    log: &[LoggedOp],
    inst: &Instance,
    tracer: &mut Tracer,
    r: &mut Replay,
    conns: usize,
) {
    let Ok(mut ws) = Workspace::new(session(), inst.graph.clone(), inst.family.clone()) else {
        r.failed += 1;
        return;
    };
    if ws.delta_since(Epoch(0)).is_err() {
        r.failed += 1;
    }
    r.ws_before = Some(ws.stats());
    let mut components: HashSet<Vec<PathId>> = ws.components().into_iter().collect();
    let mut ids = IdMap::default();
    let mut since = vec![Epoch(0); conns];
    for (i, rec) in log.iter().enumerate() {
        let op = i as u32;
        let parent = r.actor_span[i];
        r.attempted += 1;
        let ok = match &rec.op {
            Op::Admit(arcs, path) => {
                let arcs = arcs.iter().map(|&a| ArcId(a)).collect();
                match Dipath::from_arcs(ws.graph(), arcs) {
                    Ok(p) => {
                        let (out, span) =
                            tracer.time(Depth::Workspace, "apply", op, parent, || {
                                ws.apply([Mutation::Add(p)])
                            });
                        r.ws_spans[i].push(span);
                        out.map(|added| {
                            if let Some(id) = added.first() {
                                ids.0.insert(*path, id.0);
                            }
                        })
                        .is_ok()
                    }
                    Err(_) => false,
                }
            }
            Op::Retire(path) => {
                let id = PathId(ids.get(*path));
                let (out, span) = tracer.time(Depth::Workspace, "apply", op, parent, || {
                    ws.apply([Mutation::Remove(id)])
                });
                r.ws_spans[i].push(span);
                out.is_ok()
            }
            Op::Delta | Op::Query => {
                refresh(&mut ws, tracer, r, &mut components, i, parent);
                if let Op::Delta = rec.op {
                    let from = since[rec.conn];
                    let (out, span) = tracer.time(Depth::Workspace, "delta", op, parent, || {
                        ws.delta_since(from)
                    });
                    r.ws_spans[i].push(span);
                    out.map(|d| since[rec.conn] = d.epoch).is_ok()
                } else {
                    let (out, span) =
                        tracer.time(Depth::Workspace, "solution", op, parent, || ws.solution());
                    r.ws_spans[i].push(span);
                    out.is_ok()
                }
            }
        };
        if !ok {
            r.failed += 1;
        }
    }
    r.ws_after = Some(ws.stats());
}

/// Fold pending mutations (timed through `Workspace::span`, which only
/// refreshes), then solve every re-derived component on its own.
fn refresh(
    ws: &mut Workspace,
    tracer: &mut Tracer,
    r: &mut Replay,
    components: &mut HashSet<Vec<PathId>>,
    i: usize,
    parent: Option<u32>,
) {
    let before = ws.stats();
    let (out, span) = tracer.time(Depth::Workspace, "refresh", i as u32, parent, || ws.span());
    r.ws_spans[i].push(span);
    let after = ws.stats();
    if out.is_err() {
        r.failed += 1;
    }
    if after.recomputes == before.recomputes {
        return;
    }
    r.refresh_spans.push(span);
    let resolved = after.shards_resolved - before.shards_resolved;
    r.resolved += resolved;
    r.visited += resolved + after.shards_reused - before.shards_reused;

    let now: Vec<Vec<PathId>> = ws.components();
    let (session, family) = (ws.session(), ws.family());
    for comp in now.iter().filter(|c| !components.contains(*c)) {
        let Some(ranks) = comp
            .iter()
            .map(|&id| family.dense_rank(id).map(|d| PathId(d as u32)))
            .collect::<Option<Vec<_>>>()
        else {
            r.failed += 1;
            continue;
        };
        let sub = SubInstance::extract(ws.graph(), family.dense_view(), &ranks);
        let (out, solve) = tracer.time(Depth::Solver, "shard_solve", i as u32, Some(span), || {
            session.solve(&sub.graph, &sub.family)
        });
        let micros = tracer.get(solve).micros();
        match out {
            Ok(sol) => r.shard_solves.push(ShardSolve {
                micros,
                winner: sol.strategy.to_string(),
                exact_consulted: sol.attempts.iter().any(|a| a.backend == BackendKind::Exact),
                optimal: sol.optimal,
            }),
            Err(_) => r.failed += 1,
        }
    }
    *components = now.into_iter().collect();
}

impl Replay {
    /// Per-op self time of the transport (client − actor) and the actor
    /// (actor − workspace spans), microseconds.
    fn self_times(&self, tracer: &Tracer) -> (Vec<f64>, Vec<f64>) {
        let mut transport = Vec::new();
        let mut actor = Vec::new();
        for i in 0..self.client_span.len() {
            let (Some(c), Some(a)) = (self.client_span[i], self.actor_span[i]) else {
                continue;
            };
            let a_us = tracer.get(a).micros();
            transport.push(tracer.get(c).micros() - a_us);
            let ws_us: f64 = self.ws_spans[i]
                .iter()
                .map(|&s| tracer.get(s).micros())
                .sum();
            actor.push(a_us - ws_us);
        }
        (transport, actor)
    }

    fn ws_micros(&self, tracer: &Tracer, name: &str) -> Vec<f64> {
        self.ws_spans
            .iter()
            .flatten()
            .map(|&s| tracer.get(s))
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Winning backend → shard solves it won.
    pub fn winners(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for s in &self.shard_solves {
            *m.entry(s.winner.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Shard solves that consulted `exact` and came back not optimal.
    pub fn exact_cliffs(&self) -> usize {
        self.shard_solves
            .iter()
            .filter(|s| s.exact_consulted && !s.optimal)
            .count()
    }

    pub fn metrics(&self, tracer: &Tracer, live_stats: Option<&WireStats>, m: &mut Metrics) {
        let ops = self.client_span.len().max(1) as f64;
        let (bytes_in, bytes_out) = self.client_stats.as_ref().map_or((0.0, 0.0), |(a, b)| {
            (
                (b.bytes_in - a.bytes_in) as f64,
                (b.bytes_out - a.bytes_out) as f64,
            )
        });
        m.put("serve.protocol.encode_ns", median(&self.encode_ns), "ns");
        m.put("serve.protocol.decode_ns", median(&self.decode_ns), "ns");
        m.put("serve.protocol.bytes_in_per_req", bytes_in / ops, "B");
        m.put("serve.protocol.bytes_out_per_req", bytes_out / ops, "B");

        let (transport, actor) = self.self_times(tracer);
        m.put("serve.transport.self_p50_us", median(&transport), "us");
        m.put(
            "serve.transport.self_p99_us",
            percentile(&transport, 0.99),
            "us",
        );
        let (busy, queue, coalesce) = live_stats.map_or((0.0, 0.0, 0.0), |s| {
            (
                s.busy_rejections as f64,
                s.max_write_queue as f64,
                ratio(s.batches as f64, s.applies as f64),
            )
        });
        m.put("serve.transport.busy_rejections", busy, "count");
        m.put("serve.transport.max_write_queue", queue, "B");
        m.put("serve.actor.self_p50_us", median(&actor), "us");
        m.put("serve.actor.self_p99_us", percentile(&actor, 0.99), "us");
        m.put("serve.actor.coalesce_ratio", coalesce, "ratio");

        let refresh: Vec<f64> = self
            .refresh_spans
            .iter()
            .map(|&s| tracer.get(s).micros())
            .collect();
        m.put(
            "core.workspace.apply_p50_us",
            median(&self.ws_micros(tracer, "apply")),
            "us",
        );
        m.put("core.workspace.refresh_p50_us", median(&refresh), "us");
        m.put(
            "core.workspace.refresh_p99_us",
            percentile(&refresh, 0.99),
            "us",
        );
        m.put(
            "core.workspace.delta_p50_us",
            median(&self.ws_micros(tracer, "delta")),
            "us",
        );
        m.put(
            "core.workspace.solution_p50_us",
            median(&self.ws_micros(tracer, "solution")),
            "us",
        );
        let (visited, resolved) = (self.visited as f64, self.resolved as f64);
        m.put(
            "core.workspace.dirty_ratio",
            ratio(resolved, visited),
            "ratio",
        );
        m.put(
            "core.workspace.shards_visited_per_refresh",
            ratio(visited, self.refresh_spans.len() as f64),
            "count",
        );
        let (hit, resync) = match (&self.ws_before, &self.ws_after) {
            (Some(a), Some(b)) => {
                let hits = (b.intern_hits - a.intern_hits) as f64;
                let misses = (b.intern_misses - a.intern_misses) as f64;
                let queries = (b.delta_queries - a.delta_queries) as f64;
                let resyncs = (b.delta_resyncs - a.delta_resyncs) as f64;
                (ratio(hits, hits + misses), ratio(resyncs, queries))
            }
            _ => (0.0, 0.0),
        };
        m.put("core.workspace.intern_hit_ratio", hit, "ratio");
        m.put("core.workspace.delta_resync_ratio", resync, "ratio");

        let solves: Vec<f64> = self.shard_solves.iter().map(|s| s.micros).collect();
        let n = solves.len() as f64;
        m.put("core.solver.shard_solve_p50_us", median(&solves), "us");
        m.put(
            "core.solver.shard_solve_max_us",
            percentile(&solves, 1.0),
            "us",
        );
        let exact = self
            .shard_solves
            .iter()
            .filter(|s| s.exact_consulted)
            .count();
        let optimal = self.shard_solves.iter().filter(|s| s.optimal).count();
        m.put("core.solver.exact_share", ratio(exact as f64, n), "ratio");
        m.put(
            "core.solver.optimal_ratio",
            ratio(optimal as f64, n),
            "ratio",
        );
        m.put(
            "core.solver.self_share",
            ratio(solves.iter().sum(), refresh.iter().sum()),
            "ratio",
        );
        m.put(
            "core.solver.exact_cliffs",
            self.exact_cliffs() as f64,
            "count",
        );
    }
}
