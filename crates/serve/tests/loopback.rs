//! End-to-end loopback acceptance: a real server on `127.0.0.1:0`, real
//! TCP clients, and the hard invariant of the whole service layer —
//! driving a churn workload **over the wire** leaves the tenant's
//! workspace bit-identical to a from-scratch `SolveSession` solve of the
//! same final family. Ids are deterministic (smallest free slot), so the
//! test predicts every server-assigned id with a mirrored `PathFamily`.
#![cfg(unix)]

use std::io::Write;
use std::net::TcpStream;

use dagwave_core::{CoreError, DecomposePolicy, Mutation, SolveSession, SolverBuilder, Workspace};
use dagwave_gen::compose::{churn, federated};
use dagwave_graph::builder::from_edges;
use dagwave_graph::{Digraph, VertexId};
use dagwave_paths::{Dipath, DipathFamily, PathFamily, PathId};
use dagwave_serve::protocol::{encode_frame, read_frame};
use dagwave_serve::{
    ActorConfig, Client, ClientError, ErrorCode, Request, Response, Server, ServerConfig, WireOp,
    WireSolution, WireStats,
};

fn sharded() -> SolveSession {
    SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .build()
}

/// A server whose every tenant starts from the `federated(k)` instance.
fn federated_server(k: usize, config: ServerConfig) -> dagwave_serve::ServerHandle {
    let inst = federated(k);
    let factory = Box::new(move |_tenant: u64| {
        Workspace::new(sharded(), inst.graph.clone(), inst.family.clone())
    });
    Server::bind("127.0.0.1:0", factory, config)
        .expect("bind loopback")
        .spawn()
}

/// A server whose tenants start from an empty family on a line DAG.
fn line_server(n: usize, config: ServerConfig) -> dagwave_serve::ServerHandle {
    let factory = Box::new(move |_tenant: u64| {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Workspace::new(sharded(), from_edges(n, &edges), DipathFamily::new())
    });
    Server::bind("127.0.0.1:0", factory, config)
        .expect("bind loopback")
        .spawn()
}

/// Drive the churn script over TCP, predicting every assigned id with the
/// mirror; returns the mirror in its final state.
fn drive_script(
    client: &mut Client,
    tenant: u64,
    initial: &DipathFamily,
    script: &[Mutation],
) -> PathFamily {
    let mut mirror = PathFamily::from_family(initial);
    for op in script {
        match op {
            Mutation::Add(p) => {
                let predicted = mirror.next_id();
                let arcs: Vec<u32> = p.arcs().iter().map(|a| a.0).collect();
                let got = client.admit(tenant, arcs).expect("admit over the wire");
                assert_eq!(got, predicted.0, "server id diverged from free-list mirror");
                mirror.insert(p.clone());
            }
            Mutation::Remove(id) => {
                client.retire(tenant, id.0).expect("retire over the wire");
                mirror.remove(*id).expect("script removes live ids");
            }
        }
        // Re-solve after every step (the incremental engine recomputes
        // only on query): this is what exercises shard-cache reuse.
        client.query(tenant).expect("interleaved query");
    }
    mirror
}

/// The served solution must be bit-identical to a from-scratch solve of
/// the mirror's dense family under `session`: same span, load,
/// optimality, strategy, shard count, and the same wavelength on every
/// stable id.
fn assert_matches_scratch(
    client: &mut Client,
    tenant: u64,
    session: &SolveSession,
    graph: &dagwave_graph::Digraph,
    mirror: &PathFamily,
) {
    let served = client.query(tenant).expect("query over the wire");
    let (dense, ids) = mirror.to_dense();
    let scratch = session.solve(graph, &dense).expect("reference solve");
    assert_eq!(served.num_colors as usize, scratch.num_colors);
    assert_eq!(served.load as usize, scratch.load);
    assert_eq!(served.optimal, scratch.optimal);
    assert_eq!(served.strategy, scratch.strategy.to_string());
    assert_eq!(
        served.shard_count as usize,
        scratch
            .decomposition
            .as_ref()
            .map_or(1, |d| d.shard_count())
    );
    let expected: Vec<(u32, u32)> = ids
        .iter()
        .zip(scratch.assignment.colors())
        .map(|(id, &c)| (id.0, c as u32))
        .collect();
    assert_eq!(served.colors, expected, "per-id wavelengths diverged");
}

#[test]
fn churned_tenant_is_bit_identical_to_from_scratch() {
    for (seed, k, steps) in [(7u64, 2usize, 24usize), (41, 3, 40), (1234, 4, 60)] {
        let work = churn(seed, k, steps);
        let handle = federated_server(k, ServerConfig::default());
        let mut client = Client::connect(handle.addr()).expect("connect");
        // Solve once up front so churn exercises warm shard caches.
        client.query(0).expect("initial solve");
        let mirror = drive_script(&mut client, 0, &work.instance.family, &work.script);
        assert_matches_scratch(&mut client, 0, &sharded(), &work.instance.graph, &mirror);
        // The workload kept at least one shard untouched at least once.
        let stats = client.stats(0).expect("stats");
        assert!(
            stats.shards_reused > 0,
            "churn on {k} components never reused a shard"
        );
        assert_eq!(stats.live_paths, mirror.len() as u64);
        client.shutdown().expect("shutdown");
        handle.join().expect("server exits cleanly");
    }
}

#[test]
fn batches_are_atomic_over_the_wire() {
    let work = churn(99, 2, 0);
    let handle = federated_server(2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let before = client.stats(0).expect("stats").live_paths;

    // A batch whose last op names a dead id must apply nothing at all.
    let donor = work.instance.family.path(dagwave_paths::PathId(0));
    let arcs: Vec<u32> = donor.arcs().iter().map(|a| a.0).collect();
    let err = client
        .batch(
            0,
            vec![
                WireOp::Add(arcs.clone()),
                WireOp::Add(arcs.clone()),
                WireOp::Remove(10_000),
            ],
        )
        .expect_err("stale remove fails the whole batch");
    match err {
        ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::UnknownPath),
        other => panic!("expected typed remote error, got {other}"),
    }
    assert_eq!(
        client.stats(0).expect("stats").live_paths,
        before,
        "failed batch must not mutate"
    );

    // The same batch with a valid remove applies atomically: both ids are
    // assigned, then the second one retires inside the same batch.
    let n = before as u32;
    let added = client
        .batch(
            0,
            vec![
                WireOp::Add(arcs.clone()),
                WireOp::Add(arcs),
                WireOp::Remove(n + 1),
            ],
        )
        .expect("valid batch applies");
    assert_eq!(added, vec![n, n + 1]);
    assert_eq!(client.stats(0).expect("stats").live_paths, before + 1);
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

#[test]
fn tenants_are_isolated() {
    let work = churn(5, 2, 12);
    let handle = federated_server(2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let untouched = client.query(31).expect("tenant 31 baseline");

    // Churn tenant 17 from a second connection; tenant 31 must not move.
    let mut churner = Client::connect(handle.addr()).expect("second connection");
    let mirror = drive_script(&mut churner, 17, &work.instance.family, &work.script);
    assert_matches_scratch(&mut churner, 17, &sharded(), &work.instance.graph, &mirror);

    let after = client.query(31).expect("tenant 31 after");
    assert_eq!(after, untouched, "tenant 31 observed tenant 17's churn");
    assert_eq!(
        client.stats(31).expect("stats").live_paths,
        work.instance.family.len() as u64
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

#[test]
fn span_budget_rejects_with_typed_code() {
    let handle = line_server(
        4,
        ServerConfig {
            actor: ActorConfig {
                span_budget: Some(2),
                ..ActorConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    let a = client.admit(0, vec![0, 1]).expect("load 1");
    client.admit(0, vec![1, 2]).expect("load 2");
    let err = client
        .admit(0, vec![0, 1, 2])
        .expect_err("would push arcs to load 3");
    match err {
        ClientError::Remote { code, message } => {
            assert_eq!(code, ErrorCode::SpanBudgetExceeded);
            assert!(message.contains("budget 2"), "message was {message:?}");
        }
        other => panic!("expected typed rejection, got {other}"),
    }
    // Rejection must not have consumed an id or mutated the family.
    assert_eq!(client.stats(0).expect("stats").live_paths, 2);
    // Retiring frees headroom and the same admit now passes.
    client.retire(0, a).expect("retire");
    client.admit(0, vec![0, 1, 2]).expect("fits after retire");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

#[test]
fn malformed_frames_get_typed_error_responses() {
    let handle = line_server(3, ServerConfig::default());

    // Unknown opcode inside a valid header: typed reply, connection keeps
    // serving (the frame was fully consumed, so the stream is still
    // synchronized).
    let mut client = Client::connect(handle.addr()).expect("connect");
    let frame = [0xDA, 0x01, 0x40, 0x00, 0, 0, 0, 0];
    match client.raw_round_trip(&frame).expect("typed reply") {
        dagwave_serve::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::UnknownOpcode)
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    client.admit(0, vec![0]).expect("connection still serves");

    // Unknown version: typed reply, then the server closes the (now
    // unsynchronized) connection.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let frame = [0xDA, 0x09, 0x04, 0x00, 0, 0, 0, 0];
    match client.raw_round_trip(&frame).expect("typed reply") {
        dagwave_serve::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::UnknownVersion)
        }
        other => panic!("expected error frame, got {other:?}"),
    }

    // Truncated payload (length says 8, body carries 4): typed Malformed.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut frame = vec![0xDA, 0x01, 0x04, 0x00, 8, 0, 0, 0];
    frame.extend_from_slice(&[1, 2, 3, 4]);
    // The server blocks for the declared 8 bytes; send the other 4 as
    // garbage so the frame completes but the payload is short for a
    // Query's u64 + anything (here: trailing bytes after tenant would be
    // needed — 8 bytes IS a valid Query, so use 4 declared instead).
    drop(frame);
    let mut short = vec![0xDA, 0x01, 0x04, 0x00, 4, 0, 0, 0];
    short.extend_from_slice(&[1, 2, 3, 4]);
    match client.raw_round_trip(&short).expect("typed reply") {
        dagwave_serve::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::Malformed)
        }
        other => panic!("expected error frame, got {other:?}"),
    }

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

#[test]
fn shutdown_closes_listener_and_actors() {
    let handle = line_server(3, ServerConfig::default());
    let addr = handle.addr();
    let mut a = Client::connect(addr).expect("connect");
    let mut b = Client::connect(addr).expect("connect");
    a.admit(0, vec![0]).expect("admit");
    b.shutdown().expect("shutdown acknowledged");
    handle.join().expect("run() returns");
    // The listener is gone: a fresh connect must fail.
    assert!(
        Client::connect(addr).is_err(),
        "listener still accepting after shutdown"
    );
    // Requests on surviving connections get the typed shutting-down code
    // (the tenant actors are stopped) rather than hanging.
    match a.admit(0, vec![0]) {
        Err(ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::ShuttingDown)
        }
        Err(_) => {} // or the socket already dropped — equally fine
        Ok(_) => panic!("admit succeeded after shutdown"),
    }
}

/// A workspace factory error (the tenant id is rejected) surfaces as a
/// typed Solver error, not a hang or a dropped connection.
#[test]
fn factory_errors_surface_as_typed_solver_errors() {
    let factory = Box::new(|tenant: u64| {
        if tenant == 0 {
            let g = from_edges(3, &[(0, 1), (1, 2)]);
            Workspace::new(sharded(), g, DipathFamily::new())
        } else {
            // A cyclic digraph: Workspace::new rejects it.
            let g = from_edges(2, &[(0, 1), (1, 0)]);
            Workspace::new(sharded(), g, DipathFamily::new())
        }
    });
    let handle = Server::bind("127.0.0.1:0", factory, ServerConfig::default())
        .expect("bind")
        .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.admit(0, vec![0]).expect("tenant 0 works");
    match client.admit(1, vec![0]) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Solver),
        other => panic!("expected typed Solver error, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// Delta sync over the wire: a client that only ever issues `QueryDelta`
/// and replays the responses ends up with exactly the color table a full
/// `Query` ships — across a real churn script, with the first delta from
/// epoch 0 delivering the initial state.
#[test]
fn delta_sync_reconstructs_the_full_query() {
    use std::collections::BTreeMap;
    let work = churn(23, 3, 30);
    let handle = federated_server(3, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut table: BTreeMap<u32, u32> = BTreeMap::new();
    let mut synced = 0u64;
    let mut mirror = PathFamily::from_family(&work.instance.family);
    let replay = |client: &mut Client, table: &mut BTreeMap<u32, u32>, synced: &mut u64| {
        let d = client.query_delta(0, *synced).expect("delta over the wire");
        assert!(d.epoch >= *synced);
        if d.full_resync {
            table.clear();
        }
        for id in &d.removed {
            table.remove(id);
        }
        for &(id, c) in &d.changes {
            table.insert(id, c);
        }
        *synced = d.epoch;
        d.span
    };
    let span = replay(&mut client, &mut table, &mut synced);

    for op in &work.script {
        match op {
            Mutation::Add(p) => {
                let arcs: Vec<u32> = p.arcs().iter().map(|a| a.0).collect();
                client.admit(0, arcs).expect("admit");
                mirror.insert(p.clone());
            }
            Mutation::Remove(id) => {
                client.retire(0, id.0).expect("retire");
                mirror.remove(*id).expect("live id");
            }
        }
        replay(&mut client, &mut table, &mut synced);
    }

    // The replayed table equals the full solution, id for id.
    let served = client.query(0).expect("full query");
    let full: BTreeMap<u32, u32> = served.colors.iter().copied().collect();
    assert_eq!(table, full, "delta replay diverged from the full query");
    assert_eq!(table.len(), mirror.len());
    let final_span = replay(&mut client, &mut table, &mut synced);
    assert_eq!(final_span, served.num_colors);
    assert!(span >= 1);

    // A client claiming a future epoch gets a coherent full resync.
    let d = client.query_delta(0, 10_000).expect("stale-epoch delta");
    assert!(d.full_resync);
    let resynced: BTreeMap<u32, u32> = d.changes.iter().copied().collect();
    assert_eq!(resynced, full);

    // The stats RPC surfaces the delta/interner counters end to end.
    let stats = client.stats(0).expect("stats");
    assert!(stats.delta_queries as usize >= work.script.len());
    assert_eq!(
        stats.delta_resyncs, 1,
        "only the future-epoch probe resynced"
    );
    assert!(stats.interned_arc_lists > 0, "arena tracked the family");
    assert!(stats.epoch > 0);
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// Stale handles: CoreError::UnknownPath over the wire carries the path
/// id in its message (mirrors the in-process error).
#[test]
fn unknown_path_retire_is_typed() {
    let handle = line_server(3, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    match client.retire(0, 42) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownPath),
        other => panic!("expected UnknownPath, got {other:?}"),
    }
    // Same typed mapping in-process, for the record.
    let g = from_edges(3, &[(0, 1), (1, 2)]);
    let mut ws = Workspace::new(sharded(), g, DipathFamily::new()).expect("workspace");
    assert!(matches!(
        ws.apply([Mutation::Remove(dagwave_paths::PathId(42))]),
        Err(CoreError::UnknownPath(_))
    ));
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// `chains` disjoint directed chains of `len` vertices, each carrying
/// `per_chain` interval dipaths: an internal-cycle-free instance with at
/// least one conflict component per chain.
fn interval_chains(chains: usize, len: usize, per_chain: usize) -> (Digraph, DipathFamily) {
    let edges: Vec<(usize, usize)> = (0..chains)
        .flat_map(|c| (0..len - 1).map(move |i| (c * len + i, c * len + i + 1)))
        .collect();
    let g = from_edges(chains * len, &edges);
    let mut family = DipathFamily::new();
    for c in 0..chains {
        for i in 0..per_chain {
            let start = (i * 7) % (len - 1);
            let end = start + 1 + (i * 3) % (len - 1 - start);
            let route: Vec<VertexId> = (start..=end)
                .map(|v| VertexId::from_index(c * len + v))
                .collect();
            family.push(Dipath::from_vertices(&g, &route).expect("chain interval"));
        }
    }
    (g, family)
}

/// The full-solution response the `solution()` oracle implies: what the
/// server shipped before it answered `Query` from the color table.
fn oracle_response(ws: &mut Workspace) -> Response {
    let sol = ws.solution().expect("oracle solves");
    Response::Solution(WireSolution {
        num_colors: sol.num_colors as u32,
        load: sol.load as u32,
        optimal: sol.optimal,
        shard_count: sol
            .decomposition
            .as_ref()
            .map_or(1, |d| d.shard_count() as u32),
        strategy: sol.strategy.to_string(),
        colors: ws
            .family()
            .dense_ids()
            .iter()
            .zip(sol.assignment.colors())
            .map(|(id, &c)| (id.0, c as u32))
            .collect(),
    })
}

/// Send one raw `Query` frame and return the reply frame's exact bytes.
fn raw_query_frame(stream: &mut TcpStream, tenant: u64) -> Vec<u8> {
    stream
        .write_all(&Request::Query { tenant }.to_frame())
        .expect("send query");
    let (op, payload) = read_frame(stream)
        .expect("read reply")
        .expect("server replied");
    encode_frame(op, &payload)
}

/// Twelve churn steps over `f`: two admits of a live donor's copy, then
/// one retirement, repeated; donors and victims are picked by stride.
fn interval_churn(f: &DipathFamily) -> Vec<Mutation> {
    let mut mirror = PathFamily::from_family(f);
    (0..12usize)
        .map(|step| {
            if step % 3 == 2 {
                let id = mirror.ids().nth(step * 31 % mirror.len()).expect("live id");
                mirror.remove(id).expect("live id");
                Mutation::Remove(id)
            } else {
                let donor = mirror.ids().nth(step * 17 % mirror.len()).expect("live id");
                let p = mirror.get(donor).expect("donor is live").clone();
                mirror.insert(p.clone());
                Mutation::Add(p)
            }
        })
        .collect()
}

/// Serve one tenant of `(g, f)` under `session`, drive `script` over the
/// wire, and after every step check the `Query` against a from-scratch
/// solve and, byte for byte, against the frame the `solution()` oracle
/// implies. Returns the final stats and the served shard count.
fn churn_checking_frames(
    session: SolveSession,
    g: Digraph,
    f: DipathFamily,
    script: &[Mutation],
) -> (WireStats, u32) {
    let (served_session, served_g, served_f) = (session.clone(), g.clone(), f.clone());
    let factory = Box::new(move |_tenant: u64| {
        Workspace::new(served_session.clone(), served_g.clone(), served_f.clone())
    });
    let handle = Server::bind("127.0.0.1:0", factory, ServerConfig::default())
        .expect("bind loopback")
        .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connection");
    let mut oracle = Workspace::new(session.clone(), g.clone(), f.clone()).expect("oracle");
    let mut mirror = PathFamily::from_family(&f);
    for (step, op) in script.iter().enumerate() {
        match op {
            Mutation::Add(p) => {
                let arcs: Vec<u32> = p.arcs().iter().map(|a| a.0).collect();
                let got = client.admit(0, arcs).expect("admit");
                assert_eq!(PathId(got), mirror.insert(p.clone()));
            }
            Mutation::Remove(id) => {
                client.retire(0, id.0).expect("retire");
                mirror.remove(*id).expect("live id");
            }
        }
        oracle.apply([op.clone()]).expect("oracle applies");
        assert_matches_scratch(&mut client, 0, &session, &g, &mirror);
        assert_eq!(
            raw_query_frame(&mut raw, 0),
            oracle_response(&mut oracle).to_frame(),
            "step {step}: Query reply bytes diverged from the oracle's frame"
        );
    }
    let shard_count = client.query(0).expect("query").shard_count;
    let stats = client.stats(0).expect("stats");
    assert_eq!(stats.live_paths, mirror.len() as u64);
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
    (stats, shard_count)
}

/// `DecomposePolicy::Off`: every refresh is one monolithic solve, and the
/// served `Query` reads its summary off that solve.
#[test]
fn decompose_off_queries_match_scratch_and_the_oracle_frame() {
    let session = SolverBuilder::new().decompose(DecomposePolicy::Off).build();
    let (g, f) = interval_chains(3, 12, 20);
    let script = interval_churn(&f);
    let (stats, served_shards) = churn_checking_frames(session, g, f, &script);
    assert_eq!(served_shards, 1, "solved monolithically");
    assert!(
        stats.shard_count > 1,
        "the workspace still tracks components"
    );
}

/// Default `Auto` on an internal-cycle-free instance past the size
/// threshold: the Theorem-1 skip declines to shard although the family
/// splits, so every refresh goes monolithic.
#[test]
fn default_auto_theorem1_skip_queries_match_scratch_and_the_oracle_frame() {
    let (g, f) = interval_chains(4, 12, DecomposePolicy::DEFAULT_MIN_PATHS / 4 + 8);
    let script = interval_churn(&f);
    let (stats, served_shards) = churn_checking_frames(SolveSession::auto(), g, f, &script);
    assert_eq!(served_shards, 1, "solved monolithically");
    assert!(stats.shard_count > 1, "the family splits");
}

/// The sharded path's `Query` reply is byte-identical to the oracle's
/// frame too.
#[test]
fn sharded_query_reply_bytes_match_the_oracle_frame() {
    let work = churn(17, 3, 16);
    let (_, served_shards) = churn_checking_frames(
        sharded(),
        work.instance.graph,
        work.instance.family,
        &work.script,
    );
    assert!(served_shards > 1);
}
