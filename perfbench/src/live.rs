//! The measured closed loop: an in-process evented `dagwave-serve` over
//! loopback, one thread per connection, each waiting for its reply before
//! sending the next request; plus the correctness gates run on the final
//! state.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dagwave_core::Workspace;
use dagwave_gen::Instance;
use dagwave_graph::{ArcId, Digraph};
use dagwave_paths::{Dipath, DipathFamily};
use dagwave_serve::{
    Client, ClientError, FrontEnd, Server, ServerConfig, ServerHandle, WireDelta, WireSolution,
    WireStats,
};

use crate::stats::{mean, Samples, Windows};
use crate::workload::{session, Arcs, Role, Workload, WriterPlan};

/// How often the loop's host steal is sampled.
const STEAL_TICK: Duration = Duration::from_millis(100);

/// Names a dipath independently of the stable id it was given, which
/// differs between the live run and a replay once two writers race.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PathRef {
    /// A dipath of the initial family (ids are `0..len` at every depth).
    Initial(u32),
    /// The `seq`-th successful admission of connection `conn`.
    Admitted { conn: usize, seq: u32 },
}

/// One request kind, as logged for replay.
#[derive(Clone, Debug)]
pub enum Op {
    Admit(Arcs, PathRef),
    Retire(PathRef),
    /// `QueryDelta` from the connection's last synced epoch.
    Delta,
    Query,
}

impl Op {
    pub fn name(&self) -> &'static str {
        match self {
            Op::Admit(..) => "admit",
            Op::Retire(_) => "retire",
            Op::Delta => "query_delta",
            Op::Query => "query",
        }
    }
}

/// A completed request of the live run.
#[derive(Clone, Debug)]
pub struct LoggedOp {
    pub conn: usize,
    pub op: Op,
    pub start: Instant,
    pub end: Instant,
}

/// Bind an evented server over `inst`, connect, and wait for the first
/// reply (which builds the tenant workspace and runs its first solve).
/// Returns the server, the connected control client and the set-up time.
pub fn start_server(inst: &Instance) -> Result<(ServerHandle, Client, f64), ClientError> {
    let (graph, family) = (inst.graph.clone(), inst.family.clone());
    let started = Instant::now();
    let factory =
        Box::new(move |_tenant: u64| Workspace::new(session(), graph.clone(), family.clone()));
    let config = ServerConfig {
        front_end: FrontEnd::Evented,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", factory, config)?.spawn();
    let mut control = Client::connect(handle.addr())?;
    control.query_delta(0, 0)?;
    Ok((handle, control, started.elapsed().as_secs_f64()))
}

pub fn stop_server(handle: ServerHandle, mut control: Client) -> bool {
    control.shutdown().is_ok() && handle.join().is_ok()
}

/// The benchmark's own mirror of the live family: per-arc load and its
/// maximum `π`, maintained from the replies the writers receive. Keyed by
/// [`PathRef`], not stable id: when one writer's retirement frees an id
/// that the other writer's admission takes, the two replies may be
/// recorded in either order.
struct FamilyMirror {
    live: HashMap<PathRef, (u32, Arcs)>,
    arc_load: Vec<u32>,
    /// `hist[l]` = arcs carrying load `l`.
    hist: Vec<u32>,
    pi: usize,
}

impl FamilyMirror {
    fn new(inst: &Instance) -> Self {
        let mut m = FamilyMirror {
            live: HashMap::new(),
            arc_load: vec![0; inst.graph.arc_count()],
            hist: vec![inst.graph.arc_count() as u32],
            pi: 0,
        };
        for (id, p) in inst.family.iter() {
            let arcs = p.arcs().iter().map(|a| a.0).collect();
            m.admit(PathRef::Initial(id.0), id.0, arcs);
        }
        m
    }

    fn admit(&mut self, path: PathRef, id: u32, arcs: Arcs) {
        for &a in arcs.iter() {
            let load = &mut self.arc_load[a as usize];
            self.hist[*load as usize] -= 1;
            *load += 1;
            if self.hist.len() <= *load as usize {
                self.hist.push(0);
            }
            self.hist[*load as usize] += 1;
            self.pi = self.pi.max(*load as usize);
        }
        self.live.insert(path, (id, arcs));
    }

    fn retire(&mut self, path: PathRef) {
        let Some((_, arcs)) = self.live.remove(&path) else {
            return;
        };
        for &a in arcs.iter() {
            let load = &mut self.arc_load[a as usize];
            self.hist[*load as usize] -= 1;
            *load -= 1;
            self.hist[*load as usize] += 1;
        }
        while self.pi > 0 && self.hist[self.pi] == 0 {
            self.pi -= 1;
        }
    }

    fn pi(&self) -> usize {
        self.pi
    }

    /// The live dipaths in ascending id order — the served dense order.
    fn family(&self, g: &Digraph) -> Option<(Vec<u32>, DipathFamily)> {
        let by_id: BTreeMap<u32, &Arcs> = self.live.values().map(|(id, a)| (*id, a)).collect();
        let mut paths = Vec::with_capacity(by_id.len());
        for arcs in by_id.values() {
            paths.push(Dipath::from_arcs(g, arcs.iter().map(|&a| ArcId(a)).collect()).ok()?);
        }
        Some((by_id.into_keys().collect(), DipathFamily::from_paths(paths)))
    }
}

/// One connection's closed loop and what it measured.
struct Conn {
    idx: usize,
    role: Role,
    client: Client,
    /// When the loop opened; samples are timed from it.
    started: Instant,
    log: Option<Vec<LoggedOp>>,
    /// Latency of every measured request and every admission's time to
    /// wavelength, µs, and span / π of every synced state.
    op_us: Samples,
    fresh_us: Samples,
    span_over_pi: Samples,
    attempted: u64,
    failed: u64,
    /// Snapshots whose span differed from their load (`w ≠ π`).
    w_ne_pi: u64,
    /// Whether replies still count toward the latency samples (cleared
    /// for the final-state gates, which run after the measured window).
    measuring: bool,
    /// The connection's delta mirror: stable id → color.
    mirror: BTreeMap<u32, u32>,
    since: u64,
    /// Successful admissions so far, and how each live one is named.
    admits: u32,
    refs: HashMap<u32, PathRef>,
}

impl Conn {
    fn new(idx: usize, role: Role, client: Client, traced: bool, started: Instant) -> Conn {
        Conn {
            idx,
            role,
            client,
            started,
            log: traced.then(Vec::new),
            op_us: Samples::new(),
            fresh_us: Samples::new(),
            span_over_pi: Samples::new(),
            attempted: 0,
            failed: 0,
            w_ne_pi: 0,
            measuring: true,
            mirror: BTreeMap::new(),
            since: 0,
            admits: 0,
            refs: HashMap::new(),
        }
    }

    /// Send one request and wait for its reply. A typed error, `Busy`
    /// included, counts as a failure and is not retried.
    fn call<T>(
        &mut self,
        op: Op,
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Option<(T, Instant)> {
        self.attempted += 1;
        let start = Instant::now();
        let out = f(&mut self.client);
        let end = Instant::now();
        if self.measuring {
            let at = (end - self.started).as_secs_f64();
            self.op_us.push(at, (end - start).as_secs_f64() * 1e6);
        }
        match out {
            Ok(v) => {
                if let Some(log) = &mut self.log {
                    log.push(LoggedOp {
                        conn: self.idx,
                        op,
                        start,
                        end,
                    });
                }
                Some((v, end))
            }
            Err(e) => {
                eprintln!("conn {}: {} failed: {e}", self.idx, op.name());
                self.failed += 1;
                None
            }
        }
    }

    fn sync(&mut self) -> Option<(WireDelta, Instant)> {
        let since = self.since;
        let (delta, end) = self.call(Op::Delta, |c| c.query_delta(0, since))?;
        if delta.full_resync {
            self.mirror.clear();
        }
        self.mirror.extend(delta.changes.iter().copied());
        for id in &delta.removed {
            self.mirror.remove(id);
        }
        self.since = delta.epoch;
        Some((delta, end))
    }

    fn writer_step(&mut self, plan: &mut WriterPlan, family: &Mutex<FamilyMirror>) {
        let (donor, arcs) = plan.next_admit();
        let sent = Instant::now();
        let wire = arcs.to_vec();
        let tag = PathRef::Admitted {
            conn: self.idx,
            seq: self.admits,
        };
        let Some((id, _)) = self.call(Op::Admit(Arc::clone(&arcs), tag), |c| c.admit(0, wire))
        else {
            return;
        };
        self.admits += 1;
        self.refs.insert(id, tag);
        lock(family).admit(tag, id, arcs);
        plan.admitted(donor, id);
        if let Some((delta, end)) = self.sync() {
            // The lightpath's color is in hand once the mirror holds it.
            if self.mirror.contains_key(&id) {
                let at = (end - self.started).as_secs_f64();
                self.fresh_us.push(at, (end - sent).as_secs_f64() * 1e6);
            }
            let pi = lock(family).pi().max(1);
            let at = (end - self.started).as_secs_f64();
            self.span_over_pi.push(at, delta.span as f64 / pi as f64);
        }
        if let Some(victim) = plan.retire_after_sync(donor) {
            let tag = self
                .refs
                .remove(&victim)
                .unwrap_or(PathRef::Initial(victim));
            if self
                .call(Op::Retire(tag), |c| c.retire(0, victim))
                .is_some()
            {
                lock(family).retire(tag);
            }
        }
    }

    fn reader_step(&mut self) {
        if let Some((snap, _)) = self.call(Op::Query, |c| c.query(0)) {
            if snap.num_colors != snap.load {
                self.w_ne_pi += 1;
            }
        }
    }

    /// The connection's logged requests (traced runs only).
    fn take_log(&mut self) -> Vec<LoggedOp> {
        self.log.take().unwrap_or_default()
    }
}

fn lock(m: &Mutex<FamilyMirror>) -> std::sync::MutexGuard<'_, FamilyMirror> {
    m.lock()
        .expect("a writer panicked while holding the family mirror")
}

/// Everything one live run measured.
pub struct LiveRun {
    conns: Vec<Conn>,
    pub elapsed_s: f64,
    /// Host CPU time shares over the loop (from `/proc/stat`), including
    /// the time the hypervisor gave the vCPUs to someone else (steal).
    pub cpu: String,
    /// The windows of the loop the timing metrics are taken over.
    pub windows: Windows,
    /// The server's counters at the end of the loop.
    pub stats: Option<WireStats>,
    /// Correctness checks run and failed on the final state.
    pub checks: u64,
    checks_failed: u64,
    /// Requests the gates sent (logged under connection `conns.len()`).
    gate_log: Vec<LoggedOp>,
}

impl LiveRun {
    pub fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.attempted).sum()
    }

    /// Failed requests, snapshots with `w ≠ π`, and failed final checks.
    pub fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed + c.w_ne_pi).sum::<u64>() + self.checks_failed
    }

    /// Request latencies, µs, in completion order as `(seconds since the
    /// loop started, µs)`, and the stride of that sample.
    pub fn op_us(&self) -> (Vec<(f64, f64)>, usize) {
        Samples::merge(self.conns.iter().map(|c| &c.op_us))
    }

    /// Times to wavelength, as [`LiveRun::op_us`].
    pub fn fresh_us(&self) -> (Vec<(f64, f64)>, usize) {
        Samples::merge(self.conns.iter().map(|c| &c.fresh_us))
    }

    /// Synced states: how many, and the mean of their span / π.
    pub fn span_over_pi(&self) -> (usize, f64) {
        let (states, _) = Samples::merge(self.conns.iter().map(|c| &c.span_over_pi));
        let values: Vec<f64> = states.iter().map(|s| s.1).collect();
        let seen = self.conns.iter().map(|c| c.span_over_pi.seen()).sum();
        (seen, mean(&values))
    }

    /// Completed requests per second, over the kept windows.
    pub fn ops_per_s(&self) -> f64 {
        let (ops, stride) = self.op_us();
        self.windows.rate(&ops, stride)
    }

    /// The `p` percentile of samples, over the kept windows.
    pub fn percentile(&self, samples: &[(f64, f64)], p: f64) -> f64 {
        self.windows.percentile(samples, p)
    }

    /// Every logged request, gates included, in completion order.
    pub fn completion_log(&mut self) -> Vec<LoggedOp> {
        let mut all: Vec<LoggedOp> = self.conns.iter_mut().flat_map(|c| c.take_log()).collect();
        all.sort_by_key(|o| o.end);
        all.append(&mut self.gate_log);
        all
    }
}

/// Run `workload`'s closed loop against a started server for `seconds`,
/// then check the final state. `traced` keeps the op log for replay.
pub fn run(
    workload: Workload,
    inst: &Instance,
    seed: u64,
    seconds: f64,
    handle: &ServerHandle,
    control: &mut Client,
    traced: bool,
) -> Result<LiveRun, ClientError> {
    let graph = Arc::new(inst.graph.clone());
    let family = Arc::new(Mutex::new(FamilyMirror::new(inst)));
    let mut clients = Vec::new();
    for _ in workload.roles() {
        clients.push(Client::connect(handle.addr())?);
    }
    let started = Instant::now();
    let conns: Vec<Conn> = clients
        .into_iter()
        .zip(workload.roles())
        .enumerate()
        .map(|(idx, (client, &role))| Conn::new(idx, role, client, traced, started))
        .collect();
    let mut plans: Vec<Option<WriterPlan>> = conns
        .iter()
        .map(|c| {
            (c.role == Role::Writer)
                .then(|| WriterPlan::new(workload, inst, Arc::clone(&graph), seed, c.idx))
        })
        .collect();

    let deadline = started + Duration::from_secs_f64(seconds);
    let cpu_before = cpu_times();
    let mut steal = Vec::new();
    let conns: Vec<Conn> = thread::scope(|s| {
        s.spawn(|| sample_steal(started, deadline, &mut steal));
        let joins: Vec<_> = conns
            .into_iter()
            .zip(plans.iter_mut())
            .map(|(mut conn, plan)| {
                let family = Arc::clone(&family);
                s.spawn(move || {
                    while Instant::now() < deadline {
                        match plan {
                            Some(plan) => conn.writer_step(plan, &family),
                            None => conn.reader_step(),
                        }
                    }
                    conn
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("connection thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let cpu = cpu_share(cpu_before, cpu_times());

    let mut live = LiveRun {
        conns,
        elapsed_s,
        cpu,
        windows: Windows::quiet(elapsed_s, &steal),
        stats: None,
        checks: 0,
        checks_failed: 0,
        gate_log: Vec::new(),
    };
    live.stats = control.stats(0).ok();
    let family = Arc::try_unwrap(family)
        .ok()
        .and_then(|m| m.into_inner().ok())
        .expect("connection threads have ended");
    check_final(&mut live, control, inst, &family, traced);
    Ok(live)
}

/// The host's cumulative CPU times: user, nice, system, idle, iowait,
/// irq, softirq, steal (the first line of `/proc/stat`).
fn cpu_times() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace()
        .take(8)
        .map(|v| v.parse().ok())
        .collect()
}

/// Every `STEAL_TICK` until `deadline`, the host's cumulative steal and
/// total CPU ticks as `(seconds since started, steal, total)`.
fn sample_steal(started: Instant, deadline: Instant, out: &mut Vec<(f64, u64, u64)>) {
    loop {
        let now = Instant::now();
        if let Some(t) = cpu_times() {
            out.push((
                (now - started).as_secs_f64(),
                t.get(7).copied().unwrap_or(0),
                t.iter().sum(),
            ));
        }
        if now >= deadline {
            return;
        }
        thread::sleep(STEAL_TICK.min(deadline - now));
    }
}

fn cpu_share(before: Option<Vec<u64>>, after: Option<Vec<u64>>) -> String {
    let (Some(a), Some(b)) = (before, after) else {
        return "unavailable".into();
    };
    let d: Vec<f64> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| y.saturating_sub(*x) as f64)
        .collect();
    let total: f64 = d.iter().sum::<f64>().max(1.0);
    let pct = |i: usize| 100.0 * d.get(i).copied().unwrap_or(0.0) / total;
    format!(
        "user {:.1}% system {:.1}% idle {:.1}% steal {:.1}%",
        pct(0) + pct(1),
        pct(2) + pct(5) + pct(6),
        pct(3) + pct(4),
        pct(7)
    )
}

/// The gates on the quiescent final state. Each failed check is counted,
/// never retried.
fn check_final(
    live: &mut LiveRun,
    control: &mut Client,
    inst: &Instance,
    family: &FamilyMirror,
    traced: bool,
) {
    let check = |live: &mut LiveRun, ok: bool, what: &str| {
        live.checks += 1;
        if !ok {
            live.checks_failed += 1;
            eprintln!("correctness check failed: {what}");
        }
    };
    // Bring every writer's delta mirror up to date.
    let gate = live.conns.len();
    for conn in live.conns.iter_mut() {
        conn.measuring = false;
        if conn.role == Role::Writer {
            let logged = conn.log.as_ref().map_or(0, Vec::len);
            conn.sync();
            if let Some(log) = &mut conn.log {
                live.gate_log.extend(log.drain(logged..));
            }
        }
    }
    let start = Instant::now();
    let full = control.query(0);
    let end = Instant::now();
    let Ok(full) = full else {
        check(live, false, "final Query failed");
        return;
    };
    if traced {
        live.gate_log.push(LoggedOp {
            conn: gate,
            op: Op::Query,
            start,
            end,
        });
    }
    let served: BTreeMap<u32, u32> = full.colors.iter().copied().collect();
    let mirrors_ok = live
        .conns
        .iter()
        .filter(|c| c.role == Role::Writer)
        .all(|c| c.mirror == served);
    check(
        live,
        mirrors_ok,
        "a delta mirror differs from the full Query",
    );
    check(
        live,
        family.pi() == full.load as usize,
        "the benchmark's per-arc mirror disagrees with the served load",
    );
    let scratch_ok = family
        .family(&inst.graph)
        .is_some_and(|(ids, fam)| identical_to_scratch(&full, &ids, &inst.graph, &fam));
    check(
        live,
        scratch_ok,
        "the served state differs from a from-scratch SolveSession::solve",
    );
}

/// Bit-identity of a served solution with a from-scratch solve of the
/// same family (dense order = ascending stable id).
fn identical_to_scratch(full: &WireSolution, ids: &[u32], g: &Digraph, fam: &DipathFamily) -> bool {
    let Ok(scratch) = session().solve(g, fam) else {
        return false;
    };
    let expected: Vec<(u32, u32)> = ids
        .iter()
        .copied()
        .zip(scratch.assignment.colors().iter().map(|&c| c as u32))
        .collect();
    full.num_colors as usize == scratch.num_colors
        && full.load as usize == scratch.load
        && full.optimal == scratch.optimal
        && full.strategy == scratch.strategy.to_string()
        && full.colors == expected
}
