//! dagwave served-path benchmark.
//!
//! ```text
//! dagwave-perfbench --workload <churn_many|snapshot_read|dup_hotspot>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: set-up several times,
//! then a closed loop against an in-process evented `dagwave-serve` for
//! `--seconds`, then the correctness gates. `--trace 1` runs the loop
//! untraced and traced for a sixth of the time each (their difference is
//! the tracing overhead), replays the traced op log layer by layer and
//! reports the per-layer metrics; its spans go to `.bench_out/spans-*.tsv`.
//! The last stdout line is the JSON result; see README.md.

mod live;
mod replay;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use dagwave_serve::{Client, ServerHandle};
use live::LiveRun;
use stats::{median, Metrics};
use trace::{Depth, Span, Tracer};
use workload::Workload;

/// Set-ups per plain run: more while they have taken under
/// `SETUP_BUDGET_S` in total, at most `SETUP_MAX`. `setup_s` is their
/// median, so a cheap set-up gets many samples.
const SETUP_MAX: usize = 50;
const SETUP_BUDGET_S: f64 = 1.0;
/// A traced run's untraced and traced loops each last `--seconds` over
/// this. Replaying the traced loop at three depths takes about 3.6 times
/// as long as the loop, so the whole run takes about `--seconds`.
const TRACED_LOOP_SHARE: f64 = 6.0;
/// Where traced runs write their spans, relative to the working directory.
const SPANS_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dagwave-perfbench: {e}");
            eprintln!(
                "usage: dagwave-perfbench --workload <churn_many|snapshot_read|dup_hotspot> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let inst = args.workload.instance();
    println!(
        "# host: nproc={} pool={} features={} workload={} seed={} paths={} arcs={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rayon::current_num_threads(),
        if cfg!(feature = "parallel") {
            "parallel"
        } else {
            "sequential"
        },
        args.workload.name(),
        args.seed,
        inst.family.len(),
        inst.graph.arc_count(),
    );
    let result = if args.trace {
        traced(&args, &inst, origin)
    } else {
        plain(&args, &inst)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dagwave-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

type BoxError = Box<dyn std::error::Error>;

/// Run the loop against a started server, then stop it; returns the run
/// and whether the server shut down cleanly.
fn live_run(
    args: &Args,
    inst: &dagwave_gen::Instance,
    seconds: f64,
    traced: bool,
    (handle, mut control): (ServerHandle, Client),
) -> Result<(LiveRun, bool), BoxError> {
    let run = live::run(
        args.workload,
        inst,
        args.seed,
        seconds,
        &handle,
        &mut control,
        traced,
    )?;
    Ok((run, live::stop_server(handle, control)))
}

fn started(inst: &dagwave_gen::Instance) -> Result<(ServerHandle, Client), BoxError> {
    let (handle, control, _) = live::start_server(inst)?;
    Ok((handle, control))
}

fn plain(args: &Args, inst: &dagwave_gen::Instance) -> Result<String, BoxError> {
    let mut setups = Vec::new();
    let mut clean = true;
    let server = loop {
        let (handle, control, secs) = live::start_server(inst)?;
        setups.push(secs);
        let spent: f64 = setups.iter().sum();
        if setups.len() >= SETUP_MAX || spent >= SETUP_BUDGET_S {
            break (handle, control);
        }
        clean &= live::stop_server(handle, control);
    };
    let (run, stopped) = live_run(args, inst, args.seconds, false, server)?;
    clean &= stopped;
    // Before the samples are merged, whose buffers grow with throughput.
    let peak_rss = peak_rss_mib();

    let ((op, op_stride), (fresh, _)) = (run.op_us(), run.fresh_us());
    let (synced, span_over_pi) = run.span_over_pi();
    println!(
        "# samples: setups={} ops={} (kept 1 in {}) fresh={} synced_states={} checks={} elapsed_s={:.3} windows={}",
        setups.len(),
        op.len() * op_stride,
        op_stride,
        fresh.len(),
        synced,
        run.checks,
        run.elapsed_s,
        run.windows.len()
    );
    println!("# cpu during the loop: {}", run.cpu);
    // The p99 tails are shown but not reported: between seeds on a
    // 2-vCPU VM their quartile spread reached 0.31, the p90's 0.13.
    println!(
        "# p99: fresh_us={} op_us={}",
        run.percentile(&fresh, 0.99),
        run.percentile(&op, 0.99)
    );
    let mut m = Metrics::default();
    m.put("fresh_p50_us", run.percentile(&fresh, 0.5), "us");
    m.put("fresh_p90_us", run.percentile(&fresh, 0.9), "us");
    m.put("op_p50_us", run.percentile(&op, 0.5), "us");
    m.put("op_p90_us", run.percentile(&op, 0.9), "us");
    m.put("ops_per_s", run.ops_per_s(), "1/s");
    m.put("span_over_pi", span_over_pi, "ratio");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mib", peak_rss, "MiB");
    let failed = run.failed() + u64::from(!clean);
    Ok(m.result_line(failed == 0, run.attempted(), failed))
}

fn traced(args: &Args, inst: &dagwave_gen::Instance, origin: Instant) -> Result<String, BoxError> {
    let seconds = args.seconds / TRACED_LOOP_SHARE;
    let (plain_run, plain_clean) = live_run(args, inst, seconds, false, started(inst)?)?;
    let (mut run, clean) = live_run(args, inst, seconds, true, started(inst)?)?;

    let log = run.completion_log();
    let mut tracer = Tracer::new(origin);
    for (i, rec) in log.iter().enumerate() {
        tracer.record(Span {
            parent: None,
            op: i as u32,
            depth: Depth::Live,
            name: rec.op.name(),
            start_ns: tracer.ns(rec.start),
            end_ns: tracer.ns(rec.end),
        });
    }
    let rep = replay::replay(&log, inst, &mut tracer);

    let mut m = Metrics::default();
    rep.metrics(&tracer, run.stats.as_ref(), &mut m);
    m.put(
        "trace.overhead_op_p50_us",
        run.percentile(&run.op_us().0, 0.5) - plain_run.percentile(&plain_run.op_us().0, 0.5),
        "us",
    );
    m.put(
        "trace.overhead_fresh_p50_us",
        run.percentile(&run.fresh_us().0, 0.5) - plain_run.percentile(&plain_run.fresh_us().0, 0.5),
        "us",
    );
    m.put(
        "trace.overhead_ops_per_s",
        run.ops_per_s() - plain_run.ops_per_s(),
        "1/s",
    );
    m.put("trace.spans", tracer.spans().len() as f64, "count");

    println!(
        "# replay: ops={} shard_solves_by_winner={:?} exact_cliffs={}",
        log.len(),
        rep.winners(),
        rep.exact_cliffs()
    );
    let path = Path::new(SPANS_DIR).join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let header = format!(
        "dagwave-perfbench spans workload={} seed={} seconds={}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    tracer.write_tsv(&path, &header)?;
    println!("# spans: {}", path.display());

    let failed = plain_run.failed()
        + run.failed()
        + rep.failed
        + u64::from(!plain_clean)
        + u64::from(!clean);
    let attempted = plain_run.attempted() + run.attempted() + rep.attempted;
    Ok(m.result_line(failed == 0, attempted, failed))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
