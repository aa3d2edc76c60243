//! `perfbench` — the repository's benchmark: seeded closed-loop rounds
//! against the real `fednumd`, checked for correctness, reported by
//! metric name and unit.
//!
//! ```text
//! perfbench --fednumd PATH --work-dir DIR --workload NAME|all --seed N
//!           --seconds S --trace 0|1 [--wrong-truth]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
//! layer ladder and reports the per-layer metrics (see `GLOSSARY.md`).
//! The last line of standard output is one JSON object. The exit code is
//! nonzero when any check failed. `--wrong-truth` shifts every truth the
//! checks compare against, so a self-test can see the checks fail.

mod fednumd;
mod layers;
mod os;
mod rounds;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fednum_core::privacy::durable::DurableLedger;

use crate::fednumd::Fednumd;
use crate::rounds::{Driver, RoundResult};
use crate::trace::{mean, median, percentile, Tracer};
use crate::workload::{Inputs, Workload, CAMPAIGN_ID, EPSILON};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Untimed rounds before the clock starts. In probes, the rounds of the
/// first 1–2 s after set-up often ran up to 1.5× slower than the rest.
const WARMUP: Duration = Duration::from_secs(3);

struct Args {
    fednumd: PathBuf,
    work_dir: PathBuf,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    wrong_truth: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?]
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        fednumd: get("--fednumd")?.into(),
        work_dir: get("--work-dir")?.into(),
        workloads,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        wrong_truth: argv.iter().any(|a| a == "--wrong-truth"),
    })
}

/// The run's metrics in report order, with the run's check counts.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// Failure messages kept per run; the rest are only counted.
const MAX_NOTES: usize = 8;

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// CPU placement: the driver thread and the daemon share one CPU. The
/// closed loop alternates between the two processes, and on a small VM a
/// wake-up across vCPUs costs a varying share of the round (rounds of
/// `ldp-scalar` took 0.13 s on one CPU and 0.22–0.29 s split across two,
/// varying from run to run).
fn placement() -> Option<usize> {
    os::allowed_cpus().last().copied()
}

/// A daemon with its driver session, ready for rounds.
struct Served {
    daemon: Fednumd,
    driver: Driver,
    inputs: Inputs,
    state_dir: PathBuf,
}

/// One set-up: spawn the daemon up to its `listening` line, generate the
/// inputs, open the campaign.
fn setup(args: &Args, w: Workload, cpu: Option<usize>, attempt: usize) -> Result<Served, String> {
    let state_dir = args.work_dir.join(format!("state-{}-{attempt}", w.name()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let daemon = Fednumd::spawn(
        &args.fednumd,
        w.durable().then_some(state_dir.as_path()),
        cpu,
    )?;
    let inputs = w.inputs(args.seed);
    let driver = Driver::open(w, daemon.addr, inputs.clients.clone())?;
    Ok(Served {
        daemon,
        driver,
        inputs,
        state_dir,
    })
}

fn run_workload(args: &Args, w: Workload, report: &mut Report) -> Result<(), String> {
    let cpu = placement();
    if let Some(cpu) = cpu {
        os::pin_current(cpu).map_err(|e| format!("pin driver: {e}"))?;
    }
    // Repeated set-ups; the last one's daemon serves the run.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut served = None;
    for attempt in 0..SETUPS {
        let start = Instant::now();
        let s = setup(args, w, cpu, attempt)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(mut old) = served.replace(s) {
            old.driver.close()?;
            old.daemon.stop()?;
            let _ = std::fs::remove_dir_all(&old.state_dir);
        }
    }
    let Served {
        daemon,
        mut driver,
        inputs,
        state_dir,
    } = served.expect("at least one set-up");
    if args.wrong_truth {
        driver.truth_offset = 1023.0;
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let run = closed_loop(
        args.trace,
        &mut driver,
        &daemon,
        &inputs,
        budget,
        &mut tracer,
        report,
    );
    driver.close()?;
    if args.trace {
        let probe_budget = budget.saturating_sub(start.elapsed());
        layers::probe(
            &daemon,
            &inputs,
            run.reference,
            probe_budget,
            &mut tracer,
            report,
            &args.work_dir,
        )?;
    }

    let daemon_rss = daemon.peak_rss_mb();
    let exit = daemon.stop()?;
    report.check(if exit.protocol_errors > 0 || exit.timeouts > 0 {
        Err(format!(
            "fednumd saw {} protocol error(s), {} timeout(s)",
            exit.protocol_errors, exit.timeouts
        ))
    } else {
        Ok(())
    });
    if w.durable() {
        report.check(check_ledger(
            &state_dir,
            &inputs,
            driver.committed(),
            exit.rounds_committed,
        ));
    }
    let _ = std::fs::remove_dir_all(&state_dir);

    if args.trace {
        per_layer(args, w, &run, &tracer, report)
    } else {
        end_to_end(w, &run, &setup_s, daemon_rss, report);
        Ok(())
    }
}

/// Sums `f` over the accounting window.
fn window_sum(run: &Loop, f: &dyn Fn(&RoundResult) -> f64) -> f64 {
    run.window.iter().map(f).sum()
}

/// RMS of (estimate − truth) over the window, divided by the mean truth.
fn nrmse(run: &Loop) -> f64 {
    let n = run.window.len() as f64;
    (window_sum(run, &|r| r.error * r.error) / n).sqrt() / (window_sum(run, &|r| r.truth.abs()) / n)
}

fn end_to_end(w: Workload, run: &Loop, setup_s: &[f64], daemon_rss: f64, report: &mut Report) {
    let p = w.tail_percentile();
    let (tail_s, beyond) = percentile(&run.walls, p);
    report.put("round_p50_s", median(&run.walls), "s");
    report.put("round_tail_s", tail_s, "s");
    report.put(
        "clients_per_s",
        run.contacted as f64 / run.walls.iter().sum::<f64>(),
        "1/s",
    );
    report.put("setup_s", median(setup_s), "s");
    let contacted = window_sum(run, &|r| r.contacted as f64);
    report.put(
        "wire_bytes_per_client",
        window_sum(run, &|r| r.bytes as f64) / contacted,
        "B",
    );
    report.put("driver_peak_rss_mb", os::peak_rss_mb("self"), "MB");
    report.put("daemon_peak_rss_mb", daemon_rss, "MB");
    report.notes.push(format!(
        "{} timed rounds; round_tail_s is p{p} with {beyond} rounds beyond it{}; nrmse {:.6}, failed_frac {}",
        run.walls.len(),
        if beyond < 10 { " (fewer than 10: too few rounds for this percentile)" } else { "" },
        nrmse(run),
        report.failed_frac()
    ));
}

fn per_layer(
    args: &Args,
    w: Workload,
    run: &Loop,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let traced = &run.traced;
    let per_round =
        |f: &dyn Fn(&RoundResult) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    let per_window = |f: &dyn Fn(&RoundResult) -> f64| window_sum(run, f) / run.window.len() as f64;
    let contacted = window_sum(run, &|r| r.contacted as f64);
    let frames = window_sum(run, &|r| r.frames as f64);
    report.put("tcp.frames_per_client", frames / contacted, "count");
    report.put(
        "tcp.bytes_per_frame",
        window_sum(run, &|r| r.bytes as f64) / frames,
        "B",
    );
    report.put(
        "driver.user_s",
        per_round(&|r| r.driver_cpu.user.as_secs_f64()),
        "s",
    );
    report.put(
        "driver.sys_s",
        per_round(&|r| r.driver_cpu.sys.as_secs_f64()),
        "s",
    );
    report.put(
        "daemon.user_s",
        per_round(&|r| r.daemon_cpu.user.as_secs_f64()),
        "s",
    );
    report.put(
        "daemon.sys_s",
        per_round(&|r| r.daemon_cpu.sys.as_secs_f64()),
        "s",
    );
    report.put(
        "round.wait_s",
        per_round(&|r| r.wall - r.driver_cpu.total().as_secs_f64()),
        "s",
    );
    let selfs = tracer.self_seconds();
    let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / traced.len().max(1) as f64;
    for (metric, span) in [
        ("round.self_s", "round"),
        ("round.run_s", "round.run"),
        ("tcp.connect_s", "tcp.connect"),
        ("tcp.close_s", "tcp.close"),
        ("ledger.admit_s", "ledger.admit"),
        ("ledger.commit_s", "ledger.commit"),
    ] {
        report.put(metric, self_of(span), "s");
    }
    report.put(
        "fedsim.reports_per_contact",
        window_sum(run, &|r| r.reports as f64) / contacted,
        "ratio",
    );
    report.put(
        "fedsim.waves_used",
        per_window(&|r| f64::from(r.waves)),
        "count",
    );
    report.put(
        "secagg.dropped",
        per_window(&|r| r.secagg_dropped as f64),
        "count",
    );
    report.put(
        "secagg.recovered",
        per_window(&|r| r.secagg_recovered as f64),
        "count",
    );
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall).collect();
    report.put(
        "trace.overhead_s",
        median(&traced_walls) - median(&run.walls),
        "s",
    );
    report.put("trace.spans", tracer.spans() as f64, "count");
    report.put("estimate.nrmse", nrmse(run), "ratio");
    report.put("failed_frac", report.failed_frac(), "ratio");
    let path = args
        .work_dir
        .join(format!("trace-{}-{}.json", w.name(), args.seed));
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report
        .notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

/// What the closed loop measured.
struct Loop {
    /// Wall times of the untraced measured rounds.
    walls: Vec<f64>,
    /// Clients the untraced measured rounds contacted.
    contacted: usize,
    /// The accounting window: the first pass over the specs, which every
    /// run completes, so its counts repeat exactly for a seed.
    window: Vec<RoundResult>,
    traced: Vec<RoundResult>,
    /// The estimate the first warm-up round (spec 0) published: the
    /// ladder's parity reference.
    reference: f64,
}

/// Drives untimed warm-up rounds for `WARMUP`, then rounds until the
/// budget is spent and the first pass over the specs is complete. Traced
/// runs alternate untraced and traced rounds (for the tracing overhead)
/// within the first part of the budget, leaving the rest to the layer
/// probes. Every round is checked into `report`.
fn closed_loop(
    trace: bool,
    driver: &mut Driver,
    daemon: &Fednumd,
    inputs: &Inputs,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Loop {
    let pid = daemon.pid();
    let specs = &inputs.specs;
    let mut check = |r: &RoundResult| report.check(r.failure.clone().map_or(Ok(()), Err));
    let start = Instant::now();
    let first = driver.round(&specs[0], pid, None);
    check(&first);
    let mut i = 1;
    while start.elapsed() < WARMUP {
        check(&driver.round(&specs[i % specs.len()], pid, None));
        i += 1;
    }
    let mut run = Loop {
        walls: Vec::new(),
        contacted: 0,
        window: Vec::with_capacity(specs.len()),
        traced: Vec::new(),
        reference: first.estimate,
    };
    let loop_budget = if trace { budget.mul_f64(0.45) } else { budget };
    let deadline = Instant::now() + loop_budget;
    let mut i = 0;
    while i < specs.len() || Instant::now() < deadline {
        let traced = trace && i % 2 == 1;
        let r = driver.round(&specs[i % specs.len()], pid, traced.then_some(&mut *tracer));
        check(&r);
        if i < specs.len() {
            run.window.push(r.clone());
        }
        if traced {
            run.traced.push(r);
        } else {
            run.walls.push(r.wall);
            run.contacted += r.contacted;
        }
        i += 1;
    }
    run
}

/// Reopens the campaign's state dir after the daemon exited and checks
/// that every metered client was charged exactly once per committed
/// round: never twice, never missed.
fn check_ledger(
    dir: &Path,
    inputs: &Inputs,
    rounds: u64,
    daemon_committed: u64,
) -> Result<(), String> {
    if daemon_committed != rounds {
        return Err(format!(
            "daemon committed {daemon_committed} rounds, driver {rounds}"
        ));
    }
    let (ledger, _) = DurableLedger::open(dir, CAMPAIGN_ID, u64::MAX)
        .map_err(|e| format!("reopen state dir: {e}"))?;
    let state = ledger.state();
    if state.round_index() != rounds {
        return Err(format!(
            "ledger at round {}, expected {rounds}",
            state.round_index()
        ));
    }
    let charged = state.ledger();
    if charged.clients() != inputs.clients.len() {
        return Err(format!(
            "ledger holds {} clients, expected {}",
            charged.clients(),
            inputs.clients.len()
        ));
    }
    let want_eps = rounds as f64 * EPSILON;
    for &c in &inputs.clients {
        let a = charged.account(c);
        if a.bits != rounds || (a.epsilon - want_eps).abs() > 1e-9 * want_eps.max(1.0) {
            return Err(format!(
                "client {c} charged {} bits / ε {} after {rounds} rounds",
                a.bits, a.epsilon
            ));
        }
    }
    Ok(())
}

fn json_report(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: work dir {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    for &w in &args.workloads {
        let mut part = Report::default();
        if let Err(e) = run_workload(&args, w, &mut part) {
            eprintln!("perfbench: {}: {e}", w.name());
            return ExitCode::from(1);
        }
        // A multi-workload run prefixes each metric with its workload.
        for (name, value, unit) in part.metrics {
            let name = if args.workloads.len() > 1 {
                format!("{}.{name}", w.name())
            } else {
                name
            };
            report.metrics.push((name, value, unit));
        }
        report.attempted += part.attempted;
        report.failed += part.failed;
        report
            .notes
            .extend(part.notes.into_iter().map(|n| format!("{}: {n}", w.name())));
    }
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", json_report(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
