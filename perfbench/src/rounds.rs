//! The closed-loop driver: one round at a time over one `TcpTransport`
//! connection to `fednumd`, the next round only after the previous
//! estimate is published.

use std::net::SocketAddr;
use std::time::Instant;

use fednum_fedsim::round::FederatedOutcome;
use fednum_transport::{RoundBuilder, TcpTransport, Transport};

use crate::os::{self, Cpu};
use crate::trace::Tracer;
use crate::workload::{RoundSpec, Workload};

/// What one round cost and published.
#[derive(Debug, Clone, Default)]
pub struct RoundResult {
    pub wall: f64,
    pub contacted: usize,
    pub reports: u64,
    pub waves: u32,
    pub frames: u64,
    pub bytes: u64,
    pub estimate: f64,
    /// Estimate minus the true cohort mean.
    pub error: f64,
    pub truth: f64,
    /// Why the round failed a check, if it did.
    pub failure: Option<String>,
    pub secagg_dropped: usize,
    pub secagg_recovered: usize,
    /// Driver-thread and daemon CPU, measured on traced rounds only.
    pub driver_cpu: Cpu,
    pub daemon_cpu: Cpu,
}

/// A round's estimate must land within this many predicted standard
/// deviations of the truth.
const MAX_SIGMAS: f64 = 6.0;

/// Builds the round exactly as every rung of the ladder runs it.
pub fn builder<'a>(w: Workload, spec: &RoundSpec) -> RoundBuilder<'a> {
    let b = RoundBuilder::new(w.config(spec.session_seed)).seed(spec.session_seed);
    match w.batched() {
        Some(chunk) => b.batched(chunk),
        None => b,
    }
}

/// The session the loop drives: a fresh connection per round, or the
/// campaign's one long-lived connection.
pub struct Driver {
    workload: Workload,
    addr: SocketAddr,
    campaign: Option<TcpTransport>,
    clients: Vec<u64>,
    next_round: u64,
    /// Added to every truth: a deliberately wrong truth must fail checks.
    pub truth_offset: f64,
}

impl Driver {
    /// Opens the campaign on its connection, for the durable workload.
    pub fn open(workload: Workload, addr: SocketAddr, clients: Vec<u64>) -> Result<Self, String> {
        let campaign = if workload.durable() {
            let mut tcp = TcpTransport::connect(addr, 0).map_err(|e| format!("connect: {e}"))?;
            let status = tcp
                .begin_campaign(&workload.campaign())
                .map_err(|e| format!("begin_campaign: {e}"))?;
            if status.round_index != 0 {
                return Err(format!("fresh campaign at round {}", status.round_index));
            }
            Some(tcp)
        } else {
            None
        };
        Ok(Self {
            workload,
            addr,
            campaign,
            clients,
            next_round: 0,
            truth_offset: 0.0,
        })
    }

    /// Campaign rounds committed so far.
    pub fn committed(&self) -> u64 {
        self.next_round
    }

    /// Closes the campaign connection, if any.
    pub fn close(&mut self) -> Result<(), String> {
        match self.campaign.take() {
            Some(tcp) => tcp.close().map(|_| ()).map_err(|e| format!("close: {e}")),
            None => Ok(()),
        }
    }

    /// Runs one round of `spec`. With a tracer, spans wrap every call
    /// into the program and CPU time is read around the round.
    pub fn round(
        &mut self,
        spec: &RoundSpec,
        daemon_pid: u32,
        mut tracer: Option<&mut Tracer>,
    ) -> RoundResult {
        let round_id = self.next_round;
        let cpu0 = tracer
            .as_ref()
            .map(|_| (os::thread_cpu(), os::process_cpu(daemon_pid)));
        if let Some(t) = tracer.as_deref_mut() {
            t.enter("round", round_id);
        }
        let start = Instant::now();
        let outcome = match self.campaign.as_mut() {
            Some(tcp) => campaign_round(
                tcp,
                self.workload,
                spec,
                &self.clients,
                round_id,
                &mut tracer,
            ),
            None => session_round(self.addr, self.workload, spec, round_id, &mut tracer),
        };
        let wall = start.elapsed();
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
        }
        let mut r = RoundResult {
            wall: wall.as_secs_f64(),
            truth: spec.truth + self.truth_offset,
            ..RoundResult::default()
        };
        if let Some((drv, dmn)) = cpu0 {
            r.driver_cpu = os::thread_cpu().since(drv);
            r.daemon_cpu = os::process_cpu(daemon_pid).since(dmn);
        }
        match outcome {
            Ok((out, frames, bytes)) => {
                if self.campaign.is_some() {
                    self.next_round += 1;
                }
                r.contacted = out.contacted;
                r.reports = out.reports;
                r.waves = out.waves_used;
                r.frames = frames;
                r.bytes = bytes;
                r.estimate = out.outcome.estimate;
                r.error = r.estimate - r.truth;
                if let Some(sa) = &out.secagg {
                    r.secagg_dropped = out.contacted - sa.contributors;
                    r.secagg_recovered = sa.recovered_pairwise;
                }
                let sigma = out.outcome.predicted_std;
                if !(sigma.is_finite() && sigma > 0.0 && r.error.abs() <= MAX_SIGMAS * sigma) {
                    r.failure = Some(format!(
                        "estimate {} is {:.2} predicted std {sigma} from truth {}",
                        out.outcome.estimate,
                        r.error.abs() / sigma,
                        r.truth
                    ));
                }
                if let Some(t) = tracer {
                    t.count("round.contacted", out.contacted as u64);
                    t.count("round.reports", out.reports);
                    t.count("tcp.frames", frames);
                    t.count("tcp.bytes", bytes);
                }
            }
            Err(e) => r.failure = Some(e),
        }
        r
    }
}

type Published = (FederatedOutcome, u64, u64);

/// One round over a fresh connection: connect, run, close. Frames and
/// bytes are the daemon's per-session totals.
fn session_round(
    addr: SocketAddr,
    w: Workload,
    spec: &RoundSpec,
    round_id: u64,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Published, String> {
    let mut tcp = traced(tracer, "tcp.connect", round_id, || {
        TcpTransport::connect(addr, spec.net_seed)
    })
    .map_err(|e| format!("connect: {e}"))?;
    let out = traced(tracer, "round.run", round_id, || {
        builder(w, spec)
            .via(&mut tcp as &mut dyn Transport)
            .run(&spec.values)
    })
    .map_err(|e| format!("round: {e}"))?;
    let stats =
        traced(tracer, "tcp.close", round_id, || tcp.close()).map_err(|e| format!("close: {e}"))?;
    let flat = out.flat().ok_or("round published no flat outcome")?.clone();
    Ok((
        flat,
        stats.frames_in + stats.frames_out,
        stats.bytes_in + stats.bytes_out,
    ))
}

/// One campaign round on the open connection: admit the cohort, run,
/// commit. Frames and bytes are the connection's growth over the round.
fn campaign_round(
    tcp: &mut TcpTransport,
    w: Workload,
    spec: &RoundSpec,
    clients: &[u64],
    round: u64,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Published, String> {
    let before = tcp.wire_metrics().unwrap_or_default();
    let admission = traced(tracer, "ledger.admit", round, || {
        tcp.request_round(round, spec.net_seed, spec.session_seed, clients)
    })
    .map_err(|e| format!("request_round: {e}"))?;
    if admission.already_committed || admission.admitted.len() != clients.len() {
        return Err(format!(
            "round {round} admitted {} of {} clients",
            admission.admitted.len(),
            clients.len()
        ));
    }
    let out = traced(tracer, "round.run", round, || {
        builder(w, spec)
            .via(&mut *tcp as &mut dyn Transport)
            .run(&spec.values)
    })
    .map_err(|e| format!("round: {e}"))?;
    let receipt = traced(tracer, "ledger.commit", round, || tcp.commit_round(round))
        .map_err(|e| format!("commit_round: {e}"))?;
    if receipt.clients_charged != clients.len() as u64 {
        return Err(format!(
            "round {round} charged {} of {} clients",
            receipt.clients_charged,
            clients.len()
        ));
    }
    let after = tcp.wire_metrics().unwrap_or_default();
    let flat = out.flat().ok_or("round published no flat outcome")?.clone();
    Ok((
        flat,
        after.total_frames() - before.total_frames(),
        (after.bytes_sent + after.bytes_received) - (before.bytes_sent + before.bytes_received),
    ))
}

fn traced<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    round: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer.as_deref_mut() {
        Some(t) => t.span(name, round, f),
        None => f(),
    }
}
