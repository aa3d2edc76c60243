//! The traced layer probes: the engine ladder and timed calls into each
//! layer's public functions, at the sizes the workload uses. Spans go
//! around the calls, here in the benchmark, never inside the program.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use fednum_core::bits::BitPlanes;
use fednum_core::privacy::durable::DurableLedger;
use fednum_core::protocol::basic::BasicBitPushing;
use fednum_secagg::shamir::WeightCache;
use fednum_secagg::{
    client_mask_ring, run_secure_aggregation_planes, share, DropoutPlan, Fe, SecAggConfig,
};
use fednum_transport::net::Envelope;
use fednum_transport::scheduler::mix;
use fednum_transport::{EventQueue, InMemoryTransport, Message, TcpTransport, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fednumd::Fednumd;
use crate::rounds::builder;
use crate::trace::{median, Tracer};
use crate::workload::{Inputs, RoundSpec, Workload, BITS};
use crate::Report;

/// Ring degree and threshold of `SecAggSettings::default()`.
const SECAGG_DEGREE: usize = 64;
/// Share holders of one client's secrets: its ring neighbours and itself,
/// of which half (rounded up) reconstruct.
const SHARE_HOLDERS: usize = SECAGG_DEGREE + 1;
const SHARE_THRESHOLD: usize = SHARE_HOLDERS.div_ceil(2);

/// Runs every probe within `budget` (the share of the run the closed loop
/// left), recording spans in `tracer` and metrics in `out`. `published`
/// is the estimate the closed loop's round of spec 0 published.
pub fn probe(
    daemon: &Fednumd,
    inputs: &Inputs,
    published: f64,
    budget: Duration,
    tracer: &mut Tracer,
    out: &mut Report,
    work_dir: &Path,
) -> Result<(), String> {
    let w = inputs.workload;
    let spec = &inputs.specs[0];
    ladder(
        w,
        daemon,
        spec,
        published,
        budget.mul_f64(0.45),
        tracer,
        out,
    )?;
    let slice = budget.mul_f64(0.55 / 5.0);
    let frames = record_frames(w, spec)?;
    wire(&frames, slice, tracer, out)?;
    scheduler(&frames, spec.net_seed, slice, tracer, out);
    let planes = bits(w, spec, slice, tracer, out);
    secagg(w, spec, &planes, slice, tracer, out);
    let ledger_dir = work_dir.join(format!("probe-ledger-{}", w.name()));
    durable(w, inputs, &ledger_dir, slice, tracer, out)
}

/// Calls `f` until `budget` is spent (at least once) inside one span;
/// returns the mean seconds per call.
fn timed(tracer: &mut Tracer, name: &'static str, budget: Duration, mut f: impl FnMut()) -> f64 {
    let (calls, elapsed) = tracer.span(name, 0, || {
        let start = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || start.elapsed() < budget {
            f();
            calls += 1;
        }
        (calls, start.elapsed())
    });
    tracer.count(name, u64::from(calls));
    elapsed.as_secs_f64() / f64::from(calls)
}

/// The engine ladder on one seeded cohort: the algorithm alone, the sync
/// engine, the evented engine in memory, and over a fresh `fednumd`
/// session. The last three, and the closed loop's round, must publish the
/// bit-identical estimate; a divergence counts as a failed check.
fn ladder(
    w: Workload,
    daemon: &Fednumd,
    spec: &RoundSpec,
    published: f64,
    budget: Duration,
    tracer: &mut Tracer,
    out: &mut Report,
) -> Result<(), String> {
    let protocol = BasicBitPushing::new(w.protocol());
    let mut rungs: [Vec<f64>; 4] = Default::default();
    let deadline = Instant::now() + budget;
    let mut rep = 0u64;
    while rep == 0 || Instant::now() < deadline {
        let mut time =
            |i: usize, name: &'static str, f: &mut dyn FnMut() -> Result<f64, String>| {
                let start = Instant::now();
                let est = tracer.span(name, rep, f);
                rungs[i].push(start.elapsed().as_secs_f64());
                est
            };
        time(0, "ladder.protocol", &mut || {
            let mut rng = StdRng::seed_from_u64(spec.session_seed);
            Ok(protocol.run(&spec.values, &mut rng).estimate)
        })?;
        let sync = time(1, "ladder.sync", &mut || {
            let out = builder(w, spec)
                .run(&spec.values)
                .map_err(|e| format!("sync rung: {e}"))?;
            Ok(out.estimate())
        })?;
        let mem = time(2, "ladder.mem", &mut || {
            let mut mem = InMemoryTransport::new(spec.net_seed);
            let out = builder(w, spec)
                .via(&mut mem)
                .run(&spec.values)
                .map_err(|e| format!("mem rung: {e}"))?;
            Ok(out.estimate())
        })?;
        let tcp = time(3, "ladder.tcp", &mut || {
            let mut tcp = TcpTransport::connect(daemon.addr, spec.net_seed)
                .map_err(|e| format!("tcp rung: {e}"))?;
            let out = builder(w, spec)
                .via(&mut tcp as &mut dyn Transport)
                .run(&spec.values)
                .map_err(|e| format!("tcp rung: {e}"))?;
            tcp.close().map_err(|e| format!("tcp rung close: {e}"))?;
            Ok(out.estimate())
        })?;
        let bits = [sync, mem, tcp, published].map(f64::to_bits);
        out.check(if bits.iter().all(|&b| b == bits[0]) {
            Ok(())
        } else {
            Err(format!(
                "ladder rep {rep}: estimates diverge: sync {sync}, mem {mem}, tcp {tcp}, fednumd round {published}"
            ))
        });
        rep += 1;
    }
    let [protocol_s, sync_s, mem_s, tcp_s] = rungs.map(|v| median(&v));
    out.put("ladder.protocol_s", protocol_s, "s");
    out.put("ladder.sync_s", sync_s, "s");
    out.put("ladder.mem_s", mem_s, "s");
    out.put("ladder.tcp_s", tcp_s, "s");
    out.put("transport.evented_self_s", mem_s - sync_s, "s");
    out.put("transport.socket_self_s", tcp_s - mem_s, "s");
    out.put("ladder.reps", rep as f64, "count");
    Ok(())
}

/// An in-memory transport that keeps a copy of every envelope sent: the
/// frames of the kinds and sizes the workload puts on the wire.
struct Recorder {
    inner: InMemoryTransport,
    sent: Vec<Envelope>,
}

impl Transport for Recorder {
    fn send(&mut self, env: Envelope) {
        self.sent.push(env.clone());
        self.inner.send(env);
    }

    fn poll(&mut self) -> Option<(f64, Envelope)> {
        self.inner.poll()
    }

    fn peek_time(&self) -> Option<f64> {
        self.inner.peek_time()
    }

    fn idle(&self) -> bool {
        self.inner.idle()
    }
}

fn record_frames(w: Workload, spec: &RoundSpec) -> Result<Vec<Envelope>, String> {
    let mut rec = Recorder {
        inner: InMemoryTransport::new(spec.net_seed),
        sent: Vec::new(),
    };
    builder(w, spec)
        .via(&mut rec)
        .run(&spec.values)
        .map_err(|e| format!("recording round: {e}"))?;
    Ok(rec.sent)
}

/// `transport::message` over `core::wire`: encode and decode every frame
/// of one round.
fn wire(
    frames: &[Envelope],
    slice: Duration,
    tracer: &mut Tracer,
    out: &mut Report,
) -> Result<(), String> {
    let msgs = frames
        .iter()
        .map(|e| Message::decode(&e.payload))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("recorded frame does not decode: {e}"))?;
    let n = frames.len() as f64;
    let bytes: usize = frames.iter().map(|e| e.payload.len()).sum();
    let encode = timed(tracer, "wire.encode", slice / 2, || {
        for m in &msgs {
            black_box(black_box(m).encode());
        }
    });
    let decode = timed(tracer, "wire.decode", slice / 2, || {
        for e in frames {
            let _ = black_box(Message::decode(black_box(&e.payload)));
        }
    });
    out.put("wire.frames_per_round", n, "count");
    out.put("wire.encode_ns_per_frame", encode * 1e9 / n, "ns");
    out.put("wire.decode_ns_per_frame", decode * 1e9 / n, "ns");
    out.put("wire.decode_mb_per_s", bytes as f64 / decode / 1e6, "MB/s");
    Ok(())
}

/// `transport::scheduler`: push one round's events, then pop them all.
fn scheduler(
    frames: &[Envelope],
    seed: u64,
    slice: Duration,
    tracer: &mut Tracer,
    out: &mut Report,
) {
    let events: Vec<(f64, u64)> = frames.iter().map(|e| (e.sent_at, e.from)).collect();
    let per_round = timed(tracer, "scheduler.events", slice, || {
        let mut q = EventQueue::new(seed);
        for (i, &(t, stream)) in events.iter().enumerate() {
            q.push(t, stream, i);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    });
    out.put(
        "scheduler.ns_per_event",
        per_round * 1e9 / events.len().max(1) as f64,
        "ns",
    );
}

/// Each client's assigned plane and reported bit, derived from its value.
fn assignments(spec: &RoundSpec) -> Vec<(u32, bool)> {
    spec.values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let plane = (mix(spec.session_seed ^ i as u64) % u64::from(BITS)) as u32;
            (plane, (v as u64 >> plane) & 1 == 1)
        })
        .collect()
}

/// `core::bits`: pack a cohort into planes, then popcount them.
fn bits(
    w: Workload,
    spec: &RoundSpec,
    slice: Duration,
    tracer: &mut Tracer,
    out: &mut Report,
) -> BitPlanes {
    let assigned = assignments(spec);
    let n = w.cohort();
    let pack = || {
        let mut planes = BitPlanes::new(BITS, n);
        for (slot, &(plane, bit)) in assigned.iter().enumerate() {
            planes.record(slot, plane, bit);
        }
        planes
    };
    let pack_s = timed(tracer, "bits.pack", slice / 2, || {
        black_box(pack());
    });
    let planes = pack();
    let counts_s = timed(tracer, "bits.counts", slice / 2, || {
        black_box(black_box(&planes).counts());
    });
    out.put("bits.pack_ns_per_client", pack_s * 1e9 / n as f64, "ns");
    out.put("bits.counts_ns_per_client", counts_s * 1e9 / n as f64, "ns");
    planes
}

/// `secagg`: one client's ring mask, one dropout's Shamir recovery, and
/// the plane-wise secure aggregation of the whole cohort with 10% of it
/// dropped before masking.
fn secagg(
    w: Workload,
    spec: &RoundSpec,
    planes: &BitPlanes,
    slice: Duration,
    tracer: &mut Tracer,
    out: &mut Report,
) {
    let n = w.cohort();
    let session = spec.session_seed;
    let participants: Vec<u64> = (0..n as u64).collect();
    let sample: Vec<u64> = (0..n as u64).step_by((n / 256).max(1)).collect();
    let mask_s = timed(tracer, "secagg.mask", slice / 3, || {
        for &i in &sample {
            black_box(client_mask_ring(
                session,
                i,
                &participants,
                SECAGG_DEGREE,
                2 * BITS as usize,
            ));
        }
    });
    out.put(
        "secagg.mask_ns_per_client",
        mask_s * 1e9 / sample.len() as f64,
        "ns",
    );

    // A dropped client's key is shared as two 32-bit halves.
    let mut rng = StdRng::seed_from_u64(session);
    let shares: Vec<_> = (0..16u64)
        .map(|d| {
            let lo = share(
                Fe::new(mix(session ^ d) & 0xFFFF_FFFF),
                SHARE_THRESHOLD,
                SHARE_HOLDERS,
                &mut rng,
            );
            let hi = share(
                Fe::new(mix(session ^ !d) & 0xFFFF_FFFF),
                SHARE_THRESHOLD,
                SHARE_HOLDERS,
                &mut rng,
            );
            (lo, hi)
        })
        .collect();
    let recover_s = timed(tracer, "secagg.recover", slice / 3, || {
        for (lo, hi) in &shares {
            let mut cache = WeightCache::new();
            black_box(cache.reconstruct(&lo[..SHARE_THRESHOLD]));
            black_box(cache.reconstruct(&hi[..SHARE_THRESHOLD]));
        }
    });
    out.put(
        "secagg.recover_us_per_dropout",
        recover_s * 1e6 / shares.len() as f64,
        "us",
    );

    let mut config = SecAggConfig::new(n, n.div_ceil(2), 2 * BITS as usize, session);
    config.neighbors = Some(SECAGG_DEGREE);
    let plan = DropoutPlan {
        before_masking: (0..n).step_by(10).collect(),
        after_masking: Default::default(),
    };
    let planes_s = timed(tracer, "secagg.planes", slice / 3, || {
        let _ = black_box(run_secure_aggregation_planes(&config, planes, &plan));
    });
    out.put("secagg.planes_s", planes_s, "s");
}

/// `core::privacy::durable`: admit and commit the workload's cohort on a
/// ledger in the work dir, on the same filesystem as the daemon's state
/// dir; a snapshot every eighth commit, as the daemon does by default.
fn durable(
    w: Workload,
    inputs: &Inputs,
    dir: &Path,
    slice: Duration,
    tracer: &mut Tracer,
    out: &mut Report,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let policy = w.campaign();
    let mut ledger =
        DurableLedger::create(dir, policy, u64::MAX).map_err(|e| format!("probe ledger: {e}"))?;
    let wal = dir.join(format!("campaign-{}.wal", policy.campaign_id));
    let wal_len = || std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    let (mut commits, mut snapshots, mut wal_bytes) = (Vec::new(), Vec::new(), 0u64);
    let deadline = Instant::now() + slice;
    let mut round = 0u64;
    while round < 8 || Instant::now() < deadline {
        let before = wal_len();
        ledger
            .admit_round(round, &inputs.clients)
            .map_err(|e| format!("probe admit: {e}"))?;
        let start = Instant::now();
        tracer
            .span("durable.commit", round, || ledger.commit_round(round))
            .map_err(|e| format!("probe commit: {e}"))?;
        commits.push(start.elapsed().as_secs_f64());
        wal_bytes += wal_len() - before;
        round += 1;
        if round.is_multiple_of(8) {
            let start = Instant::now();
            tracer
                .span("durable.snapshot", round, || ledger.flush_snapshot())
                .map_err(|e| format!("probe snapshot: {e}"))?;
            snapshots.push(start.elapsed().as_secs_f64());
        }
    }
    drop(ledger);
    let _ = std::fs::remove_dir_all(dir);
    out.put("durable.commit_fsync_s", median(&commits), "s");
    out.put("durable.snapshot_s", median(&snapshots), "s");
    out.put(
        "durable.wal_bytes_per_round",
        wal_bytes as f64 / round as f64,
        "B",
    );
    Ok(())
}
