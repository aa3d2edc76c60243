//! Transport ↔ legacy parity: the event-driven coordinator must reproduce
//! the synchronous orchestrator **bit for bit** under the same seed, across
//! the whole configuration surface — dropout models, refill waves, privacy,
//! latency, secure aggregation, and every fault class routed through the
//! simulated-network transport.
//!
//! This is the load-bearing guarantee of the subsystem: turning the round
//! into message passing changed *how* the protocol executes, not *what* it
//! computes. Any divergence in estimate bits, outcome metadata, or error
//! variant is a bug in the transport path.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::{PrivacyBudget, PrivacyLedger, RandomizedResponse};
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::faults::{FaultPlan, FaultRates};
use fednum_fedsim::round::{FederatedMeanConfig, FederatedOutcome, SecAggSettings};
use fednum_fedsim::{DropoutModel, FedError, LatencyModel, RetryPolicy};
use fednum_transport::net::SimNetTransport;
use fednum_transport::{InMemoryTransport, RoundBuilder, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the synchronous (legacy-loop) engine through the builder facade:
/// `.seed(s)` seeds the same `StdRng` stream the old free functions took.
fn run_sync(
    values: &[f64],
    cfg: &FederatedMeanConfig,
    ledger: Option<&mut PrivacyLedger>,
    seed: u64,
) -> Result<FederatedOutcome, FedError> {
    let mut b = RoundBuilder::new(cfg.clone()).seed(seed);
    if let Some(ledger) = ledger {
        b = b.metered(ledger);
    }
    b.run(values).map(|out| out.flat().unwrap().clone())
}

/// Runs the event-driven engine over `transport` through the same facade.
fn run_evented(
    values: &[f64],
    cfg: &FederatedMeanConfig,
    ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    seed: u64,
) -> Result<FederatedOutcome, FedError> {
    let mut b = RoundBuilder::new(cfg.clone()).seed(seed).via(transport);
    if let Some(ledger) = ledger {
        b = b.metered(ledger);
    }
    b.run(values).map(|out| out.flat().unwrap().clone())
}

const BITS: u32 = 8;

struct Case {
    id: u64,
    population: usize,
    dropout: DropoutModel,
    privacy: bool,
    secagg: bool,
    latency: bool,
    max_waves: u32,
    faults: Option<(FaultRates, bool)>, // (rates, validate)
}

fn grid() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut id = 0u64;
    let dropouts = [
        DropoutModel::None,
        DropoutModel::bernoulli(0.3),
        DropoutModel::phased(0.12, 0.08),
    ];
    let fault_cases: [Option<(FaultRates, bool)>; 4] = [
        None,
        Some((FaultRates::uniform(0.03), true)),
        Some((FaultRates::uniform(0.03), false)),
        Some((
            FaultRates {
                duplicate: 0.10,
                replay: 0.07,
                straggle: 0.05,
                corrupt_bit: 0.04,
                stale_round: 0.04,
                ..FaultRates::none()
            },
            true,
        )),
    ];
    for &population in &[40usize, 300, 1500] {
        for (d, &dropout) in dropouts.iter().enumerate() {
            for faults in &fault_cases {
                for &latency in &[false, true] {
                    for &max_waves in &[1u32, 3] {
                        id += 1;
                        cases.push(Case {
                            id,
                            population,
                            dropout,
                            privacy: id.is_multiple_of(2),
                            secagg: d == 1 && population >= 300,
                            latency,
                            max_waves,
                            faults: *faults,
                        });
                    }
                }
            }
        }
    }
    cases
}

fn config_for(case: &Case) -> FederatedMeanConfig {
    let mut protocol = BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    );
    if case.privacy {
        protocol = protocol.with_privacy(RandomizedResponse::from_epsilon(2.5));
    }
    let mut cfg = FederatedMeanConfig::new(protocol)
        .with_dropout(case.dropout)
        .with_retry(RetryPolicy {
            max_secagg_retries: 2,
            base_backoff: 0.5,
            max_backoff: 8.0,
            min_cohort: 5,
        });
    if case.max_waves > 1 {
        cfg = cfg.with_auto_adjust(case.max_waves, 4, 0.7);
    }
    if case.secagg {
        cfg = cfg.with_secagg(SecAggSettings {
            threshold_fraction: 0.5,
            neighbors: Some(24),
        });
    }
    if case.latency {
        cfg = cfg.with_latency(LatencyModel::new(0.5, 0.6, 30.0));
    }
    if let Some((rates, validate)) = case.faults {
        cfg = cfg.with_faults(FaultPlan::new(rates, case.id ^ 0xFA17).unwrap());
        if !validate {
            cfg = cfg.naive();
        }
    }
    cfg.session_seed = 0x7000 + case.id;
    cfg
}

fn values_for(case: &Case) -> Vec<f64> {
    (0..case.population)
        .map(|i| ((i as u64 * 37 + case.id * 13) % 230) as f64)
        .collect()
}

fn transport_for(cfg: &FederatedMeanConfig, id: u64) -> Box<dyn Transport> {
    if cfg.faults.is_some() {
        Box::new(SimNetTransport::for_config(cfg, id))
    } else {
        Box::new(InMemoryTransport::new(id))
    }
}

fn assert_outcomes_match(
    case_id: u64,
    validate: bool,
    legacy: &FederatedOutcome,
    evented: &FederatedOutcome,
) {
    let tag = format!("case {case_id}");
    assert_eq!(
        legacy.outcome.estimate.to_bits(),
        evented.outcome.estimate.to_bits(),
        "{tag}: estimate bits diverge: {} vs {}",
        legacy.outcome.estimate,
        evented.outcome.estimate
    );
    assert_eq!(
        legacy.outcome.predicted_std.to_bits(),
        evented.outcome.predicted_std.to_bits(),
        "{tag}: predicted_std"
    );
    assert_eq!(legacy.contacted, evented.contacted, "{tag}: contacted");
    assert_eq!(legacy.reports, evented.reports, "{tag}: reports");
    assert_eq!(legacy.waves_used, evented.waves_used, "{tag}: waves");
    assert_eq!(
        legacy.completion_time.to_bits(),
        evented.completion_time.to_bits(),
        "{tag}: completion_time"
    );
    assert_eq!(legacy.starved_bits, evented.starved_bits, "{tag}: starved");
    assert_eq!(legacy.secagg, evented.secagg, "{tag}: secagg summary");
    let (l, e) = (&legacy.robustness, &evented.robustness);
    assert_eq!(l.degraded, e.degraded, "{tag}: degraded mode");
    assert_eq!(l.rejections, e.rejections, "{tag}: rejections");
    assert_eq!(l.late_frames, e.late_frames, "{tag}: late frames");
    // Deadline accounting is server-model invariant in the *metering* and
    // server-model dependent in the *rejecting*: the validated server
    // rejects exactly the late frames, the naive server none of them.
    let expected_stragglers = if validate { e.late_frames } else { 0 };
    assert_eq!(
        e.rejections.straggler, expected_stragglers,
        "{tag}: straggler rejections out of step with late_frames (validate={validate})"
    );
    assert_eq!(l.secagg_retries, e.secagg_retries, "{tag}: retries");
    assert_eq!(l.faults_injected, e.faults_injected, "{tag}: faults");
    assert_eq!(
        l.backoff_time.to_bits(),
        e.backoff_time.to_bits(),
        "{tag}: backoff"
    );
    // The transport path must additionally meter something the legacy loop
    // never could.
    assert!(e.traffic.total_messages() > 0, "{tag}: no traffic metered");
    assert!(l.traffic.is_empty(), "{tag}: legacy unexpectedly meters");
}

#[test]
fn transport_path_is_bit_identical_across_the_config_grid() {
    let cases = grid();
    assert!(cases.len() >= 100, "grid too small: {}", cases.len());
    let mut fault_cases = 0usize;
    let mut typed_failures = 0usize;
    for case in &cases {
        let values = values_for(case);
        let cfg = config_for(case);
        fault_cases += usize::from(cfg.faults.is_some());
        let legacy = run_sync(&values, &cfg, None, case.id);
        let mut transport = transport_for(&cfg, case.id);
        let evented = run_evented(&values, &cfg, None, transport.as_mut(), case.id);
        match (legacy, evented) {
            (Ok(l), Ok(e)) => assert_outcomes_match(case.id, cfg.validate, &l, &e),
            (Err(l), Err(e)) => {
                typed_failures += 1;
                assert_eq!(l, e, "case {}: error variants diverge", case.id);
            }
            (l, e) => panic!(
                "case {}: one path failed, the other did not: legacy={l:?} evented={e:?}",
                case.id
            ),
        }
    }
    assert!(fault_cases >= 50, "fault coverage too thin: {fault_cases}");
    eprintln!(
        "parity: {} cases ({fault_cases} faulted, {typed_failures} typed failures), all identical",
        cases.len()
    );
}

#[test]
fn metered_path_matches_and_bills_identically() {
    for case in grid().iter().filter(|c| c.id.is_multiple_of(5)) {
        let values = values_for(case);
        let cfg = config_for(case);
        let mut legacy_ledger = PrivacyLedger::new();
        let legacy = run_sync(&values, &cfg, Some(&mut legacy_ledger), case.id);
        let mut evented_ledger = PrivacyLedger::new();
        let mut transport = transport_for(&cfg, case.id);
        let evented = run_evented(
            &values,
            &cfg,
            Some(&mut evented_ledger),
            transport.as_mut(),
            case.id,
        );
        match (legacy, evented) {
            (Ok(l), Ok(e)) => assert_outcomes_match(case.id, cfg.validate, &l, &e),
            (Err(l), Err(e)) => assert_eq!(l, e, "case {}", case.id),
            (l, e) => panic!("case {}: {l:?} vs {e:?}", case.id),
        }
        assert_eq!(
            legacy_ledger.max_bits_per_client(),
            evented_ledger.max_bits_per_client(),
            "case {}: ledgers diverge",
            case.id
        );
        assert_eq!(
            legacy_ledger.max_epsilon_per_client(),
            evented_ledger.max_epsilon_per_client(),
            "case {}: epsilon totals diverge",
            case.id
        );
    }
}

#[test]
fn budget_exhaustion_errors_identically() {
    let values: Vec<f64> = (0..80).map(|i| f64::from(i % 50)).collect();
    let cfg = {
        let mut c = config_for(&Case {
            id: 1,
            population: 80,
            dropout: DropoutModel::None,
            privacy: true,
            secagg: false,
            latency: false,
            max_waves: 1,
            faults: None,
        });
        c.session_seed = 0xB0D6;
        c
    };
    let exhausted = || {
        // Every client already spent its whole one-bit budget last round.
        let mut ledger = PrivacyLedger::with_budget(PrivacyBudget::bits(1));
        for client in 0..80u64 {
            ledger.charge_round(client, 1, 1, 2.5).unwrap();
        }
        ledger
    };
    let mut l1 = exhausted();
    let legacy = run_sync(&values, &cfg, Some(&mut l1), 9);
    let mut l2 = exhausted();
    let mut t = InMemoryTransport::new(9);
    let evented = run_evented(&values, &cfg, Some(&mut l2), &mut t, 9);
    match (legacy, evented) {
        (Err(FedError::Budget(a)), Err(FedError::Budget(b))) => assert_eq!(a, b),
        (l, e) => panic!("expected identical budget errors, got {l:?} vs {e:?}"),
    }
}

#[test]
fn secure_round_leaves_the_caller_rng_at_the_same_position_on_both_wires() {
    // The secure tally is a masked popcount that draws no randomness, so
    // after a secure round with 10% dropout (Shamir recovery runs) the
    // per-client wire, the batched wire and the sync engine have consumed
    // exactly the collect phase's draws from a caller-supplied RNG.
    let values: Vec<f64> = (0..2_000).map(|i| f64::from(i % 200)).collect();
    let cfg = FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    ))
    .with_dropout(DropoutModel::bernoulli(0.1))
    .with_secagg(SecAggSettings::default());
    let next_draw = |via: bool, batched: Option<usize>| {
        let mut rng = StdRng::seed_from_u64(41);
        let mut transport = InMemoryTransport::new(41);
        let mut b = RoundBuilder::new(cfg.clone()).rng(&mut rng);
        if via {
            b = b.via(&mut transport);
        }
        if let Some(chunk) = batched {
            b = b.batched(chunk);
        }
        let out = b.run(&values).unwrap();
        let secagg = out.flat().unwrap().secagg.unwrap();
        assert!(
            secagg.recovered_pairwise > 0,
            "dropout must trigger recovery"
        );
        (out.estimate().to_bits(), rng.next_u64())
    };
    let per_client = next_draw(true, None);
    assert_eq!(per_client, next_draw(true, Some(64)), "batched wire");
    assert_eq!(per_client, next_draw(false, None), "sync engine");
}
