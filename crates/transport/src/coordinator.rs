//! The coordinator session state machine.
//!
//! Replaces the synchronous wave loop of `fednum_fedsim::round` with
//! message passing: a session advances rendezvous → configure → collect
//! (per wave) → unmask → publish, every step carried as framed
//! [`Message`]s over a [`Transport`] and ordered by the discrete-event
//! scheduler inside it.
//!
//! ```text
//!  client                      coordinator
//!    │ ── Hello ──────────────────▶ │   rendezvous
//!    │ ◀────────────── RoundConfig ─│   configure
//!    │ ── Report ─────────────────▶ │   collect (validated, per wave)
//!    │ ── KeyAdvertise/KeyShares ──▶ │   key exchange   ┐
//!    │ ── MaskedInput ────────────▶ │   masking        │ secagg only
//!    │ ── UnmaskShares ───────────▶ │   unmask         ┘
//!    │ ◀─────────────────── Publish │   publish
//! ```
//!
//! **One session, two wires.** The wire is a parameter of the session, not
//! a fork of it. `collect` plans every wave once: pool shuffle,
//! deficit-weighted refill sampling, wave size and backoff, assignment,
//! latency draw, collection window. Only the exchange depends on the wire.
//! The per-client wire carries the Hello/RoundConfig/Report chain drawn
//! above, with validation, faults, straggler parking and config
//! compression. The batched wire (`RoundBuilder::batched`) carries one
//! `ConfigHeader` per wave and one `BatchReport` of bit planes per chunk
//! of clients. Both close a wave into the same `Contact` records, and
//! the tally, salvage, publish and degraded-mode verdict are written once.
//!
//! **Parity contract.** Estimates are bit-identical to the synchronous
//! engine (`fednum_fedsim::round::run_round_impl`) under the same seed, on
//! either wire: the session consumes the shared RNG in exactly the legacy
//! draw order (pool shuffle, per-wave assignment, latency, then per client
//! dropout and randomized response), while everything transport-level —
//! event tie-breaks, key material, arrival jitter — is hash-derived and
//! never touches that stream. The tally draws nothing. Plain rounds count
//! the contacts directly (`direct_tally`, the only tally that sees the
//! naive server's duplicate copies). Secure rounds aggregate bit planes
//! rebuilt from the contacts with `run_secure_aggregation_planes`: under
//! Bonawitz masking the server learns exactly Σxᵢ, so a masked popcount is
//! the whole secure tally, here and in the sync engine alike. The tests
//! pin this contract.
//!
//! On top of the legacy semantics, the session meters traffic: every frame
//! is tallied per phase and direction at delivery into
//! [`TrafficStats`], surfaced on `RobustnessReport::traffic`. Frames a fault
//! destroys before delivery (a replay with nothing to replay) are never
//! counted — the server cannot bill what never arrived. Metering validates
//! each frame in place with [`Message::check`] (the same verdict as a
//! decode, no allocation). The secure-aggregation stand-in traffic, ~4
//! frames and ~4 KB per client, streams: each frame is built in place at
//! its exact size and deliveries are metered every `DRAIN_EVERY` sends,
//! so an attempt holds at most that many frames whatever the cohort size,
//! and a socket-backed transport pays one barrier round trip per chunk,
//! not per frame. The ledger is an order-free sum, so it is identical to
//! metering once per attempt.

use fednum_core::accumulator::BitAccumulator;
use fednum_core::bits::{bit, BitPlanes};
use fednum_core::privacy::{PrivacyLedger, RandomizedResponse};
use fednum_core::protocol::basic::BasicBitPushing;
use fednum_core::sampling::BitSampling;
use fednum_core::wire::{BatchReportMessage, ReportMessage};
use fednum_secagg::protocol::{
    run_secure_aggregation_planes, DropoutPlan, SecAggConfig, SecAggError,
};
use rand::seq::SliceRandom;
use rand::Rng;

use fednum_fedsim::dropout::Fate;
use fednum_fedsim::error::FedError;
use fednum_fedsim::faults::FaultKind;
use fednum_fedsim::retry::SalvagePolicy;
use fednum_fedsim::round::{
    DegradedMode, FederatedMeanConfig, FederatedOutcome, RobustnessReport, SalvageOutcome,
    SecAggSettings, SecAggSummary,
};
use fednum_fedsim::traffic::{Direction, TrafficPhase, TrafficStats};
use fednum_fedsim::validation::{RejectionCounts, ReportValidator};

use crate::message::{
    BatchReport, ConfigHeader, KeyAdvertise, KeyShares, MaskedInput, Message, Publish, Report,
    RoundConfig, UnmaskShares, PUBLIC_KEY_LEN,
};
use crate::net::{Envelope, Transport, BROADCAST, COORDINATOR};
use crate::scheduler::mix;
use crate::session::MultiSessionEngine;

/// Virtual-time spacing between consecutive clients' message chains.
const STEP: f64 = 3e-9;
/// Virtual-time cost of one message hop within a chain.
const HOP: f64 = 1e-9;
/// 61-bit field mask for hash-derived stand-in payload elements.
const MASK61: u64 = (1 << 61) - 1;
/// Session-seed tag for the flat coordinator's salvage instance: the
/// follow-up secure aggregation must derive a key graph independent of
/// every base-round attempt so re-admitted clients get fresh masks.
const SALVAGE_TAG: u64 = 0x5A1C_6E55_0C3B_92D1;

/// One contacted client's record, as the server saw it after validation.
/// Mirrors the legacy orchestrator's internal record field for field.
pub(crate) struct Contact {
    pub(crate) client: usize,
    pub(crate) bit: u32,
    pub(crate) report: Option<bool>,
    pub(crate) fate: Fate,
    pub(crate) copies: u64,
}

/// A post-deadline report frame held for a possible salvage session.
pub(crate) struct ParkedReport {
    /// Global client id (`Envelope::from`).
    pub(crate) client: u64,
    /// The wave's bit assignment for that client, for re-validation under a
    /// fresh [`ReportValidator`].
    pub(crate) assigned_bit: u32,
    /// The frame exactly as it arrived — already metered, never re-billed.
    pub(crate) payload: Vec<u8>,
}

/// Everything the collect phase produced, ready for the tally stage.
pub(crate) struct CollectState {
    pub(crate) contacts: Vec<Contact>,
    pub(crate) counts: Vec<u64>,
    pub(crate) completion_time: f64,
    pub(crate) backoff_time: f64,
    pub(crate) waves_used: u32,
    pub(crate) rejections: RejectionCounts,
    pub(crate) faults_injected: u64,
    pub(crate) traffic: TrafficStats,
    /// Virtual clock after the last collection window.
    pub(crate) clock: f64,
    /// Report frames that arrived after their wave deadline, counted in
    /// both validation modes (the validated server also rejects them).
    pub(crate) late_frames: u64,
    /// Late frames parked for salvage (validated mode with a salvage
    /// policy only), bounded by the policy's buffer cap.
    pub(crate) parked: Vec<ParkedReport>,
}

impl CollectState {
    fn new(bits: u32, clock: f64) -> Self {
        Self {
            contacts: Vec::new(),
            counts: vec![0; bits as usize],
            completion_time: 0.0,
            backoff_time: 0.0,
            waves_used: 0,
            rejections: RejectionCounts::default(),
            faults_injected: 0,
            traffic: TrafficStats::new(),
            clock,
            late_frames: 0,
            parked: Vec::new(),
        }
    }
}

/// What the secure-aggregation tally stage produced.
pub(crate) struct TallyOutput {
    pub(crate) ones: Vec<u64>,
    pub(crate) eff_counts: Vec<u64>,
    pub(crate) summary: SecAggSummary,
    pub(crate) retries: u32,
}

/// The secure-aggregation tally stage over an already-collected cohort:
/// frames the four protocol message rounds through the transport,
/// aggregates the attempt's bit planes with
/// [`run_secure_aggregation_planes`] (masked `count_ones`, no randomness),
/// and retries with an exponentially backed-off, shrunken cohort on
/// `TooFewSurvivors`. The one retry loop behind the flat session, salvage
/// and every hierarchical shard; `session_base` gives each instance its
/// own retry session sequence.
///
/// # Errors
/// See [`FedError`]; `TooFewSurvivors` after the last permitted retry
/// surfaces as [`FedError::SecAgg`].
pub(crate) fn secagg_tally(
    st: &mut CollectState,
    config: &FederatedMeanConfig,
    settings: &SecAggSettings,
    session_base: u64,
    round_id: u64,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
) -> Result<TallyOutput, FedError> {
    let bits = config.protocol.codec.bits();
    let epsilon = config
        .protocol
        .privacy
        .as_ref()
        .map_or(0.0, RandomizedResponse::epsilon);
    let vector_len = 2 * bits as usize;
    let mut secagg_retries = 0u32;
    let mut cohort: Vec<usize> = (0..st.contacts.len()).collect();
    loop {
        let n = cohort.len();
        let threshold = ((settings.threshold_fraction * n as f64).ceil() as usize).clamp(1, n);
        let mut plan = DropoutPlan::none();
        for (i, &ci) in cohort.iter().enumerate() {
            let c = &st.contacts[ci];
            if c.report.is_none() {
                plan.before_masking.insert(i);
            } else if c.fate == Fate::DropsAfterReport {
                plan.after_masking.insert(i);
            }
        }
        let session = session_base ^ u64::from(secagg_retries).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The key-exchange / masking / unmask message rounds for
        // this attempt, sized like the real protocol.
        let members: Vec<u64> = cohort
            .iter()
            .map(|&ci| st.contacts[ci].client as u64)
            .collect();
        let degree = settings
            .neighbors
            .unwrap_or(n.saturating_sub(1))
            .clamp(1, n.max(2) - 1);
        secagg_attempt_messages(
            transport,
            &mut st.traffic,
            &members,
            &plan,
            vector_len,
            degree,
            session,
            round_id,
            st.clock,
        );
        st.clock += 1.0;
        let mut sa_config = SecAggConfig::new(n, threshold, vector_len, session);
        if let Some(k) = settings.neighbors {
            sa_config = sa_config.with_neighbors(k);
        }
        let planes = planes_for_cohort(&st.contacts, &cohort, bits);
        match run_secure_aggregation_planes(&sa_config, &planes, &plan) {
            Ok(out) => {
                let (ones, eff_counts) = out.sum.split_at(bits as usize);
                return Ok(TallyOutput {
                    ones: ones.to_vec(),
                    eff_counts: eff_counts.to_vec(),
                    summary: SecAggSummary {
                        contributors: out.contributors.len(),
                        recovered_pairwise: out.pairwise_masks_reconstructed,
                    },
                    retries: secagg_retries,
                });
            }
            Err(e @ SecAggError::TooFewSurvivors { .. }) => {
                if secagg_retries >= config.retry.max_secagg_retries {
                    return Err(e.into());
                }
                let pause = config.retry.backoff(secagg_retries);
                secagg_retries += 1;
                st.backoff_time += pause;
                st.completion_time += pause;
                cohort.retain(|&ci| {
                    st.contacts[ci].fate == Fate::Responds && st.contacts[ci].report.is_some()
                });
                if cohort.len() < config.retry.min_cohort {
                    return Err(FedError::CohortTooSmall {
                        survivors: cohort.len(),
                        minimum: config.retry.min_cohort,
                    });
                }
                if cohort.is_empty() {
                    return Err(FedError::NoReports);
                }
                if let Some(ledger) = ledger.as_deref_mut() {
                    for &ci in &cohort {
                        ledger.charge_round(st.contacts[ci].client as u64, round_id, 1, epsilon)?;
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Builds the bit planes for a (possibly shrunken) cohort from its contact
/// records, preserving cohort order so [`DropoutPlan`] indices and plane
/// slots agree.
fn planes_for_cohort(contacts: &[Contact], cohort: &[usize], bits: u32) -> BitPlanes {
    let mut planes = BitPlanes::new(bits, cohort.len());
    for (i, &ci) in cohort.iter().enumerate() {
        let c = &contacts[ci];
        if let Some(sent) = c.report {
            planes.record(i, c.bit, sent);
        }
    }
    planes
}

/// What a salvage session contributed to the round's tallies. On every
/// non-`Salvaged` outcome the vectors are all-zero, so merging the result
/// is unconditional-safe: worst case equals today's discard behaviour.
pub(crate) struct SalvageResult {
    pub(crate) outcome: SalvageOutcome,
    pub(crate) ones: Vec<u64>,
    pub(crate) counts: Vec<u64>,
    pub(crate) reports: u64,
}

impl SalvageResult {
    fn empty(outcome: SalvageOutcome, bits: u32) -> Self {
        Self {
            outcome,
            ones: vec![0; bits as usize],
            counts: vec![0; bits as usize],
            reports: 0,
        }
    }
}

/// The straggler-salvage session: re-opens a bounded collection window as a
/// follow-up session on the same transport timeline, re-validates the
/// parked report frames under a fresh [`ReportValidator`], and tallies the
/// re-admitted cohort — directly, or through a *fresh* secure-aggregation
/// instance (`session_base` must be independent of every base-round
/// attempt so salvaged clients get fresh masks; shares from an aborted
/// base instance are never reused).
///
/// Strictly additive: every failure path returns zero tallies and typed
/// telemetry, leaving the published estimate exactly what discard would
/// have published. Parked frames were metered and privacy-charged at
/// original arrival; re-admission re-bills neither (the ledger re-charge
/// below is an idempotent no-op that only guards against external ledger
/// mutation). Draws no randomness, so salvage-on and salvage-off runs
/// leave the session RNG at the same position.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_salvage(
    st: &mut CollectState,
    config: &FederatedMeanConfig,
    policy: &SalvagePolicy,
    settings: Option<&SecAggSettings>,
    session_base: u64,
    round_id: u64,
    client_offset: u64,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
) -> SalvageResult {
    let bits = config.protocol.codec.bits();
    if st.parked.len() < policy.min_parked {
        return SalvageResult::empty(SalvageOutcome::SalvageSkipped, bits);
    }
    let epsilon = config
        .protocol
        .privacy
        .as_ref()
        .map_or(0.0, RandomizedResponse::epsilon);
    let window = config
        .latency
        .as_ref()
        .map_or(1.0, |l| l.timeout)
        .min(policy.max_extra_time);

    let mut engine = MultiSessionEngine::new(transport, st.clock);
    let mut slot = engine.open_session();
    slot.open_window(0.0, window);
    // Re-admit each parked frame verbatim. `redeliver` bypasses fault
    // dispatch and the replay register — the frame already paid both at
    // original arrival — and nothing here meters it again.
    for (k, p) in st.parked.iter().enumerate() {
        slot.redeliver(Envelope {
            from: p.client,
            to: COORDINATOR,
            sent_at: k as f64 * STEP,
            payload: p.payload.clone(),
        });
    }

    // Fresh validator scoped to exactly the parked cohort and their
    // original bit assignments; its rejections are not absorbed into the
    // round's counts (these frames were already rejected once as
    // stragglers — salvage only decides whether to un-reject them).
    let assigned: Vec<(u64, u32)> = st
        .parked
        .iter()
        .map(|p| (p.client, p.assigned_bit))
        .collect();
    let mut validator = ReportValidator::for_round(bits, &assigned, round_id);
    let mut salvaged = CollectState::new(bits, window);
    salvaged.waves_used = 1;
    while let Some((at, env)) = slot.poll() {
        if at > window {
            // Missed even the salvage window: the final discard.
            continue;
        }
        let Ok(Message::Report(r)) = Message::decode(&env.payload) else {
            continue;
        };
        if r.body.reports.len() != 1 {
            continue;
        }
        let (d_bit8, d_value) = r.body.reports[0];
        let d_bit = u32::from(d_bit8);
        if validator
            .submit_tagged(
                env.from,
                d_bit,
                f64::from(u8::from(d_value)),
                r.body.task_id,
                r.nonce,
            )
            .is_err()
        {
            continue;
        }
        salvaged.contacts.push(Contact {
            client: (env.from - client_offset) as usize,
            bit: d_bit,
            report: Some(d_value),
            fate: Fate::Responds,
            copies: 1,
        });
        salvaged.counts[d_bit as usize] += 1;
    }
    st.completion_time += window;

    // Privacy floor: a one-party secure aggregate would reveal that
    // client's report outright, so a masked salvage needs at least two
    // re-admitted members. Direct mode has no such floor — validated
    // direct reports are individually visible by construction.
    let floor = if settings.is_some() { 2 } else { 1 };
    if salvaged.contacts.len() < floor {
        st.clock = engine.watermark();
        return SalvageResult::empty(SalvageOutcome::SalvageAborted, bits);
    }
    if let Some(ledger) = ledger.as_deref_mut() {
        for c in &salvaged.contacts {
            if ledger
                .charge_round(client_offset + c.client as u64, round_id, 1, epsilon)
                .is_err()
            {
                st.clock = engine.watermark();
                return SalvageResult::empty(SalvageOutcome::SalvageAborted, bits);
            }
        }
    }

    let reports: u64 = salvaged.counts.iter().sum();
    match settings {
        Some(settings) => {
            // Clamp the mask-graph degree to the (small) salvaged cohort
            // and cap re-mask attempts by the policy, not the base retry
            // budget; min_cohort drops to the privacy floor.
            let mut salvage_settings = *settings;
            if let Some(k) = settings.neighbors {
                salvage_settings.neighbors = Some(k.clamp(1, salvaged.contacts.len() - 1));
            }
            let mut salvage_config = config.clone();
            salvage_config.retry.max_secagg_retries = policy.max_attempts;
            salvage_config.retry.min_cohort = floor;
            let tally = secagg_tally(
                &mut salvaged,
                &salvage_config,
                &salvage_settings,
                session_base,
                round_id,
                ledger,
                &mut slot,
            );
            st.clock = engine.watermark();
            st.traffic
                .absorb_as(&salvaged.traffic, TrafficPhase::Salvage);
            st.completion_time += salvaged.completion_time;
            st.backoff_time += salvaged.backoff_time;
            match tally {
                Ok(t) => SalvageResult {
                    outcome: SalvageOutcome::Salvaged { reports },
                    ones: t.ones,
                    counts: t.eff_counts,
                    reports,
                },
                Err(_) => SalvageResult::empty(SalvageOutcome::SalvageAborted, bits),
            }
        }
        None => {
            st.clock = engine.watermark();
            SalvageResult {
                outcome: SalvageOutcome::Salvaged { reports },
                ones: direct_tally(&salvaged.contacts, bits),
                counts: salvaged.counts,
                reports,
            }
        }
    }
}

/// Runs a complete federated mean-estimation session over `transport`,
/// per-client wire or batched (`batched = Some(chunk)`). Same semantics
/// (and, seed for seed, the same estimate) as the synchronous engine
/// (`fednum_fedsim::round::run_round_impl`), plus per-phase traffic
/// accounting in `FederatedOutcome::robustness.traffic`.
///
/// # Errors
/// See [`FedError`].
pub(crate) fn run_session(
    values: &[f64],
    config: &FederatedMeanConfig,
    batched: Option<usize>,
    ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, FedError> {
    run_session_inner(values, config, batched, ledger, transport, rng, false).map(|(out, _)| out)
}

/// The full session body. `with_feedback` embeds the round's per-bit means
/// in the Publish frame (the adaptive two-round protocol's round-1 → round-2
/// feedback channel); the returned bytes are that frame, so a follow-up
/// session can decode exactly what was broadcast.
#[allow(clippy::too_many_lines)]
pub(crate) fn run_session_inner(
    values: &[f64],
    config: &FederatedMeanConfig,
    batched: Option<usize>,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
    with_feedback: bool,
) -> Result<(FederatedOutcome, Vec<u8>), FedError> {
    if values.is_empty() {
        return Err(FedError::PopulationTooSmall { got: 0, need: 1 });
    }
    let codec = config.protocol.codec;
    let bits = codec.bits();
    let (codes, clip_fraction) = codec.encode_all(values);
    let round_id = config.session_seed;

    let mut st = collect(
        &codes,
        config,
        batched,
        0,
        ledger.as_deref_mut(),
        transport,
        rng,
    )?;

    let mut total_reports: u64 = st.counts.iter().sum();
    if total_reports == 0 {
        return Err(FedError::NoReports);
    }
    let reporters = st.contacts.iter().filter(|c| c.report.is_some()).count();
    if reporters < config.retry.min_cohort {
        return Err(FedError::CohortTooSmall {
            survivors: reporters,
            minimum: config.retry.min_cohort,
        });
    }

    // Tally stage: aggregate per-bit (ones, counts), directly or through
    // the four secure-aggregation message rounds.
    let mut secagg_retries = 0u32;
    let (mut ones, mut eff_counts, secagg_summary) = match &config.secagg {
        Some(settings) => {
            let tally = secagg_tally(
                &mut st,
                config,
                settings,
                config.session_seed,
                round_id,
                ledger.as_deref_mut(),
                transport,
            )?;
            secagg_retries = tally.retries;
            (tally.ones, tally.eff_counts, Some(tally.summary))
        }
        None => (direct_tally(&st.contacts, bits), st.counts.clone(), None),
    };

    // Salvage: a strictly additive follow-up session over the parked
    // stragglers, merged into the published tallies with exact-count
    // weighting. The naive (unvalidated) server parks nothing — it already
    // accepted the stragglers inline — so salvage reports Skipped there.
    let salvage_outcome = match (&config.salvage, config.validate) {
        (Some(policy), true) => {
            let res = run_salvage(
                &mut st,
                config,
                policy,
                config.secagg.as_ref(),
                mix(config.session_seed ^ SALVAGE_TAG),
                round_id,
                0,
                ledger,
                transport,
            );
            if matches!(res.outcome, SalvageOutcome::Salvaged { .. }) {
                for j in 0..bits as usize {
                    ones[j] += res.ones[j];
                    eff_counts[j] += res.counts[j];
                }
                total_reports += res.reports;
            }
            Some(res.outcome)
        }
        (Some(_), false) => Some(SalvageOutcome::SalvageSkipped),
        (None, _) => None,
    };

    let acc = BitAccumulator::from_parts(
        debias_sums(&ones, &eff_counts, config.protocol.privacy.as_ref()),
        eff_counts.clone(),
    );
    let outcome = BasicBitPushing::new(config.protocol.clone()).finish(acc, clip_fraction);

    // Publish: the result broadcast, modeled as one closing frame.
    let publish = Message::Publish(Publish {
        round_id,
        estimate: outcome.estimate,
        reports: total_reports,
        feedback: if with_feedback {
            outcome.bit_means.clone()
        } else {
            Vec::new()
        },
    });
    let publish_frame = publish.encode();
    transport.send(Envelope {
        from: COORDINATOR,
        to: 0,
        sent_at: st.clock,
        payload: publish_frame.clone(),
    });
    drain_counting(transport, &mut st.traffic);

    let base_probs = config.protocol.sampling.probs();
    let starved_bits: Vec<u32> = base_probs
        .iter()
        .zip(&eff_counts)
        .enumerate()
        .filter(|(_, (&p, &c))| p > 0.0 && c < config.min_reports_per_bit)
        .map(|(j, _)| j as u32)
        .collect();

    let degraded = if !starved_bits.is_empty() {
        DegradedMode::Partial
    } else if secagg_retries > 0 {
        DegradedMode::Retried
    } else if st.waves_used > 1 {
        DegradedMode::Refilled
    } else {
        DegradedMode::Clean
    };

    Ok((
        FederatedOutcome {
            outcome,
            contacted: st.contacts.len(),
            reports: total_reports,
            waves_used: st.waves_used,
            completion_time: st.completion_time,
            starved_bits,
            secagg: secagg_summary,
            robustness: RobustnessReport {
                degraded,
                rejections: st.rejections,
                late_frames: st.late_frames,
                salvage: salvage_outcome,
                secagg_retries,
                faults_injected: st.faults_injected,
                backoff_time: st.backoff_time,
                traffic: st.traffic,
            },
        },
        publish_frame,
    ))
}

/// One wave's plan, shared by both wire exchanges.
struct Wave {
    /// Contacted clients (local population indices), in slot order.
    batch: Vec<usize>,
    /// Assigned bit per slot.
    assignment: Vec<u32>,
    /// Collection window `[t0, deadline]` in virtual time.
    t0: f64,
    deadline: f64,
    /// The secagg threshold and vector length advertised in the config.
    threshold_hint: u64,
    vector_hint: u64,
}

/// What reached the server for one wave slot: the accepted report and how
/// many copies of it arrived (`copies == 0`: nothing), plus the client
/// model's dropout fate.
#[derive(Clone, Copy)]
struct Delivery {
    bit: u32,
    value: bool,
    copies: u64,
    fate: Fate,
}

/// The run-wide context of one collect phase.
struct Collector<'c> {
    codes: &'c [u64],
    config: &'c FederatedMeanConfig,
    client_offset: u64,
    epsilon: f64,
    ledger: Option<&'c mut PrivacyLedger>,
    transport: &'c mut dyn Transport,
    rng: &'c mut dyn Rng,
    st: CollectState,
}

/// The collect phase: contacts the cohort in waves over the transport,
/// applying the dropout model, client-phase faults, validation, and
/// deficit-weighted refills exactly as the legacy orchestrator does, in the
/// same RNG draw order. The wave plan is written once; `batched` picks only
/// the exchange — a Hello/RoundConfig/Report chain per client (`None`) or
/// one `BatchReport` frame per chunk of `chunk` clients (`Some(chunk)`).
///
/// `client_offset` shifts local population indices into global client
/// identity space (nonzero under sharding), so fault plans and privacy
/// ledgers see fleet-wide client ids.
///
/// # Errors
/// See [`FedError`].
pub(crate) fn collect(
    codes: &[u64],
    config: &FederatedMeanConfig,
    batched: Option<usize>,
    client_offset: u64,
    ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<CollectState, FedError> {
    debug_assert!(
        batched.is_none() || (config.faults.is_none() && config.salvage.is_none()),
        "builder rejects faults and salvage on the batched wire"
    );
    let bits = config.protocol.codec.bits();
    let mut cx = Collector {
        codes,
        config,
        client_offset,
        epsilon: config
            .protocol
            .privacy
            .as_ref()
            .map_or(0.0, RandomizedResponse::epsilon),
        ledger,
        transport,
        rng,
        st: CollectState::new(bits, 0.0),
    };
    // Net downlink bytes the compressed config codec avoids: banked per
    // delivered AssignBit delta, debited per broadcast header.
    let mut saved: i64 = 0;
    // Collection-window length in virtual time; the deadline stragglers
    // miss. Matches the latency model's timeout when one is configured.
    let window_len = config.latency.as_ref().map_or(1.0, |l| l.timeout);
    // client → (slot in current wave) + 1; 0 = not contacted this wave.
    let mut wave_slot = vec![0u32; if batched.is_some() { 0 } else { codes.len() }];

    // Uncontacted-client pool, randomly ordered (first legacy RNG draw).
    let mut pool: Vec<usize> = (0..codes.len()).collect();
    pool.shuffle(cx.rng);

    let base_probs = config.protocol.sampling.probs().to_vec();
    for wave in 0..config.max_waves {
        if pool.is_empty() {
            break;
        }
        let counts = &cx.st.counts;
        let sampling = if wave == 0 {
            config.protocol.sampling.clone()
        } else {
            let deficits: Vec<f64> = base_probs
                .iter()
                .zip(counts)
                .map(|(&p, &c)| {
                    if p > 0.0 && c < config.min_reports_per_bit {
                        (config.min_reports_per_bit - c) as f64
                    } else {
                        0.0
                    }
                })
                .collect();
            if deficits.iter().all(|&d| d == 0.0) {
                break;
            }
            BitSampling::custom(deficits)
        };

        let wave_size = if wave == 0 {
            ((config.wave_fraction * pool.len() as f64).ceil() as usize).clamp(1, pool.len())
        } else {
            let deficit_total: u64 = base_probs
                .iter()
                .zip(counts)
                .filter(|(&p, &c)| p > 0.0 && c < config.min_reports_per_bit)
                .map(|(_, &c)| config.min_reports_per_bit - c)
                .sum();
            let needed =
                (deficit_total as f64 / config.dropout.response_rate().max(0.01)).ceil() as usize;
            needed.clamp(1, pool.len())
        };
        if wave > 0 {
            let pause = config.retry.backoff(wave - 1);
            cx.st.backoff_time += pause;
            cx.st.completion_time += pause;
        }
        cx.st.waves_used = wave + 1;

        let batch: Vec<usize> = pool.drain(..wave_size).collect();
        let assignment = sampling.assign(config.protocol.assignment, batch.len(), cx.rng);
        let mut wave_time = match &config.latency {
            Some(lat) => lat.simulate_round(batch.len(), 0.9, cx.rng).completion_time,
            None => 0.0,
        };

        // The wave's collection window in virtual time.
        let t0 = 2.0 * window_len * f64::from(wave);
        let deadline = t0 + window_len;
        cx.transport.open_window(t0, deadline);
        let threshold_hint = config.secagg.map_or(0, |s| {
            ((s.threshold_fraction * batch.len() as f64).ceil() as u64).clamp(1, batch.len() as u64)
        });
        let w = Wave {
            batch,
            assignment,
            t0,
            deadline,
            threshold_hint,
            vector_hint: if config.secagg.is_some() {
                2 * u64::from(bits)
            } else {
                0
            },
        };

        let mut delivered = vec![
            Delivery {
                bit: 0,
                value: false,
                copies: 0,
                fate: Fate::DropsBeforeReport,
            };
            w.batch.len()
        ];
        let stragglers = match batched {
            Some(chunk) => {
                cx.exchange_batched(&w, chunk, &mut delivered)?;
                0
            }
            None => cx.exchange_per_client(&w, &mut wave_slot, &mut saved, &mut delivered)?,
        };

        if let Some(lat) = &config.latency {
            if stragglers > 0 {
                wave_time = wave_time.max(lat.timeout);
            }
        }
        cx.st.late_frames += stragglers;
        cx.st.completion_time += wave_time;

        // Close the wave in batch (contact) order, as the synchronous
        // orchestrator records it: anything that produced no accepted
        // delivery — vanished client, enforced deadline, lost chunk,
        // rejected-everything transport — is one uniform "nothing
        // arrived" record.
        for ((&client, &j), d) in w.batch.iter().zip(&w.assignment).zip(&delivered) {
            let contact = if d.copies > 0 {
                cx.st.counts[d.bit as usize] += d.copies;
                Contact {
                    client,
                    bit: d.bit,
                    report: Some(d.value),
                    fate: d.fate,
                    copies: d.copies,
                }
            } else {
                Contact {
                    client,
                    bit: j,
                    report: None,
                    fate: Fate::DropsBeforeReport,
                    copies: 0,
                }
            };
            cx.st.contacts.push(contact);
        }
    }

    if saved > 0 {
        cx.st.traffic.credit_config_savings(saved as u64);
    }
    cx.st.clock = 2.0 * window_len * f64::from(cx.st.waves_used);
    Ok(cx.st)
}

impl Collector<'_> {
    /// The per-client wire: Hello uplink, RoundConfig (or compressed
    /// AssignBit) downlink and Report uplink per client, unrolled event by
    /// event. Validates reports, acts out client-phase faults, and parks
    /// post-deadline frames for salvage. Returns the wave's straggler
    /// count.
    #[allow(clippy::too_many_lines)]
    fn exchange_per_client(
        &mut self,
        w: &Wave,
        wave_slot: &mut [u32],
        saved: &mut i64,
        delivered: &mut [Delivery],
    ) -> Result<u64, FedError> {
        let config = self.config;
        let bits = config.protocol.codec.bits();
        let round_id = config.session_seed;
        let secagg_on = config.secagg.is_some();
        let compress = config.compress_config;
        let offset = self.client_offset;
        // Late frames are parked only when a salvage policy may re-admit
        // them; without one the buffer stays empty and the path is
        // cost-free.
        let salvage_cap = if config.validate {
            config.salvage.as_ref().map_or(0, |p| p.buffer_cap)
        } else {
            0
        };
        let mut validator = if config.validate && config.faults.is_some() {
            let assigned: Vec<(u64, u32)> = w
                .batch
                .iter()
                .zip(&w.assignment)
                .map(|(&c, &j)| (offset + c as u64, j))
                .collect();
            Some(ReportValidator::for_round(bits, &assigned, round_id))
        } else {
            None
        };
        for (slot, &client) in w.batch.iter().enumerate() {
            wave_slot[client] = slot as u32 + 1;
        }
        let full_config = |assigned_bit| {
            Message::RoundConfig(RoundConfig {
                round_id,
                assigned_bit,
                secagg: secagg_on,
                threshold: w.threshold_hint,
                vector_len: w.vector_hint,
            })
        };
        if compress {
            // One shared header for the whole wave; Hellos are answered
            // with a 2-byte AssignBit delta instead of a full RoundConfig.
            self.transport.send(Envelope {
                from: COORDINATOR,
                to: BROADCAST,
                sent_at: w.t0,
                payload: Message::ConfigHeader(ConfigHeader {
                    round_id,
                    secagg: secagg_on,
                    threshold: w.threshold_hint,
                    vector_len: w.vector_hint,
                })
                .encode(),
            });
        }
        let mut stragglers = 0u64;

        // Rendezvous: every contacted client checks in; the rest of the
        // wave unrolls event by event.
        for (k, &client) in w.batch.iter().enumerate() {
            self.transport.send(Envelope {
                from: offset + client as u64,
                to: COORDINATOR,
                sent_at: w.t0 + k as f64 * STEP,
                payload: Message::Hello { round_id }.encode(),
            });
        }

        while let Some((at, env)) = self.transport.poll() {
            let Ok(msg) = Message::decode(&env.payload) else {
                continue;
            };
            let nbytes = env.payload.len() as u64;
            if env.to == COORDINATOR {
                self.st
                    .traffic
                    .record(msg.phase(), Direction::Uplink, nbytes);
                let local = env.from.wrapping_sub(offset) as usize;
                let slot = wave_slot.get(local).and_then(|s| s.checked_sub(1));
                match msg {
                    Message::Hello { .. } => {
                        // Configure: reply with the client's task.
                        let Some(slot) = slot else { continue };
                        let assigned_bit = w.assignment[slot as usize] as u8;
                        let rc = if compress {
                            Message::AssignBit { assigned_bit }
                        } else {
                            full_config(assigned_bit)
                        };
                        self.transport.send(Envelope {
                            from: COORDINATOR,
                            to: env.from,
                            sent_at: at + HOP,
                            payload: rc.encode(),
                        });
                    }
                    Message::Report(r) => {
                        if at > w.deadline {
                            // Past the wave deadline.
                            stragglers += 1;
                            if config.validate {
                                self.st.rejections.straggler += 1;
                                if let Some(slot) =
                                    slot.filter(|_| self.st.parked.len() < salvage_cap)
                                {
                                    self.st.parked.push(ParkedReport {
                                        client: env.from,
                                        assigned_bit: w.assignment[slot as usize],
                                        payload: env.payload.clone(),
                                    });
                                }
                                continue;
                            }
                        }
                        // Secure aggregation carries one masked vector per
                        // client: a transport-level re-send collapses.
                        if secagg_on && r.nonce & (1 << 63) != 0 {
                            continue;
                        }
                        if r.body.reports.len() != 1 {
                            continue;
                        }
                        let (d_bit8, d_value) = r.body.reports[0];
                        let d_bit = u32::from(d_bit8);
                        let accepted = match &mut validator {
                            Some(v) => v
                                .submit_tagged(
                                    env.from,
                                    d_bit,
                                    f64::from(u8::from(d_value)),
                                    r.body.task_id,
                                    r.nonce,
                                )
                                .is_ok(),
                            None => true,
                        };
                        if let Some(slot) = slot.filter(|_| accepted) {
                            let d = &mut delivered[slot as usize];
                            d.bit = d_bit;
                            d.value = d_value;
                            d.copies += 1;
                        }
                    }
                    _ => {}
                }
            } else {
                self.st
                    .traffic
                    .record(msg.phase(), Direction::Downlink, nbytes);
                if env.to == BROADCAST {
                    // The shared header: metered above, debited against the
                    // per-client delta savings, no client model to run.
                    if matches!(msg, Message::ConfigHeader(_)) {
                        *saved -= nbytes as i64;
                    }
                    continue;
                }
                let assigned_bit = match msg {
                    Message::RoundConfig(rc) => rc.assigned_bit,
                    Message::AssignBit { assigned_bit } => {
                        // Bank what the full per-client frame would have
                        // cost on the uncompressed codec.
                        *saved += full_config(assigned_bit).encoded_len() as i64 - nbytes as i64;
                        assigned_bit
                    }
                    _ => continue,
                };
                // The client model: dropout fate, fault, disclosure.
                let local = (env.to - offset) as usize;
                let Some(slot) = wave_slot[local].checked_sub(1) else {
                    continue;
                };
                let j = u32::from(assigned_bit);
                let mut fate = config.dropout.sample(self.rng);
                let fault = config
                    .faults
                    .as_ref()
                    .and_then(|p| p.fault_for(round_id, env.to));
                self.st.faults_injected += u64::from(fault.is_some());
                if fault == Some(FaultKind::DropBeforeReport) {
                    fate = Fate::DropsBeforeReport;
                }
                if fate == Fate::DropsBeforeReport {
                    delivered[slot as usize].fate = fate;
                    continue;
                }
                // The privacy disclosure: computed and metered here, once,
                // whatever the transport then does to the frame. A stale
                // fault re-sends an old report, disclosing nothing new.
                let raw = bit(self.codes[local], j);
                let sent = match &config.protocol.privacy {
                    Some(rr) => rr.flip(raw, self.rng),
                    None => raw,
                };
                if fault != Some(FaultKind::StaleRound) {
                    if let Some(ledger) = self.ledger.as_deref_mut() {
                        ledger.charge_round(env.to, round_id, 1, self.epsilon)?;
                    }
                }
                if fault == Some(FaultKind::DropBeforeUnmask) && fate == Fate::Responds {
                    fate = Fate::DropsAfterReport;
                }
                delivered[slot as usize].fate = fate;
                let body = if fault == Some(FaultKind::StaleRound) {
                    ReportMessage {
                        task_id: round_id.wrapping_sub(1),
                        reports: vec![(
                            assigned_bit,
                            config
                                .faults
                                .as_ref()
                                .expect("fault implies plan")
                                .payload_bit(round_id, env.to),
                        )],
                    }
                } else {
                    ReportMessage {
                        task_id: round_id,
                        reports: vec![(assigned_bit, sent)],
                    }
                };
                self.transport.send(Envelope {
                    from: env.to,
                    to: COORDINATOR,
                    sent_at: at + HOP,
                    payload: Message::Report(Report {
                        nonce: env.to,
                        body,
                    })
                    .encode(),
                });
            }
        }

        if let Some(v) = validator {
            self.st.rejections.absorb(&v.rejection_counts());
        }
        for &client in &w.batch {
            wave_slot[client] = 0;
        }
        Ok(stragglers)
    }

    /// The batched wire: one shared `ConfigHeader` per wave, then one
    /// [`BatchReport`] frame per chunk of `chunk` clients instead of a
    /// Hello/RoundConfig/Report chain per client. The client model runs in
    /// slot order, which is parity-exact because the per-client wire's
    /// chains are serialized by construction (`HOP` < `STEP`), so its
    /// model draws land in slot order too.
    ///
    /// The wire is load-bearing: every chunk frame round-trips through the
    /// transport and the server reads reports only off the decoded planes,
    /// keyed by chunk nonce; a chunk the wire lost or delivered late is
    /// "nothing arrived" for all its slots.
    fn exchange_batched(
        &mut self,
        w: &Wave,
        chunk: usize,
        delivered: &mut [Delivery],
    ) -> Result<(), FedError> {
        debug_assert!(chunk > 0, "builder rejects a zero chunk");
        let config = self.config;
        let bits = config.protocol.codec.bits();
        let round_id = config.session_seed;
        // One shared config broadcast per wave; assignments travel inside
        // the chunk schedule, not as per-client frames.
        self.transport.send(Envelope {
            from: COORDINATOR,
            to: BROADCAST,
            sent_at: w.t0,
            payload: Message::ConfigHeader(ConfigHeader {
                round_id,
                secagg: config.secagg.is_some(),
                threshold: w.threshold_hint,
                vector_len: w.vector_hint,
            })
            .encode(),
        });

        // Client model in slot order — the exact draw order the per-client
        // wire's serialized delivery chains produce.
        let mut sent: Vec<Option<(u32, bool)>> = vec![None; w.batch.len()];
        for (slot, &client) in w.batch.iter().enumerate() {
            let j = w.assignment[slot];
            let fate = config.dropout.sample(self.rng);
            delivered[slot].fate = fate;
            if fate == Fate::DropsBeforeReport {
                continue;
            }
            let raw = bit(self.codes[client], j);
            let value = match &config.protocol.privacy {
                Some(rr) => rr.flip(raw, self.rng),
                None => raw,
            };
            if let Some(ledger) = self.ledger.as_deref_mut() {
                ledger.charge_round(
                    self.client_offset + client as u64,
                    round_id,
                    1,
                    self.epsilon,
                )?;
            }
            sent[slot] = Some((j, value));
        }

        // Edge packing: one BatchReport frame per chunk, slots local to
        // the chunk, sent when the chunk's first client would have
        // reported on the per-client wire.
        for (ci, chunk_slots) in sent.chunks(chunk).enumerate() {
            let start = ci * chunk;
            let mut planes = BitPlanes::new(bits, chunk_slots.len());
            for (s, entry) in chunk_slots.iter().enumerate() {
                if let Some((j, value)) = entry {
                    planes.record(s, *j, *value);
                }
            }
            self.transport.send(Envelope {
                from: self.client_offset + w.batch[start] as u64,
                to: COORDINATOR,
                sent_at: w.t0 + start as f64 * STEP + 2.0 * HOP,
                payload: Message::BatchReport(BatchReport {
                    nonce: ci as u64,
                    body: BatchReportMessage {
                        task_id: round_id,
                        planes,
                    },
                })
                .encode(),
            });
        }

        // Server side: read every slot's report off the planes that
        // actually arrived on time.
        while let Some((at, env)) = self.transport.poll() {
            let Ok(msg) = Message::decode(&env.payload) else {
                continue;
            };
            let nbytes = env.payload.len() as u64;
            if env.to != COORDINATOR {
                self.st
                    .traffic
                    .record(msg.phase(), Direction::Downlink, nbytes);
                continue;
            }
            self.st
                .traffic
                .record(msg.phase(), Direction::Uplink, nbytes);
            let Message::BatchReport(br) = msg else {
                continue;
            };
            let Some(start) = usize::try_from(br.nonce)
                .ok()
                .and_then(|n| n.checked_mul(chunk))
                .filter(|&s| s < w.batch.len())
            else {
                continue;
            };
            let planes = br.body.planes;
            if br.body.task_id != round_id
                || at > w.deadline
                || planes.bits() != bits
                || planes.slots() != chunk.min(w.batch.len() - start)
            {
                continue;
            }
            // Decoded planes hold at most one report per slot (the codec
            // rejects a slot occupied on two planes).
            for j in 0..bits {
                let occupancy = planes.plane_occupancy(j as usize);
                let values = planes.plane_value(j as usize);
                for (word, (&occ, &val)) in occupancy.iter().zip(values).enumerate() {
                    let mut rest = occ;
                    while rest != 0 {
                        let s = rest.trailing_zeros();
                        rest &= rest - 1;
                        let d = &mut delivered[start + word * 64 + s as usize];
                        d.bit = j;
                        d.value = (val >> s) & 1 != 0;
                        d.copies = 1;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-bit ones tally over direct (non-secagg) contacts.
pub(crate) fn direct_tally(contacts: &[Contact], bits: u32) -> Vec<u64> {
    let mut ones = vec![0u64; bits as usize];
    for c in contacts {
        if let Some(true) = c.report {
            ones[c.bit as usize] += c.copies;
        }
    }
    ones
}

/// Debiases per-bit sums through randomized response (affine, so debiasing
/// the sum equals debiasing every report).
pub(crate) fn debias_sums(
    ones: &[u64],
    eff_counts: &[u64],
    privacy: Option<&RandomizedResponse>,
) -> Vec<f64> {
    ones.iter()
        .zip(eff_counts)
        .map(|(&o, &c)| match (privacy, c) {
            (_, 0) => 0.0,
            (Some(rr), c) => c as f64 * rr.debias_mean(o as f64 / c as f64),
            (None, _) => o as f64,
        })
        .collect()
}

/// Fills `out` with hash-derived bytes from `seed` (key/ciphertext
/// stand-ins: content is irrelevant, size is what's accounted).
pub(crate) fn fill_derived(out: &mut [u8], seed: u64) {
    let mut words = out.chunks_exact_mut(8);
    let mut i = 0;
    for word in &mut words {
        word.copy_from_slice(&mix(seed.wrapping_add(i)).to_le_bytes());
        i += 1;
    }
    let tail = words.into_remainder();
    if !tail.is_empty() {
        tail.copy_from_slice(&mix(seed.wrapping_add(i)).to_le_bytes()[..tail.len()]);
    }
}

/// Frames a secure-aggregation attempt sends between two meterings: the
/// most sent-but-unpolled frames it ever holds. Metering after every send
/// would cost a socket-backed transport a `Barrier` round trip per frame
/// (a poll that empties its queue confirms the window); metering once per
/// attempt held all ~4n frames of the cohort in memory at once.
pub(crate) const DRAIN_EVERY: usize = 256;

/// Sends frames and meters their deliveries every [`DRAIN_EVERY`] sends.
/// [`TrafficStats`] is an order-free sum, so the ledger equals metering
/// everything once at the end.
struct MeteredSends<'a> {
    transport: &'a mut dyn Transport,
    traffic: &'a mut TrafficStats,
    unpolled: usize,
}

impl MeteredSends<'_> {
    fn send(&mut self, from: u64, sent_at: f64, payload: Vec<u8>) {
        self.transport.send(Envelope {
            from,
            to: COORDINATOR,
            sent_at,
            payload,
        });
        self.unpolled += 1;
        if self.unpolled == DRAIN_EVERY {
            self.drain();
        }
    }

    fn drain(&mut self) {
        drain_counting(self.transport, self.traffic);
        self.unpolled = 0;
    }
}

/// Frames one secure-aggregation attempt's four message rounds through the
/// transport, sized like the real protocol (Bell et al. ring graph of the
/// given degree), and tallies them at delivery. Payload *content* is
/// hash-derived stand-in material — the aggregation math itself runs in
/// `fednum-secagg` — but every message count and byte matches what the
/// cohort would send.
///
/// The attempt streams: each frame is built in place in a buffer of its
/// exact size (no intermediate share or value vectors), and deliveries are
/// metered every [`DRAIN_EVERY`] sends, so at most that many frames are in
/// flight at once whatever the cohort size.
#[allow(clippy::too_many_arguments)]
fn secagg_attempt_messages(
    transport: &mut dyn Transport,
    traffic: &mut TrafficStats,
    members: &[u64],
    plan: &DropoutPlan,
    vector_len: usize,
    degree: usize,
    session: u64,
    round_id: u64,
    t0: f64,
) {
    let n = members.len();
    let mut seq = 0u64;
    let mut next_at = || {
        seq += 1;
        t0 + seq as f64 * STEP
    };
    let mut out = MeteredSends {
        transport,
        traffic,
        unpolled: 0,
    };
    // Round 0 — key exchange: every cohort member advertises both keys.
    for (i, &c) in members.iter().enumerate() {
        let seed = mix(session ^ (i as u64).wrapping_mul(0x9E6C_63D0_876A_68DE));
        let mut kem_pk = [0u8; PUBLIC_KEY_LEN];
        let mut mask_pk = [0u8; PUBLIC_KEY_LEN];
        fill_derived(&mut kem_pk, seed);
        fill_derived(&mut mask_pk, mix(seed));
        let frame = Message::KeyAdvertise(KeyAdvertise {
            round_id,
            kem_pk,
            mask_pk,
        })
        .encode();
        out.send(c, next_at(), frame);
    }
    // Round 1 — key exchange: encrypted Shamir shares, one per ring
    // neighbor, relayed through the coordinator.
    for (i, &c) in members.iter().enumerate() {
        let recipients = (0..degree).map(|d| members[(i + d + 1) % n]);
        let frame = KeyShares::frame(round_id, recipients, |d, ct| {
            fill_derived(ct, mix(session ^ (i as u64) << 20 ^ d as u64));
        });
        out.send(c, next_at(), frame);
    }
    // Round 2 — masking: clients still alive upload masked inputs
    // (uniform field elements, ≈ 9 varint bytes each).
    for (i, &c) in members.iter().enumerate() {
        if plan.before_masking.contains(&i) {
            continue;
        }
        let values = (0..vector_len).map(|v| mix(session ^ (i as u64) << 24 ^ v as u64) & MASK61);
        out.send(c, next_at(), MaskedInput::frame(round_id, values));
    }
    // Round 3 — unmask: survivors send shares covering the dropped (their
    // pairwise-mask seeds) capped at their neighborhood size.
    let dropped = plan.before_masking.len() + plan.after_masking.len();
    for (i, &c) in members.iter().enumerate() {
        if plan.before_masking.contains(&i) || plan.after_masking.contains(&i) {
            continue;
        }
        let shares = (0..dropped.min(degree)).map(|d| {
            (
                d as u64,
                mix(session ^ (i as u64) << 28 ^ d as u64) & MASK61,
            )
        });
        out.send(c, next_at(), UnmaskShares::frame(round_id, shares));
    }
    out.drain();
}

/// Drains the transport, tallying every delivered frame. Frames are
/// validated in place ([`Message::check`]): metering needs a frame's phase
/// and direction, never its decoded contents.
pub(crate) fn drain_counting(transport: &mut dyn Transport, traffic: &mut TrafficStats) {
    while let Some((_, env)) = transport.poll() {
        if let Ok((phase, direction)) = Message::check(&env.payload) {
            traffic.record(phase, direction, env.payload.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::InMemoryTransport;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_fedsim::dropout::DropoutModel;
    use fednum_fedsim::round::{run_round_impl, SecAggSettings};
    use fednum_fedsim::traffic::TrafficPhase;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_sync(
        values: &[f64],
        config: &FederatedMeanConfig,
        seed: u64,
    ) -> Result<FederatedOutcome, FedError> {
        run_round_impl(values, config, None, &mut StdRng::seed_from_u64(seed))
    }

    /// One session on `batched`'s wire over an in-memory transport seeded
    /// like the RNG.
    fn run_wire(
        values: &[f64],
        config: &FederatedMeanConfig,
        batched: Option<usize>,
        seed: u64,
    ) -> Result<FederatedOutcome, FedError> {
        let mut t = InMemoryTransport::new(seed);
        run_session(
            values,
            config,
            batched,
            None,
            &mut t,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    fn base_config(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        ))
    }

    fn values(n: usize, hi: u64) -> Vec<f64> {
        (0..n).map(|i| (i as u64 % hi) as f64).collect()
    }

    #[test]
    fn plain_round_is_bit_identical_to_legacy() {
        let vs = values(4_000, 100);
        let cfg = base_config(7);
        let legacy = run_sync(&vs, &cfg, 1).unwrap();
        let mut t = InMemoryTransport::new(0xBEEF);
        let evented =
            run_session(&vs, &cfg, None, None, &mut t, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(legacy.outcome.estimate, evented.outcome.estimate);
        assert_eq!(legacy.reports, evented.reports);
        assert_eq!(legacy.contacted, evented.contacted);
    }

    #[test]
    fn plain_round_is_bit_identical_on_both_wires_per_seed() {
        // Dropout plus refill waves: the sync engine, the per-client wire
        // and the batched wire at every chunk size publish the same round.
        let vs = values(6_000, 100);
        let cfg = base_config(7)
            .with_dropout(DropoutModel::bernoulli(0.4))
            .with_auto_adjust(3, 20, 0.6);
        for seed in 0..5 {
            let legacy = run_sync(&vs, &cfg, seed).unwrap();
            let scalar = run_wire(&vs, &cfg, None, seed).unwrap();
            assert_eq!(legacy.outcome.estimate, scalar.outcome.estimate, "s{seed}");
            assert_eq!(legacy.waves_used, scalar.waves_used);
            assert_eq!(legacy.robustness.degraded, scalar.robustness.degraded);
            for chunk in [1usize, 64, 1_000, 100_000] {
                let batched = run_wire(&vs, &cfg, Some(chunk), seed).unwrap();
                assert_eq!(
                    scalar.outcome.estimate.to_bits(),
                    batched.outcome.estimate.to_bits(),
                    "seed {seed} chunk {chunk}"
                );
                assert_eq!(scalar.outcome.bit_means, batched.outcome.bit_means);
                assert_eq!(scalar.reports, batched.reports);
                assert_eq!(scalar.contacted, batched.contacted);
                assert_eq!(scalar.waves_used, batched.waves_used);
                assert_eq!(scalar.completion_time, batched.completion_time);
                assert_eq!(scalar.starved_bits, batched.starved_bits);
                assert_eq!(scalar.robustness.degraded, batched.robustness.degraded);
            }
        }
    }

    #[test]
    fn secagg_session_is_bit_identical_and_meters_all_phases() {
        let vs = values(300, 50);
        let cfg = base_config(6)
            .with_dropout(DropoutModel::phased(0.1, 0.05))
            .with_secagg(SecAggSettings::default());
        let legacy = run_sync(&vs, &cfg, 3).unwrap();
        let evented = run_wire(&vs, &cfg, None, 3).unwrap();
        assert_eq!(legacy.outcome.estimate, evented.outcome.estimate);
        assert_eq!(legacy.secagg, evented.secagg);
        let tr = evented.robustness.traffic;
        for phase in TrafficPhase::ALL {
            if phase == TrafficPhase::Salvage || phase == TrafficPhase::Shuffle {
                // No salvage policy configured and no shuffler in the
                // path: both phases stay silent.
                assert_eq!(tr.get(phase, Direction::Uplink).messages, 0);
                continue;
            }
            assert!(
                tr.get(phase, Direction::Uplink).messages > 0
                    || tr.get(phase, Direction::Downlink).messages > 0,
                "phase {phase:?} saw no traffic"
            );
        }
    }

    #[test]
    fn secagg_round_is_bit_identical_on_both_wires_per_seed() {
        let vs = values(300, 50);
        let cfg = base_config(6)
            .with_dropout(DropoutModel::phased(0.1, 0.05))
            .with_secagg(SecAggSettings::default());
        for seed in 0..4 {
            let legacy = run_sync(&vs, &cfg, seed).unwrap();
            let scalar = run_wire(&vs, &cfg, None, seed).unwrap();
            let batched = run_wire(&vs, &cfg, Some(64), seed).unwrap();
            for out in [&scalar, &batched] {
                assert_eq!(
                    legacy.outcome.estimate.to_bits(),
                    out.outcome.estimate.to_bits(),
                    "seed {seed}"
                );
                assert_eq!(legacy.secagg, out.secagg);
                assert_eq!(
                    legacy.robustness.secagg_retries,
                    out.robustness.secagg_retries
                );
                assert_eq!(legacy.reports, out.reports);
            }
        }
    }

    #[test]
    fn collect_traffic_matches_frame_sizes_exactly() {
        let vs = values(500, 100);
        let cfg = base_config(8);
        let out = run_wire(&vs, &cfg, None, 7).unwrap();
        let tr = out.robustness.traffic;
        // No dropout: every client sends Hello, receives RoundConfig,
        // sends exactly one report frame.
        let hello = tr.get(TrafficPhase::Rendezvous, Direction::Uplink);
        let cfg_dl = tr.get(TrafficPhase::Configure, Direction::Downlink);
        let col = tr.get(TrafficPhase::Collect, Direction::Uplink);
        assert_eq!(hello.messages, 500);
        assert_eq!(cfg_dl.messages, 500);
        assert_eq!(col.messages, 500);
        // Each report frame: tag + nonce varint + ReportMessage body.
        let expected: u64 = (0..500u64)
            .map(|c| {
                Message::Report(Report {
                    nonce: c,
                    body: ReportMessage {
                        task_id: cfg.session_seed,
                        reports: vec![(0, false)],
                    },
                })
                .encoded_len() as u64
            })
            .sum();
        assert_eq!(col.bytes, expected);
        assert_eq!(
            tr.get(TrafficPhase::Publish, Direction::Downlink).messages,
            1
        );
        assert!(
            tr.get(TrafficPhase::KeyExchange, Direction::Uplink)
                .messages
                == 0
        );
    }

    #[test]
    fn batched_secagg_retry_path_matches_the_scalar_retry_path() {
        // A phased-dropout cohort with a high threshold forces
        // `TooFewSurvivors` on the first attempt, exercising the shrunken
        // cohort's retry loop on both wires.
        let vs = values(200, 50);
        let cfg = base_config(5)
            .with_dropout(DropoutModel::phased(0.2, 0.3))
            .with_secagg(SecAggSettings {
                threshold_fraction: 0.75,
                neighbors: None,
            });
        let mut hit_retry = false;
        for seed in 0..12 {
            let scalar = run_wire(&vs, &cfg, None, seed);
            let batched = run_wire(&vs, &cfg, Some(32), seed);
            match (scalar, batched) {
                (Ok(s), Ok(b)) => {
                    assert_eq!(s.outcome.estimate.to_bits(), b.outcome.estimate.to_bits());
                    assert_eq!(s.robustness.secagg_retries, b.robustness.secagg_retries);
                    assert_eq!(s.secagg, b.secagg);
                    hit_retry |= s.robustness.secagg_retries > 0;
                }
                (Err(se), Err(be)) => assert_eq!(se.to_string(), be.to_string()),
                (s, b) => panic!("diverged at seed {seed}: scalar {s:?} vs batched {b:?}"),
            }
        }
        assert!(hit_retry, "no seed exercised the retry loop");
    }

    #[test]
    fn batched_metered_round_bills_the_ledger_identically() {
        let vs = values(2_000, 64);
        let cfg = base_config(6).with_dropout(DropoutModel::bernoulli(0.2));
        let mut ledgers = [PrivacyLedger::new(), PrivacyLedger::new()];
        for (ledger, batched) in ledgers.iter_mut().zip([None, Some(128)]) {
            let mut t = InMemoryTransport::new(5);
            run_session(
                &vs,
                &cfg,
                batched,
                Some(ledger),
                &mut t,
                &mut StdRng::seed_from_u64(5),
            )
            .unwrap();
        }
        assert_eq!(
            ledgers[0].max_bits_per_client(),
            ledgers[1].max_bits_per_client()
        );
    }

    #[test]
    fn batched_wire_amortizes_collect_uplink_frames() {
        let vs = values(5_000, 100);
        let cfg = base_config(8);
        let scalar = run_wire(&vs, &cfg, None, 2).unwrap();
        let batched = run_wire(&vs, &cfg, Some(512), 2).unwrap();
        let s_up = scalar
            .robustness
            .traffic
            .get(TrafficPhase::Collect, Direction::Uplink);
        let b_up = batched
            .robustness
            .traffic
            .get(TrafficPhase::Collect, Direction::Uplink);
        // 5 000 per-client frames vs ceil(5 000 / 512) chunk frames.
        assert_eq!(s_up.messages, 5_000);
        assert_eq!(b_up.messages, 10);
        assert!(
            b_up.bytes * 2 < s_up.bytes,
            "planes must at least halve collect uplink bytes: {} vs {}",
            b_up.bytes,
            s_up.bytes
        );
        // No per-client Hello/RoundConfig chains on the batched wire.
        assert_eq!(
            batched
                .robustness
                .traffic
                .get(TrafficPhase::Rendezvous, Direction::Uplink)
                .messages,
            0
        );
    }

    #[test]
    fn empty_population_is_a_typed_error() {
        for batched in [None, Some(64)] {
            assert!(matches!(
                run_wire(&[], &base_config(4), batched, 0),
                Err(FedError::PopulationTooSmall { got: 0, need: 1 })
            ));
        }
    }

    /// The golden attempt: 2,000 members on a degree-64 ring with a seeded
    /// 10% dropping out before masking, 10-bit planes (20 masked values).
    fn golden_attempt(transport: &mut dyn Transport) -> TrafficStats {
        let members: Vec<u64> = (0..2_000).collect();
        let mut plan = DropoutPlan::none();
        for i in 0..members.len() {
            if mix(0x601D ^ i as u64).is_multiple_of(10) {
                plan.before_masking.insert(i);
            }
        }
        assert_eq!(plan.before_masking.len(), 205);
        let mut traffic = TrafficStats::new();
        secagg_attempt_messages(
            transport,
            &mut traffic,
            &members,
            &plan,
            20,
            64,
            0x5EC0,
            7,
            0.0,
        );
        traffic
    }

    /// `(phase, direction, messages, bytes)` for every nonzero cell.
    fn ledger_cells(traffic: &TrafficStats) -> Vec<(TrafficPhase, Direction, u64, u64)> {
        TrafficPhase::ALL
            .into_iter()
            .flat_map(|p| [(p, Direction::Uplink), (p, Direction::Downlink)])
            .map(|(p, d)| (p, d, traffic.get(p, d).messages, traffic.get(p, d).bytes))
            .filter(|&(_, _, messages, _)| messages > 0)
            .collect()
    }

    #[test]
    fn secagg_attempt_ledger_matches_the_golden_constants() {
        use Direction::{Downlink, Uplink};
        use TrafficPhase::{Collect, Configure, KeyExchange, Masking, Publish, Rendezvous, Unmask};
        // Recorded before the attempt streamed its frames; the in-place
        // builders and chunked metering must reproduce it byte for byte.
        let traffic = golden_attempt(&mut InMemoryTransport::new(7));
        assert_eq!(
            ledger_cells(&traffic),
            [
                (KeyExchange, Uplink, 4_000, 6_529_808),
                (Masking, Uplink, 1_795, 327_348),
                (Unmask, Uplink, 1_795, 1_150_627),
            ]
        );
        // A whole secure round of the same shape on both wires.
        let vs = values(2_000, 1_024);
        let cfg = base_config(10)
            .with_dropout(DropoutModel::bernoulli(0.1))
            .with_secagg(SecAggSettings::default());
        let secure = [
            (KeyExchange, Uplink, 4_000, 6_537_808),
            (Masking, Uplink, 1_811, 333_915),
            (Unmask, Uplink, 1_811, 1_164_474),
            (Publish, Downlink, 1, 15),
        ];
        let scalar = run_wire(&vs, &cfg, None, 7).unwrap();
        let batched = run_wire(&vs, &cfg, Some(512), 7).unwrap();
        for out in [&scalar, &batched] {
            assert_eq!(out.outcome.estimate.to_bits(), 4_647_372_734_282_283_798);
        }
        let mut want = vec![
            (Rendezvous, Uplink, 2_000, 8_000),
            (Configure, Downlink, 2_000, 18_000),
            (Collect, Uplink, 1_811, 16_189),
        ];
        want.extend(secure);
        assert_eq!(ledger_cells(&scalar.robustness.traffic), want);
        let mut want = vec![(Configure, Downlink, 1, 8), (Collect, Uplink, 4, 5_152)];
        want.extend(secure);
        assert_eq!(ledger_cells(&batched.robustness.traffic), want);
    }

    /// Counts a transport's sent-but-unpolled frames and keeps the peak.
    struct InFlight<T> {
        inner: T,
        in_flight: usize,
        peak: usize,
    }

    impl<T: Transport> Transport for InFlight<T> {
        fn send(&mut self, env: Envelope) {
            self.inner.send(env);
            self.in_flight += 1;
            self.peak = self.peak.max(self.in_flight);
        }

        fn poll(&mut self) -> Option<(f64, Envelope)> {
            let delivery = self.inner.poll()?;
            self.in_flight -= 1;
            Some(delivery)
        }

        fn peek_time(&self) -> Option<f64> {
            self.inner.peek_time()
        }

        fn idle(&self) -> bool {
            self.inner.idle()
        }
    }

    #[test]
    fn secagg_attempt_holds_at_most_drain_every_frames_in_flight() {
        let mut t = InFlight {
            inner: InMemoryTransport::new(7),
            in_flight: 0,
            peak: 0,
        };
        let traffic = golden_attempt(&mut t);
        // ~7,600 frames in all, never more than one chunk unmetered.
        assert_eq!(traffic.total_messages(), 7_590);
        assert_eq!(t.peak, DRAIN_EVERY);
        assert_eq!(t.in_flight, 0);
        assert!(t.idle());
    }
}
