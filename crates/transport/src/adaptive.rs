//! The two-round adaptive protocol over the multi-session transport.
//!
//! The synchronous engine (`fednum_fedsim::adaptive_round::run_adaptive_impl`)
//! models Algorithm 2 as two synchronous rounds glued by a Rust function
//! call: round 1's bit means flow to round 2's weight re-optimization
//! through local memory. Here the same protocol runs as two coordinator
//! *sessions* on one [`MultiSessionEngine`] timeline: round 1 publishes its
//! per-bit means as the `feedback` field of its Publish frame, the engine
//! opens a second session strictly after everything round 1 delivered, and
//! round 2's sampling weights are re-derived from the *decoded frame* — the
//! feedback genuinely rides the wire, byte-preserved through the message
//! codec.
//!
//! **Parity contract.** Seed for seed, the pooled estimate is bit-identical
//! to the synchronous `run_adaptive_impl`: the shared RNG is consumed
//! in exactly the legacy order (cohort shuffle, then round 1's draws, then
//! round 2's), the Publish codec preserves every `f64` bit of the feedback,
//! and the session-slot time translation never reorders events within a
//! session. The `adaptive_parity` integration test pins this.

use fednum_core::accumulator::BitAccumulator;
use fednum_core::protocol::basic::{BasicBitPushing, BasicConfig};
use fednum_core::sampling::BitSampling;
use rand::seq::SliceRandom;
use rand::Rng;

use fednum_fedsim::adaptive_round::{FederatedAdaptiveConfig, FederatedAdaptiveOutcome};
use fednum_fedsim::error::FedError;

use crate::coordinator::run_session_inner;
use crate::message::Message;
use crate::net::Transport;
use crate::session::MultiSessionEngine;

/// Runs the two-round adaptive protocol as two sessions over one shared
/// transport, with the round-1 → round-2 weight feedback carried in the
/// round-1 Publish frame — the engine behind
/// `RoundBuilder::new_adaptive(..).via(transport)`.
///
/// # Errors
/// [`FedError::PopulationTooSmall`] unless there are at least two clients;
/// otherwise propagates either session's error.
pub(crate) fn adaptive_transport_impl(
    values: &[f64],
    config: &FederatedAdaptiveConfig,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<FederatedAdaptiveOutcome, FedError> {
    if values.len() < 2 {
        return Err(FedError::PopulationTooSmall {
            got: values.len(),
            need: 2,
        });
    }
    let base = &config.environment.protocol;
    let bits = base.codec.bits();

    // δ / (1-δ) split — the first legacy RNG draw, same as the sync path.
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.shuffle(rng);
    let n1 = ((config.delta * values.len() as f64).round() as usize).clamp(1, values.len() - 1);
    let cohort1: Vec<f64> = order[..n1].iter().map(|&i| values[i]).collect();
    let cohort2: Vec<f64> = order[n1..].iter().map(|&i| values[i]).collect();

    let make_env = |protocol: BasicConfig| {
        let mut env = config.environment.clone();
        env.protocol = protocol;
        env
    };

    let mut engine = MultiSessionEngine::new(transport, 0.0);

    // Session 1: geometric(γ) over the δ cohort, publishing bit means as
    // feedback for the follow-up session.
    let round1_protocol = rebuild(base, BitSampling::geometric(bits, config.gamma));
    let (round1, publish_frame) = {
        let mut slot = engine.open_session();
        run_session_inner(
            &cohort1,
            &make_env(round1_protocol),
            None,
            None,
            &mut slot,
            rng,
            true,
        )?
    };

    // Re-optimize from the feedback *as decoded off the wire*, falling back
    // to round-1 weights for degenerate signals — identical numerics to the
    // sync path because the Publish codec is f64-bit-preserving.
    let Ok(Message::Publish(published)) = Message::decode(&publish_frame) else {
        return Err(FedError::InvalidConfig(
            "round-1 session returned a non-Publish closing frame".into(),
        ));
    };
    debug_assert_eq!(published.feedback.len(), bits as usize);
    let sampling2 = BitSampling::adaptive_weights(&published.feedback, config.alpha)
        .unwrap_or_else(|| BitSampling::geometric(bits, config.gamma));

    // Session 2 on the remaining clients, strictly after session 1's last
    // delivery on the shared timeline.
    let round2_protocol = rebuild(base, sampling2.clone());
    let (round2, _) = {
        let mut slot = engine.open_session();
        run_session_inner(
            &cohort2,
            &make_env(round2_protocol),
            None,
            None,
            &mut slot,
            rng,
            false,
        )?
    };

    // Pool both rounds' histograms, round-1 means as the prior for bits
    // round 2 deliberately stopped sampling — the sync estimator verbatim.
    let mut pooled = round1.outcome.accumulator.clone();
    pooled.merge(&round2.outcome.accumulator);
    let means = pooled.bit_means_with_prior(&round1.outcome.bit_means);
    let means = match &base.squash {
        Some(sq) => sq.apply(&means, pooled.counts(), base.privacy.as_ref()),
        None => means,
    };
    let estimate = base
        .codec
        .decode_float(BitAccumulator::estimate_from_means(&means));

    let completion_time = round1.completion_time + round2.completion_time;
    Ok(FederatedAdaptiveOutcome {
        estimate,
        round1,
        round2,
        round2_sampling: sampling2,
        completion_time,
    })
}

/// Rebuilds a protocol config with a different sampling distribution,
/// preserving codec / privacy / squash / assignment (the sync adaptive
/// module's helper, mirrored so both paths validate identically).
fn rebuild(base: &BasicConfig, sampling: BitSampling) -> BasicConfig {
    let mut cfg = BasicConfig::new(base.codec, sampling).with_assignment(base.assignment);
    if let Some(rr) = &base.privacy {
        cfg = cfg.with_privacy(*rr);
    }
    if let Some(sq) = &base.squash {
        cfg = cfg.with_squash(*sq);
    }
    let _ = BasicBitPushing::new(cfg.clone()); // validates the combination
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::InMemoryTransport;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_fedsim::dropout::DropoutModel;
    use fednum_fedsim::round::FederatedMeanConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 0.5),
        ))
    }

    fn values(n: usize, hi: u64) -> Vec<f64> {
        (0..n).map(|i| (i as u64 % hi) as f64).collect()
    }

    #[test]
    fn two_sessions_estimate_the_mean() {
        let vs = values(20_000, 200);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let cfg = FederatedAdaptiveConfig::new(env(12));
        let mut t = InMemoryTransport::new(0xADAF);
        let out =
            adaptive_transport_impl(&vs, &cfg, &mut t, &mut StdRng::seed_from_u64(1)).unwrap();
        assert!(
            (out.estimate - truth).abs() / truth < 0.05,
            "est {} truth {truth}",
            out.estimate
        );
        let (r1, r2) = (out.round1.contacted, out.round2.contacted);
        assert!((r1 as f64 / (r1 + r2) as f64 - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn feedback_survives_the_wire_under_dropout() {
        // The round-2 weights must be derived from a decoded frame, so the
        // vacuous-bit structure of round 1 has to survive the codec.
        let vs = values(30_000, 60);
        let cfg = FederatedAdaptiveConfig::new(env(14).with_dropout(DropoutModel::bernoulli(0.3)));
        let mut t = InMemoryTransport::new(7);
        let out =
            adaptive_transport_impl(&vs, &cfg, &mut t, &mut StdRng::seed_from_u64(2)).unwrap();
        let dropped = out
            .round2_sampling
            .probs()
            .iter()
            .skip(7)
            .filter(|&&p| p == 0.0)
            .count();
        assert!(dropped >= 6, "vacuous high bits should be dropped");
    }

    #[test]
    fn rejects_single_client_with_typed_error() {
        let cfg = FederatedAdaptiveConfig::new(env(4));
        let mut t = InMemoryTransport::new(0);
        assert!(matches!(
            adaptive_transport_impl(&[1.0], &cfg, &mut t, &mut StdRng::seed_from_u64(0)),
            Err(FedError::PopulationTooSmall { got: 1, need: 2 })
        ));
    }
}
