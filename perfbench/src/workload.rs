//! The three workloads: their round configuration and the seeded inputs.
//!
//! Every workload encodes values as 10-bit fixed point with geometric bit
//! sampling. They differ in the layer they load (see `GLOSSARY.md`):
//! `ldp-scalar` sends the smallest frames, `secagg-planes` the largest
//! frames and the heaviest compute, `campaign-durable` writes the ledger.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::RandomizedResponse;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_core::wire::CampaignMessage;
use fednum_fedsim::round::{FederatedMeanConfig, SecAggSettings};
use fednum_fedsim::DropoutModel;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub const BITS: u32 = 10;
/// Clients per bit-plane batch frame on the batched wire.
pub const BATCH_CHUNK: usize = 512;
/// Privacy loss per client per round of the ε-RR workloads.
pub const EPSILON: f64 = 1.0;
/// The campaign the durable workload opens.
pub const CAMPAIGN_ID: u64 = 0xBE7C;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LdpScalar,
    SecaggPlanes,
    CampaignDurable,
}

/// One round's inputs: the cohort's values and the seeds the round runs
/// under. The same spec always publishes the same estimate.
pub struct RoundSpec {
    pub values: Vec<f64>,
    pub truth: f64,
    pub session_seed: u64,
    pub net_seed: u64,
}

/// Everything a run feeds the program, generated from the workload seed.
pub struct Inputs {
    pub workload: Workload,
    /// Distinct round specs; the closed loop cycles through them, and the
    /// first pass over them is the run's deterministic accounting window.
    pub specs: Vec<RoundSpec>,
    /// The metered cohort the campaign admits every round.
    pub clients: Vec<u64>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LdpScalar,
        Workload::SecaggPlanes,
        Workload::CampaignDurable,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LdpScalar => "ldp-scalar",
            Workload::SecaggPlanes => "secagg-planes",
            Workload::CampaignDurable => "campaign-durable",
        }
    }

    /// Clients per round. `campaign-durable` admits as many as
    /// `secagg-planes` sends: with 2,000, a round took about 1.2 ms, of
    /// which the disk wait was a share that followed the shared disk, and
    /// ten runs spread by 17% (median) and 60% (p95). With 20,000, the
    /// ledger's admission and commit work dominates a round of about 10 ms.
    pub fn cohort(self) -> usize {
        match self {
            Workload::LdpScalar => 5_000,
            Workload::SecaggPlanes => 20_000,
            Workload::CampaignDurable => 20_000,
        }
    }

    /// Distinct round specs per run.
    fn spec_count(self) -> usize {
        match self {
            Workload::LdpScalar => 16,
            Workload::SecaggPlanes => 8,
            Workload::CampaignDurable => 64,
        }
    }

    /// The percentile `round_tail_s` reports: the highest of p50, p75,
    /// p90, p95 and p99 that leaves at least 10 rounds beyond it in a 30 s
    /// run at the measured speed, except for `campaign-durable`. Its p99
    /// is a stall of the shared disk, which spread by 30–70% of the median
    /// from run to run; its p95 falls among the snapshot rounds (one in
    /// eight), the tail the program itself makes. The percentile is fixed
    /// per workload, so a faster program is not compared at a higher one.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::LdpScalar => 95.0,
            Workload::SecaggPlanes => 75.0,
            Workload::CampaignDurable => 95.0,
        }
    }

    /// The batched-wire chunk, or `None` for the scalar per-client wire.
    pub fn batched(self) -> Option<usize> {
        match self {
            Workload::LdpScalar => None,
            Workload::SecaggPlanes | Workload::CampaignDurable => Some(BATCH_CHUNK),
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::CampaignDurable
    }

    pub fn protocol(self) -> BasicConfig {
        let protocol = BasicConfig::new(
            FixedPointCodec::integer(BITS),
            BitSampling::geometric(BITS, 1.0),
        );
        match self {
            Workload::SecaggPlanes => protocol,
            Workload::LdpScalar | Workload::CampaignDurable => {
                protocol.with_privacy(RandomizedResponse::from_epsilon(EPSILON))
            }
        }
    }

    pub fn config(self, session_seed: u64) -> FederatedMeanConfig {
        let base = FederatedMeanConfig::new(self.protocol());
        let mut cfg = match self {
            Workload::LdpScalar => base
                .with_dropout(DropoutModel::bernoulli(0.1))
                .with_auto_adjust(3, 20, 0.9),
            Workload::SecaggPlanes => base
                .with_dropout(DropoutModel::bernoulli(0.1))
                .with_secagg(SecAggSettings::default()),
            Workload::CampaignDurable => base,
        };
        cfg.session_seed = session_seed;
        cfg
    }

    /// The campaign policy: ε per round, no cap, no cooldown.
    pub fn campaign(self) -> CampaignMessage {
        CampaignMessage {
            campaign_id: CAMPAIGN_ID,
            round_index: 0,
            max_bits: None,
            max_epsilon: None,
            cooldown_rounds: 0,
            bits_per_round: 1,
            epsilon_per_round: EPSILON,
        }
    }

    /// Generates the run's inputs from `seed`. Values are skewed toward
    /// zero (`1023·u²`), so the high bits are rare and the low bits busy,
    /// as with counts and durations.
    pub fn inputs(self, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_BE7C);
        let max = f64::from((1u32 << BITS) - 1);
        let specs = (0..self.spec_count())
            .map(|_| {
                let values: Vec<f64> = (0..self.cohort())
                    .map(|_| {
                        let u: f64 = rng.random();
                        (max * u * u).floor()
                    })
                    .collect();
                let truth = values.iter().sum::<f64>() / values.len() as f64;
                RoundSpec {
                    values,
                    truth,
                    session_seed: rng.random(),
                    net_seed: rng.random(),
                }
            })
            .collect();
        Inputs {
            workload: self,
            specs,
            clients: (0..self.cohort() as u64).collect(),
        }
    }
}
