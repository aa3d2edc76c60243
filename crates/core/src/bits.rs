//! Binary decomposition helpers.
//!
//! The linear decomposition at the heart of bit-pushing: for an encoded
//! value `x = Σ_j 2^j x^(j)`, the mean satisfies `x̄ = Σ_j 2^j x̄^(j)`
//! (equation (1) of the paper), so per-bit means reconstruct the value mean
//! exactly. The β weights `β_j = 4^j x̄^(j)(1 - x̄^(j))` drive both the
//! variance formula (Lemma 3.1) and the optimal sampling probabilities
//! (Lemma 3.3).

/// Extracts bit `j` of an encoded value.
#[must_use]
#[inline]
pub fn bit(v: u64, j: u32) -> bool {
    (v >> j) & 1 == 1
}

/// Extracts bit `j` as 0.0 / 1.0.
#[must_use]
#[inline]
pub fn bit_f64(v: u64, j: u32) -> f64 {
    f64::from(u8::from(bit(v, j)))
}

/// The weight `2^j` of bit `j` in the linear decomposition.
///
/// # Panics
/// Panics (in debug) for `j >= 53` where `f64` exactness would be lost.
#[must_use]
#[inline]
pub fn weight(j: u32) -> f64 {
    debug_assert!(j < 53);
    (1u64 << j) as f64
}

/// Reconstructs a value-domain (encoded units) mean from per-bit means:
/// `Σ_j 2^j m_j`.
#[must_use]
pub fn reconstruct(bit_means: &[f64]) -> f64 {
    bit_means
        .iter()
        .enumerate()
        .map(|(j, &m)| weight(j as u32) * m)
        .sum()
}

/// Exact per-bit means of an encoded population: `m_j = (1/n) Σ_i x_i^(j)`.
///
/// # Panics
/// Panics if `codes` is empty.
#[must_use]
pub fn exact_bit_means(codes: &[u64], bits: u32) -> Vec<f64> {
    assert!(!codes.is_empty(), "need at least one value");
    let n = codes.len() as f64;
    (0..bits)
        .map(|j| codes.iter().map(|&v| bit_f64(v, j)).sum::<f64>() / n)
        .collect()
}

/// The per-bit variance contributions `β_j = 4^j m_j (1 - m_j)` of
/// Lemma 3.1, with bit means clamped into `[0, 1]` (debiased DP estimates
/// may stray outside).
#[must_use]
pub fn beta_weights(bit_means: &[f64]) -> Vec<f64> {
    bit_means
        .iter()
        .enumerate()
        .map(|(j, &m)| {
            let m = m.clamp(0.0, 1.0);
            let w = weight(j as u32);
            w * w * m * (1.0 - m)
        })
        .collect()
}

/// The estimator variance of Lemma 3.1 for `n` clients and sampling
/// probabilities `p`: `(1/n) Σ_j β_j / p_j`. Bits with `β_j = 0` contribute
/// nothing even when `p_j = 0`.
///
/// # Panics
/// Panics if the slices' lengths differ, if `n == 0`, or if some bit has
/// positive β but zero sampling probability (infinite variance).
#[must_use]
pub fn estimator_variance(bit_means: &[f64], probs: &[f64], n: usize) -> f64 {
    assert_eq!(bit_means.len(), probs.len(), "length mismatch");
    assert!(n > 0, "need at least one client");
    let betas = beta_weights(bit_means);
    let mut total = 0.0;
    for (j, (&b, &p)) in betas.iter().zip(probs).enumerate() {
        if b == 0.0 {
            continue;
        }
        assert!(p > 0.0, "bit {j} has positive variance but p = 0");
        total += b / p;
    }
    total / n as f64
}

/// Packed per-bit-position bitmap planes over a window of client slots.
///
/// Plane `j` holds two bitmaps along the client-slot axis: an *occupancy*
/// bitmap (slot delivered a report for bit position `j`) and a *value*
/// bitmap (the reported bit itself, always a subset of the occupancy
/// bits). A slot holds at most one report, on one plane. Tallying a plane is `count_ones()` over its `u64` words — 64
/// clients per instruction — and is exactly the scalar per-client tally
/// `ones[j] += bit; counts[j] += 1`, so plane aggregation is bit-identical
/// to the frame-at-a-time accumulate it replaces.
///
/// The in-memory layout doubles as the batched wire layout (per plane:
/// occupancy words, then value words, little-endian `u64`s), so a batched
/// frame decodes straight into a `BitPlanes` without touching individual
/// client reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitPlanes {
    bits: u32,
    slots: usize,
    /// Words per plane: `slots.div_ceil(64)`.
    words: usize,
    /// `bits * words` words; plane `j` is `[j * words, (j + 1) * words)`.
    occupancy: Vec<u64>,
    value: Vec<u64>,
    /// `words` words: the union of every plane's occupancy, i.e. the slots
    /// that already hold their one report.
    filled: Vec<u64>,
}

impl BitPlanes {
    /// Empty planes for `bits` bit positions over `slots` client slots.
    ///
    /// # Panics
    /// Panics if `bits == 0`.
    #[must_use]
    pub fn new(bits: u32, slots: usize) -> Self {
        assert!(bits > 0, "need at least one bit plane");
        let words = slots.div_ceil(64);
        Self {
            bits,
            slots,
            words,
            occupancy: vec![0; bits as usize * words],
            value: vec![0; bits as usize * words],
            filled: vec![0; words],
        }
    }

    /// Number of bit planes.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of client slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// `u64` words per plane bitmap (`slots.div_ceil(64)`).
    #[must_use]
    pub fn words_per_plane(&self) -> usize {
        self.words
    }

    /// Records slot `slot` reporting bit value `value` on plane `plane`.
    ///
    /// # Panics
    /// Panics if `slot` or `plane` is out of range, or if the slot already
    /// reported on any plane (each slot carries exactly one report).
    pub fn record(&mut self, slot: usize, plane: u32, value: bool) {
        assert!(slot < self.slots, "slot {slot} out of {}", self.slots);
        assert!(plane < self.bits, "plane {plane} out of {}", self.bits);
        let word = slot / 64;
        let mask = 1u64 << (slot % 64);
        assert_eq!(self.filled[word] & mask, 0, "slot {slot} reported twice");
        self.filled[word] |= mask;
        let idx = plane as usize * self.words + word;
        self.occupancy[idx] |= mask;
        if value {
            self.value[idx] |= mask;
        }
    }

    /// Per-plane one-counts: `popcount(value_j)` — the `Σ_i x_i^(j)` of the
    /// scalar tally.
    #[must_use]
    pub fn ones(&self) -> Vec<u64> {
        (0..self.bits as usize)
            .map(|j| {
                self.plane_value(j)
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum()
            })
            .collect()
    }

    /// Per-plane report counts: `popcount(occupancy_j)`.
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        (0..self.bits as usize)
            .map(|j| {
                self.plane_occupancy(j)
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum()
            })
            .collect()
    }

    /// `ones()` restricted to the slots set in `keep` (a slot bitmap of
    /// `words_per_plane()` words): `popcount(value_j & keep)` per plane.
    ///
    /// # Panics
    /// Panics if `keep.len() != words_per_plane()`.
    #[must_use]
    pub fn ones_masked(&self, keep: &[u64]) -> Vec<u64> {
        assert_eq!(keep.len(), self.words, "mask length mismatch");
        (0..self.bits as usize)
            .map(|j| {
                self.plane_value(j)
                    .iter()
                    .zip(keep)
                    .map(|(w, k)| u64::from((w & k).count_ones()))
                    .sum()
            })
            .collect()
    }

    /// `counts()` restricted to the slots set in `keep`.
    ///
    /// # Panics
    /// Panics if `keep.len() != words_per_plane()`.
    #[must_use]
    pub fn counts_masked(&self, keep: &[u64]) -> Vec<u64> {
        assert_eq!(keep.len(), self.words, "mask length mismatch");
        (0..self.bits as usize)
            .map(|j| {
                self.plane_occupancy(j)
                    .iter()
                    .zip(keep)
                    .map(|(w, k)| u64::from((w & k).count_ones()))
                    .sum()
            })
            .collect()
    }

    /// The occupancy bitmap of plane `j`.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn plane_occupancy(&self, j: usize) -> &[u64] {
        &self.occupancy[j * self.words..(j + 1) * self.words]
    }

    /// The value bitmap of plane `j`.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn plane_value(&self, j: usize) -> &[u64] {
        &self.value[j * self.words..(j + 1) * self.words]
    }

    /// Rebuilds planes from raw bitmap words (the batched-wire decode
    /// path). Fails closed on any non-canonical input: wrong word counts,
    /// set padding bits past `slots`, a value bit outside its occupancy
    /// bit, or a slot occupied on more than one plane (one client, one
    /// report).
    ///
    /// # Errors
    /// Returns a static description of the first violated invariant.
    pub fn from_words(
        bits: u32,
        slots: usize,
        occupancy: Vec<u64>,
        value: Vec<u64>,
    ) -> Result<Self, &'static str> {
        if bits == 0 {
            return Err("zero bit planes");
        }
        let words = slots.div_ceil(64);
        if occupancy.len() != bits as usize * words || value.len() != occupancy.len() {
            return Err("bitmap word count mismatch");
        }
        if !slots.is_multiple_of(64) && words > 0 {
            let pad = !0u64 << (slots % 64);
            for j in 0..bits as usize {
                let last = (j + 1) * words - 1;
                if occupancy[last] & pad != 0 || value[last] & pad != 0 {
                    return Err("padding bits set past the slot count");
                }
            }
        }
        if occupancy.iter().zip(&value).any(|(o, v)| v & !o != 0) {
            return Err("value bit outside occupancy");
        }
        let mut filled = vec![0u64; words];
        for plane in occupancy.chunks_exact(words.max(1)) {
            for (f, &o) in filled.iter_mut().zip(plane) {
                if *f & o != 0 {
                    return Err("slot occupied on two planes");
                }
                *f |= o;
            }
        }
        Ok(Self {
            bits,
            slots,
            words,
            occupancy,
            value,
            filled,
        })
    }

    /// Appends `other`'s slots after this plane set's slots (shard fan-in).
    ///
    /// # Panics
    /// Panics if the plane counts differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.bits, other.bits, "plane count mismatch");
        let new_slots = self.slots + other.slots;
        let new_words = new_slots.div_ceil(64);
        let word_off = self.slots / 64;
        let shift = (self.slots % 64) as u32;
        let mut occupancy = vec![0u64; self.bits as usize * new_words];
        let mut value = vec![0u64; self.bits as usize * new_words];
        for j in 0..self.bits as usize {
            let dst = j * new_words;
            occupancy[dst..dst + self.words].copy_from_slice(self.plane_occupancy(j));
            value[dst..dst + self.words].copy_from_slice(self.plane_value(j));
            for w in 0..other.words {
                let o = other.plane_occupancy(j)[w];
                let v = other.plane_value(j)[w];
                occupancy[dst + word_off + w] |= o << shift;
                value[dst + word_off + w] |= v << shift;
                if shift != 0 && dst + word_off + w + 1 < dst + new_words {
                    occupancy[dst + word_off + w + 1] |= o >> (64 - shift);
                    value[dst + word_off + w + 1] |= v >> (64 - shift);
                }
            }
        }
        let mut filled = vec![0u64; new_words];
        for plane in occupancy.chunks_exact(new_words.max(1)) {
            for (f, &o) in filled.iter_mut().zip(plane) {
                *f |= o;
            }
        }
        self.slots = new_slots;
        self.words = new_words;
        self.occupancy = occupancy;
        self.value = value;
        self.filled = filled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_extraction() {
        let v = 0b1011_0010u64;
        assert!(!bit(v, 0));
        assert!(bit(v, 1));
        assert!(bit(v, 4));
        assert!(bit(v, 7));
        assert!(!bit(v, 8));
        assert_eq!(bit_f64(v, 1), 1.0);
        assert_eq!(bit_f64(v, 0), 0.0);
    }

    #[test]
    fn weights_are_powers_of_two() {
        assert_eq!(weight(0), 1.0);
        assert_eq!(weight(1), 2.0);
        assert_eq!(weight(10), 1024.0);
    }

    #[test]
    fn reconstruct_inverts_decomposition() {
        for v in [0u64, 1, 5, 100, 255, 256, 12345] {
            let bits = 16;
            let means: Vec<f64> = (0..bits).map(|j| bit_f64(v, j)).collect();
            assert_eq!(reconstruct(&means), v as f64);
        }
    }

    #[test]
    fn exact_bit_means_reconstruct_population_mean() {
        let codes = vec![3u64, 9, 200, 77, 1];
        let truth = codes.iter().sum::<u64>() as f64 / codes.len() as f64;
        let means = exact_bit_means(&codes, 8);
        assert!((reconstruct(&means) - truth).abs() < 1e-12);
    }

    #[test]
    fn bit_means_are_fractions() {
        let codes = vec![0b01u64, 0b11, 0b10, 0b00];
        let means = exact_bit_means(&codes, 2);
        assert!((means[0] - 0.5).abs() < 1e-12);
        assert!((means[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn beta_weights_formula() {
        let means = vec![0.5, 0.25, 1.0, 0.0];
        let betas = beta_weights(&means);
        assert!((betas[0] - 0.25).abs() < 1e-12); // 1 * 0.25
        assert!((betas[1] - 4.0 * 0.1875).abs() < 1e-12); // 4 * 3/16
        assert_eq!(betas[2], 0.0); // deterministic bit
        assert_eq!(betas[3], 0.0);
    }

    #[test]
    fn beta_weights_clamp_out_of_range_means() {
        let betas = beta_weights(&[-0.2, 1.4]);
        assert_eq!(betas, vec![0.0, 0.0]);
    }

    #[test]
    fn variance_matches_lemma_3_1_by_hand() {
        // Two bits, means 0.5 each, p = [0.25, 0.75], n = 100:
        // V = (1/100) (1*0.25/0.25 + 4*0.25/0.75) = (1 + 4/3)/100.
        let v = estimator_variance(&[0.5, 0.5], &[0.25, 0.75], 100);
        assert!((v - (1.0 + 4.0 / 3.0) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn variance_ignores_zero_beta_zero_prob_bits() {
        // Vacuous high bit with p = 0 is fine.
        let v = estimator_variance(&[0.5, 0.0], &[1.0, 0.0], 10);
        assert!((v - 0.025).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p = 0")]
    fn variance_rejects_unsampled_informative_bit() {
        let _ = estimator_variance(&[0.5, 0.5], &[1.0, 0.0], 10);
    }

    #[test]
    fn variance_scales_inversely_with_n() {
        let v1 = estimator_variance(&[0.5], &[1.0], 100);
        let v2 = estimator_variance(&[0.5], &[1.0], 400);
        assert!((v1 / v2 - 4.0).abs() < 1e-12);
    }

    /// Deterministic pseudo-random reports for the plane tests.
    fn synthetic_reports(n: usize, bits: u32) -> Vec<(u32, bool)> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17)
                    .wrapping_mul(0xD134_2543_DE82_EF95);
                ((h % u64::from(bits)) as u32, h & (1 << 40) != 0)
            })
            .collect()
    }

    #[test]
    fn plane_tally_matches_scalar_accumulate() {
        let bits = 7;
        let reports = synthetic_reports(321, bits);
        let mut planes = BitPlanes::new(bits, reports.len());
        let mut ones = vec![0u64; bits as usize];
        let mut counts = vec![0u64; bits as usize];
        for (slot, &(plane, value)) in reports.iter().enumerate() {
            planes.record(slot, plane, value);
            ones[plane as usize] += u64::from(value);
            counts[plane as usize] += 1;
        }
        assert_eq!(planes.ones(), ones);
        assert_eq!(planes.counts(), counts);
    }

    #[test]
    fn masked_tally_drops_exactly_the_masked_slots() {
        let bits = 5;
        let reports = synthetic_reports(200, bits);
        let mut planes = BitPlanes::new(bits, reports.len());
        let mut ones = vec![0u64; bits as usize];
        let mut counts = vec![0u64; bits as usize];
        let mut keep = vec![0u64; planes.words_per_plane()];
        for (slot, &(plane, value)) in reports.iter().enumerate() {
            planes.record(slot, plane, value);
            if slot % 3 != 0 {
                keep[slot / 64] |= 1 << (slot % 64);
                ones[plane as usize] += u64::from(value);
                counts[plane as usize] += 1;
            }
        }
        assert_eq!(planes.ones_masked(&keep), ones);
        assert_eq!(planes.counts_masked(&keep), counts);
    }

    #[test]
    fn merge_concatenates_slots_at_unaligned_boundaries() {
        let bits = 4;
        for (na, nb) in [(0, 5), (5, 0), (63, 1), (64, 64), (65, 129), (10, 300)] {
            let ra = synthetic_reports(na, bits);
            let rb: Vec<_> = synthetic_reports(na + nb, bits).split_off(na);
            let mut a = BitPlanes::new(bits, na);
            let mut b = BitPlanes::new(bits, nb);
            let mut whole = BitPlanes::new(bits, na + nb);
            for (slot, &(plane, value)) in ra.iter().enumerate() {
                a.record(slot, plane, value);
                whole.record(slot, plane, value);
            }
            for (slot, &(plane, value)) in rb.iter().enumerate() {
                b.record(slot, plane, value);
                whole.record(na + slot, plane, value);
            }
            a.merge(&b);
            assert_eq!(a, whole, "merge mismatch at ({na}, {nb})");
        }
    }

    #[test]
    fn from_words_round_trips_canonical_planes() {
        let bits = 3;
        let reports = synthetic_reports(70, bits);
        let mut planes = BitPlanes::new(bits, reports.len());
        for (slot, &(plane, value)) in reports.iter().enumerate() {
            planes.record(slot, plane, value);
        }
        let occ: Vec<u64> = (0..bits as usize)
            .flat_map(|j| planes.plane_occupancy(j).to_vec())
            .collect();
        let val: Vec<u64> = (0..bits as usize)
            .flat_map(|j| planes.plane_value(j).to_vec())
            .collect();
        let rebuilt = BitPlanes::from_words(bits, reports.len(), occ, val).unwrap();
        assert_eq!(rebuilt, planes);
    }

    #[test]
    fn from_words_rejects_non_canonical_bitmaps() {
        // Wrong word count.
        assert!(BitPlanes::from_words(2, 10, vec![0; 3], vec![0; 3]).is_err());
        // Padding bit set past the slot count.
        assert!(BitPlanes::from_words(1, 10, vec![1 << 10], vec![0]).is_err());
        // Value bit without its occupancy bit.
        assert!(BitPlanes::from_words(1, 10, vec![0b01], vec![0b10]).is_err());
        // One slot reporting on two planes.
        assert!(BitPlanes::from_words(2, 3, vec![0b1, 0b1], vec![0b1, 0b0]).is_err());
        // Zero planes.
        assert!(BitPlanes::from_words(0, 10, vec![], vec![]).is_err());
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn double_report_on_one_slot_is_rejected() {
        let mut planes = BitPlanes::new(2, 4);
        planes.record(1, 0, true);
        planes.record(1, 0, false);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn one_slot_on_two_planes_is_rejected() {
        let mut planes = BitPlanes::new(2, 4);
        planes.record(1, 0, true);
        planes.record(1, 1, false);
    }
}
