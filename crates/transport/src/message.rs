//! The typed protocol surface, framed through the `fednum-core::wire`
//! binary codec.
//!
//! Every byte that crosses the simulated network is one of these messages,
//! encoded as a one-byte type tag followed by varint-framed fields. Sender
//! identity is *not* part of the frame: like a real deployment, it comes
//! from the authenticated connection (the [`crate::net::Envelope`] around
//! the frame). The round identifier *is* in-band, because stale-round
//! detection is a payload property, not a connection property.
//!
//! Sizes are the point of this module — the paper's communication claims
//! ("only a single private bit of data is disclosed... both can be easily
//! communicated within a single (encrypted) network packet") become
//! measurable through [`Message::encoded_len`] and the per-phase traffic
//! accounting in the coordinator.

use fednum_core::wire::{
    push_varint, read_bytes, read_varint, varint_len, BatchReportMessage, ReportMessage,
    ShuffleMessage, WireError,
};
use fednum_fedsim::traffic::{Direction, TrafficPhase};

/// Bytes of an X25519-style public key.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Bytes of one encrypted Shamir share (two masked field elements plus an
/// AEAD tag).
pub const ENCRYPTED_SHARE_LEN: usize = 48;

const TAG_HELLO: u8 = 0;
const TAG_ROUND_CONFIG: u8 = 1;
pub(crate) const TAG_REPORT: u8 = 2;
const TAG_KEY_ADVERTISE: u8 = 3;
const TAG_KEY_SHARES: u8 = 4;
const TAG_MASKED_INPUT: u8 = 5;
const TAG_UNMASK_SHARES: u8 = 6;
const TAG_PUBLISH: u8 = 7;
const TAG_CONFIG_HEADER: u8 = 8;
const TAG_ASSIGN_BIT: u8 = 9;
const TAG_SHUFFLE: u8 = 10;
const TAG_BATCH_REPORT: u8 = 11;

/// Round-configuration downlink: the per-client task description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundConfig {
    /// Round/task identifier.
    pub round_id: u64,
    /// The bit index this client must report on (central QMC assignment).
    pub assigned_bit: u8,
    /// Whether reports travel through secure aggregation.
    pub secagg: bool,
    /// Shamir threshold for the secure-aggregation session (0 when direct).
    pub threshold: u64,
    /// Masked-input vector length (0 when direct).
    pub vector_len: u64,
}

/// Shared round-configuration broadcast: everything in [`RoundConfig`]
/// except the per-client bit assignment. With config compression enabled
/// the coordinator broadcasts one of these per wave and answers each Hello
/// with a tiny [`Message::AssignBit`] delta instead of a full per-client
/// `RoundConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigHeader {
    /// Round/task identifier.
    pub round_id: u64,
    /// Whether reports travel through secure aggregation.
    pub secagg: bool,
    /// Shamir threshold for the secure-aggregation session (0 when direct).
    pub threshold: u64,
    /// Masked-input vector length (0 when direct).
    pub vector_len: u64,
}

/// Bit-pushing report uplink: the core wire message plus an envelope nonce
/// for replay detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Per-submission nonce; replays repeat it verbatim.
    pub nonce: u64,
    /// The report payload (`task_id` carries the round tag).
    pub body: ReportMessage,
}

/// Batched multi-client report uplink: one wave chunk's bit-plane bitmaps
/// in a single frame (see [`BatchReportMessage`]), plus an envelope nonce
/// for replay detection — the chunk-level analogue of [`Report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Per-submission nonce; replays repeat it verbatim.
    pub nonce: u64,
    /// The packed chunk payload (`task_id` carries the round tag).
    pub body: BatchReportMessage,
}

/// Secure-aggregation round 0: key advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyAdvertise {
    /// Round identifier.
    pub round_id: u64,
    /// Key-agreement public key.
    pub kem_pk: [u8; PUBLIC_KEY_LEN],
    /// Pairwise-mask public key.
    pub mask_pk: [u8; PUBLIC_KEY_LEN],
}

/// One encrypted Shamir share addressed to a mask-graph neighbor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedShare {
    /// Receiving client.
    pub recipient: u64,
    /// The encrypted share blob.
    pub ct: [u8; ENCRYPTED_SHARE_LEN],
}

/// Secure-aggregation round 1: Shamir shares of the self-mask and key
/// seeds, relayed through the coordinator to each neighbor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyShares {
    /// Round identifier.
    pub round_id: u64,
    /// One encrypted share per mask-graph neighbor.
    pub shares: Vec<EncryptedShare>,
}

/// Secure-aggregation round 2: the masked input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedInput {
    /// Round identifier.
    pub round_id: u64,
    /// Masked field elements (uniform in the 61-bit field, so ≈ 9 varint
    /// bytes each on the wire).
    pub values: Vec<u64>,
}

/// Secure-aggregation round 3: unmask shares for dropped neighbors (and the
/// sender's own self-mask).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnmaskShares {
    /// Round identifier.
    pub round_id: u64,
    /// `(subject client, share)` pairs.
    pub shares: Vec<(u64, u64)>,
}

/// Result broadcast closing the session.
#[derive(Debug, Clone, PartialEq)]
pub struct Publish {
    /// Round identifier.
    pub round_id: u64,
    /// The published mean estimate.
    pub estimate: f64,
    /// Reports behind the estimate.
    pub reports: u64,
    /// Session-to-session feedback riding the broadcast: the adaptive
    /// two-round protocol publishes round 1's observed per-bit means here,
    /// and the round-2 session reads its variance-adapted sampling weights
    /// off this frame instead of out of shared coordinator state. Empty for
    /// single-session rounds (and costs one count byte on the wire).
    pub feedback: Vec<f64>,
}

/// Every message of the protocol surface.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client check-in (rendezvous uplink).
    Hello {
        /// Round the client is checking in for.
        round_id: u64,
    },
    /// Round-configuration downlink.
    RoundConfig(RoundConfig),
    /// Bit-pushing report uplink.
    Report(Report),
    /// Secure-aggregation key advertisement uplink.
    KeyAdvertise(KeyAdvertise),
    /// Secure-aggregation encrypted-share uplink.
    KeyShares(KeyShares),
    /// Secure-aggregation masked-input uplink.
    MaskedInput(MaskedInput),
    /// Secure-aggregation unmask-share uplink.
    UnmaskShares(UnmaskShares),
    /// Result broadcast downlink.
    Publish(Publish),
    /// Compressed-config broadcast downlink (shared round parameters).
    ConfigHeader(ConfigHeader),
    /// Compressed-config per-client downlink: just the assigned bit.
    AssignBit {
        /// The bit index this client must report on.
        assigned_bit: u8,
    },
    /// Shuffle-tier frame: a client's one-bit submission to the shuffler,
    /// or the shuffler's anonymized batch to the coordinator. Both legs
    /// travel toward the coordinator, so the whole tier is uplink.
    Shuffle(ShuffleMessage),
    /// Batched multi-client report uplink (one frame per wave chunk).
    BatchReport(BatchReport),
}

impl Message {
    /// The protocol phase this message belongs to.
    #[must_use]
    pub fn phase(&self) -> TrafficPhase {
        match self {
            Message::Hello { .. } => TrafficPhase::Rendezvous,
            Message::RoundConfig(_) | Message::ConfigHeader(_) | Message::AssignBit { .. } => {
                TrafficPhase::Configure
            }
            Message::Report(_) | Message::BatchReport(_) => TrafficPhase::Collect,
            Message::KeyAdvertise(_) | Message::KeyShares(_) => TrafficPhase::KeyExchange,
            Message::MaskedInput(_) => TrafficPhase::Masking,
            Message::UnmaskShares(_) => TrafficPhase::Unmask,
            Message::Publish(_) => TrafficPhase::Publish,
            Message::Shuffle(_) => TrafficPhase::Shuffle,
        }
    }

    /// The direction this message travels.
    #[must_use]
    pub fn direction(&self) -> Direction {
        match self {
            Message::RoundConfig(_)
            | Message::Publish(_)
            | Message::ConfigHeader(_)
            | Message::AssignBit { .. } => Direction::Downlink,
            _ => Direction::Uplink,
        }
    }

    /// Encodes as `tag · body`, into a buffer of exactly the encoded
    /// size: transports may hold the frame for the whole round.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Encodes into an existing buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { round_id } => {
                out.push(TAG_HELLO);
                push_varint(out, *round_id);
            }
            Message::RoundConfig(c) => {
                out.push(TAG_ROUND_CONFIG);
                push_varint(out, c.round_id);
                out.push(c.assigned_bit);
                out.push(u8::from(c.secagg));
                push_varint(out, c.threshold);
                push_varint(out, c.vector_len);
            }
            Message::Report(r) => {
                out.push(TAG_REPORT);
                push_varint(out, r.nonce);
                r.body.encode_into(out);
            }
            Message::KeyAdvertise(k) => {
                out.push(TAG_KEY_ADVERTISE);
                push_varint(out, k.round_id);
                out.extend_from_slice(&k.kem_pk);
                out.extend_from_slice(&k.mask_pk);
            }
            Message::KeyShares(k) => put_key_shares(
                out,
                k.round_id,
                k.shares.iter().map(|s| s.recipient),
                |d, ct| ct.copy_from_slice(&k.shares[d].ct),
            ),
            Message::MaskedInput(m) => put_masked_input(out, m.round_id, m.values.iter().copied()),
            Message::UnmaskShares(u) => {
                put_unmask_shares(out, u.round_id, u.shares.iter().copied())
            }
            Message::Publish(p) => {
                out.push(TAG_PUBLISH);
                push_varint(out, p.round_id);
                out.extend_from_slice(&p.estimate.to_bits().to_le_bytes());
                push_varint(out, p.reports);
                push_varint(out, p.feedback.len() as u64);
                for &f in &p.feedback {
                    out.extend_from_slice(&f.to_bits().to_le_bytes());
                }
            }
            Message::ConfigHeader(h) => {
                out.push(TAG_CONFIG_HEADER);
                push_varint(out, h.round_id);
                out.push(u8::from(h.secagg));
                push_varint(out, h.threshold);
                push_varint(out, h.vector_len);
            }
            Message::AssignBit { assigned_bit } => {
                out.push(TAG_ASSIGN_BIT);
                out.push(*assigned_bit);
            }
            Message::Shuffle(s) => {
                out.push(TAG_SHUFFLE);
                s.encode_into(out);
            }
            Message::BatchReport(b) => {
                out.push(TAG_BATCH_REPORT);
                push_varint(out, b.nonce);
                b.body.encode_into(out);
            }
        }
    }

    /// Encoded size in bytes, computed without encoding (must agree with
    /// [`Self::encode_into`]).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let body = match self {
            Message::Hello { round_id } => varint_len(*round_id),
            Message::RoundConfig(c) => {
                varint_len(c.round_id) + 2 + varint_len(c.threshold) + varint_len(c.vector_len)
            }
            Message::Report(r) => varint_len(r.nonce) + r.body.encoded_len(),
            Message::KeyAdvertise(k) => varint_len(k.round_id) + 2 * PUBLIC_KEY_LEN,
            Message::KeyShares(k) => {
                key_shares_body_len(k.round_id, k.shares.iter().map(|s| s.recipient))
            }
            Message::MaskedInput(m) => masked_input_body_len(m.round_id, m.values.iter().copied()),
            Message::UnmaskShares(u) => {
                unmask_shares_body_len(u.round_id, u.shares.iter().copied())
            }
            Message::Publish(p) => {
                varint_len(p.round_id)
                    + 8
                    + varint_len(p.reports)
                    + varint_len(p.feedback.len() as u64)
                    + 8 * p.feedback.len()
            }
            Message::ConfigHeader(h) => {
                varint_len(h.round_id) + 1 + varint_len(h.threshold) + varint_len(h.vector_len)
            }
            Message::AssignBit { .. } => 1,
            Message::Shuffle(s) => s.encoded_len(),
            Message::BatchReport(b) => varint_len(b.nonce) + b.body.encoded_len(),
        };
        1 + body
    }

    /// Decodes one message, requiring the buffer to be fully consumed.
    ///
    /// # Errors
    /// See [`WireError`]; [`WireError::UnknownTag`] for an unrecognized
    /// type tag.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut pos = 0;
        let msg = Self::decode_from(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(msg)
    }

    /// The phase and direction of the frame in `buf`, validated in place:
    /// accepts exactly the bytes [`Self::decode`] accepts, with the same
    /// error, but allocates nothing. Metering and the daemon's payload
    /// validation only need this verdict, not the decoded message.
    ///
    /// # Errors
    /// See [`Self::decode`].
    pub fn check(buf: &[u8]) -> Result<(TrafficPhase, Direction), WireError> {
        use Direction::{Downlink, Uplink};
        let pos = &mut 0;
        let &tag = buf.first().ok_or(WireError::Truncated)?;
        *pos += 1;
        let class = match tag {
            TAG_HELLO => {
                read_varint(buf, pos)?;
                (TrafficPhase::Rendezvous, Uplink)
            }
            TAG_ROUND_CONFIG => {
                read_varint(buf, pos)?;
                read_bytes(buf, pos, 1)?;
                read_flag(buf, pos)?;
                read_varint(buf, pos)?;
                read_varint(buf, pos)?;
                (TrafficPhase::Configure, Downlink)
            }
            TAG_REPORT => {
                read_varint(buf, pos)?;
                ReportMessage::check_from(buf, pos)?;
                (TrafficPhase::Collect, Uplink)
            }
            TAG_KEY_ADVERTISE => {
                read_varint(buf, pos)?;
                read_bytes(buf, pos, 2 * PUBLIC_KEY_LEN)?;
                (TrafficPhase::KeyExchange, Uplink)
            }
            TAG_KEY_SHARES => {
                read_varint(buf, pos)?;
                for _ in 0..read_count(buf, pos, 1 + ENCRYPTED_SHARE_LEN)? {
                    read_varint(buf, pos)?;
                    read_bytes(buf, pos, ENCRYPTED_SHARE_LEN)?;
                }
                (TrafficPhase::KeyExchange, Uplink)
            }
            TAG_MASKED_INPUT => {
                read_varint(buf, pos)?;
                for _ in 0..read_count(buf, pos, 1)? {
                    read_varint(buf, pos)?;
                }
                (TrafficPhase::Masking, Uplink)
            }
            TAG_UNMASK_SHARES => {
                read_varint(buf, pos)?;
                for _ in 0..read_count(buf, pos, 2)? {
                    read_varint(buf, pos)?;
                    read_varint(buf, pos)?;
                }
                (TrafficPhase::Unmask, Uplink)
            }
            TAG_PUBLISH => {
                read_varint(buf, pos)?;
                read_bytes(buf, pos, 8)?;
                read_varint(buf, pos)?;
                let feedback = read_count(buf, pos, 8)?;
                read_bytes(buf, pos, 8 * feedback)?;
                (TrafficPhase::Publish, Downlink)
            }
            TAG_CONFIG_HEADER => {
                read_varint(buf, pos)?;
                read_flag(buf, pos)?;
                read_varint(buf, pos)?;
                read_varint(buf, pos)?;
                (TrafficPhase::Configure, Downlink)
            }
            TAG_ASSIGN_BIT => {
                read_bytes(buf, pos, 1)?;
                (TrafficPhase::Configure, Downlink)
            }
            TAG_SHUFFLE => {
                ShuffleMessage::check_from(buf, pos)?;
                (TrafficPhase::Shuffle, Uplink)
            }
            TAG_BATCH_REPORT => {
                read_varint(buf, pos)?;
                BatchReportMessage::check_from(buf, pos)?;
                (TrafficPhase::Collect, Uplink)
            }
            other => return Err(WireError::UnknownTag(other)),
        };
        if *pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(class)
    }

    /// Decodes one message starting at `*pos`, advancing `*pos` past it.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        let &tag = buf.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        match tag {
            TAG_HELLO => Ok(Message::Hello {
                round_id: read_varint(buf, pos)?,
            }),
            TAG_ROUND_CONFIG => {
                let round_id = read_varint(buf, pos)?;
                let assigned_bit = *buf.get(*pos).ok_or(WireError::Truncated)?;
                *pos += 1;
                let secagg = read_flag(buf, pos)?;
                let threshold = read_varint(buf, pos)?;
                let vector_len = read_varint(buf, pos)?;
                Ok(Message::RoundConfig(RoundConfig {
                    round_id,
                    assigned_bit,
                    secagg,
                    threshold,
                    vector_len,
                }))
            }
            TAG_REPORT => {
                let nonce = read_varint(buf, pos)?;
                let body = ReportMessage::decode_from(buf, pos)?;
                Ok(Message::Report(Report { nonce, body }))
            }
            TAG_KEY_ADVERTISE => {
                let round_id = read_varint(buf, pos)?;
                let mut kem_pk = [0u8; PUBLIC_KEY_LEN];
                kem_pk.copy_from_slice(read_bytes(buf, pos, PUBLIC_KEY_LEN)?);
                let mut mask_pk = [0u8; PUBLIC_KEY_LEN];
                mask_pk.copy_from_slice(read_bytes(buf, pos, PUBLIC_KEY_LEN)?);
                Ok(Message::KeyAdvertise(KeyAdvertise {
                    round_id,
                    kem_pk,
                    mask_pk,
                }))
            }
            TAG_KEY_SHARES => {
                let round_id = read_varint(buf, pos)?;
                // Each share costs at least 1 + ENCRYPTED_SHARE_LEN bytes.
                let count = read_count(buf, pos, 1 + ENCRYPTED_SHARE_LEN)?;
                let mut shares = Vec::with_capacity(count);
                for _ in 0..count {
                    let recipient = read_varint(buf, pos)?;
                    let mut ct = [0u8; ENCRYPTED_SHARE_LEN];
                    ct.copy_from_slice(read_bytes(buf, pos, ENCRYPTED_SHARE_LEN)?);
                    shares.push(EncryptedShare { recipient, ct });
                }
                Ok(Message::KeyShares(KeyShares { round_id, shares }))
            }
            TAG_MASKED_INPUT => {
                let round_id = read_varint(buf, pos)?;
                let count = read_count(buf, pos, 1)?;
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(read_varint(buf, pos)?);
                }
                Ok(Message::MaskedInput(MaskedInput { round_id, values }))
            }
            TAG_UNMASK_SHARES => {
                let round_id = read_varint(buf, pos)?;
                let count = read_count(buf, pos, 2)?;
                let mut shares = Vec::with_capacity(count);
                for _ in 0..count {
                    let subject = read_varint(buf, pos)?;
                    let share = read_varint(buf, pos)?;
                    shares.push((subject, share));
                }
                Ok(Message::UnmaskShares(UnmaskShares { round_id, shares }))
            }
            TAG_PUBLISH => {
                let round_id = read_varint(buf, pos)?;
                let mut bits = [0u8; 8];
                bits.copy_from_slice(read_bytes(buf, pos, 8)?);
                let estimate = f64::from_bits(u64::from_le_bytes(bits));
                let reports = read_varint(buf, pos)?;
                let count = read_count(buf, pos, 8)?;
                let mut feedback = Vec::with_capacity(count);
                for _ in 0..count {
                    let mut fb = [0u8; 8];
                    fb.copy_from_slice(read_bytes(buf, pos, 8)?);
                    feedback.push(f64::from_bits(u64::from_le_bytes(fb)));
                }
                Ok(Message::Publish(Publish {
                    round_id,
                    estimate,
                    reports,
                    feedback,
                }))
            }
            TAG_CONFIG_HEADER => {
                let round_id = read_varint(buf, pos)?;
                let secagg = read_flag(buf, pos)?;
                let threshold = read_varint(buf, pos)?;
                let vector_len = read_varint(buf, pos)?;
                Ok(Message::ConfigHeader(ConfigHeader {
                    round_id,
                    secagg,
                    threshold,
                    vector_len,
                }))
            }
            TAG_ASSIGN_BIT => {
                let assigned_bit = *buf.get(*pos).ok_or(WireError::Truncated)?;
                *pos += 1;
                Ok(Message::AssignBit { assigned_bit })
            }
            TAG_SHUFFLE => Ok(Message::Shuffle(ShuffleMessage::decode_from(buf, pos)?)),
            TAG_BATCH_REPORT => {
                let nonce = read_varint(buf, pos)?;
                let body = BatchReportMessage::decode_from(buf, pos)?;
                Ok(Message::BatchReport(BatchReport { nonce, body }))
            }
            other => Err(WireError::UnknownTag(other)),
        }
    }
}

/// Reads a `0`/`1` flag byte.
fn read_flag(buf: &[u8], pos: &mut usize) -> Result<bool, WireError> {
    let flag = match buf.get(*pos).ok_or(WireError::Truncated)? {
        0 => false,
        1 => true,
        _ => return Err(WireError::InvalidField("secagg flag")),
    };
    *pos += 1;
    Ok(flag)
}

/// Reads a count of entries at least `min_entry` bytes each, failing
/// before any allocation when the rest of the buffer cannot hold them.
fn read_count(buf: &[u8], pos: &mut usize, min_entry: usize) -> Result<usize, WireError> {
    let count = usize::try_from(read_varint(buf, pos)?).map_err(|_| WireError::Truncated)?;
    if count > buf.len().saturating_sub(*pos) / min_entry {
        return Err(WireError::Truncated);
    }
    Ok(count)
}

// One writer and one size per counted secure-aggregation layout, shared by
// `Message::encode_into` and the in-place frame builders, so both produce
// the same bytes by construction. Sizes exclude the one-byte tag.

fn key_shares_body_len(round_id: u64, recipients: impl ExactSizeIterator<Item = u64>) -> usize {
    varint_len(round_id)
        + varint_len(recipients.len() as u64)
        + recipients
            .map(|r| varint_len(r) + ENCRYPTED_SHARE_LEN)
            .sum::<usize>()
}

/// `tag · round_id · count · count × (recipient · ct)`; `ct(d, buf)`
/// writes share `d`'s ciphertext straight into the frame.
fn put_key_shares(
    out: &mut Vec<u8>,
    round_id: u64,
    recipients: impl ExactSizeIterator<Item = u64>,
    mut ct: impl FnMut(usize, &mut [u8]),
) {
    out.push(TAG_KEY_SHARES);
    push_varint(out, round_id);
    push_varint(out, recipients.len() as u64);
    for (d, recipient) in recipients.enumerate() {
        push_varint(out, recipient);
        let at = out.len();
        out.resize(at + ENCRYPTED_SHARE_LEN, 0);
        ct(d, &mut out[at..]);
    }
}

fn masked_input_body_len(round_id: u64, values: impl ExactSizeIterator<Item = u64>) -> usize {
    varint_len(round_id) + varint_len(values.len() as u64) + values.map(varint_len).sum::<usize>()
}

/// `tag · round_id · count · count × value`.
fn put_masked_input(out: &mut Vec<u8>, round_id: u64, values: impl ExactSizeIterator<Item = u64>) {
    out.push(TAG_MASKED_INPUT);
    push_varint(out, round_id);
    push_varint(out, values.len() as u64);
    for v in values {
        push_varint(out, v);
    }
}

fn unmask_shares_body_len(
    round_id: u64,
    shares: impl ExactSizeIterator<Item = (u64, u64)>,
) -> usize {
    varint_len(round_id)
        + varint_len(shares.len() as u64)
        + shares
            .map(|(subject, share)| varint_len(subject) + varint_len(share))
            .sum::<usize>()
}

/// `tag · round_id · count · count × (subject · share)`.
fn put_unmask_shares(
    out: &mut Vec<u8>,
    round_id: u64,
    shares: impl ExactSizeIterator<Item = (u64, u64)>,
) {
    out.push(TAG_UNMASK_SHARES);
    push_varint(out, round_id);
    push_varint(out, shares.len() as u64);
    for (subject, share) in shares {
        push_varint(out, subject);
        push_varint(out, share);
    }
}

impl KeyShares {
    /// The encoded [`Message::KeyShares`] frame with one share per
    /// `recipients` entry, built in place in a buffer of exactly its size:
    /// `ct(d, buf)` writes share `d`'s ciphertext into the frame. The bytes
    /// equal encoding the equivalent [`KeyShares`], which is never built.
    pub fn frame<R>(round_id: u64, recipients: R, ct: impl FnMut(usize, &mut [u8])) -> Vec<u8>
    where
        R: ExactSizeIterator<Item = u64> + Clone,
    {
        let mut out = Vec::with_capacity(1 + key_shares_body_len(round_id, recipients.clone()));
        put_key_shares(&mut out, round_id, recipients, ct);
        out
    }
}

impl MaskedInput {
    /// The encoded [`Message::MaskedInput`] frame for `values`, built in
    /// place in a buffer of exactly its size (see [`KeyShares::frame`]).
    pub fn frame<V>(round_id: u64, values: V) -> Vec<u8>
    where
        V: ExactSizeIterator<Item = u64> + Clone,
    {
        let mut out = Vec::with_capacity(1 + masked_input_body_len(round_id, values.clone()));
        put_masked_input(&mut out, round_id, values);
        out
    }
}

impl UnmaskShares {
    /// The encoded [`Message::UnmaskShares`] frame for `(subject, share)`
    /// pairs, built in place in a buffer of exactly its size (see
    /// [`KeyShares::frame`]).
    pub fn frame<S>(round_id: u64, shares: S) -> Vec<u8>
    where
        S: ExactSizeIterator<Item = (u64, u64)> + Clone,
    {
        let mut out = Vec::with_capacity(1 + unmask_shares_body_len(round_id, shares.clone()));
        put_unmask_shares(&mut out, round_id, shares);
        out
    }
}

/// One frame of every variant, with boundary field values: the fixture
/// the codec's unit tests and the `proptest_messages` suite share.
#[doc(hidden)]
#[must_use]
pub fn samples() -> Vec<Message> {
    vec![
        Message::Hello { round_id: 7 },
        Message::RoundConfig(RoundConfig {
            round_id: 0x1234,
            assigned_bit: 5,
            secagg: true,
            threshold: 128,
            vector_len: 16,
        }),
        Message::Report(Report {
            nonce: 99,
            body: ReportMessage {
                task_id: 0x1234,
                reports: vec![(5, true)],
            },
        }),
        Message::KeyAdvertise(KeyAdvertise {
            round_id: 3,
            kem_pk: [0xAB; PUBLIC_KEY_LEN],
            mask_pk: [0xCD; PUBLIC_KEY_LEN],
        }),
        Message::KeyShares(KeyShares {
            round_id: 3,
            shares: vec![
                EncryptedShare {
                    recipient: 1,
                    ct: [1; ENCRYPTED_SHARE_LEN],
                },
                EncryptedShare {
                    recipient: u64::MAX,
                    ct: [2; ENCRYPTED_SHARE_LEN],
                },
            ],
        }),
        Message::MaskedInput(MaskedInput {
            round_id: 3,
            values: vec![0, 1, (1 << 61) - 2, 12345],
        }),
        Message::UnmaskShares(UnmaskShares {
            round_id: 3,
            shares: vec![(0, 42), (17, (1 << 61) - 3)],
        }),
        Message::Publish(Publish {
            round_id: 3,
            estimate: -12.75,
            reports: 100_000,
            feedback: vec![0.0, 0.25, -1.5, f64::MAX],
        }),
        Message::ConfigHeader(ConfigHeader {
            round_id: 0x1234,
            secagg: true,
            threshold: 128,
            vector_len: 16,
        }),
        Message::AssignBit { assigned_bit: 5 },
        Message::Shuffle(ShuffleMessage::Submit {
            round_id: 3,
            bit_index: 7,
            bit: true,
        }),
        Message::Shuffle(ShuffleMessage::Batch {
            round_id: 3,
            entries: vec![(0, false), (7, true), (255, false)],
        }),
        Message::BatchReport(BatchReport {
            nonce: 42,
            body: BatchReportMessage {
                task_id: 0x1234,
                planes: {
                    let mut planes = fednum_core::bits::BitPlanes::new(4, 70);
                    for slot in 0..70 {
                        planes.record(slot, (slot % 4) as u32, slot % 3 == 0);
                    }
                    planes
                },
            },
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips() {
        for msg in samples() {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(Message::decode(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn in_place_builders_match_encode() {
        let shares: Vec<EncryptedShare> = (0..70u64)
            .map(|d| EncryptedShare {
                recipient: d << (d % 64),
                ct: [d as u8; ENCRYPTED_SHARE_LEN],
            })
            .collect();
        let built = KeyShares::frame(9, shares.iter().map(|s| s.recipient), |d, ct| {
            ct.copy_from_slice(&shares[d].ct);
        });
        let encoded = Message::KeyShares(KeyShares {
            round_id: 9,
            shares: shares.clone(),
        })
        .encode();
        assert_eq!(built, encoded);
        assert_eq!(built.capacity(), built.len(), "exact-size buffer");

        let values: Vec<u64> = (0..64).map(|v| (1u64 << v) - 1).collect();
        let built = MaskedInput::frame(u64::MAX, values.iter().copied());
        let encoded = Message::MaskedInput(MaskedInput {
            round_id: u64::MAX,
            values,
        })
        .encode();
        assert_eq!((built.capacity(), &built), (built.len(), &encoded));

        let pairs: Vec<(u64, u64)> = (0..40).map(|d| (d, u64::MAX >> d)).collect();
        let built = UnmaskShares::frame(0, pairs.iter().copied());
        let encoded = Message::UnmaskShares(UnmaskShares {
            round_id: 0,
            shares: pairs,
        })
        .encode();
        assert_eq!((built.capacity(), &built), (built.len(), &encoded));
    }

    #[test]
    fn every_variant_rejects_truncation_and_trailing() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Message::decode(&bytes[..cut]).is_err(),
                    "{msg:?} cut at {cut}"
                );
            }
            let mut extended = bytes.clone();
            extended.push(0);
            assert_eq!(
                Message::decode(&extended),
                Err(WireError::TrailingBytes),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        for tag in 12..=255u8 {
            assert_eq!(Message::decode(&[tag]), Err(WireError::UnknownTag(tag)));
        }
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn malformed_secagg_flag_rejected() {
        let mut bytes = Message::RoundConfig(RoundConfig {
            round_id: 1,
            assigned_bit: 0,
            secagg: false,
            threshold: 0,
            vector_len: 0,
        })
        .encode();
        // tag, round_id varint, bit, flag...
        bytes[3] = 2;
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::InvalidField("secagg flag"))
        );
    }

    #[test]
    fn malformed_header_secagg_flag_rejected() {
        let mut bytes = Message::ConfigHeader(ConfigHeader {
            round_id: 1,
            secagg: false,
            threshold: 0,
            vector_len: 0,
        })
        .encode();
        // tag, round_id varint, flag...
        bytes[2] = 7;
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::InvalidField("secagg flag"))
        );
    }

    #[test]
    fn assign_bit_delta_is_two_bytes_and_beats_full_config() {
        let full = Message::RoundConfig(RoundConfig {
            round_id: 0xF3D5,
            assigned_bit: 5,
            secagg: true,
            threshold: 500,
            vector_len: 20,
        });
        let delta = Message::AssignBit { assigned_bit: 5 };
        assert_eq!(delta.encoded_len(), 2);
        // The savings the compressed codec banks per client: everything in
        // the full config except the tag and the bit itself.
        assert!(full.encoded_len() >= delta.encoded_len() + 5);
    }

    #[test]
    fn oversized_counts_fail_before_allocating() {
        for tag in [TAG_KEY_SHARES, TAG_MASKED_INPUT, TAG_UNMASK_SHARES] {
            let mut buf = vec![tag, 0]; // round_id = 0
            push_varint(&mut buf, u64::MAX); // impossible count
            assert_eq!(Message::decode(&buf), Err(WireError::Truncated));
        }
        // Publish: round_id, 8-byte estimate, reports, then the feedback
        // count — an impossible count must fail without allocating.
        let mut buf = vec![TAG_PUBLISH, 0];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.push(0); // reports = 0
        push_varint(&mut buf, u64::MAX);
        assert_eq!(Message::decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn phases_and_directions_partition_the_surface() {
        use fednum_fedsim::traffic::Direction::{Downlink, Uplink};
        for msg in samples() {
            let dir = msg.direction();
            match msg {
                Message::RoundConfig(_)
                | Message::Publish(_)
                | Message::ConfigHeader(_)
                | Message::AssignBit { .. } => assert_eq!(dir, Downlink),
                _ => assert_eq!(dir, Uplink),
            }
        }
    }

    #[test]
    fn report_frame_is_single_packet_class() {
        // The paper's point, now at the transport layer: a full framed
        // one-feature report (tag + nonce + header + index + payload bit)
        // stays within a handful of bytes.
        let msg = Message::Report(Report {
            nonce: 1_000_000,
            body: ReportMessage {
                task_id: 0xF3D5,
                reports: vec![(11, true)],
            },
        });
        assert!(
            msg.encoded_len() <= 10,
            "framed report is {} bytes",
            msg.encoded_len()
        );
    }
}
