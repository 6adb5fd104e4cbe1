//! Atomic two-bank (A/B) checkpoint records over [`NonvolatileMemory`].
//!
//! A single checkpoint cell is not crash-safe: a power cut partway through the
//! NV write leaves a torn record and the device wakes up with no valid
//! progress at all. The classic fix — used by FRAM intermittent runtimes such
//! as SONIC/Alpaca — is to alternate writes between two banks and stamp each
//! record with a CRC and a monotonically increasing generation counter. A tear
//! can only ever corrupt the bank being written; the other bank still holds
//! the previous generation, so recovery falls back exactly one committed
//! checkpoint and never observes a generation regression.
//!
//! Record layout (32 bytes, little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "IECP"
//! 4       8     generation (u64, strictly increasing per durable commit)
//! 12      4     next_task  (u32, index of the first task NOT yet executed)
//! 16      1     flags      (bit 0: inference complete)
//! 17      8     output digest (u64, running FNV-style digest of task outputs)
//! 25      3     padding (zero)
//! 28      4     CRC-32 (IEEE) over bytes 0..28
//! ```

use crate::{NonvolatileMemory, Result};

/// Size of one encoded checkpoint record in bytes.
pub const RECORD_BYTES: usize = 32;

const MAGIC: [u8; 4] = *b"IECP";
const FLAG_DONE: u8 = 0b0000_0001;
const CRC_OFFSET: usize = RECORD_BYTES - 4;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
///
/// Bitwise and table-free on purpose: records are 28 bytes, so throughput is
/// irrelevant and the implementation stays small enough to audit at a glance.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One decoded checkpoint record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Strictly increasing per durable commit; recovery picks the newest.
    pub generation: u64,
    /// Index of the first task that has **not** yet executed.
    pub next_task: u32,
    /// Whether the inference this record belongs to ran to completion.
    pub done: bool,
    /// Running output digest at the point this record was committed.
    pub digest: u64,
}

impl CheckpointRecord {
    /// Encodes the record into its 32-byte on-NV representation.
    pub fn encode(&self) -> [u8; RECORD_BYTES] {
        let mut buf = [0u8; RECORD_BYTES];
        buf[0..4].copy_from_slice(&MAGIC);
        buf[4..12].copy_from_slice(&self.generation.to_le_bytes());
        buf[12..16].copy_from_slice(&self.next_task.to_le_bytes());
        buf[16] = if self.done { FLAG_DONE } else { 0 };
        buf[17..25].copy_from_slice(&self.digest.to_le_bytes());
        let crc = crc32(&buf[..CRC_OFFSET]);
        buf[CRC_OFFSET..].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes and validates a record; `None` for anything torn, truncated,
    /// mis-tagged, or failing the CRC.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != RECORD_BYTES || bytes[0..4] != MAGIC {
            return None;
        }
        let stored = u32::from_le_bytes(bytes[CRC_OFFSET..].try_into().ok()?);
        if crc32(&bytes[..CRC_OFFSET]) != stored {
            return None;
        }
        Some(CheckpointRecord {
            generation: u64::from_le_bytes(bytes[4..12].try_into().ok()?),
            next_task: u32::from_le_bytes(bytes[12..16].try_into().ok()?),
            done: bytes[16] & FLAG_DONE != 0,
            digest: u64::from_le_bytes(bytes[17..25].try_into().ok()?),
        })
    }
}

/// Two-bank atomic checkpoint cell.
///
/// `commit` always targets the bank that does **not** hold the newest valid
/// record, so the newest durable generation is never overwritten in place. A
/// torn commit therefore only ever destroys the *stale* bank (two generations
/// old); `recover` still finds the previous generation in the other bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoBankCheckpoint {
    bank_a: String,
    bank_b: String,
}

impl Default for TwoBankCheckpoint {
    fn default() -> Self {
        Self::new("ckpt")
    }
}

impl TwoBankCheckpoint {
    /// Creates a checkpoint cell whose banks are keyed `{prefix}-a` /
    /// `{prefix}-b` in the NV store.
    pub fn new(prefix: &str) -> Self {
        TwoBankCheckpoint { bank_a: format!("{prefix}-a"), bank_b: format!("{prefix}-b") }
    }

    /// Decodes both banks and returns each bank's valid record, if any.
    fn banks(&self, nv: &NonvolatileMemory) -> [Option<CheckpointRecord>; 2] {
        [
            nv.read(&self.bank_a).and_then(CheckpointRecord::decode),
            nv.read(&self.bank_b).and_then(CheckpointRecord::decode),
        ]
    }

    /// The key of the bank the next commit must target: the one *not* holding
    /// the newest valid record.
    fn target_bank(&self, nv: &NonvolatileMemory) -> &str {
        match self.banks(nv) {
            [Some(a), Some(b)] => {
                if a.generation >= b.generation {
                    &self.bank_b
                } else {
                    &self.bank_a
                }
            }
            [Some(_), None] => &self.bank_b,
            _ => &self.bank_a,
        }
    }

    /// Durably commits `record` into the stale bank.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::McuError::NonvolatileFull`] if the store cannot
    /// hold both banks.
    pub fn commit(&self, nv: &mut NonvolatileMemory, record: &CheckpointRecord) -> Result<()> {
        let key = self.target_bank(nv).to_string();
        nv.write(&key, &record.encode())
    }

    /// Commits `record` but tears the NV write after `committed` bytes,
    /// simulating a power cut mid-write (see
    /// [`NonvolatileMemory::write_torn`]). `committed >= RECORD_BYTES` is a
    /// complete write.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::McuError::NonvolatileFull`] exactly as [`Self::commit`].
    pub fn commit_torn(
        &self,
        nv: &mut NonvolatileMemory,
        record: &CheckpointRecord,
        committed: usize,
    ) -> Result<()> {
        let key = self.target_bank(nv).to_string();
        nv.write_torn(&key, &record.encode(), committed)
    }

    /// Recovers the newest valid record across both banks, or `None` when
    /// neither bank decodes (fresh device, or both torn).
    pub fn recover(&self, nv: &NonvolatileMemory) -> Option<CheckpointRecord> {
        let [a, b] = self.banks(nv);
        match (a, b) {
            (Some(a), Some(b)) => Some(if a.generation >= b.generation { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(generation: u64, next_task: u32) -> CheckpointRecord {
        CheckpointRecord { generation, next_task, done: false, digest: 0xDEAD_BEEF_CAFE_F00D }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = CheckpointRecord {
            generation: u64::MAX - 3,
            next_task: 17,
            done: true,
            digest: 0x0123_4567_89AB_CDEF,
        };
        assert_eq!(CheckpointRecord::decode(&r.encode()), Some(r));
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let bytes = record(9, 4).encode();
        for i in 0..RECORD_BYTES {
            let mut torn = bytes;
            torn[i] ^= 0xA5;
            assert_eq!(CheckpointRecord::decode(&torn), None, "flip at byte {i} undetected");
        }
        assert!(CheckpointRecord::decode(&bytes[..RECORD_BYTES - 1]).is_none());
    }

    #[test]
    fn commit_alternates_banks_and_recover_picks_newest() {
        let ckpt = TwoBankCheckpoint::default();
        let mut nv = NonvolatileMemory::new(256);
        assert_eq!(ckpt.recover(&nv), None);

        ckpt.commit(&mut nv, &record(1, 1)).unwrap();
        assert_eq!(ckpt.recover(&nv).unwrap().generation, 1);
        ckpt.commit(&mut nv, &record(2, 2)).unwrap();
        assert_eq!(ckpt.recover(&nv).unwrap().generation, 2);
        ckpt.commit(&mut nv, &record(3, 3)).unwrap();
        assert_eq!(ckpt.recover(&nv).unwrap().generation, 3);
        // Three commits across two banks: both banks hold valid records and
        // the stale one is exactly one generation behind.
        let mut gens: Vec<u64> = [nv.read("ckpt-a"), nv.read("ckpt-b")]
            .into_iter()
            .map(|b| CheckpointRecord::decode(b.unwrap()).unwrap().generation)
            .collect();
        gens.sort_unstable();
        assert_eq!(gens, vec![2, 3]);
    }

    #[test]
    fn torn_commit_falls_back_one_generation() {
        let ckpt = TwoBankCheckpoint::default();
        let mut nv = NonvolatileMemory::new(256);
        ckpt.commit(&mut nv, &record(1, 1)).unwrap();
        ckpt.commit(&mut nv, &record(2, 2)).unwrap();
        for committed in 0..RECORD_BYTES {
            let mut nv = nv.clone();
            ckpt.commit_torn(&mut nv, &record(3, 3), committed).unwrap();
            let rec = ckpt.recover(&nv).expect("surviving bank");
            assert_eq!(rec.generation, 2, "tear after {committed} bytes");
            assert_eq!(rec.next_task, 2);
        }
        // A "tear" at or past the record length is a complete write.
        ckpt.commit_torn(&mut nv, &record(3, 3), RECORD_BYTES).unwrap();
        assert_eq!(ckpt.recover(&nv).unwrap().generation, 3);
    }

    #[test]
    fn recover_never_regresses_under_repeated_torn_commits() {
        let ckpt = TwoBankCheckpoint::default();
        let mut nv = NonvolatileMemory::new(256);
        ckpt.commit(&mut nv, &record(1, 1)).unwrap();
        let mut newest = 1u64;
        for attempt in 0..40u64 {
            let next = record(newest + 1, (newest + 1) as u32);
            if attempt % 3 == 0 {
                // Torn attempt: durable state must stay at `newest`.
                ckpt.commit_torn(&mut nv, &next, (attempt as usize * 7) % RECORD_BYTES).unwrap();
            } else {
                ckpt.commit(&mut nv, &next).unwrap();
                newest += 1;
            }
            let rec = ckpt.recover(&nv).expect("at least one valid bank");
            assert_eq!(rec.generation, newest);
        }
    }
}
