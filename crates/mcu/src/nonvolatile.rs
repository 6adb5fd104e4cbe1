use crate::{McuError, Result};
use std::collections::BTreeMap;

/// A FRAM-like non-volatile byte store.
///
/// Contents survive simulated power failures (which only clear volatile
/// state), have a bounded capacity, and every write is metered so the
/// intermittent executor can charge checkpointing energy against the storage.
///
/// # Example
///
/// ```
/// use ie_mcu::NonvolatileMemory;
///
/// let mut nv = NonvolatileMemory::new(1024);
/// nv.write("progress", &[3])?;
/// assert_eq!(nv.read("progress"), Some(&[3][..]));
/// nv.power_failure();
/// assert_eq!(nv.read("progress"), Some(&[3][..]), "contents survive power loss");
/// # Ok::<(), ie_mcu::McuError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NonvolatileMemory {
    capacity_bytes: usize,
    entries: BTreeMap<String, Vec<u8>>,
    bytes_written: u64,
    power_failures: u64,
    torn_writes: u64,
}

impl NonvolatileMemory {
    /// Creates an empty store with the given capacity in bytes.
    pub fn new(capacity_bytes: usize) -> Self {
        NonvolatileMemory { capacity_bytes, ..Default::default() }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently occupied.
    pub fn used_bytes(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Total bytes ever written (for energy accounting).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of power failures the memory has survived.
    pub fn power_failures(&self) -> u64 {
        self.power_failures
    }

    /// Number of writes that were torn by a mid-write power cut.
    pub fn torn_writes(&self) -> u64 {
        self.torn_writes
    }

    /// Writes (or overwrites) `key` with `data`.
    ///
    /// Overwriting an existing key reuses its buffer in place (unless the new
    /// value is larger), so steady-state checkpointing — the intermittent
    /// executor rewriting `task-progress` after every task — allocates
    /// nothing per write.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::NonvolatileFull`] when the write would exceed the
    /// capacity; the previous value of `key` is kept in that case.
    pub fn write(&mut self, key: &str, data: &[u8]) -> Result<()> {
        let existing = self.entries.get(key).map(Vec::len).unwrap_or(0);
        let used_without = self.used_bytes() - existing;
        if used_without + data.len() > self.capacity_bytes {
            return Err(McuError::NonvolatileFull {
                requested: data.len(),
                available: self.capacity_bytes - used_without,
            });
        }
        self.bytes_written += data.len() as u64;
        if let Some(slot) = self.entries.get_mut(key) {
            slot.clear();
            slot.extend_from_slice(data);
        } else {
            self.entries.insert(key.to_string(), data.to_vec());
        }
        Ok(())
    }

    /// Writes `key` but tears the write after `committed` bytes, modelling a
    /// power cut striking the FRAM write partway through.
    ///
    /// The cell is left with the first `committed` bytes of `data`, the old
    /// contents beyond that point (erased-cell `0xFF` where the entry grows),
    /// and — when the tear lands strictly inside the value — the boundary
    /// byte corrupted, as a partially programmed cell would read back.
    /// `committed >= data.len()` is a complete, untorn write. Only the bytes
    /// that reached the cell are metered.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::NonvolatileFull`] under the same capacity rule as
    /// [`Self::write`]; the previous value of `key` is kept in that case.
    pub fn write_torn(&mut self, key: &str, data: &[u8], committed: usize) -> Result<()> {
        let existing = self.entries.get(key).map(Vec::len).unwrap_or(0);
        let used_without = self.used_bytes() - existing;
        if used_without + data.len() > self.capacity_bytes {
            return Err(McuError::NonvolatileFull {
                requested: data.len(),
                available: self.capacity_bytes - used_without,
            });
        }
        let committed = committed.min(data.len());
        self.bytes_written += committed as u64;
        if committed == data.len() {
            // The cut landed after the last byte: the write is durable.
            if let Some(slot) = self.entries.get_mut(key) {
                slot.clear();
                slot.extend_from_slice(data);
            } else {
                self.entries.insert(key.to_string(), data.to_vec());
            }
            return Ok(());
        }
        self.torn_writes += 1;
        let slot = self.entries.entry(key.to_string()).or_default();
        slot.resize(data.len(), 0xFF);
        slot[..committed].copy_from_slice(&data[..committed]);
        slot[committed] ^= 0xA5;
        Ok(())
    }

    /// Reads the value stored under `key`, if any.
    pub fn read(&self, key: &str) -> Option<&[u8]> {
        self.entries.get(key).map(Vec::as_slice)
    }

    /// Records a power failure. Non-volatile contents are untouched; the
    /// counter exists so experiments can report how many power cycles an
    /// execution needed.
    pub fn power_failure(&mut self) {
        self.power_failures += 1;
    }

    /// Clears all contents (a deliberate reset, not a power failure).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_erase_roundtrip() {
        let mut nv = NonvolatileMemory::new(64);
        nv.write("a", &[1, 2, 3]).unwrap();
        assert_eq!(nv.read("a"), Some(&[1, 2, 3][..]));
        assert_eq!(nv.used_bytes(), 3);
        nv.clear();
        assert_eq!(nv.read("a"), None);
        assert_eq!(nv.used_bytes(), 0);
    }

    #[test]
    fn capacity_is_enforced_and_existing_value_preserved() {
        let mut nv = NonvolatileMemory::new(8);
        nv.write("k", &[0; 6]).unwrap();
        let err = nv.write("other", &[0; 4]).unwrap_err();
        assert!(matches!(err, McuError::NonvolatileFull { .. }));
        // Overwriting the same key with a size that fits after reclaiming is fine.
        nv.write("k", &[1; 8]).unwrap();
        assert_eq!(nv.read("k"), Some(&[1u8; 8][..]));
    }

    #[test]
    fn torn_write_leaves_prefix_and_corrupt_boundary() {
        let mut nv = NonvolatileMemory::new(64);
        nv.write("k", &[0x11; 8]).unwrap();
        nv.write_torn("k", &[0x22; 8], 3).unwrap();
        let cell = nv.read("k").unwrap();
        assert_eq!(&cell[..3], &[0x22; 3], "committed prefix holds new data");
        assert_eq!(cell[3], 0x11 ^ 0xA5, "boundary byte is a partially programmed cell");
        assert_eq!(&cell[4..], &[0x11; 4], "suffix still holds the old data");
        assert_eq!(nv.torn_writes(), 1);
        assert_eq!(nv.bytes_written(), 8 + 3, "only committed bytes are metered");

        // A tear at or past the length is a complete write.
        nv.write_torn("k", &[0x33; 8], 8).unwrap();
        assert_eq!(nv.read("k"), Some(&[0x33; 8][..]));
        assert_eq!(nv.torn_writes(), 1);

        // A torn write into a fresh, longer cell reads erased 0xFF beyond the
        // committed prefix (boundary byte corrupted).
        nv.write_torn("fresh", &[0x44; 4], 2).unwrap();
        assert_eq!(nv.read("fresh"), Some(&[0x44, 0x44, 0xFF ^ 0xA5, 0xFF][..]));
    }

    #[test]
    fn torn_write_respects_capacity() {
        let mut nv = NonvolatileMemory::new(8);
        nv.write("k", &[9; 6]).unwrap();
        let err = nv.write_torn("other", &[0; 4], 2).unwrap_err();
        assert!(matches!(err, McuError::NonvolatileFull { .. }));
        assert_eq!(nv.read("k"), Some(&[9; 6][..]));
        assert_eq!(nv.read("other"), None);
        assert!(nv.used_bytes() <= nv.capacity_bytes());
    }

    #[test]
    fn contents_survive_power_failures_and_writes_are_metered() {
        let mut nv = NonvolatileMemory::new(32);
        nv.write("progress", &[7]).unwrap();
        nv.power_failure();
        nv.power_failure();
        assert_eq!(nv.power_failures(), 2);
        assert_eq!(nv.read("progress"), Some(&[7][..]));
        assert_eq!(nv.bytes_written(), 1);
        nv.clear();
        assert_eq!(nv.read("progress"), None);
    }
}
