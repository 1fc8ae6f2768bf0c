//! A jbd2-style write-ahead journal.
//!
//! The journal lives in the blocks preallocated to the reserved journal
//! inode (#8) at `mke2fs` time, with the real jbd2 structure: a journal
//! superblock, then transactions — each a *descriptor block* listing the
//! home locations of the blocks that follow, the data blocks themselves,
//! and a *commit block* sealing the transaction. Metadata updates are
//! written to the journal and committed before they are checkpointed to
//! their home locations; after a crash, [`Journal::replay`] re-applies
//! every sealed transaction and ignores a trailing unsealed one — the
//! invariant that makes `data=ordered` metadata updates atomic.

use blockdev::BlockDevice;

use crate::util::{checksum, get_u32, get_u64, put_u32, put_u64};
use crate::FsError;

/// Magic of every journal block header (jbd2's 0xc03b3998).
pub const JBD_MAGIC: u32 = 0xc03b_3998;

const KIND_SUPER: u32 = 1;
const KIND_DESCRIPTOR: u32 = 2;
const KIND_COMMIT: u32 = 3;

/// One metadata update: `data` belongs at home location `target`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Home (absolute) block number.
    pub target: u64,
    /// The block contents.
    pub data: Vec<u8>,
}

/// A transaction being assembled.
#[derive(Debug, Clone, Default)]
pub struct Transaction {
    records: Vec<JournalRecord>,
}

impl Transaction {
    /// An empty transaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the update for `target`.
    pub fn add(&mut self, target: u64, data: Vec<u8>) {
        if let Some(r) = self.records.iter_mut().find(|r| r.target == target) {
            r.data = data;
        } else {
            self.records.push(JournalRecord { target, data });
        }
    }

    /// Number of block updates in the transaction.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no updates were added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The journal: a region of `blocks` (absolute block numbers, in order)
/// on a device with `block_size`-byte blocks.
#[derive(Debug, Clone)]
pub struct Journal {
    blocks: Vec<u64>,
    block_size: u32,
    /// Next free slot (index into `blocks`) and the next sequence number.
    head: u32,
    sequence: u32,
}

impl Journal {
    /// Opens a journal region, reading its superblock (slot 0).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] when the region is too small.
    pub fn open<D: BlockDevice>(dev: &D, blocks: Vec<u64>, block_size: u32) -> Result<Self, FsError> {
        if blocks.len() < 4 {
            return Err(FsError::Corrupt(format!(
                "journal region too small: {} blocks",
                blocks.len()
            )));
        }
        let raw = dev.read_block_vec(blocks[0])?;
        let mut j = Journal { blocks, block_size, head: 1, sequence: 1 };
        if get_u32(&raw, 0) == JBD_MAGIC && get_u32(&raw, 4) == KIND_SUPER {
            j.head = get_u32(&raw, 8).max(1);
            j.sequence = get_u32(&raw, 12).max(1);
        }
        Ok(j)
    }

    /// Formats the journal superblock (an empty journal).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn format<D: BlockDevice>(dev: &mut D, blocks: &[u64], block_size: u32) -> Result<(), FsError> {
        if blocks.len() < 4 {
            return Err(FsError::Corrupt(format!(
                "journal region too small: {} blocks",
                blocks.len()
            )));
        }
        let mut sb = vec![0u8; block_size as usize];
        put_u32(&mut sb, 0, JBD_MAGIC);
        put_u32(&mut sb, 4, KIND_SUPER);
        put_u32(&mut sb, 8, 1); // head
        put_u32(&mut sb, 12, 1); // sequence
        dev.write_block(blocks[0], &sb)?;
        Ok(())
    }

    /// Free slots remaining before the journal must be reset.
    pub fn free_slots(&self) -> u32 {
        (self.blocks.len() as u32).saturating_sub(self.head)
    }

    /// Writes and seals a transaction in the journal — after this
    /// returns, the updates survive a crash even if their home locations
    /// were never touched.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NoSpace`] when the transaction does not fit
    /// even in a freshly-reset journal or lists more blocks than one
    /// descriptor block holds, and device errors otherwise.
    pub fn commit<D: BlockDevice>(&mut self, dev: &mut D, txn: &Transaction) -> Result<(), FsError> {
        if txn.is_empty() {
            return Ok(());
        }
        let needed = txn.len() as u32 + 2; // descriptor + data + commit
        // the one descriptor block holds a 16-byte header and an 8-byte
        // target per record, the layout replay reads back
        let descriptor_full = 16 + txn.len() * 8 > self.block_size as usize;
        if needed > self.blocks.len() as u32 - 1 || descriptor_full {
            return Err(FsError::NoSpace);
        }
        if needed > self.free_slots() {
            // the journal is full: earlier transactions were checkpointed
            // by their committers, so wrapping to the start is safe
            self.head = 1;
        }
        let bs = self.block_size as usize;
        // descriptor
        let mut desc = vec![0u8; bs];
        put_u32(&mut desc, 0, JBD_MAGIC);
        put_u32(&mut desc, 4, KIND_DESCRIPTOR);
        put_u32(&mut desc, 8, self.sequence);
        put_u32(&mut desc, 12, txn.len() as u32);
        for (i, r) in txn.records.iter().enumerate() {
            put_u64(&mut desc, 16 + i * 8, r.target);
        }
        dev.write_block(self.blocks[self.head as usize], &desc)?;
        self.head += 1;
        // data blocks
        let mut csum = checksum(&desc);
        for r in &txn.records {
            let mut data = r.data.clone();
            data.resize(bs, 0);
            csum ^= checksum(&data);
            dev.write_block(self.blocks[self.head as usize], &data)?;
            self.head += 1;
        }
        // Barrier: descriptor and data must be durable before the seal,
        // or a volatile cache could persist the commit block alone and
        // replay would apply garbage that happens to checksum.
        dev.flush()?;
        // commit block seals the transaction
        let mut commit = vec![0u8; bs];
        put_u32(&mut commit, 0, JBD_MAGIC);
        put_u32(&mut commit, 4, KIND_COMMIT);
        put_u32(&mut commit, 8, self.sequence);
        put_u32(&mut commit, 12, csum);
        dev.write_block(self.blocks[self.head as usize], &commit)?;
        self.head += 1;
        self.sequence += 1;
        // Barrier: the seal itself must be durable before the caller
        // checkpoints home locations (jbd2 issues the commit record
        // with FUA/flush for the same reason).
        dev.flush()?;
        self.write_super(dev)?;
        Ok(())
    }

    /// Checkpoints a committed transaction: writes the updates to their
    /// home locations. (Separated from [`Journal::commit`] so tests can
    /// crash between the two.)
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn checkpoint<D: BlockDevice>(dev: &mut D, txn: &Transaction, block_size: u32) -> Result<(), FsError> {
        let bs = block_size as usize;
        for r in &txn.records {
            let mut data = r.data.clone();
            data.resize(bs, 0);
            dev.write_block(r.target, &data)?;
        }
        Ok(())
    }

    /// Replays every sealed transaction in order, ignoring a trailing
    /// unsealed one. Returns the number of transactions applied and
    /// resets the journal.
    ///
    /// # Errors
    ///
    /// Propagates device errors; malformed journal content stops the
    /// scan (it is treated as the unsealed tail, as jbd2 does).
    pub fn replay<D: BlockDevice>(&mut self, dev: &mut D) -> Result<usize, FsError> {
        if self.head <= 1 {
            return Ok(0); // the journal superblock marks it empty
        }
        let bs = self.block_size as usize;
        let mut applied = 0usize;
        let mut slot = 1usize;
        let mut expected_seq = 1u32;
        while slot < self.blocks.len() {
            let desc = dev.read_block_vec(self.blocks[slot])?;
            if get_u32(&desc, 0) != JBD_MAGIC
                || get_u32(&desc, 4) != KIND_DESCRIPTOR
                || get_u32(&desc, 8) < expected_seq
            {
                break; // end of journal / stale data
            }
            let seq = get_u32(&desc, 8);
            let count = get_u32(&desc, 12) as usize;
            if slot + count + 1 > self.blocks.len() || count == 0 || 16 + count * 8 > bs {
                break;
            }
            // gather data and verify the seal
            let mut csum = checksum(&desc);
            let mut records = Vec::with_capacity(count);
            for i in 0..count {
                let data = dev.read_block_vec(self.blocks[slot + 1 + i])?;
                csum ^= checksum(&data);
                records.push(JournalRecord { target: get_u64(&desc, 16 + i * 8), data });
            }
            let commit_slot = slot + 1 + count;
            if commit_slot >= self.blocks.len() {
                break;
            }
            let commit = dev.read_block_vec(self.blocks[commit_slot])?;
            if get_u32(&commit, 0) != JBD_MAGIC
                || get_u32(&commit, 4) != KIND_COMMIT
                || get_u32(&commit, 8) != seq
                || get_u32(&commit, 12) != csum
            {
                break; // unsealed or torn transaction: discard
            }
            for r in &records {
                dev.write_block(r.target, &r.data)?;
            }
            applied += 1;
            expected_seq = seq + 1;
            slot = commit_slot + 1;
        }
        self.reset(dev)?;
        Ok(applied)
    }

    /// Marks the journal empty (after a clean checkpoint or a replay).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn reset<D: BlockDevice>(&mut self, dev: &mut D) -> Result<(), FsError> {
        self.head = 1;
        self.sequence = 1;
        self.write_super(dev)
    }

    fn write_super<D: BlockDevice>(&self, dev: &mut D) -> Result<(), FsError> {
        let mut sb = vec![0u8; self.block_size as usize];
        put_u32(&mut sb, 0, JBD_MAGIC);
        put_u32(&mut sb, 4, KIND_SUPER);
        put_u32(&mut sb, 8, self.head);
        put_u32(&mut sb, 12, self.sequence);
        dev.write_block(self.blocks[0], &sb)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::MemDevice;

    fn setup() -> (MemDevice, Vec<u64>) {
        let dev = MemDevice::new(512, 256);
        let blocks: Vec<u64> = (100..140).collect();
        (dev, blocks)
    }

    #[test]
    fn commit_checkpoint_round_trip() {
        let (mut dev, blocks) = setup();
        Journal::format(&mut dev, &blocks, 512).unwrap();
        let mut j = Journal::open(&dev, blocks, 512).unwrap();
        let mut txn = Transaction::new();
        txn.add(5, vec![0xAA; 512]);
        txn.add(7, vec![0xBB; 512]);
        j.commit(&mut dev, &txn).unwrap();
        Journal::checkpoint(&mut dev, &txn, 512).unwrap();
        assert_eq!(dev.read_block_vec(5).unwrap(), vec![0xAA; 512]);
        assert_eq!(dev.read_block_vec(7).unwrap(), vec![0xBB; 512]);
    }

    #[test]
    fn a_transaction_past_one_descriptor_block_is_refused() {
        // 512-byte blocks: one descriptor lists (512 - 16) / 8 = 62 targets
        let mut dev = MemDevice::new(512, 256);
        let blocks: Vec<u64> = (100..240).collect();
        Journal::format(&mut dev, &blocks, 512).unwrap();
        let mut j = Journal::open(&dev, blocks.clone(), 512).unwrap();
        let txn = |n: u64| {
            let mut txn = Transaction::new();
            for target in 0..n {
                txn.add(target, vec![target as u8; 512]);
            }
            txn
        };
        let before = dev.clone();
        assert!(matches!(j.commit(&mut dev, &txn(63)), Err(FsError::NoSpace)));
        for b in 0..256 {
            assert_eq!(dev.read_block_vec(b).unwrap(), before.read_block_vec(b).unwrap());
        }
        j.commit(&mut dev, &txn(62)).unwrap();
        let mut j2 = Journal::open(&dev, blocks, 512).unwrap();
        assert_eq!(j2.replay(&mut dev).unwrap(), 1);
        assert_eq!(dev.read_block_vec(61).unwrap(), vec![61u8; 512]);
    }

    #[test]
    fn replay_recovers_committed_but_not_checkpointed() {
        let (mut dev, blocks) = setup();
        Journal::format(&mut dev, &blocks, 512).unwrap();
        let mut j = Journal::open(&dev, blocks.clone(), 512).unwrap();
        let mut txn = Transaction::new();
        txn.add(5, vec![0xAA; 512]);
        j.commit(&mut dev, &txn).unwrap();
        // CRASH before checkpoint: home block still zero
        assert_eq!(dev.read_block_vec(5).unwrap(), vec![0u8; 512]);
        // reopen + replay (the journal superblock carries the head)
        let mut j2 = Journal::open(&dev, blocks, 512).unwrap();
        let applied = j2.replay(&mut dev).unwrap();
        assert_eq!(applied, 1);
        assert_eq!(dev.read_block_vec(5).unwrap(), vec![0xAA; 512]);
    }

    #[test]
    fn unsealed_transaction_is_discarded() {
        let (mut dev, blocks) = setup();
        Journal::format(&mut dev, &blocks, 512).unwrap();
        let mut j = Journal::open(&dev, blocks.clone(), 512).unwrap();
        let mut txn = Transaction::new();
        txn.add(5, vec![0xCC; 512]);
        j.commit(&mut dev, &txn).unwrap();
        // tear the commit block of the transaction
        let commit_slot = blocks[2 + 1]; // sb, desc, data, commit
        dev.corrupt_byte(commit_slot, 0, 0).unwrap();
        let mut j2 = Journal::open(&dev, blocks, 512).unwrap();
        let applied = j2.replay(&mut dev).unwrap();
        assert_eq!(applied, 0, "a torn commit must not be replayed");
        assert_eq!(dev.read_block_vec(5).unwrap(), vec![0u8; 512]);
    }

    #[test]
    fn corrupted_data_block_fails_the_seal() {
        let (mut dev, blocks) = setup();
        Journal::format(&mut dev, &blocks, 512).unwrap();
        let mut j = Journal::open(&dev, blocks.clone(), 512).unwrap();
        let mut txn = Transaction::new();
        txn.add(5, vec![0xDD; 512]);
        j.commit(&mut dev, &txn).unwrap();
        // flip a byte in the journaled data copy
        dev.corrupt_byte(blocks[2], 10, 0x00).unwrap();
        let mut j2 = Journal::open(&dev, blocks, 512).unwrap();
        assert_eq!(j2.replay(&mut dev).unwrap(), 0, "checksum mismatch must discard");
    }

    #[test]
    fn multiple_transactions_replay_in_order() {
        let (mut dev, blocks) = setup();
        Journal::format(&mut dev, &blocks, 512).unwrap();
        let mut j = Journal::open(&dev, blocks.clone(), 512).unwrap();
        for round in 1..=3u8 {
            let mut txn = Transaction::new();
            txn.add(5, vec![round; 512]);
            j.commit(&mut dev, &txn).unwrap();
        }
        let mut j2 = Journal::open(&dev, blocks, 512).unwrap();
        assert_eq!(j2.replay(&mut dev).unwrap(), 3);
        // the last committed value wins
        assert_eq!(dev.read_block_vec(5).unwrap(), vec![3u8; 512]);
    }

    #[test]
    fn journal_wraps_when_full() {
        let (mut dev, blocks) = setup(); // 40 slots
        Journal::format(&mut dev, &blocks, 512).unwrap();
        let mut j = Journal::open(&dev, blocks, 512).unwrap();
        // each txn takes 3 slots; 13 txns exceed 39 usable slots
        for round in 0..13u8 {
            let mut txn = Transaction::new();
            txn.add(5, vec![round; 512]);
            j.commit(&mut dev, &txn).unwrap();
            Journal::checkpoint(&mut dev, &txn, 512).unwrap();
        }
        assert_eq!(dev.read_block_vec(5).unwrap(), vec![12u8; 512]);
    }

    #[test]
    fn oversized_transaction_rejected() {
        let (mut dev, blocks) = setup();
        Journal::format(&mut dev, &blocks, 512).unwrap();
        let mut j = Journal::open(&dev, blocks, 512).unwrap();
        let mut txn = Transaction::new();
        for t in 0..60u64 {
            txn.add(t, vec![1; 512]);
        }
        assert!(matches!(j.commit(&mut dev, &txn), Err(FsError::NoSpace)));
    }

    #[test]
    fn transaction_dedups_targets() {
        let mut txn = Transaction::new();
        txn.add(5, vec![1; 4]);
        txn.add(5, vec![2; 4]);
        assert_eq!(txn.len(), 1);
        assert_eq!(txn.records[0].data, vec![2; 4]);
    }

    #[test]
    fn commit_brackets_the_seal_with_flush_barriers() {
        let (dev, blocks) = setup();
        let mut dev = blockdev::RecordingDevice::new(dev);
        Journal::format(&mut dev, &blocks, 512).unwrap();
        let mut j = Journal::open(&dev, blocks, 512).unwrap();
        let mut txn = Transaction::new();
        txn.add(5, vec![0xEE; 512]);
        j.commit(&mut dev, &txn).unwrap();
        let (_, trace) = dev.into_parts();
        // stream: jsb, desc, data, FLUSH, commit, FLUSH, jsb
        let kinds: Vec<bool> = trace
            .events()
            .iter()
            .map(|e| matches!(e, blockdev::IoEvent::Flush))
            .collect();
        assert_eq!(kinds, vec![false, false, false, true, false, true, false]);
    }

    #[test]
    fn tiny_region_rejected() {
        let mut dev = MemDevice::new(512, 16);
        assert!(Journal::format(&mut dev, &[1, 2], 512).is_err());
        assert!(Journal::open(&dev, vec![1, 2], 512).is_err());
    }
}
