//! Stable content digests of whole device images.
//!
//! The crash explorer materialises thousands of post-crash images per
//! workload, and many of them — torn-write and volatile-cache variants
//! especially — collapse to byte-identical contents. [`ImageDigest`]
//! gives every image a cheap identity so classification verdicts can be
//! memoised: it is the (wrapping) sum over all blocks of a per-block
//! FNV-1a contribution that mixes in the block number. Summing makes
//! the digest *incrementally maintainable*: overwriting one block only
//! needs the old and new contribution of that block, not a rescan
//! ([`ImageDigest::replace`]). Two independently seeded 64-bit streams
//! are combined so accidental collisions need both sums to agree.
//!
//! The hasher is fixed and deterministic — no per-process seeds, no
//! randomised state — so digests are comparable across runs, threads
//! and device implementations.

use crate::{BlockDevice, DeviceError};

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The standard 64-bit FNV-1a offset basis: the seed of a fresh
/// [`fnv1a`] stream, and the first digest stream.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// An independent second basis (the 64-bit golden ratio), so a
/// collision must defeat two unrelated streams at once.
const SEED_B: u64 = 0x9e37_79b9_7f4a_7c15;

/// Content identity of one device image (two summed FNV-1a streams).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ImageDigest {
    /// Stream seeded with the FNV-1a offset basis.
    pub a: u64,
    /// Stream seeded with the alternate basis.
    pub b: u64,
}

/// The digest contribution of a single block's content.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockContribution {
    a: u64,
    b: u64,
}

/// Folds `bytes` into the 64-bit FNV-1a state `seed`.
///
/// The one FNV-1a in the workspace: image digests, store checksums and
/// context tags, configuration state fingerprints and analysis-cache
/// keys all hash through it. Start a fresh stream from
/// [`FNV_OFFSET_BASIS`]; pass a previous result to continue one.
#[inline]
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &byte in bytes {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One digest stream of block `block` holding `data`.
fn block_stream(seed: u64, block: u64, data: &[u8]) -> u64 {
    fnv1a(fnv1a(seed, &block.to_le_bytes()), data)
}

/// `FNV_PRIME.pow(n)` with wrapping arithmetic (square-and-multiply).
fn fnv_prime_pow(mut n: usize) -> u64 {
    let mut base = FNV_PRIME;
    let mut acc = 1u64;
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
}

/// The contribution of block `block` holding `data`.
pub fn block_contribution(block: u64, data: &[u8]) -> BlockContribution {
    BlockContribution {
        a: block_stream(FNV_OFFSET_BASIS, block, data),
        b: block_stream(SEED_B, block, data),
    }
}

/// The contribution of an all-zero block of `block_size` bytes.
///
/// FNV-1a over a zero byte reduces to one multiply by the prime, so a
/// zero block's contribution is the index prefix hash times
/// `prime^block_size` — O(1) instead of hashing `block_size` zeroes.
/// This keeps digesting sparse images cheap.
pub fn zero_block_contribution(block: u64, block_size: u32) -> BlockContribution {
    let tail = fnv_prime_pow(block_size as usize);
    BlockContribution {
        a: block_stream(FNV_OFFSET_BASIS, block, &[]).wrapping_mul(tail),
        b: block_stream(SEED_B, block, &[]).wrapping_mul(tail),
    }
}

impl ImageDigest {
    /// Digests an arbitrary byte string through both streams.
    ///
    /// Not an image digest at all — this turns any canonical identity
    /// (a configuration state key, a workload signature) into the same
    /// two-stream 128-bit shape, so consumers like the ConBugCk fuzz
    /// campaign can key a [`crate::VerdictStore`] by non-image content
    /// without inventing a second key type.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        ImageDigest { a: fnv1a(FNV_OFFSET_BASIS, bytes), b: fnv1a(SEED_B, bytes) }
    }

    /// Adds one block's contribution.
    pub fn add(&mut self, c: BlockContribution) {
        self.a = self.a.wrapping_add(c.a);
        self.b = self.b.wrapping_add(c.b);
    }

    /// Removes one block's contribution.
    pub fn remove(&mut self, c: BlockContribution) {
        self.a = self.a.wrapping_sub(c.a);
        self.b = self.b.wrapping_sub(c.b);
    }

    /// Swaps a block's old contribution for its new one (the
    /// incremental update applied on every overwrite).
    pub fn replace(&mut self, old: BlockContribution, new: BlockContribution) {
        self.remove(old);
        self.add(new);
    }
}

/// Digests the full logical content of `dev` (unwritten blocks count as
/// zero-filled, exactly as they read back).
///
/// # Errors
///
/// Propagates read errors from `dev`; an in-range scan of a healthy
/// device cannot fail.
pub fn digest_device<D: BlockDevice>(dev: &D) -> Result<ImageDigest, DeviceError> {
    let mut digest = ImageDigest::default();
    let mut buf = vec![0u8; dev.block_size() as usize];
    for block in 0..dev.num_blocks() {
        dev.read_block(block, &mut buf)?;
        if buf.iter().all(|&b| b == 0) {
            digest.add(zero_block_contribution(block, dev.block_size()));
        } else {
            digest.add(block_contribution(block, &buf));
        }
    }
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        // a stream continues across calls
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET_BASIS, b"foo"), b"bar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn zero_contribution_matches_hashed_zeroes() {
        let zeroes = vec![0u8; 512];
        for block in [0u64, 1, 17, 8192] {
            assert_eq!(zero_block_contribution(block, 512), block_contribution(block, &zeroes));
        }
    }

    #[test]
    fn digest_depends_on_block_position() {
        let data = [7u8; 512];
        assert_ne!(block_contribution(0, &data), block_contribution(1, &data));
    }

    #[test]
    fn incremental_replace_matches_rescan() {
        let mut dev = MemDevice::new(512, 16);
        dev.write_block(3, &[1u8; 512]).unwrap();
        let mut digest = digest_device(&dev).unwrap();
        // overwrite block 3 and patch the digest incrementally
        let old = block_contribution(3, &[1u8; 512]);
        let new = block_contribution(3, &[2u8; 512]);
        dev.write_block(3, &[2u8; 512]).unwrap();
        digest.replace(old, new);
        assert_eq!(digest, digest_device(&dev).unwrap());
    }

    #[test]
    fn identical_content_identical_digest() {
        let mut a = MemDevice::new(512, 8);
        let mut b = MemDevice::new(512, 8);
        // b reaches the same content through a different write history
        a.write_block(2, &[9u8; 512]).unwrap();
        b.write_block(2, &[1u8; 512]).unwrap();
        b.write_block(5, &[3u8; 512]).unwrap();
        b.write_block(2, &[9u8; 512]).unwrap();
        b.write_block(5, &[0u8; 512]).unwrap();
        assert_eq!(digest_device(&a).unwrap(), digest_device(&b).unwrap());
    }

    #[test]
    fn different_content_different_digest() {
        let mut a = MemDevice::new(512, 8);
        let b = MemDevice::new(512, 8);
        assert_eq!(digest_device(&a).unwrap(), digest_device(&b).unwrap());
        a.write_block(0, &[1u8; 512]).unwrap();
        assert_ne!(digest_device(&a).unwrap(), digest_device(&b).unwrap());
    }
}
