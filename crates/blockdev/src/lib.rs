//! Block-device substrate for the confdep reproduction.
//!
//! The paper's artifact runs real Ext4 utilities against real block devices.
//! This crate provides the equivalent substrate for the simulated ecosystem:
//! a [`BlockDevice`] trait plus several implementations —
//!
//! * [`MemDevice`] — an in-memory device (the workhorse for tests and
//!   benchmarks),
//! * [`CowDevice`] — a copy-on-write device whose [`CowDevice::snapshot`]
//!   freezes the current state without copying block data, and which
//!   maintains a stable content [`ImageDigest`] incrementally (the
//!   substrate of the crash explorer's rolling materialisation and
//!   verdict cache),
//! * [`FileDevice`] — a file-backed device so images can persist on disk,
//! * [`FaultyDevice`] — a fault-injecting wrapper used by the robustness
//!   tests (I/O errors, torn writes, silent corruption),
//! * [`StatsDevice`] — an I/O-accounting wrapper used by the benchmarks,
//! * [`RecordingDevice`] — a write/flush recorder whose [`IoTrace`] the
//!   crash-consistency explorer replays.
//!
//! # Examples
//!
//! ```
//! use blockdev::{BlockDevice, MemDevice};
//!
//! # fn main() -> Result<(), blockdev::DeviceError> {
//! let mut dev = MemDevice::new(4096, 128);
//! let block = vec![0xA5u8; 4096];
//! dev.write_block(7, &block)?;
//! let mut out = vec![0u8; 4096];
//! dev.read_block(7, &mut out)?;
//! assert_eq!(block, out);
//! # Ok(())
//! # }
//! ```

mod cow;
mod device;
mod digest;
mod error;
mod faulty;
mod file;
mod mem;
mod recording;
mod shared;
mod stats;
mod store;

pub use cow::CowDevice;
pub use device::BlockDevice;
pub use digest::{
    block_contribution, digest_device, fnv1a, zero_block_contribution, BlockContribution,
    ImageDigest, FNV_OFFSET_BASIS,
};
pub use error::DeviceError;
pub use faulty::{FaultPlan, FaultyDevice, InjectedFault};
pub use file::FileDevice;
pub use mem::MemDevice;
pub use recording::{IoEvent, IoTrace, RecordingDevice};
pub use shared::SharedDevice;
pub use stats::{IoStats, StatsDevice};
pub use store::{context as store_context, StoreCut, StoreKey, StoreOpenReport, VerdictStore};
