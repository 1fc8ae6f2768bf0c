//! The file system proper: format (`mke2fs`'s engine), mount-time
//! validation, file and directory operations, allocation, and the
//! maintenance interface used by the offline utilities.

use blockdev::BlockDevice;

use crate::alloc::{pick_group_for_block, pick_group_for_dir, pick_group_for_file};
use crate::bitmap::Bitmap;
use crate::cache::{CachePolicy, MetadataCache};
use crate::dir::{self, DirEntry, FileType};
use crate::extent::{ExtentRoot, ExtentTree};
use crate::features::{CompatFeatures, IncompatFeatures};
use crate::inode::{mode, Inode, InodeFlags, InodeNo, DIRECT_BLOCKS, I_BLOCK_SIZE};
use crate::journal::{Journal, Transaction};
use crate::layout::Layout;
use crate::mkfs_params::MkfsParams;
use crate::mount::MountOptions;
use crate::superblock::{errors_policy, state, Superblock, SUPERBLOCK_OFFSET, SUPERBLOCK_SIZE};
use crate::util::{div_ceil, get_u32, put_u32};
use crate::FsError;

/// The root directory inode, as in real ext4.
pub const ROOT_INODE: InodeNo = InodeNo(2);

/// The journal's reserved inode.
pub const JOURNAL_INODE: u32 = 8;

/// Number of reserved inodes (1..=10).
pub const RESERVED_INODES: u32 = 10;

/// How a file-system handle was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsState {
    /// Read-write mount.
    MountedRw,
    /// Read-only mount.
    MountedRo,
    /// Offline maintenance access (the mode `resize2fs`/`e2fsck` use);
    /// everything is permitted, including superblock surgery.
    Maintenance,
}

/// An open ext4sim file system over a block device.
#[derive(Debug)]
pub struct Ext4Fs<D> {
    dev: D,
    sb: Superblock,
    layout: Layout,
    groups: Vec<crate::GroupDesc>,
    fs_state: FsState,
    clock: u32,
    journal: Option<Journal>,
    crash_after_journal_commit: bool,
    cache: MetadataCache,
    /// Effective `errors=` behaviour: the mount option when given, the
    /// on-image `s_errors` field (set by `tune2fs -e`) otherwise. See
    /// [`crate::errors_policy`].
    errors_policy: u16,
    /// Latched by `errors=remount-ro` on the first metadata I/O failure:
    /// reads keep working, writes return [`FsError::DegradedReadOnly`].
    degraded: bool,
    /// Latched by `errors=panic` on the first metadata I/O failure: every
    /// subsequent operation returns [`FsError::PolicyPanic`] (the
    /// simulator's stand-in for a kernel panic — never a Rust panic).
    panicked: bool,
    /// Journal group commit: up to this many [`Ext4Fs::sync`] points
    /// coalesce into one commit record (jbd2 transaction batching).
    /// `1` = commit per sync, the historical behaviour.
    max_batch_ops: u32,
    /// Metadata updates staged by batched syncs, awaiting their commit
    /// record. Merged (last-wins per block) into the next seal; dropped
    /// on a crash, exactly like an unsealed jbd2 transaction.
    pending_txn: Option<Transaction>,
    /// Syncs staged into `pending_txn` since the last sealed commit.
    pending_ops: u32,
}

/// A file's block map decoded once (see [`Ext4Fs::block_map`]), so a
/// run of lookups or appends does not decode the inode's map, or read
/// its mapping block, once per block.
#[derive(Debug)]
enum BlockMap {
    /// The extent tree, and the leaf block it spilled to, if any.
    Extents { tree: ExtentTree, leaf: Option<u64> },
    /// The legacy direct/indirect map; the single-indirect block's
    /// bytes once read or written.
    Legacy { indirect: Option<Vec<u8>> },
}

// ---------------------------------------------------------------------
// byte-granular device access (the superblock sits at byte 1024 no matter
// the block size)
// ---------------------------------------------------------------------

/// A fast symlink keeps its target inline in `i_block` and owns no
/// blocks; its `i_block` bytes must never be read as a block map.
fn is_fast_symlink(inode: &Inode) -> bool {
    inode.mode & mode::S_IFMT == mode::S_IFLNK && inode.blocks == 0
}

fn read_bytes<D: BlockDevice>(dev: &D, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
    let bs = u64::from(dev.block_size());
    let mut out = Vec::with_capacity(len);
    let mut pos = offset;
    let end = offset + len as u64;
    let mut buf = vec![0u8; bs as usize];
    while pos < end {
        let block = pos / bs;
        let in_off = (pos % bs) as usize;
        dev.read_block(block, &mut buf)?;
        let take = ((bs as usize) - in_off).min((end - pos) as usize);
        out.extend_from_slice(&buf[in_off..in_off + take]);
        pos += take as u64;
    }
    Ok(out)
}

fn write_bytes<D: BlockDevice>(dev: &mut D, offset: u64, data: &[u8]) -> Result<(), FsError> {
    let bs = u64::from(dev.block_size());
    let mut pos = offset;
    let end = offset + data.len() as u64;
    let mut buf = vec![0u8; bs as usize];
    while pos < end {
        let block = pos / bs;
        let in_off = (pos % bs) as usize;
        let take = ((bs as usize) - in_off).min((end - pos) as usize);
        dev.read_block(block, &mut buf)?;
        let src = (pos - offset) as usize;
        buf[in_off..in_off + take].copy_from_slice(&data[src..src + take]);
        dev.write_block(block, &buf)?;
        pos += take as u64;
    }
    Ok(())
}

impl<D: BlockDevice> Ext4Fs<D> {
    // -----------------------------------------------------------------
    // format
    // -----------------------------------------------------------------

    /// Formats `dev` with `params` and returns a read-write handle.
    ///
    /// This is the engine behind the `mke2fs` utility; utility-level
    /// (man-page) validation happens there, while this function enforces
    /// the kernel-level invariants via [`MkfsParams::validate`].
    ///
    /// # Errors
    ///
    /// Returns parameter-validation errors, [`FsError::NoSpace`] when the
    /// geometry leaves no room for the root directory or journal, and any
    /// device error.
    pub fn format(dev: D, params: &MkfsParams) -> Result<Self, FsError> {
        Self::format_with_policy(dev, params, CachePolicy::WriteBack)
    }

    /// [`Ext4Fs::format`] with an explicit [`CachePolicy`] for the format
    /// run and the returned handle. The final image is byte-identical
    /// under either policy; `WriteThrough` is the legacy baseline kept
    /// for comparison benchmarks.
    ///
    /// # Errors
    ///
    /// Same as [`Ext4Fs::format`].
    pub fn format_with_policy(
        dev: D,
        params: &MkfsParams,
        policy: CachePolicy,
    ) -> Result<Self, FsError> {
        let bs = params.effective_block_size(dev.size_bytes());
        if u64::from(bs) % u64::from(dev.block_size()) != 0 && u64::from(dev.block_size()) % u64::from(bs) != 0 {
            return Err(FsError::InvalidParam {
                param: "blocksize",
                reason: format!(
                    "fs block size {bs} incompatible with device block size {}",
                    dev.block_size()
                ),
            });
        }
        let device_blocks = dev.size_bytes() / u64::from(bs);
        params.validate(device_blocks)?;
        let blocks_count = params.blocks_count.unwrap_or(device_blocks);
        if blocks_count < 64 {
            return Err(FsError::InvalidParam {
                param: "size",
                reason: format!("{blocks_count} blocks is too small"),
            });
        }

        let bigalloc = params.features.incompat.contains(IncompatFeatures::BIGALLOC);
        let cluster_size = if bigalloc { params.cluster_size.unwrap_or(bs * 16) } else { bs };
        let cluster_ratio = cluster_size / bs;
        if bigalloc && !blocks_count.is_multiple_of(u64::from(cluster_ratio)) {
            return Err(FsError::InvalidParam {
                param: "size",
                reason: format!(
                    "with bigalloc the block count must be a multiple of the cluster ratio {cluster_ratio}"
                ),
            });
        }

        let first_data_block = u64::from(bs == 1024);
        let mut blocks_per_group = params.blocks_per_group.unwrap_or(bs * 8);
        if bigalloc {
            // bitmap tracks clusters: capacity is 8*bs clusters per group
            blocks_per_group = (bs * 8).min(blocks_per_group) * cluster_ratio;
        }
        if !blocks_per_group.is_multiple_of(cluster_ratio) {
            return Err(FsError::InvalidParam {
                param: "blocks_per_group",
                reason: "must be a multiple of the cluster ratio".to_string(),
            });
        }
        let group_count = div_ceil(blocks_count - first_data_block, u64::from(blocks_per_group)) as u32;

        // inode geometry
        let total_inodes = params.inodes_count.unwrap_or_else(|| {
            let by_ratio = (blocks_count * u64::from(bs)) / u64::from(params.inode_ratio);
            by_ratio.clamp(64, u64::from(u32::MAX) / 2) as u32
        });
        let mut inodes_per_group = div_ceil(u64::from(total_inodes), u64::from(group_count)) as u32;
        inodes_per_group = inodes_per_group.div_ceil(8) * 8;
        inodes_per_group = inodes_per_group.max(16).min(bs * 8);

        let use_64bit = params.features.incompat.contains(IncompatFeatures::BIT64);
        let desc_size: u16 = if use_64bit { 64 } else { 32 };

        // reserved GDT blocks for resize_inode: dimension for growth
        let reserved_gdt_blocks = if params.features.compat.contains(CompatFeatures::RESIZE_INODE)
        {
            let headroom = params.resize_headroom.unwrap_or(blocks_count.saturating_mul(8));
            let target_groups = div_ceil(headroom, u64::from(blocks_per_group));
            let target_gdt = div_ceil(target_groups * u64::from(desc_size), u64::from(bs)) as u32;
            let cur_gdt =
                div_ceil(u64::from(group_count) * u64::from(desc_size), u64::from(bs)) as u32;
            target_gdt.saturating_sub(cur_gdt).clamp(1, 256)
        } else {
            0
        };

        let mut layout = Layout {
            block_size: bs,
            blocks_count,
            blocks_per_group,
            inodes_per_group,
            inode_size: params.inode_size,
            desc_size,
            first_data_block,
            cluster_ratio,
            reserved_gdt_blocks,
            backup_bgs: [0, 0],
            features: params.features,
        };
        if params.features.compat.contains(CompatFeatures::SPARSE_SUPER2) {
            layout.backup_bgs = Layout::sparse_super2_backups(layout.group_count());
        }

        // sanity: group 0 must fit its own metadata
        if u64::from(layout.group_overhead(0)) + 8 > u64::from(layout.blocks_in_group(0)) {
            return Err(FsError::InvalidParam {
                param: "size",
                reason: "file system too small for its own metadata".to_string(),
            });
        }

        let mut sb = Superblock {
            inodes_count: layout.inodes_count(),
            blocks_count,
            reserved_blocks_count: blocks_count * u64::from(params.reserved_percent) / 100,
            free_blocks_count: 0,
            free_inodes_count: 0,
            first_data_block: first_data_block as u32,
            log_block_size: bs.trailing_zeros() - 10,
            log_cluster_size: cluster_size.trailing_zeros() - 10,
            blocks_per_group,
            clusters_per_group: blocks_per_group / cluster_ratio,
            inodes_per_group,
            inode_size: params.inode_size,
            features: params.features,
            uuid: params.uuid,
            reserved_gdt_blocks: reserved_gdt_blocks as u16,
            desc_size,
            backup_bgs: layout.backup_bgs,
            ..Superblock::default()
        };
        sb.set_label(&params.label);

        let group_count = layout.group_count();
        let errors = sb.errors;
        let mut fs = Ext4Fs {
            dev,
            sb,
            layout,
            groups: Vec::new(),
            fs_state: FsState::Maintenance,
            clock: 1,
            journal: None,
            crash_after_journal_commit: false,
            cache: MetadataCache::new(policy, group_count),
            errors_policy: errors,
            degraded: false,
            panicked: false,
            max_batch_ops: 1,
            pending_txn: None,
            pending_ops: 0,
        };

        fs.init_groups()?;
        fs.init_root_dir()?;
        if params.features.compat.contains(CompatFeatures::HAS_JOURNAL) {
            let jb = params.journal_blocks.unwrap_or_else(|| {
                (blocks_count / 32).clamp(256, 1024) as u32
            });
            fs.init_journal(jb)?;
            if let Some(region) = fs.journal_region()? {
                Journal::format(&mut fs.dev, &region, fs.layout.block_size)?;
            }
        }
        fs.mkdir(ROOT_INODE, "lost+found")?;
        fs.flush_metadata()?;
        fs.fs_state = FsState::MountedRw;
        Ok(fs)
    }

    fn init_groups(&mut self) -> Result<(), FsError> {
        let l = self.layout.clone();
        let gc = l.group_count();
        let mut total_free_blocks: u64 = 0;
        let mut total_free_inodes: u32 = 0;
        // zero the inode tables in bulk spans, bounded so a huge-group
        // geometry does not balloon the staging buffer
        let itable_blocks = l.inode_table_blocks();
        let span = itable_blocks.min(256);
        let zero = vec![0u8; span as usize * l.block_size as usize];
        for g in 0..gc {
            // block bitmap (tracks clusters)
            let clusters_in_group =
                div_ceil(u64::from(l.blocks_in_group(g)), u64::from(l.cluster_ratio)) as u32;
            let mut bbm = Bitmap::new(clusters_in_group, l.block_size as usize);
            let overhead = l.group_overhead(g);
            let overhead_clusters = div_ceil(u64::from(overhead), u64::from(l.cluster_ratio)) as u32;
            bbm.set_range(0, overhead_clusters);
            bbm.pad_tail();

            // inode bitmap
            let mut ibm = Bitmap::new(l.inodes_per_group, l.block_size as usize);
            if g == 0 {
                ibm.set_range(0, RESERVED_INODES.min(l.inodes_per_group));
            }
            ibm.pad_tail();

            if self.cache.is_write_back() {
                self.cache.store_block_bitmap(g, bbm, true);
                self.cache.store_inode_bitmap(g, ibm, true);
            } else {
                self.dev.write_block(l.block_bitmap_block(g), bbm.as_bytes())?;
                self.dev.write_block(l.inode_bitmap_block(g), ibm.as_bytes())?;
            }

            // the table is written straight to the device once under both
            // policies; caching a one-time init would only double the work
            let mut b = 0u64;
            while b < u64::from(itable_blocks) {
                let n = (u64::from(itable_blocks) - b).min(u64::from(span));
                let buf = &zero[..n as usize * l.block_size as usize];
                self.dev.write_blocks(l.inode_table_block(g) + b, buf)?;
                b += n;
            }

            let free_blocks = l.blocks_in_group(g) - overhead_clusters * l.cluster_ratio;
            let free_inodes =
                l.inodes_per_group - if g == 0 { RESERVED_INODES.min(l.inodes_per_group) } else { 0 };
            self.groups.push(crate::GroupDesc {
                block_bitmap: l.block_bitmap_block(g),
                inode_bitmap: l.inode_bitmap_block(g),
                inode_table: l.inode_table_block(g),
                free_blocks_count: free_blocks,
                free_inodes_count: free_inodes,
                used_dirs_count: 0,
                flags: 0,
            });
            total_free_blocks += u64::from(free_blocks);
            total_free_inodes += free_inodes;
        }
        self.sb.free_blocks_count = total_free_blocks;
        self.sb.free_inodes_count = total_free_inodes;
        Ok(())
    }

    fn init_root_dir(&mut self) -> Result<(), FsError> {
        let block = self.alloc_block(0)?;
        let mut data = vec![0u8; self.layout.block_size as usize];
        dir::init_block(&mut data, ROOT_INODE.0, ROOT_INODE.0);
        self.dev.write_block(block, &data)?;
        let mut root = Inode::new_dir(self.uses_extent_feature());
        root.size = u64::from(self.layout.block_size);
        self.set_file_block(&mut root, 0, block)?;
        root.blocks = self.sectors_for(1);
        self.write_inode(ROOT_INODE, &root)?;
        self.groups[0].used_dirs_count += 1;
        Ok(())
    }

    fn init_journal(&mut self, journal_blocks: u32) -> Result<(), FsError> {
        // the legacy block map caps file size at 12 direct + one
        // single-indirect block of pointers
        let journal_blocks = if self.uses_extent_feature() {
            journal_blocks
        } else {
            journal_blocks.min(DIRECT_BLOCKS as u32 + self.layout.block_size / 4)
        };
        let mut jino = Inode::new_file(self.uses_extent_feature());
        jino.mode = mode::S_IFREG | 0o600;
        let mut map = self.block_map(&jino)?;
        // next-fit: nothing is freed while the journal is built, so every
        // bit below a group's cursor stays set
        let mut cursor = vec![0u32; self.groups.len()];
        let mut allocated = 0u32;
        let mut logical = 0u32;
        while allocated < journal_blocks {
            let block = match self.alloc_block_next_fit(0, &mut cursor) {
                Ok(b) => b,
                Err(FsError::NoSpace) if allocated > 0 => break,
                Err(e) => return Err(e),
            };
            // map every block of the cluster so adjacent clusters merge
            // into one extent
            for i in 0..self.layout.cluster_ratio {
                self.map_append(&mut jino, &mut map, logical + i, block + u64::from(i))?;
            }
            allocated += self.layout.cluster_ratio;
            logical += self.layout.cluster_ratio;
        }
        jino.size = u64::from(allocated) * u64::from(self.layout.block_size);
        jino.blocks = self.sectors_for(allocated);
        self.write_inode(InodeNo(JOURNAL_INODE), &jino)?;
        Ok(())
    }

    // -----------------------------------------------------------------
    // mount / open / unmount
    // -----------------------------------------------------------------

    /// Mounts an existing image, performing the `ext4_fill_super`-style
    /// validation of `opts` against the on-image superblock.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BadMagic`] for a non-ext4sim image and
    /// [`FsError::MountRejected`] when option validation fails.
    ///
    /// A read-write mount uses the [`CachePolicy::WriteBack`] metadata
    /// cache; read-only mounts stay write-through (they never write).
    pub fn mount(dev: D, opts: &MountOptions) -> Result<Self, FsError> {
        Self::mount_with_policy(dev, opts, CachePolicy::WriteBack)
    }

    /// [`Ext4Fs::mount`] with an explicit [`CachePolicy`] for read-write
    /// handles.
    ///
    /// # Errors
    ///
    /// Same as [`Ext4Fs::mount`].
    pub fn mount_with_policy(
        dev: D,
        opts: &MountOptions,
        policy: CachePolicy,
    ) -> Result<Self, FsError> {
        let mut fs = Self::open_for_maintenance(dev)?;
        // journal recovery runs BEFORE option validation, as in the real
        // kernel: sealed transactions left by a crash between commit and
        // checkpoint are re-applied, and the recovered metadata (often a
        // clean superblock) is re-read
        if !opts.noload {
            if let Some(region) = fs.journal_region()? {
                let bs = fs.layout.block_size;
                let mut journal = Journal::open(&fs.dev, region, bs)?;
                let applied = journal.replay(&mut fs.dev)?;
                if applied > 0 {
                    let dev = fs.dev;
                    fs = Self::open_for_maintenance(dev)?;
                }
                fs.journal = Some(journal);
            }
        }
        opts.validate_against(&fs.sb)?;
        // the effective errors= behaviour: the mount option overrides the
        // on-image default that tune2fs -e recorded (a mount→tune2fs
        // dependency the conformance campaign exercises)
        fs.errors_policy = opts.errors.unwrap_or(fs.sb.errors);
        fs.max_batch_ops = opts.max_batch_ops.max(1);
        if opts.read_only {
            fs.fs_state = FsState::MountedRo;
        } else {
            fs.fs_state = FsState::MountedRw;
            fs.sb.mnt_count += 1;
            fs.sb.mtime = fs.clock;
            fs.sb.state &= !state::VALID_FS; // rw mount marks the fs in-use
            fs.write_primary_superblock()?;
            fs.cache.set_policy(policy);
        }
        Ok(fs)
    }

    /// Opens an image for offline maintenance (`resize2fs`, `e2fsck`):
    /// no option validation, everything mutable, dirty state permitted.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BadMagic`] if the image is not recognisable.
    pub fn open_for_maintenance(dev: D) -> Result<Self, FsError> {
        let raw = read_bytes(&dev, SUPERBLOCK_OFFSET, SUPERBLOCK_SIZE)?;
        let sb = Superblock::from_bytes(&raw)?;
        let layout = Self::layout_from_sb(&sb);
        let group_count = layout.group_count();
        let errors = sb.errors;
        let mut fs = Ext4Fs {
            dev,
            sb,
            layout,
            groups: Vec::new(),
            fs_state: FsState::Maintenance,
            clock: 1,
            journal: None,
            crash_after_journal_commit: false,
            cache: MetadataCache::new(CachePolicy::WriteThrough, group_count),
            errors_policy: errors,
            degraded: false,
            panicked: false,
            max_batch_ops: 1,
            pending_txn: None,
            pending_ops: 0,
        };
        fs.read_group_descriptors()?;
        Ok(fs)
    }

    fn layout_from_sb(sb: &Superblock) -> Layout {
        Layout {
            block_size: sb.block_size(),
            blocks_count: sb.blocks_count,
            blocks_per_group: sb.blocks_per_group,
            inodes_per_group: sb.inodes_per_group,
            inode_size: sb.inode_size,
            desc_size: if sb.desc_size == 0 { 32 } else { sb.desc_size },
            first_data_block: u64::from(sb.first_data_block),
            cluster_ratio: sb.cluster_ratio(),
            reserved_gdt_blocks: u32::from(sb.reserved_gdt_blocks),
            backup_bgs: sb.backup_bgs,
            features: sb.features,
        }
    }

    fn read_group_descriptors(&mut self) -> Result<(), FsError> {
        let start = self.layout.group_first_block(0) + 1;
        self.read_group_descriptors_from(start)
    }

    fn read_group_descriptors_from(&mut self, gdt_start: u64) -> Result<(), FsError> {
        let l = &self.layout;
        let per_block = l.descs_per_block() as usize;
        let mut groups = Vec::with_capacity(l.group_count() as usize);
        for gb in 0..l.gdt_blocks() {
            let data = self.dev.read_block_vec(gdt_start + u64::from(gb))?;
            for i in 0..per_block {
                let idx = gb as usize * per_block + i;
                if idx >= l.group_count() as usize {
                    break;
                }
                let off = i * l.desc_size as usize;
                groups.push(crate::GroupDesc::from_bytes(
                    &data[off..off + l.desc_size as usize],
                    l.desc_size,
                ));
            }
        }
        self.groups = groups;
        Ok(())
    }

    /// Opens an image for maintenance using a *backup* superblock at
    /// byte offset `sb_offset` (the `e2fsck -b` recovery path). The
    /// decoded backup is treated as authoritative; a subsequent
    /// [`Ext4Fs::flush_metadata`] restores the primary from it.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BadMagic`] when no superblock is found there.
    pub fn open_for_maintenance_at(dev: D, sb_offset: u64) -> Result<Self, FsError> {
        let raw = read_bytes(&dev, sb_offset, SUPERBLOCK_SIZE)?;
        let mut sb = Superblock::from_bytes(&raw)?;
        sb.block_group_nr = 0; // it now serves as the primary
        let layout = Self::layout_from_sb(&sb);
        // the GDT copy sits right after whichever superblock copy we read
        let gdt_start = if sb_offset == SUPERBLOCK_OFFSET {
            layout.group_first_block(0) + 1
        } else {
            sb_offset / u64::from(layout.block_size) + 1
        };
        let group_count = layout.group_count();
        let errors = sb.errors;
        let mut fs = Ext4Fs {
            dev,
            sb,
            layout,
            groups: Vec::new(),
            fs_state: FsState::Maintenance,
            clock: 1,
            journal: None,
            crash_after_journal_commit: false,
            cache: MetadataCache::new(CachePolicy::WriteThrough, group_count),
            errors_policy: errors,
            degraded: false,
            panicked: false,
            max_batch_ops: 1,
            pending_txn: None,
            pending_ops: 0,
        };
        fs.read_group_descriptors_from(gdt_start)?;
        Ok(fs)
    }

    /// Adds a directory entry for an *existing* inode (a hard link) and
    /// bumps its link count. `e2fsck` uses this to reconnect orphans into
    /// `lost+found`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] / [`FsError::NotADirectory`] /
    /// [`FsError::BadInode`].
    pub fn link(&mut self, dir: InodeNo, name: &str, ino: InodeNo) -> Result<(), FsError> {
        self.check_writable()?;
        if self.lookup(dir, name)?.is_some() {
            return Err(FsError::AlreadyExists(name.to_string()));
        }
        let mut inode = self.read_inode(ino)?;
        let ftype = if inode.is_dir() { FileType::Dir } else { FileType::Regular };
        self.add_dir_entry(dir, name, ino, ftype)?;
        inode.links_count += 1;
        self.write_inode(ino, &inode)?;
        self.commit_op()
    }

    /// Removes a directory entry *without* touching the target inode —
    /// the repair primitive `e2fsck` uses to clear dangling entries.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] when the entry is absent.
    pub fn remove_entry_only(&mut self, dir: InodeNo, name: &str) -> Result<(), FsError> {
        self.check_writable()?;
        self.remove_dir_entry(dir, name)?;
        self.commit_op()
    }

    /// Truncates a regular file to zero bytes, freeing all of its blocks.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::IsADirectory`] for directories.
    pub fn truncate(&mut self, ino: InodeNo) -> Result<(), FsError> {
        self.check_writable()?;
        let mut inode = self.read_inode(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsADirectory(ino.0));
        }
        if !inode.is_inline() {
            for b in self.file_blocks(&inode)? {
                if self.layout.cluster_ratio == 1
                    || self
                        .layout
                        .block_index_in_group(b)
                        .is_multiple_of(self.layout.cluster_ratio)
                {
                    self.free_block(b)?;
                }
            }
        }
        inode.size = 0;
        inode.blocks = 0;
        inode.block_area = [0u8; I_BLOCK_SIZE];
        if inode.is_inline() {
            // stays inline
        } else if self.uses_extent_feature() {
            inode.init_extent_root();
        }
        self.write_inode(ino, &inode)?;
        self.commit_op()
    }

    /// Allocates `clusters` physically contiguous clusters in one group.
    /// Returns the first block of the run.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NoSpace`] if no group holds a large-enough run.
    pub fn alloc_contiguous(&mut self, clusters: u32) -> Result<u64, FsError> {
        self.check_writable()?;
        for g in 0..self.layout.group_count() {
            let start = if self.cache.is_write_back() {
                self.load_block_bitmap(g)?;
                // peek before taking the dirtying mutable handle, so a
                // group without a run does not get flushed needlessly
                let found =
                    self.cache.block_bitmap(g).expect("loaded above").find_clear_run(0, clusters);
                if let Some(start) = found {
                    let bm = self.cache.block_bitmap_mut(g).expect("loaded above");
                    bm.set_range(start, start + clusters);
                }
                found
            } else {
                let mut bm = self.read_block_bitmap(g)?;
                let found = bm.find_clear_run(0, clusters);
                if let Some(start) = found {
                    bm.set_range(start, start + clusters);
                    self.write_block_bitmap(g, &bm)?;
                }
                found
            };
            if let Some(start) = start {
                let blocks = clusters * self.layout.cluster_ratio;
                self.groups[g as usize].free_blocks_count -= blocks;
                self.sb.free_blocks_count -= u64::from(blocks);
                return Ok(self.layout.group_first_block(g)
                    + u64::from(start) * u64::from(self.layout.cluster_ratio));
            }
        }
        Err(FsError::NoSpace)
    }

    /// Rewrites a fragmented extent file into one physically contiguous
    /// run — the engine behind `e4defrag` (the `EXT4_IOC_MOVE_EXT` ioctl
    /// of real ext4). Returns `(extents_before, extents_after)`.
    ///
    /// # Errors
    ///
    /// * [`FsError::NotSupported`] — the file does not use extents (the
    ///   same `EOPNOTSUPP` the real ioctl raises, a cross-component
    ///   dependency on the `mke2fs` `extent` feature);
    /// * [`FsError::NoSpace`] — no contiguous run available (the file is
    ///   left untouched).
    pub fn defragment_file(&mut self, ino: InodeNo) -> Result<(u32, u32), FsError> {
        self.check_writable()?;
        let inode = self.read_inode(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsADirectory(ino.0));
        }
        if inode.is_inline() {
            return Ok((0, 0)); // nothing to defragment
        }
        if !inode.uses_extents() {
            return Err(FsError::NotSupported(
                "e4defrag requires the extent feature (EOPNOTSUPP)".to_string(),
            ));
        }
        let (tree, _leaf) = self.load_extent_tree(&inode)?;
        let before = tree.len() as u32;
        if before <= 1 {
            return Ok((before, before));
        }
        let data = self.read_file_to_vec(ino)?;
        let ratio = self.layout.cluster_ratio;
        let blocks_needed =
            (div_ceil(data.len() as u64, u64::from(self.layout.block_size)) as u32).max(1);
        let clusters_needed = blocks_needed.div_ceil(ratio);
        // crash-safe move order (as EXT4_IOC_MOVE_EXT must be): fill the
        // new home and build its mapping while the old mapping still
        // stands, publish with a single inode write, and only then
        // retire the old blocks — a crash at any write boundary leaves
        // the file readable through one mapping or the other
        let start = self.alloc_contiguous(clusters_needed)?;
        let old_blocks = self.file_blocks(&inode)?;
        let bs = self.layout.block_size as usize;
        let mut new_inode = inode.clone();
        new_inode.block_area = [0u8; I_BLOCK_SIZE];
        new_inode.init_extent_root();
        let mut map = None;
        for i in 0..blocks_needed {
            let mut buf = vec![0u8; bs];
            let off = i as usize * bs;
            let take = bs.min(data.len() - off.min(data.len()));
            buf[..take].copy_from_slice(&data[off..off + take]);
            self.dev.write_block(start + u64::from(i), &buf)?;
            self.map_set(&mut new_inode, &mut map, i, start + u64::from(i))?;
        }
        new_inode.size = data.len() as u64;
        new_inode.blocks = self.sectors_for(clusters_needed * ratio);
        // barrier: the copy must be durable before the mapping switch —
        // a volatile cache could otherwise evict the inode write first
        // and a crash would publish pointers to unwritten blocks
        self.flush_cache()?;
        self.dev.flush()?;
        self.write_inode(ino, &new_inode)?;
        for b in old_blocks {
            if ratio == 1 || self.layout.block_index_in_group(b).is_multiple_of(ratio) {
                self.free_block(b)?;
            }
        }
        let inode = self.read_inode(ino)?;
        let (tree, _) = self.load_extent_tree(&inode)?;
        self.commit_op()?;
        Ok((before, tree.len() as u32))
    }

    /// Returns the device *without* the clean-unmount bookkeeping,
    /// leaving the on-image state exactly as it is — the equivalent of a
    /// crash or a yanked device. Robustness experiments use this to hand
    /// a dirty image to the offline utilities.
    pub fn into_device_dirty(self) -> D {
        self.dev
    }

    /// Cleanly unmounts: marks the superblock valid, flushes all metadata
    /// (including backups) and returns the device.
    ///
    /// A handle halted by `errors=panic` unmounts like a crash: nothing
    /// is written (the error flag was already stamped when the policy
    /// fired) and the device is returned as the failure left it. A
    /// degraded (`errors=remount-ro`) handle behaves the same way by
    /// virtue of no longer being mounted read-write.
    ///
    /// # Errors
    ///
    /// Propagates device errors; the handle is consumed either way.
    pub fn unmount(mut self) -> Result<D, FsError> {
        if self.panicked || self.degraded {
            // crash-like unmount: the device may be failing, and even its
            // final flush could error — hand it back untouched so the
            // recovery stack (e2fsck) can work on the image
            return Ok(self.dev);
        }
        if self.fs_state == FsState::MountedRw || self.fs_state == FsState::Maintenance {
            self.sb.state |= state::VALID_FS;
            self.sb.wtime = self.clock;
            self.flush_metadata()?;
            // after a clean checkpoint the journal is no longer needed;
            // the fault-injection crash keeps it for the next replay
            if !self.crash_after_journal_commit {
                if let Some(mut journal) = self.journal.take() {
                    journal.reset(&mut self.dev)?;
                }
            }
        }
        self.dev.flush()?;
        Ok(self.dev)
    }

    // -----------------------------------------------------------------
    // metadata I/O
    // -----------------------------------------------------------------

    fn write_primary_superblock(&mut self) -> Result<(), FsError> {
        let bytes = self.sb.to_bytes();
        write_bytes(&mut self.dev, SUPERBLOCK_OFFSET, &bytes)
    }

    /// Flushes the superblock (primary and backups) and the group
    /// descriptor table (primary and copies) to the device.
    ///
    /// # Errors
    ///
    /// Propagates device errors, filtered through the mount's `errors=`
    /// policy: a failure on this path stamps the on-image error flag and
    /// may degrade the mount ([`FsError::DegradedReadOnly`] thereafter)
    /// or halt it ([`FsError::PolicyPanic`]).
    pub fn flush_metadata(&mut self) -> Result<(), FsError> {
        if self.panicked {
            return Err(FsError::PolicyPanic("file system halted".to_string()));
        }
        if self.degraded {
            return Err(FsError::DegradedReadOnly);
        }
        // write back the buffered per-group metadata first, so the home
        // locations of bitmaps and inode tables are stable before the
        // superblock/GDT update is committed to the journal — the same
        // ordering the write-through path produces naturally
        self.flush_cache()?;
        match self.flush_metadata_inner() {
            Ok(()) => Ok(()),
            Err(e) => Err(self.note_metadata_error(e)),
        }
    }

    fn flush_metadata_inner(&mut self) -> Result<(), FsError> {
        let writes = self.metadata_writes()?;
        // metadata journalling (jbd2-style): when mounted read-write on a
        // journalled file system, commit the metadata update to the
        // journal first, then checkpoint it to the home locations — so a
        // crash between the two is recoverable at the next mount
        if self.fs_state == FsState::MountedRw && self.journal.is_some() {
            // start from the pending group-commit batch (empty when
            // batching is off): a full flush force-seals staged updates
            let mut txn = self.pending_txn.take().unwrap_or_default();
            self.pending_ops = 0;
            for (block, data) in &writes {
                txn.add(*block, data.clone());
            }
            let mut journal = self.journal.take().expect("checked above");
            let commit = journal.commit(&mut self.dev, &txn);
            self.journal = Some(journal);
            commit?;
            if self.crash_after_journal_commit {
                // fault-injection hook: the "power failure" happens here
                return Ok(());
            }
            Journal::checkpoint(&mut self.dev, &txn, self.layout.block_size)?;
            return Ok(());
        }
        for (block, data) in &writes {
            self.dev.write_block(*block, data)?;
        }
        Ok(())
    }

    /// A durability point between operations (the explorer's stand-in
    /// for `fsync`). Without group commit (`max_batch_ops <= 1`, or no
    /// journal) this is exactly [`Ext4Fs::flush_metadata`]. Under group
    /// commit on a journalled read-write mount, the current metadata
    /// image is *staged* into a pending transaction instead — merged
    /// last-wins per block, like updates joining an open jbd2
    /// transaction — and only every `max_batch_ops`-th sync seals one
    /// commit record (one flush-bracketed journal commit plus its
    /// checkpoint) covering the whole batch.
    ///
    /// Returns `true` when this sync sealed a commit, `false` when it
    /// merely joined the pending batch. A crash before the seal loses
    /// the staged updates, exactly like an unsealed jbd2 transaction;
    /// [`Ext4Fs::flush_metadata`] and unmount force-seal the batch.
    ///
    /// # Errors
    ///
    /// As [`Ext4Fs::flush_metadata`]: device failures are filtered
    /// through the mount's `errors=` policy.
    pub fn sync(&mut self) -> Result<bool, FsError> {
        let batching =
            self.max_batch_ops > 1 && self.fs_state == FsState::MountedRw && self.journal.is_some();
        if !batching {
            self.flush_metadata()?;
            return Ok(true);
        }
        if self.panicked {
            return Err(FsError::PolicyPanic("file system halted".to_string()));
        }
        if self.degraded {
            return Err(FsError::DegradedReadOnly);
        }
        // same write-back ordering as flush_metadata: home-location
        // metadata first, then the superblock/GDT image is staged
        self.flush_cache()?;
        match self.stage_sync() {
            Ok(sealed) => Ok(sealed),
            Err(e) => Err(self.note_metadata_error(e)),
        }
    }

    fn stage_sync(&mut self) -> Result<bool, FsError> {
        let writes = self.metadata_writes()?;
        let mut txn = self.pending_txn.take().unwrap_or_default();
        for (block, data) in writes {
            txn.add(block, data);
        }
        self.pending_ops += 1;
        if self.pending_ops < self.max_batch_ops {
            self.pending_txn = Some(txn);
            return Ok(false);
        }
        self.pending_ops = 0;
        let mut journal = match self.journal.take() {
            Some(j) => j,
            // unreachable (sync() checked); degrade to a direct
            // checkpoint rather than dropping the batch
            None => {
                Journal::checkpoint(&mut self.dev, &txn, self.layout.block_size)?;
                return Ok(true);
            }
        };
        let commit = journal.commit(&mut self.dev, &txn);
        self.journal = Some(journal);
        commit?;
        if self.crash_after_journal_commit {
            // fault-injection hook: the "power failure" happens here
            return Ok(true);
        }
        Journal::checkpoint(&mut self.dev, &txn, self.layout.block_size)?;
        Ok(true)
    }

    /// The full metadata image — primary superblock, primary GDT, and
    /// every backup copy — as whole-block writes.
    fn metadata_writes(&self) -> Result<Vec<(u64, Vec<u8>)>, FsError> {
        let l = &self.layout;
        let bs = l.block_size as usize;
        let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
        // primary superblock at byte 1024 (a partial block when bs > 1024)
        let sb_bytes = self.sb.to_bytes();
        let sb_block = SUPERBLOCK_OFFSET / bs as u64;
        let in_off = (SUPERBLOCK_OFFSET % bs as u64) as usize;
        let mut block0 = self.dev.read_block_vec(sb_block)?;
        let n = sb_bytes.len().min(bs - in_off);
        block0[in_off..in_off + n].copy_from_slice(&sb_bytes[..n]);
        out.push((sb_block, block0));
        // the GDT image
        let mut gdt = vec![0u8; l.gdt_blocks() as usize * bs];
        for (i, g) in self.groups.iter().enumerate() {
            let off = i * l.desc_size as usize;
            gdt[off..off + l.desc_size as usize].copy_from_slice(&g.to_bytes(l.desc_size));
        }
        let primary_gdt_start = l.group_first_block(0) + 1;
        for (i, chunk) in gdt.chunks(bs).enumerate() {
            out.push((primary_gdt_start + i as u64, chunk.to_vec()));
        }
        // backup copies
        for g in l.backup_groups() {
            let mut sb_copy = self.sb.clone();
            sb_copy.block_group_nr = g as u16;
            let base = l.group_first_block(g);
            let mut block = self.dev.read_block_vec(base)?;
            let sb_bytes = sb_copy.to_bytes();
            let n = sb_bytes.len().min(block.len());
            block[..n].copy_from_slice(&sb_bytes[..n]);
            out.push((base, block));
            for (i, chunk) in gdt.chunks(bs).enumerate() {
                out.push((base + 1 + i as u64, chunk.to_vec()));
            }
        }
        Ok(out)
    }

    /// The journal's block region (the data blocks of inode 8 in logical
    /// order), or `None` when the file system has no journal.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn journal_region(&self) -> Result<Option<Vec<u64>>, FsError> {
        if !self.layout.features.compat.contains(CompatFeatures::HAS_JOURNAL) {
            return Ok(None);
        }
        let jino = self.read_inode(InodeNo(JOURNAL_INODE))?;
        if jino.size == 0 {
            return Ok(None);
        }
        let nblocks = div_ceil(jino.size, u64::from(self.layout.block_size)) as u32;
        let mut blocks = Vec::with_capacity(nblocks as usize);
        if !jino.is_inline() && !is_fast_symlink(&jino) {
            let mut map = self.block_map(&jino)?;
            for logical in 0..nblocks {
                match self.map_lookup(&jino, &mut map, logical)? {
                    Some(b) => blocks.push(b),
                    None => break,
                }
            }
        }
        if blocks.len() < 4 {
            return Ok(None);
        }
        Ok(Some(blocks))
    }

    /// Fault-injection hook: when enabled, the next [`Ext4Fs::flush_metadata`]
    /// commits its transaction to the journal but "loses power" before the
    /// checkpoint — the scenario journal replay exists for.
    pub fn set_crash_after_journal_commit(&mut self, on: bool) {
        self.crash_after_journal_commit = on;
    }

    /// Reads group `g`'s block bitmap — from the metadata cache when a
    /// copy is buffered there, from the device otherwise.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_block_bitmap(&self, g: u32) -> Result<Bitmap, FsError> {
        if let Some(bm) = self.cache.block_bitmap(g) {
            return Ok(bm.clone());
        }
        let clusters = div_ceil(
            u64::from(self.layout.blocks_in_group(g)),
            u64::from(self.layout.cluster_ratio),
        ) as u32;
        let data = self.dev.read_block_vec(self.groups[g as usize].block_bitmap)?;
        Ok(Bitmap::from_bytes(&data, clusters))
    }

    /// Writes group `g`'s block bitmap (buffered until the next sync
    /// point under [`CachePolicy::WriteBack`]).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write_block_bitmap(&mut self, g: u32, bm: &Bitmap) -> Result<(), FsError> {
        if self.cache.is_write_back() {
            self.cache.store_block_bitmap(g, bm.clone(), true);
            return Ok(());
        }
        let block = self.groups[g as usize].block_bitmap;
        self.write_metadata_block(block, bm.as_bytes())
    }

    /// Reads group `g`'s inode bitmap — from the metadata cache when a
    /// copy is buffered there, from the device otherwise.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_inode_bitmap(&self, g: u32) -> Result<Bitmap, FsError> {
        if let Some(bm) = self.cache.inode_bitmap(g) {
            return Ok(bm.clone());
        }
        let data = self.dev.read_block_vec(self.groups[g as usize].inode_bitmap)?;
        Ok(Bitmap::from_bytes(&data, self.layout.inodes_per_group))
    }

    /// Writes group `g`'s inode bitmap (buffered until the next sync
    /// point under [`CachePolicy::WriteBack`]).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write_inode_bitmap(&mut self, g: u32, bm: &Bitmap) -> Result<(), FsError> {
        if self.cache.is_write_back() {
            self.cache.store_inode_bitmap(g, bm.clone(), true);
            return Ok(());
        }
        let block = self.groups[g as usize].inode_bitmap;
        self.write_metadata_block(block, bm.as_bytes())
    }

    /// Reads inode `ino` from the inode table.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BadInode`] for out-of-range numbers.
    pub fn read_inode(&self, ino: InodeNo) -> Result<Inode, FsError> {
        // a handle halted by errors=panic serves nothing, reads included
        if self.panicked {
            return Err(FsError::PolicyPanic("file system halted".to_string()));
        }
        self.check_ino(ino)?;
        let (block, off) = self.layout.inode_position(ino.0);
        let isz = self.layout.inode_size as usize;
        if let Some(data) = self.cache.itable_block(block) {
            return Ok(Inode::from_bytes(&data[off..off + isz]));
        }
        let data = self.dev.read_block_vec(block)?;
        Ok(Inode::from_bytes(&data[off..off + isz]))
    }

    /// Writes inode `ino` to the inode table. Under
    /// [`CachePolicy::WriteBack`] the containing table block is buffered
    /// and the read-modify-write round trip happens in memory.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BadInode`] for out-of-range numbers.
    pub fn write_inode(&mut self, ino: InodeNo, inode: &Inode) -> Result<(), FsError> {
        self.check_ino(ino)?;
        let (block, off) = self.layout.inode_position(ino.0);
        let bytes = inode.to_bytes(self.layout.inode_size);
        if self.cache.is_write_back() {
            if self.cache.itable_block(block).is_none() {
                let data = self.dev.read_block_vec(block)?;
                self.cache.store_itable_block(block, data, false);
            }
            let data = self.cache.itable_block_mut(block).expect("just stored");
            data[off..off + bytes.len()].copy_from_slice(&bytes);
            return Ok(());
        }
        let mut data = self.dev.read_block_vec(block)?;
        data[off..off + bytes.len()].copy_from_slice(&bytes);
        self.write_metadata_block(block, &data)
    }

    /// A write-through metadata write: the device failure, if any, goes
    /// through the `errors=` policy before reaching the caller.
    fn write_metadata_block(&mut self, block: u64, data: &[u8]) -> Result<(), FsError> {
        match self.dev.write_block(block, data) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.note_metadata_error(FsError::Device(e))),
        }
    }

    /// Ensures group `g`'s block bitmap is resident in the cache.
    fn load_block_bitmap(&mut self, g: u32) -> Result<(), FsError> {
        if self.cache.block_bitmap(g).is_none() {
            let bm = self.read_block_bitmap(g)?;
            self.cache.store_block_bitmap(g, bm, false);
        }
        Ok(())
    }

    /// Ensures group `g`'s inode bitmap is resident in the cache.
    fn load_inode_bitmap(&mut self, g: u32) -> Result<(), FsError> {
        if self.cache.inode_bitmap(g).is_none() {
            let bm = self.read_inode_bitmap(g)?;
            self.cache.store_inode_bitmap(g, bm, false);
        }
        Ok(())
    }

    /// Applies `f` to group `g`'s block bitmap: in place on the cached
    /// copy under [`CachePolicy::WriteBack`], as a device round trip
    /// otherwise. Write-through skips the device write when `f` fails,
    /// exactly as the direct code did.
    fn update_block_bitmap<R>(
        &mut self,
        g: u32,
        f: impl FnOnce(&mut Bitmap) -> Result<R, FsError>,
    ) -> Result<R, FsError> {
        if self.cache.is_write_back() {
            self.load_block_bitmap(g)?;
            return f(self.cache.block_bitmap_mut(g).expect("loaded above"));
        }
        let mut bm = self.read_block_bitmap(g)?;
        let r = f(&mut bm)?;
        let block = self.groups[g as usize].block_bitmap;
        self.write_metadata_block(block, bm.as_bytes())?;
        Ok(r)
    }

    /// Block-bitmap counterpart for the inode bitmap; see
    /// [`Ext4Fs::update_block_bitmap`].
    fn update_inode_bitmap<R>(
        &mut self,
        g: u32,
        f: impl FnOnce(&mut Bitmap) -> Result<R, FsError>,
    ) -> Result<R, FsError> {
        if self.cache.is_write_back() {
            self.load_inode_bitmap(g)?;
            return f(self.cache.inode_bitmap_mut(g).expect("loaded above"));
        }
        let mut bm = self.read_inode_bitmap(g)?;
        let r = f(&mut bm)?;
        let block = self.groups[g as usize].inode_bitmap;
        self.write_metadata_block(block, bm.as_bytes())?;
        Ok(r)
    }

    /// Writes every dirty cached block back to the device, exactly once
    /// each, in deterministic group-major order: per group the block
    /// bitmap, then the inode bitmap, then its inode-table blocks in
    /// ascending order. A no-op when nothing is dirty (and always under
    /// [`CachePolicy::WriteThrough`], which buffers nothing).
    ///
    /// # Errors
    ///
    /// Propagates device errors, filtered through the mount's `errors=`
    /// policy (see [`Ext4Fs::flush_metadata`]). A failed pass leaves the
    /// cache *poisoned*: every block that did not reach the device keeps
    /// its dirty flag, so nothing is silently dropped and a retried flush
    /// resumes with exactly the still-unwritten blocks. A later pass that
    /// completes clears the poison.
    pub fn flush_cache(&mut self) -> Result<(), FsError> {
        match self.flush_cache_inner() {
            Ok(()) => {
                self.cache.clear_poison();
                Ok(())
            }
            Err(e) => {
                self.cache.poison();
                Err(self.note_metadata_error(e))
            }
        }
    }

    fn flush_cache_inner(&mut self) -> Result<(), FsError> {
        if !self.cache.has_dirty() {
            return Ok(());
        }
        for g in 0..self.groups.len() as u32 {
            if self.cache.block_bitmap_dirty(g) {
                let block = self.groups[g as usize].block_bitmap;
                let bm = self.cache.block_bitmap(g).expect("dirty slot is populated");
                self.dev.write_block(block, bm.as_bytes())?;
                self.cache.clear_block_bitmap_dirty(g);
            }
            if self.cache.inode_bitmap_dirty(g) {
                let block = self.groups[g as usize].inode_bitmap;
                let bm = self.cache.inode_bitmap(g).expect("dirty slot is populated");
                self.dev.write_block(block, bm.as_bytes())?;
                self.cache.clear_inode_bitmap_dirty(g);
            }
            let it_start = self.groups[g as usize].inode_table;
            let it_end = it_start + u64::from(self.layout.inode_table_blocks());
            for block in self.cache.dirty_itable_in(it_start..it_end) {
                {
                    let data = self.cache.itable_block(block).expect("dirty block is cached");
                    self.dev.write_block(block, data)?;
                }
                self.cache.clear_itable_dirty(block);
            }
        }
        // anything left over (a table block outside every group's current
        // range can only appear after geometry surgery) still ascends
        for block in self.cache.dirty_itable_all() {
            {
                let data = self.cache.itable_block(block).expect("dirty block is cached");
                self.dev.write_block(block, data)?;
            }
            self.cache.clear_itable_dirty(block);
        }
        Ok(())
    }

    /// The handle's current [`CachePolicy`].
    pub fn cache_policy(&self) -> CachePolicy {
        self.cache.policy()
    }

    /// Switches the metadata-cache policy. Moving to
    /// [`CachePolicy::WriteThrough`] flushes and drops all buffered
    /// state first, so the device is authoritative again.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the flush.
    pub fn set_cache_policy(&mut self, policy: CachePolicy) -> Result<(), FsError> {
        if self.cache.policy() == policy {
            return Ok(());
        }
        if policy == CachePolicy::WriteThrough {
            self.flush_cache()?;
            self.cache.invalidate();
        }
        self.cache.set_policy(policy);
        Ok(())
    }

    fn check_ino(&self, ino: InodeNo) -> Result<(), FsError> {
        if ino.0 == 0 || ino.0 > self.sb.inodes_count {
            return Err(FsError::BadInode(ino.0));
        }
        Ok(())
    }

    fn check_writable(&self) -> Result<(), FsError> {
        if self.panicked {
            return Err(FsError::PolicyPanic("file system halted".to_string()));
        }
        if self.degraded {
            return Err(FsError::DegradedReadOnly);
        }
        if self.fs_state == FsState::MountedRo {
            return Err(FsError::ReadOnlyFs);
        }
        Ok(())
    }

    /// Applies the mount's `errors=` policy to a failed metadata I/O.
    ///
    /// Mirrors the kernel's `ext4_handle_error`: the on-image error flag
    /// is stamped on the first failure (best-effort — the device that
    /// just failed may refuse the stamp too; the in-memory flag still
    /// drives the policy and e2fsck re-derives the damage either way),
    /// then `errors=remount-ro` flips the mount into the degraded
    /// read-only state, `errors=panic` halts the handle behind a typed
    /// [`FsError::PolicyPanic`], and `errors=continue` hands the typed
    /// error to the caller and keeps going.
    fn note_metadata_error(&mut self, e: FsError) -> FsError {
        // only device-level failures are ext4_error conditions; logical
        // results (NoSpace, NotFound, ...) are normal op outcomes, and an
        // error that already went through the policy stays as-is
        if !matches!(e, FsError::Device(_)) {
            return e;
        }
        // offline maintenance tools (e2fsck, resize2fs) own their error
        // handling; the policy applies to mounted handles only
        if self.fs_state == FsState::Maintenance {
            return e;
        }
        if self.sb.state & state::ERROR_FS == 0 {
            self.sb.set_error_state();
            let _ = self.write_primary_superblock();
        }
        match self.errors_policy {
            errors_policy::REMOUNT_RO => {
                self.degraded = true;
                self.fs_state = FsState::MountedRo;
                e
            }
            errors_policy::PANIC => {
                self.panicked = true;
                FsError::PolicyPanic(e.to_string())
            }
            _ => e,
        }
    }

    /// The effective `errors=` behaviour of this handle (one of the
    /// [`crate::errors_policy`] constants).
    pub fn errors_policy(&self) -> u16 {
        self.errors_policy
    }

    /// True once `errors=remount-ro` has demoted this mount to the
    /// degraded read-only state.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// True once `errors=panic` has halted this handle.
    pub fn has_panicked(&self) -> bool {
        self.panicked
    }

    /// True while the write-back cache holds dirty blocks that a failed
    /// flush could not write; see [`Ext4Fs::flush_cache`].
    pub fn cache_poisoned(&self) -> bool {
        self.cache.is_poisoned()
    }

    /// Operation commit: a public file-system operation writes back the
    /// buffered metadata it touched before returning, so each dirty
    /// block hits the device once per operation instead of once per
    /// mutation — and a crash after the call sees the same metadata the
    /// write-through baseline would have persisted.
    fn commit_op(&mut self) -> Result<(), FsError> {
        self.flush_cache()
    }

    // -----------------------------------------------------------------
    // allocation
    // -----------------------------------------------------------------

    /// Allocates one cluster, preferring `goal_group`. Returns the first
    /// block of the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NoSpace`] when every group is full.
    pub fn alloc_block(&mut self, goal_group: u32) -> Result<u64, FsError> {
        self.alloc_block_next_fit(goal_group, &mut [])
    }

    /// [`Ext4Fs::alloc_block`] that scans group `g`'s bitmap from
    /// `cursor[g]` (from bit 0 for a group the slice does not cover) and
    /// moves the cursor past the cluster it takes. The caller keeps every
    /// bit below a cursor set, so the cluster chosen is the one a scan
    /// from bit 0 would choose.
    fn alloc_block_next_fit(&mut self, goal_group: u32, cursor: &mut [u32]) -> Result<u64, FsError> {
        self.check_writable()?;
        let g = pick_group_for_block(&self.groups, goal_group).ok_or(FsError::NoSpace)?;
        let from = cursor.get(g as usize).copied().unwrap_or(0);
        let idx = self.update_block_bitmap(g, |bm| {
            let idx = bm.find_clear_from(from).ok_or(FsError::NoSpace)?;
            bm.set(idx);
            Ok(idx)
        })?;
        if let Some(c) = cursor.get_mut(g as usize) {
            *c = idx + 1;
        }
        let ratio = self.layout.cluster_ratio;
        self.groups[g as usize].free_blocks_count -= ratio;
        self.sb.free_blocks_count -= u64::from(ratio);
        Ok(self.layout.group_first_block(g) + u64::from(idx) * u64::from(ratio))
    }

    /// Frees the cluster containing `block`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] if the block was already free.
    pub fn free_block(&mut self, block: u64) -> Result<(), FsError> {
        self.check_writable()?;
        let g = self.layout.block_group_of(block);
        let idx = self.layout.block_index_in_group(block) / self.layout.cluster_ratio;
        self.update_block_bitmap(g, |bm| {
            if !bm.clear(idx) {
                return Err(FsError::Corrupt(format!("double free of block {block}")));
            }
            Ok(())
        })?;
        let ratio = self.layout.cluster_ratio;
        self.groups[g as usize].free_blocks_count += ratio;
        self.sb.free_blocks_count += u64::from(ratio);
        Ok(())
    }

    /// Allocates an inode; `is_dir` selects the Orlov-style policy.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NoInodes`] when every group is out of inodes.
    pub fn alloc_inode(&mut self, is_dir: bool, parent: InodeNo) -> Result<InodeNo, FsError> {
        self.check_writable()?;
        let parent_group = self.layout.inode_group_of(parent.0);
        let g = if is_dir {
            pick_group_for_dir(&self.groups)
        } else {
            pick_group_for_file(&self.groups, parent_group)
        }
        .ok_or(FsError::NoInodes)?;
        let idx = self.update_inode_bitmap(g, |bm| {
            let idx = bm.find_clear_from(0).ok_or(FsError::NoInodes)?;
            bm.set(idx);
            Ok(idx)
        })?;
        self.groups[g as usize].free_inodes_count -= 1;
        self.sb.free_inodes_count -= 1;
        Ok(InodeNo(g * self.layout.inodes_per_group + idx + 1))
    }

    /// Frees inode `ino` (bitmap + counters only; the caller clears the
    /// table entry).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] on double free.
    pub fn free_inode(&mut self, ino: InodeNo, was_dir: bool) -> Result<(), FsError> {
        self.check_writable()?;
        self.check_ino(ino)?;
        let g = self.layout.inode_group_of(ino.0);
        let idx = self.layout.inode_index_in_group(ino.0);
        self.update_inode_bitmap(g, |bm| {
            if !bm.clear(idx) {
                return Err(FsError::Corrupt(format!("double free of inode {}", ino.0)));
            }
            Ok(())
        })?;
        self.groups[g as usize].free_inodes_count += 1;
        self.sb.free_inodes_count += 1;
        if was_dir && self.groups[g as usize].used_dirs_count > 0 {
            self.groups[g as usize].used_dirs_count -= 1;
        }
        Ok(())
    }

    fn sectors_for(&self, blocks: u32) -> u32 {
        blocks * (self.layout.block_size / 512)
    }

    fn uses_extent_feature(&self) -> bool {
        self.layout.features.incompat.contains(IncompatFeatures::EXTENTS)
    }

    fn uses_inline_feature(&self) -> bool {
        self.layout.features.incompat.contains(IncompatFeatures::INLINE_DATA)
    }

    // -----------------------------------------------------------------
    // block mapping
    // -----------------------------------------------------------------

    fn load_extent_tree(&self, inode: &Inode) -> Result<(ExtentTree, Option<u64>), FsError> {
        match ExtentTree::decode_inline(&inode.block_area)? {
            ExtentRoot::Inline(t) => Ok((t, None)),
            ExtentRoot::Spilled { leaf_block } => {
                let data = self.dev.read_block_vec(leaf_block)?;
                Ok((ExtentTree::decode_leaf(&data)?, Some(leaf_block)))
            }
        }
    }

    /// Encodes `tree` into `inode`, spilling to (or releasing) a leaf
    /// block as its size requires; returns the leaf block now in use.
    fn store_extent_tree(
        &mut self,
        inode: &mut Inode,
        tree: &ExtentTree,
        leaf_block: Option<u64>,
    ) -> Result<Option<u64>, FsError> {
        if tree.fits_inline() {
            tree.encode_inline(&mut inode.block_area);
            if let Some(lb) = leaf_block {
                self.free_block(lb)?;
            }
            Ok(None)
        } else {
            if tree.len() > ExtentTree::leaf_capacity(self.layout.block_size) {
                return Err(FsError::Corrupt(format!(
                    "file too fragmented: {} extents exceed one leaf node",
                    tree.len()
                )));
            }
            let lb = match leaf_block {
                Some(lb) => lb,
                None => self.alloc_block(0)?,
            };
            let leaf = tree.encode_root_with_leaf(&mut inode.block_area, lb, self.layout.block_size);
            self.dev.write_block(lb, &leaf)?;
            Ok(Some(lb))
        }
    }

    /// Decodes `inode`'s block map once, for lookups and appends that
    /// then work in memory. A legacy map's indirect block is read on
    /// first use, not here.
    fn block_map(&self, inode: &Inode) -> Result<BlockMap, FsError> {
        if inode.uses_extents() {
            let (tree, leaf) = self.load_extent_tree(inode)?;
            Ok(BlockMap::Extents { tree, leaf })
        } else {
            Ok(BlockMap::Legacy { indirect: None })
        }
    }

    /// [`Ext4Fs::file_block`] on a map from [`Ext4Fs::block_map`].
    fn map_lookup(
        &self,
        inode: &Inode,
        map: &mut BlockMap,
        logical: u32,
    ) -> Result<Option<u64>, FsError> {
        match map {
            BlockMap::Extents { tree, .. } => Ok(tree.map(logical)),
            BlockMap::Legacy { indirect } => {
                // legacy map: 12 direct pointers + one single-indirect block
                if (logical as usize) < DIRECT_BLOCKS {
                    let v = get_u32(&inode.block_area, logical as usize * 4);
                    return Ok(if v == 0 { None } else { Some(u64::from(v)) });
                }
                let ind = get_u32(&inode.block_area, DIRECT_BLOCKS * 4);
                if ind == 0 {
                    return Ok(None);
                }
                let per = self.layout.block_size / 4;
                let idx = logical - DIRECT_BLOCKS as u32;
                if idx >= per {
                    return Ok(None); // beyond single-indirect capacity
                }
                let data = match indirect {
                    Some(data) => data,
                    None => indirect.insert(self.dev.read_block_vec(u64::from(ind))?),
                };
                let v = get_u32(data, idx as usize * 4);
                Ok(if v == 0 { None } else { Some(u64::from(v)) })
            }
        }
    }

    /// [`Ext4Fs::set_file_block`] on a map from [`Ext4Fs::block_map`]:
    /// the map is updated in memory and stored after every append, so
    /// the device sees the same writes as a fresh decode per block.
    fn map_append(
        &mut self,
        inode: &mut Inode,
        map: &mut BlockMap,
        logical: u32,
        block: u64,
    ) -> Result<(), FsError> {
        match map {
            BlockMap::Extents { tree, leaf } => {
                tree.append(logical, block)?;
                *leaf = self.store_extent_tree(inode, tree, *leaf)?;
                Ok(())
            }
            BlockMap::Legacy { indirect } => {
                if (logical as usize) < DIRECT_BLOCKS {
                    put_u32(&mut inode.block_area, logical as usize * 4, block as u32);
                    return Ok(());
                }
                let per = self.layout.block_size / 4;
                let idx = logical - DIRECT_BLOCKS as u32;
                if idx >= per {
                    return Err(FsError::NoSpace); // file exceeds legacy map capacity
                }
                let mut ind = get_u32(&inode.block_area, DIRECT_BLOCKS * 4);
                if ind == 0 {
                    let nb = self.alloc_block(0)?;
                    let zero = vec![0u8; self.layout.block_size as usize];
                    self.dev.write_block(nb, &zero)?;
                    put_u32(&mut inode.block_area, DIRECT_BLOCKS * 4, nb as u32);
                    ind = nb as u32;
                    *indirect = Some(zero);
                }
                let data = match indirect {
                    Some(data) => data,
                    None => indirect.insert(self.dev.read_block_vec(u64::from(ind))?),
                };
                put_u32(data, idx as usize * 4, block as u32);
                self.dev.write_block(u64::from(ind), data)?;
                Ok(())
            }
        }
    }

    /// Maps a file-logical block to a device block, if allocated.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] on a malformed block map.
    pub fn file_block(&self, inode: &Inode, logical: u32) -> Result<Option<u64>, FsError> {
        self.map_get(inode, &mut None, logical)
    }

    fn set_file_block(&mut self, inode: &mut Inode, logical: u32, block: u64) -> Result<(), FsError> {
        self.map_set(inode, &mut None, logical, block)
    }

    /// [`Ext4Fs::file_block`] on `map`, which is decoded from `inode`
    /// on first use and kept for the next call.
    fn map_get(
        &self,
        inode: &Inode,
        map: &mut Option<BlockMap>,
        logical: u32,
    ) -> Result<Option<u64>, FsError> {
        if inode.is_inline() || is_fast_symlink(inode) {
            return Ok(None);
        }
        let map = match map {
            Some(map) => map,
            None => map.insert(self.block_map(inode)?),
        };
        self.map_lookup(inode, map, logical)
    }

    /// [`Ext4Fs::set_file_block`] on `map`, decoded as in
    /// [`Ext4Fs::map_get`].
    fn map_set(
        &mut self,
        inode: &mut Inode,
        map: &mut Option<BlockMap>,
        logical: u32,
        block: u64,
    ) -> Result<(), FsError> {
        let map = match map {
            Some(map) => map,
            None => map.insert(self.block_map(inode)?),
        };
        self.map_append(inode, map, logical, block)
    }

    /// Enumerates every data block of `inode`, including mapping blocks
    /// (extent leaf / indirect). Used by unlink, the checker and
    /// `e4defrag`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] on a malformed block map.
    pub fn file_blocks(&self, inode: &Inode) -> Result<Vec<u64>, FsError> {
        let mut out = Vec::new();
        if inode.is_inline() || is_fast_symlink(inode) {
            return Ok(out);
        }
        if inode.uses_extents() {
            let (tree, leaf) = self.load_extent_tree(inode)?;
            if let Some(lb) = leaf {
                out.push(lb);
            }
            for e in tree.extents() {
                for i in 0..u64::from(e.len) {
                    out.push(e.physical + i);
                }
            }
        } else {
            for i in 0..DIRECT_BLOCKS {
                let v = get_u32(&inode.block_area, i * 4);
                if v != 0 {
                    out.push(u64::from(v));
                }
            }
            let ind = get_u32(&inode.block_area, DIRECT_BLOCKS * 4);
            if ind != 0 {
                out.push(u64::from(ind));
                let data = self.dev.read_block_vec(u64::from(ind))?;
                for i in 0..(self.layout.block_size / 4) as usize {
                    let v = get_u32(&data, i * 4);
                    if v != 0 {
                        out.push(u64::from(v));
                    }
                }
            }
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // file operations
    // -----------------------------------------------------------------

    /// The root directory inode number.
    pub fn root_inode(&self) -> InodeNo {
        ROOT_INODE
    }

    /// Creates an empty regular file `name` in directory `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`], [`FsError::NotADirectory`],
    /// allocation errors, or device errors.
    pub fn create_file(&mut self, dir: InodeNo, name: &str) -> Result<InodeNo, FsError> {
        self.check_writable()?;
        if self.lookup(dir, name)?.is_some() {
            return Err(FsError::AlreadyExists(name.to_string()));
        }
        let ino = self.alloc_inode(false, dir)?;
        let mut inode = Inode::new_file(self.uses_extent_feature());
        if self.uses_inline_feature() {
            inode.flags.insert(InodeFlags::INLINE_DATA);
            inode.flags.remove(InodeFlags::EXTENTS);
            inode.block_area = [0u8; I_BLOCK_SIZE];
        }
        inode.ctime = self.tick();
        self.write_inode(ino, &inode)?;
        self.add_dir_entry(dir, name, ino, FileType::Regular)?;
        self.commit_op()?;
        Ok(ino)
    }

    /// Creates directory `name` under `dir`.
    ///
    /// # Errors
    ///
    /// Same classes as [`Ext4Fs::create_file`].
    pub fn mkdir(&mut self, dir: InodeNo, name: &str) -> Result<InodeNo, FsError> {
        self.check_writable()?;
        if self.lookup(dir, name)?.is_some() {
            return Err(FsError::AlreadyExists(name.to_string()));
        }
        let ino = self.alloc_inode(true, dir)?;
        let block = self.alloc_block(self.layout.inode_group_of(ino.0))?;
        let mut data = vec![0u8; self.layout.block_size as usize];
        dir::init_block(&mut data, ino.0, dir.0);
        self.dev.write_block(block, &data)?;
        let mut inode = Inode::new_dir(self.uses_extent_feature());
        inode.size = u64::from(self.layout.block_size);
        inode.ctime = self.tick();
        self.set_file_block(&mut inode, 0, block)?;
        inode.blocks = self.sectors_for(1);
        self.write_inode(ino, &inode)?;
        self.add_dir_entry(dir, name, ino, FileType::Dir)?;
        // parent gains a ".." reference
        let mut parent = self.read_inode(dir)?;
        parent.links_count += 1;
        self.write_inode(dir, &parent)?;
        let g = self.layout.inode_group_of(ino.0);
        self.groups[g as usize].used_dirs_count += 1;
        self.commit_op()?;
        Ok(ino)
    }

    /// Writes `data` into the file at byte `offset`, allocating blocks as
    /// needed (or keeping tiny files inline when `inline_data` is on).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::IsADirectory`] for directories, plus allocation
    /// and device errors.
    pub fn write_file(&mut self, ino: InodeNo, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.check_writable()?;
        let mut inode = self.read_inode(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsADirectory(ino.0));
        }
        let end = offset + data.len() as u64;
        if inode.is_inline() {
            if end <= I_BLOCK_SIZE as u64 {
                inode.block_area[offset as usize..end as usize].copy_from_slice(data);
                inode.size = inode.size.max(end);
                inode.mtime = self.tick();
                self.write_inode(ino, &inode)?;
                return self.commit_op();
            }
            // migrate inline -> block-mapped
            let old: Vec<u8> = inode.block_area[..inode.size as usize].to_vec();
            inode.flags.remove(InodeFlags::INLINE_DATA);
            inode.block_area = [0u8; I_BLOCK_SIZE];
            if self.uses_extent_feature() {
                inode.init_extent_root();
            }
            let saved_size = inode.size;
            inode.size = 0;
            self.write_inode(ino, &inode)?;
            if !old.is_empty() {
                self.write_file(ino, 0, &old)?;
                inode = self.read_inode(ino)?;
                inode.size = saved_size;
                self.write_inode(ino, &inode)?;
            }
            inode = self.read_inode(ino)?;
        }
        let bs = u64::from(self.layout.block_size);
        let first_block = (offset / bs) as u32;
        let last_block = end.div_ceil(bs) as u32;
        let mut blocks_added = 0u32;
        // the block map is decoded once for the whole write
        let mut map = None;
        for logical in first_block..last_block {
            let phys = match self.map_get(&inode, &mut map, logical)? {
                Some(b) => b,
                None => {
                    let goal = self.layout.inode_group_of(ino.0);
                    let b = self.alloc_block(goal)?;
                    // allocating a cluster maps cluster_ratio logical blocks
                    let base_logical = logical - (logical % self.layout.cluster_ratio);
                    for i in 0..self.layout.cluster_ratio {
                        if self.map_get(&inode, &mut map, base_logical + i)?.is_none() {
                            self.map_set(&mut inode, &mut map, base_logical + i, b + u64::from(i))?;
                        }
                    }
                    blocks_added += self.layout.cluster_ratio;
                    self.map_get(&inode, &mut map, logical)?.ok_or_else(|| {
                        FsError::Corrupt("freshly mapped block vanished".to_string())
                    })?
                }
            };
            // read-modify-write the affected byte range of this block
            let block_start = u64::from(logical) * bs;
            let from = offset.max(block_start);
            let to = end.min(block_start + bs);
            let mut buf = self.dev.read_block_vec(phys)?;
            let src_off = (from - offset) as usize;
            let dst_off = (from - block_start) as usize;
            let len = (to - from) as usize;
            buf[dst_off..dst_off + len].copy_from_slice(&data[src_off..src_off + len]);
            self.dev.write_block(phys, &buf)?;
        }
        inode.size = inode.size.max(end);
        inode.blocks += self.sectors_for(blocks_added);
        inode.mtime = self.tick();
        self.write_inode(ino, &inode)?;
        self.commit_op()
    }

    /// Reads up to `buf.len()` bytes from byte `offset`; returns the
    /// number of bytes read (short at EOF). Holes read as zeros.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::IsADirectory`] for directories plus device
    /// errors.
    pub fn read_file(&self, ino: InodeNo, offset: u64, buf: &mut [u8]) -> Result<usize, FsError> {
        let inode = self.read_inode(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsADirectory(ino.0));
        }
        if offset >= inode.size {
            return Ok(0);
        }
        let want = buf.len().min((inode.size - offset) as usize);
        if inode.is_inline() {
            buf[..want].copy_from_slice(&inode.block_area[offset as usize..offset as usize + want]);
            return Ok(want);
        }
        let bs = u64::from(self.layout.block_size);
        let mut map = None;
        let mut done = 0usize;
        while done < want {
            let pos = offset + done as u64;
            let logical = (pos / bs) as u32;
            let in_off = (pos % bs) as usize;
            let take = (bs as usize - in_off).min(want - done);
            match self.map_get(&inode, &mut map, logical)? {
                Some(phys) => {
                    let data = self.dev.read_block_vec(phys)?;
                    buf[done..done + take].copy_from_slice(&data[in_off..in_off + take]);
                }
                None => buf[done..done + take].fill(0),
            }
            done += take;
        }
        Ok(want)
    }

    /// Reads the whole file.
    ///
    /// # Errors
    ///
    /// Same as [`Ext4Fs::read_file`].
    pub fn read_file_to_vec(&self, ino: InodeNo) -> Result<Vec<u8>, FsError> {
        let inode = self.read_inode(ino)?;
        let mut buf = vec![0u8; inode.size as usize];
        let n = self.read_file(ino, 0, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Creates a symbolic link `name` in `dir` pointing at `target`.
    /// Targets up to 59 bytes are stored inline in the inode (a "fast
    /// symlink", as in real ext4); longer targets use a data block.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] / [`FsError::NameTooLong`] plus
    /// allocation and device errors.
    pub fn symlink(&mut self, dir: InodeNo, name: &str, target: &str) -> Result<InodeNo, FsError> {
        self.check_writable()?;
        if target.len() > 1024 {
            return Err(FsError::NameTooLong(target.len()));
        }
        if self.lookup(dir, name)?.is_some() {
            return Err(FsError::AlreadyExists(name.to_string()));
        }
        let ino = self.alloc_inode(false, dir)?;
        let mut inode = Inode { mode: mode::S_IFLNK | 0o777, links_count: 1, ..Inode::default() };
        inode.ctime = self.tick();
        inode.size = target.len() as u64;
        if target.len() < I_BLOCK_SIZE {
            // fast symlink: the target lives in i_block
            inode.block_area[..target.len()].copy_from_slice(target.as_bytes());
        } else {
            let block = self.alloc_block(self.layout.inode_group_of(ino.0))?;
            let mut data = vec![0u8; self.layout.block_size as usize];
            data[..target.len()].copy_from_slice(target.as_bytes());
            self.dev.write_block(block, &data)?;
            if self.uses_extent_feature() {
                inode.init_extent_root();
            }
            self.set_file_block(&mut inode, 0, block)?;
            inode.blocks = self.sectors_for(1);
        }
        self.write_inode(ino, &inode)?;
        self.add_dir_entry(dir, name, ino, FileType::Symlink)?;
        self.commit_op()?;
        Ok(ino)
    }

    /// Reads a symbolic link's target.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] when the inode is not a symlink.
    pub fn readlink(&self, ino: InodeNo) -> Result<String, FsError> {
        let inode = self.read_inode(ino)?;
        if inode.mode & mode::S_IFMT != mode::S_IFLNK {
            return Err(FsError::NotFound(format!("inode {} is not a symlink", ino.0)));
        }
        let len = inode.size as usize;
        if len < I_BLOCK_SIZE && inode.blocks == 0 {
            return Ok(String::from_utf8_lossy(&inode.block_area[..len]).into_owned());
        }
        let block = self
            .file_block(&inode, 0)?
            .ok_or_else(|| FsError::Corrupt("symlink target block missing".to_string()))?;
        let data = self.dev.read_block_vec(block)?;
        Ok(String::from_utf8_lossy(&data[..len]).into_owned())
    }

    /// Renames `old_name` in `old_dir` to `new_name` in `new_dir`
    /// (replacing an existing *file* target, as POSIX rename does).
    ///
    /// # Errors
    ///
    /// * [`FsError::NotFound`] — the source entry is missing;
    /// * [`FsError::AlreadyExists`] — the target exists and is a
    ///   directory;
    /// * plus device and allocation errors.
    pub fn rename(
        &mut self,
        old_dir: InodeNo,
        old_name: &str,
        new_dir: InodeNo,
        new_name: &str,
    ) -> Result<(), FsError> {
        self.check_writable()?;
        let entry = self
            .lookup(old_dir, old_name)?
            .ok_or_else(|| FsError::NotFound(old_name.to_string()))?;
        let ino = InodeNo(entry.inode);
        let moving_dir = entry.file_type == FileType::Dir;
        if old_dir == new_dir && old_name == new_name {
            return Ok(());
        }
        // replace semantics for an existing target
        if let Some(target) = self.lookup(new_dir, new_name)? {
            if target.inode == entry.inode {
                return Ok(());
            }
            let tgt_inode = self.read_inode(InodeNo(target.inode))?;
            if tgt_inode.is_dir() {
                return Err(FsError::AlreadyExists(new_name.to_string()));
            }
            self.unlink(new_dir, new_name)?;
        }
        self.add_dir_entry(new_dir, new_name, ino, entry.file_type)?;
        self.remove_dir_entry(old_dir, old_name)?;
        if moving_dir && old_dir != new_dir {
            // fix '..' and the parents' link counts
            let inode = self.read_inode(ino)?;
            let bs = u64::from(self.layout.block_size);
            let mut map = None;
            'fix: for logical in 0..div_ceil(inode.size, bs) as u32 {
                if let Some(phys) = self.map_get(&inode, &mut map, logical)? {
                    let mut data = self.dev.read_block_vec(phys)?;
                    if dir::remove_entry(&mut data, "..")?.is_some() {
                        dir::add_entry(&mut data, "..", new_dir.0, FileType::Dir)?;
                        self.dev.write_block(phys, &data)?;
                        break 'fix;
                    }
                }
            }
            let mut old_parent = self.read_inode(old_dir)?;
            old_parent.links_count = old_parent.links_count.saturating_sub(1);
            self.write_inode(old_dir, &old_parent)?;
            let mut new_parent = self.read_inode(new_dir)?;
            new_parent.links_count += 1;
            self.write_inode(new_dir, &new_parent)?;
        }
        self.commit_op()
    }

    /// Removes file `name` from `dir`, freeing its inode and blocks when
    /// the link count drops to zero.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] or [`FsError::IsADirectory`].
    pub fn unlink(&mut self, dir: InodeNo, name: &str) -> Result<(), FsError> {
        self.check_writable()?;
        let entry = self.lookup(dir, name)?.ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let ino = InodeNo(entry.inode);
        let mut inode = self.read_inode(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsADirectory(ino.0));
        }
        self.remove_dir_entry(dir, name)?;
        inode.links_count = inode.links_count.saturating_sub(1);
        if inode.links_count == 0 {
            for b in self.file_blocks(&inode)? {
                // with bigalloc, only free each cluster once (its base)
                if self.layout.cluster_ratio == 1
                    || self.layout.block_index_in_group(b).is_multiple_of(self.layout.cluster_ratio)
                {
                    self.free_block(b)?;
                }
            }
            inode.dtime = self.tick();
            inode.size = 0;
            inode.block_area = [0u8; I_BLOCK_SIZE];
            self.write_inode(ino, &inode)?;
            self.free_inode(ino, false)?;
        } else {
            self.write_inode(ino, &inode)?;
        }
        self.commit_op()
    }

    /// Removes the empty directory `name` from `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::DirectoryNotEmpty`], [`FsError::NotFound`], or
    /// [`FsError::NotADirectory`].
    pub fn rmdir(&mut self, dir: InodeNo, name: &str) -> Result<(), FsError> {
        self.check_writable()?;
        let entry = self.lookup(dir, name)?.ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let ino = InodeNo(entry.inode);
        let mut inode = self.read_inode(ino)?;
        if !inode.is_dir() {
            return Err(FsError::NotADirectory(ino.0));
        }
        let entries = self.readdir(ino)?;
        if entries.iter().any(|e| e.name != "." && e.name != "..") {
            return Err(FsError::DirectoryNotEmpty(ino.0));
        }
        self.remove_dir_entry(dir, name)?;
        for b in self.file_blocks(&inode)? {
            self.free_block(b)?;
        }
        inode.links_count = 0;
        inode.dtime = self.tick();
        self.write_inode(ino, &inode)?;
        self.free_inode(ino, true)?;
        let mut parent = self.read_inode(dir)?;
        parent.links_count = parent.links_count.saturating_sub(1);
        self.write_inode(dir, &parent)?;
        self.commit_op()
    }

    /// Looks up `name` in directory `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotADirectory`] when `dir` is not a directory.
    pub fn lookup(&self, dir: InodeNo, name: &str) -> Result<Option<DirEntry>, FsError> {
        let inode = self.read_inode(dir)?;
        if !inode.is_dir() {
            return Err(FsError::NotADirectory(dir.0));
        }
        let bs = u64::from(self.layout.block_size);
        let mut map = None;
        for logical in 0..div_ceil(inode.size, bs) as u32 {
            if let Some(phys) = self.map_get(&inode, &mut map, logical)? {
                let data = self.dev.read_block_vec(phys)?;
                if let Some(e) = dir::find_entry(&data, name)? {
                    return Ok(Some(e));
                }
            }
        }
        Ok(None)
    }

    /// Lists every entry of directory `dir` (including `.` and `..`).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotADirectory`] when `dir` is not a directory.
    pub fn readdir(&self, dir: InodeNo) -> Result<Vec<DirEntry>, FsError> {
        let inode = self.read_inode(dir)?;
        if !inode.is_dir() {
            return Err(FsError::NotADirectory(dir.0));
        }
        let bs = u64::from(self.layout.block_size);
        let mut map = None;
        let mut out = Vec::new();
        for logical in 0..div_ceil(inode.size, bs) as u32 {
            if let Some(phys) = self.map_get(&inode, &mut map, logical)? {
                let data = self.dev.read_block_vec(phys)?;
                out.extend(dir::parse_block(&data)?);
            }
        }
        Ok(out)
    }

    fn add_dir_entry(
        &mut self,
        dir: InodeNo,
        name: &str,
        ino: InodeNo,
        ftype: FileType,
    ) -> Result<(), FsError> {
        let mut inode = self.read_inode(dir)?;
        if !inode.is_dir() {
            return Err(FsError::NotADirectory(dir.0));
        }
        let bs = u64::from(self.layout.block_size);
        let nblocks = div_ceil(inode.size, bs) as u32;
        let mut map = None;
        for logical in 0..nblocks {
            if let Some(phys) = self.map_get(&inode, &mut map, logical)? {
                let mut data = self.dev.read_block_vec(phys)?;
                if dir::add_entry(&mut data, name, ino.0, ftype)? {
                    self.dev.write_block(phys, &data)?;
                    return Ok(());
                }
            }
        }
        // every block full: extend the directory by one block
        let block = self.alloc_block(self.layout.inode_group_of(dir.0))?;
        let mut data = vec![0u8; bs as usize];
        // a single record spanning the whole block
        put_u32(&mut data, 0, ino.0);
        crate::util::put_u16(&mut data, 4, bs as u16);
        data[6] = name.len() as u8;
        data[7] = ftype.code();
        data[8..8 + name.len()].copy_from_slice(name.as_bytes());
        self.dev.write_block(block, &data)?;
        self.map_set(&mut inode, &mut map, nblocks, block)?;
        inode.size += bs;
        inode.blocks += self.sectors_for(1);
        self.write_inode(dir, &inode)?;
        Ok(())
    }

    fn remove_dir_entry(&mut self, dir: InodeNo, name: &str) -> Result<(), FsError> {
        let inode = self.read_inode(dir)?;
        let bs = u64::from(self.layout.block_size);
        let mut map = None;
        for logical in 0..div_ceil(inode.size, bs) as u32 {
            if let Some(phys) = self.map_get(&inode, &mut map, logical)? {
                let mut data = self.dev.read_block_vec(phys)?;
                if dir::remove_entry(&mut data, name)?.is_some() {
                    self.dev.write_block(phys, &data)?;
                    return Ok(());
                }
            }
        }
        Err(FsError::NotFound(name.to_string()))
    }

    // -----------------------------------------------------------------
    // introspection
    // -----------------------------------------------------------------

    /// The in-memory superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Mutable superblock access; only offline maintenance may use it.
    ///
    /// # Panics
    ///
    /// Panics when the file system is not in maintenance mode — mounted
    /// superblock surgery is exactly the class of bug the paper studies.
    pub fn superblock_mut(&mut self) -> &mut Superblock {
        assert!(
            self.fs_state == FsState::Maintenance,
            "superblock surgery requires maintenance mode"
        );
        &mut self.sb
    }

    /// The computed layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Recomputes the layout from the (possibly edited) superblock —
    /// called by `resize2fs` after changing the geometry. Cached
    /// metadata keyed by the old geometry is dropped.
    pub fn refresh_layout(&mut self) {
        self.layout = Self::layout_from_sb(&self.sb);
        self.cache.reset(self.layout.group_count());
    }

    /// The group descriptors.
    pub fn groups(&self) -> &[crate::GroupDesc] {
        &self.groups
    }

    /// Mutable group-descriptor access (maintenance mode only).
    ///
    /// # Panics
    ///
    /// Panics when not in maintenance mode.
    pub fn groups_mut(&mut self) -> &mut Vec<crate::GroupDesc> {
        assert!(
            self.fs_state == FsState::Maintenance,
            "group-descriptor surgery requires maintenance mode"
        );
        &mut self.groups
    }

    /// The open mode of this handle.
    pub fn state(&self) -> FsState {
        self.fs_state
    }

    /// Shared access to the underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable access to the underlying device (maintenance mode only).
    ///
    /// # Panics
    ///
    /// Panics when not in maintenance mode.
    pub fn device_mut(&mut self) -> &mut D {
        assert!(
            self.fs_state == FsState::Maintenance,
            "raw device access requires maintenance mode"
        );
        // the caller may rewrite any block, so cached copies (clean by
        // construction: maintenance handles are write-through) go stale
        self.cache.invalidate();
        &mut self.dev
    }

    /// `statfs`: (total blocks, free blocks, total inodes, free inodes).
    pub fn statfs(&self) -> (u64, u64, u32, u32) {
        (self.sb.blocks_count, self.sb.free_blocks_count, self.sb.inodes_count, self.sb.free_inodes_count)
    }

    fn tick(&mut self) -> u32 {
        self.clock += 1;
        self.clock
    }
}

#[cfg(test)]
impl<D: BlockDevice> Ext4Fs<D> {
    /// Test-only: extract the device without the clean-unmount bookkeeping
    /// (simulates a crash).
    pub(crate) fn dev_for_test(self) -> D {
        self.dev
    }

    /// Test-only: remove a directory entry without touching the inode
    /// (creates an orphan).
    pub(crate) fn remove_dirent_for_test(&mut self, dir: InodeNo, name: &str) {
        self.remove_dir_entry(dir, name).unwrap();
    }

    /// Test-only: map a block into an inode bypassing allocation
    /// (creates cross-links).
    pub(crate) fn set_block_for_test(&mut self, inode: &mut Inode, logical: u32, block: u64) {
        self.set_file_block(inode, logical, block).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::MemDevice;
    use crate::features::RoCompatFeatures;

    fn small_fs() -> Ext4Fs<MemDevice> {
        let dev = MemDevice::new(1024, 8192);
        Ext4Fs::format(dev, &MkfsParams { block_size: Some(1024), ..MkfsParams::default() }).unwrap()
    }

    #[test]
    fn format_produces_consistent_counts() {
        let fs = small_fs();
        let (blocks, free, inodes, free_inodes) = fs.statfs();
        assert_eq!(blocks, 8192);
        assert!(free > 0 && free < blocks);
        assert!(inodes > 0);
        assert!(free_inodes < inodes);
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = small_fs();
        let f = fs.create_file(ROOT_INODE, "a.txt").unwrap();
        fs.write_file(f, 0, b"hello world").unwrap();
        assert_eq!(fs.read_file_to_vec(f).unwrap(), b"hello world");
    }

    #[test]
    fn sparse_write_reads_zero_holes() {
        let mut fs = small_fs();
        let f = fs.create_file(ROOT_INODE, "sparse").unwrap();
        fs.write_file(f, 5000, b"tail").unwrap();
        let data = fs.read_file_to_vec(f).unwrap();
        assert_eq!(data.len(), 5004);
        assert!(data[..5000].iter().all(|&b| b == 0));
        assert_eq!(&data[5000..], b"tail");
    }

    #[test]
    fn large_file_spans_many_blocks() {
        let mut fs = small_fs();
        let f = fs.create_file(ROOT_INODE, "big").unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        fs.write_file(f, 0, &payload).unwrap();
        assert_eq!(fs.read_file_to_vec(f).unwrap(), payload);
    }

    #[test]
    fn overwrite_in_place() {
        let mut fs = small_fs();
        let f = fs.create_file(ROOT_INODE, "f").unwrap();
        fs.write_file(f, 0, b"aaaaaaaaaa").unwrap();
        fs.write_file(f, 3, b"BBB").unwrap();
        assert_eq!(fs.read_file_to_vec(f).unwrap(), b"aaaBBBaaaa");
    }

    #[test]
    fn mkdir_and_nested_files() {
        let mut fs = small_fs();
        let d = fs.mkdir(ROOT_INODE, "subdir").unwrap();
        let f = fs.create_file(d, "inner.txt").unwrap();
        fs.write_file(f, 0, b"inner").unwrap();
        let e = fs.lookup(d, "inner.txt").unwrap().unwrap();
        assert_eq!(e.inode, f.0);
        let names: Vec<_> = fs.readdir(ROOT_INODE).unwrap().into_iter().map(|e| e.name).collect();
        assert!(names.contains(&"subdir".to_string()));
        assert!(names.contains(&"lost+found".to_string()));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut fs = small_fs();
        fs.create_file(ROOT_INODE, "x").unwrap();
        assert!(matches!(fs.create_file(ROOT_INODE, "x"), Err(FsError::AlreadyExists(_))));
        assert!(matches!(fs.mkdir(ROOT_INODE, "x"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn unlink_frees_space() {
        let mut fs = small_fs();
        let (_, free0, _, fi0) = fs.statfs();
        let f = fs.create_file(ROOT_INODE, "tmp").unwrap();
        fs.write_file(f, 0, &vec![7u8; 4096]).unwrap();
        let (_, free1, _, _) = fs.statfs();
        assert!(free1 < free0);
        fs.unlink(ROOT_INODE, "tmp").unwrap();
        let (_, free2, _, fi2) = fs.statfs();
        assert_eq!(free2, free0);
        assert_eq!(fi2, fi0);
        assert!(fs.lookup(ROOT_INODE, "tmp").unwrap().is_none());
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut fs = small_fs();
        let d = fs.mkdir(ROOT_INODE, "d").unwrap();
        fs.create_file(d, "f").unwrap();
        assert!(matches!(fs.rmdir(ROOT_INODE, "d"), Err(FsError::DirectoryNotEmpty(_))));
        fs.unlink(d, "f").unwrap();
        fs.rmdir(ROOT_INODE, "d").unwrap();
        assert!(fs.lookup(ROOT_INODE, "d").unwrap().is_none());
    }

    #[test]
    fn unmount_then_mount_round_trip() {
        let mut fs = small_fs();
        let f = fs.create_file(ROOT_INODE, "persist").unwrap();
        fs.write_file(f, 0, b"data survives").unwrap();
        let dev = fs.unmount().unwrap();
        let fs2 = Ext4Fs::mount(dev, &MountOptions::default()).unwrap();
        let e = fs2.lookup(ROOT_INODE, "persist").unwrap().unwrap();
        assert_eq!(fs2.read_file_to_vec(InodeNo(e.inode)).unwrap(), b"data survives");
    }

    #[test]
    fn read_only_mount_rejects_writes() {
        let fs = small_fs();
        let dev = fs.unmount().unwrap();
        let mut fs = Ext4Fs::mount(dev, &MountOptions::read_only()).unwrap();
        assert!(matches!(fs.create_file(ROOT_INODE, "nope"), Err(FsError::ReadOnlyFs)));
        assert!(matches!(fs.alloc_block(0), Err(FsError::ReadOnlyFs)));
    }

    #[test]
    fn dirty_image_refuses_rw_mount() {
        let fs = small_fs();
        let dev = fs.unmount().unwrap();
        // a read-write mount marks the image in-use on the device
        let fs = Ext4Fs::mount(dev, &MountOptions::default()).unwrap();
        let dev = fs.dev; // crash: drop without unmount
        let err = Ext4Fs::mount(dev, &MountOptions::default()).unwrap_err();
        assert!(matches!(err, FsError::MountRejected { .. }));
    }

    #[test]
    fn maintenance_open_ignores_dirty_state() {
        let fs = small_fs();
        let dev = fs.dev; // crashed
        let fs = Ext4Fs::open_for_maintenance(dev).unwrap();
        assert_eq!(fs.state(), FsState::Maintenance);
    }

    #[test]
    fn mount_garbage_fails() {
        let dev = MemDevice::new(1024, 64);
        assert!(matches!(
            Ext4Fs::mount(dev, &MountOptions::default()),
            Err(FsError::BadMagic { .. })
        ));
    }

    #[test]
    fn journal_inode_allocated() {
        let fs = small_fs();
        let j = fs.read_inode(InodeNo(JOURNAL_INODE)).unwrap();
        assert!(j.size >= 256 * 1024, "journal should be at least 256 blocks");
        assert!(!fs.file_blocks(&j).unwrap().is_empty());
    }

    #[test]
    fn no_journal_feature_skips_journal() {
        let dev = MemDevice::new(1024, 8192);
        let mut params = MkfsParams { block_size: Some(1024), ..MkfsParams::default() };
        params.features.compat.remove(CompatFeatures::HAS_JOURNAL);
        let fs = Ext4Fs::format(dev, &params).unwrap();
        let j = fs.read_inode(InodeNo(JOURNAL_INODE)).unwrap();
        assert_eq!(j.size, 0);
    }

    #[test]
    fn multi_group_format() {
        let dev = MemDevice::new(1024, 8192 * 3);
        let fs =
            Ext4Fs::format(dev, &MkfsParams { block_size: Some(1024), ..MkfsParams::default() })
                .unwrap();
        assert_eq!(fs.layout().group_count(), 3);
        assert_eq!(fs.groups().len(), 3);
        // per-group free counts sum to the superblock count
        let sum: u64 = fs.groups().iter().map(|g| u64::from(g.free_blocks_count)).sum();
        assert_eq!(sum, fs.superblock().free_blocks_count);
    }

    #[test]
    fn legacy_block_map_works_without_extents() {
        let dev = MemDevice::new(1024, 8192);
        let mut params = MkfsParams { block_size: Some(1024), ..MkfsParams::default() };
        params.features.incompat.remove(IncompatFeatures::EXTENTS);
        let mut fs = Ext4Fs::format(dev, &params).unwrap();
        let f = fs.create_file(ROOT_INODE, "legacy").unwrap();
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 256) as u8).collect(); // needs indirect
        fs.write_file(f, 0, &payload).unwrap();
        assert_eq!(fs.read_file_to_vec(f).unwrap(), payload);
        let inode = fs.read_inode(f).unwrap();
        assert!(!inode.uses_extents());
    }

    #[test]
    fn inline_data_small_files_stay_in_inode() {
        let dev = MemDevice::new(1024, 8192);
        let mut params = MkfsParams { block_size: Some(1024), ..MkfsParams::default() };
        params.features.incompat.insert(IncompatFeatures::INLINE_DATA);
        let mut fs = Ext4Fs::format(dev, &params).unwrap();
        let (_, free0, _, _) = fs.statfs();
        let f = fs.create_file(ROOT_INODE, "tiny").unwrap();
        fs.write_file(f, 0, b"0123456789").unwrap();
        let (_, free1, _, _) = fs.statfs();
        assert_eq!(free0, free1, "inline write must not allocate blocks");
        assert_eq!(fs.read_file_to_vec(f).unwrap(), b"0123456789");
        // growing beyond 60 bytes migrates to blocks
        let big = vec![9u8; 100];
        fs.write_file(f, 10, &big).unwrap();
        let (_, free2, _, _) = fs.statfs();
        assert!(free2 < free1);
        let data = fs.read_file_to_vec(f).unwrap();
        assert_eq!(data.len(), 110);
        assert_eq!(&data[..10], b"0123456789");
        assert!(data[10..].iter().all(|&b| b == 9));
    }

    #[test]
    fn sparse_super2_format_records_backups() {
        let dev = MemDevice::new(1024, 8192 * 4);
        let mut params = MkfsParams { block_size: Some(1024), ..MkfsParams::default() };
        params.features.compat.insert(CompatFeatures::SPARSE_SUPER2);
        params.features.ro_compat.remove(RoCompatFeatures::SPARSE_SUPER);
        let fs = Ext4Fs::format(dev, &params).unwrap();
        assert_eq!(fs.superblock().backup_bgs, [1, 3]);
        assert_eq!(fs.layout().backup_groups(), vec![1, 3]);
    }

    #[test]
    fn fragmented_file_spills_extent_tree() {
        let mut fs = small_fs();
        // interleave two files so extents cannot merge
        let a = fs.create_file(ROOT_INODE, "a").unwrap();
        let b = fs.create_file(ROOT_INODE, "b").unwrap();
        for i in 0..12u64 {
            fs.write_file(a, i * 1024, &[1u8; 1024]).unwrap();
            fs.write_file(b, i * 1024, &[2u8; 1024]).unwrap();
        }
        let ia = fs.read_inode(a).unwrap();
        assert!(ia.uses_extents());
        let blocks = fs.file_blocks(&ia).unwrap();
        assert!(blocks.len() >= 12);
        let data = fs.read_file_to_vec(a).unwrap();
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn statfs_reflects_alloc_and_free() {
        let mut fs = small_fs();
        let (_, free0, _, _) = fs.statfs();
        let b = fs.alloc_block(0).unwrap();
        assert_eq!(fs.statfs().1, free0 - 1);
        fs.free_block(b).unwrap();
        assert_eq!(fs.statfs().1, free0);
        assert!(matches!(fs.free_block(b), Err(FsError::Corrupt(_))));
    }

    #[test]
    fn fast_symlink_round_trip() {
        let mut fs = small_fs();
        let (_, free0, _, _) = fs.statfs();
        let l = fs.symlink(ROOT_INODE, "link", "/target/path").unwrap();
        assert_eq!(fs.statfs().1, free0, "fast symlink must not allocate blocks");
        assert_eq!(fs.readlink(l).unwrap(), "/target/path");
        let e = fs.lookup(ROOT_INODE, "link").unwrap().unwrap();
        assert_eq!(e.file_type, FileType::Symlink);
        // unlink frees the inode and nothing else
        let (_, _, _, fi0) = fs.statfs();
        fs.unlink(ROOT_INODE, "link").unwrap();
        assert_eq!(fs.statfs().3, fi0 + 1);
        assert_eq!(fs.statfs().1, free0);
    }

    #[test]
    fn slow_symlink_uses_a_block() {
        let mut fs = small_fs();
        let (_, free0, _, _) = fs.statfs();
        let target = "t/".repeat(100); // 200 bytes > 59
        let l = fs.symlink(ROOT_INODE, "long", &target).unwrap();
        assert_eq!(fs.statfs().1, free0 - 1);
        assert_eq!(fs.readlink(l).unwrap(), target);
        fs.unlink(ROOT_INODE, "long").unwrap();
        assert_eq!(fs.statfs().1, free0);
    }

    #[test]
    fn readlink_rejects_non_symlinks() {
        let mut fs = small_fs();
        let f = fs.create_file(ROOT_INODE, "plain").unwrap();
        assert!(fs.readlink(f).is_err());
    }

    #[test]
    fn rename_within_directory() {
        let mut fs = small_fs();
        let f = fs.create_file(ROOT_INODE, "old").unwrap();
        fs.write_file(f, 0, b"payload").unwrap();
        fs.rename(ROOT_INODE, "old", ROOT_INODE, "new").unwrap();
        assert!(fs.lookup(ROOT_INODE, "old").unwrap().is_none());
        let e = fs.lookup(ROOT_INODE, "new").unwrap().unwrap();
        assert_eq!(e.inode, f.0);
        assert_eq!(fs.read_file_to_vec(f).unwrap(), b"payload");
    }

    #[test]
    fn rename_replaces_existing_file() {
        let mut fs = small_fs();
        let (_, _, _, fi0) = fs.statfs();
        let a = fs.create_file(ROOT_INODE, "a").unwrap();
        fs.write_file(a, 0, b"keep me").unwrap();
        let b = fs.create_file(ROOT_INODE, "b").unwrap();
        fs.write_file(b, 0, b"overwritten").unwrap();
        fs.rename(ROOT_INODE, "a", ROOT_INODE, "b").unwrap();
        let e = fs.lookup(ROOT_INODE, "b").unwrap().unwrap();
        assert_eq!(e.inode, a.0);
        assert_eq!(fs.read_file_to_vec(InodeNo(e.inode)).unwrap(), b"keep me");
        // the replaced file's inode was freed
        assert_eq!(fs.statfs().3, fi0 - 1);
    }

    #[test]
    fn rename_directory_across_parents_fixes_dotdot() {
        let mut fs = small_fs();
        let d1 = fs.mkdir(ROOT_INODE, "d1").unwrap();
        let d2 = fs.mkdir(ROOT_INODE, "d2").unwrap();
        let sub = fs.mkdir(d1, "sub").unwrap();
        fs.create_file(sub, "inner").unwrap();
        let links_d1 = fs.read_inode(d1).unwrap().links_count;
        let links_d2 = fs.read_inode(d2).unwrap().links_count;
        fs.rename(d1, "sub", d2, "sub-moved").unwrap();
        assert!(fs.lookup(d1, "sub").unwrap().is_none());
        let e = fs.lookup(d2, "sub-moved").unwrap().unwrap();
        assert_eq!(e.inode, sub.0);
        // '..' now points at d2
        let dotdot = fs.lookup(sub, "..").unwrap().unwrap();
        assert_eq!(dotdot.inode, d2.0);
        // parent link counts adjusted
        assert_eq!(fs.read_inode(d1).unwrap().links_count, links_d1 - 1);
        assert_eq!(fs.read_inode(d2).unwrap().links_count, links_d2 + 1);
        // the tree is still fully consistent
        let dev = fs.unmount().unwrap();
        let fs = Ext4Fs::open_for_maintenance(dev).unwrap();
        let report = crate::check_image(&fs).unwrap();
        assert!(report.is_clean(), "{:#?}", report.inconsistencies);
    }

    #[test]
    fn rename_onto_directory_refused() {
        let mut fs = small_fs();
        fs.create_file(ROOT_INODE, "f").unwrap();
        fs.mkdir(ROOT_INODE, "d").unwrap();
        assert!(matches!(
            fs.rename(ROOT_INODE, "f", ROOT_INODE, "d"),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn rename_missing_source_errors() {
        let mut fs = small_fs();
        assert!(matches!(
            fs.rename(ROOT_INODE, "ghost", ROOT_INODE, "x"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn rename_noop_same_name() {
        let mut fs = small_fs();
        let f = fs.create_file(ROOT_INODE, "same").unwrap();
        fs.rename(ROOT_INODE, "same", ROOT_INODE, "same").unwrap();
        assert_eq!(fs.lookup(ROOT_INODE, "same").unwrap().unwrap().inode, f.0);
    }

    #[test]
    fn hard_link_shares_content_and_counts() {
        let mut fs = small_fs();
        let f = fs.create_file(ROOT_INODE, "orig").unwrap();
        fs.write_file(f, 0, b"shared bytes").unwrap();
        fs.link(ROOT_INODE, "alias", f).unwrap();
        assert_eq!(fs.read_inode(f).unwrap().links_count, 2);
        let e = fs.lookup(ROOT_INODE, "alias").unwrap().unwrap();
        assert_eq!(e.inode, f.0);
        // unlinking one name keeps the data
        fs.unlink(ROOT_INODE, "orig").unwrap();
        assert_eq!(fs.read_file_to_vec(f).unwrap(), b"shared bytes");
        assert_eq!(fs.read_inode(f).unwrap().links_count, 1);
        // unlinking the last name frees everything
        let (_, free0, _, _) = fs.statfs();
        fs.unlink(ROOT_INODE, "alias").unwrap();
        assert!(fs.statfs().1 >= free0);
        assert!(fs.lookup(ROOT_INODE, "alias").unwrap().is_none());
    }

    #[test]
    fn bigalloc_allocates_clusters() {
        let dev = MemDevice::new(1024, 8192 * 4);
        let mut params = MkfsParams {
            block_size: Some(1024),
            cluster_size: Some(4096),
            ..MkfsParams::default()
        };
        params.features.incompat.insert(IncompatFeatures::BIGALLOC);
        let mut fs = Ext4Fs::format(dev, &params).unwrap();
        assert_eq!(fs.layout().cluster_ratio, 4);
        let (_, free0, _, _) = fs.statfs();
        let f = fs.create_file(ROOT_INODE, "c").unwrap();
        fs.write_file(f, 0, b"one byte write").unwrap();
        let (_, free1, _, _) = fs.statfs();
        assert_eq!(free0 - free1, 4, "one cluster = 4 blocks must be charged");
        assert_eq!(fs.read_file_to_vec(f).unwrap(), b"one byte write");
    }

    // -----------------------------------------------------------------
    // runtime errors= policy enforcement
    // -----------------------------------------------------------------

    use crate::superblock::errors_policy;
    use blockdev::{FaultPlan, FaultyDevice, InjectedFault};

    /// A clean image with one durable file `keep` (content `b"durable"`).
    fn image_with_durable_file() -> MemDevice {
        let dev = MemDevice::new(1024, 8192);
        let mut fs = Ext4Fs::format(
            dev,
            &MkfsParams { block_size: Some(1024), ..MkfsParams::default() },
        )
        .unwrap();
        let f = fs.create_file(ROOT_INODE, "keep").unwrap();
        fs.write_file(f, 0, b"durable").unwrap();
        fs.unmount().unwrap()
    }

    fn mount_faulty(
        image: MemDevice,
        plan: FaultPlan,
        errors: u16,
        policy: CachePolicy,
    ) -> Ext4Fs<FaultyDevice<MemDevice>> {
        let dev = FaultyDevice::new(image, plan);
        let opts = MountOptions { errors: Some(errors), ..MountOptions::default() };
        Ext4Fs::mount_with_policy(dev, &opts, policy).unwrap()
    }

    #[test]
    fn errors_continue_propagates_typed_errors_per_op() {
        // write #0 is the rw-mount superblock update; #1 is the first
        // metadata write of the operation
        let plan = FaultPlan::new().with(InjectedFault::FailWrite(1));
        let mut fs = mount_faulty(
            image_with_durable_file(),
            plan,
            errors_policy::CONTINUE,
            CachePolicy::WriteThrough,
        );
        let err = fs.create_file(ROOT_INODE, "new").unwrap_err();
        assert!(matches!(err, FsError::Device(_)), "{err}");
        assert!(!fs.is_degraded());
        assert!(!fs.has_panicked());
        // the fs keeps going: the next operation succeeds
        fs.create_file(ROOT_INODE, "after").unwrap();
    }

    #[test]
    fn errors_remount_ro_degrades_but_serves_reads() {
        let plan = FaultPlan::new().with(InjectedFault::FailWrite(1));
        let mut fs = mount_faulty(
            image_with_durable_file(),
            plan,
            errors_policy::REMOUNT_RO,
            CachePolicy::WriteThrough,
        );
        let err = fs.create_file(ROOT_INODE, "new").unwrap_err();
        assert!(matches!(err, FsError::Device(_)), "{err}");
        assert!(fs.is_degraded());
        // writes are rejected with the dedicated typed error...
        let err = fs.create_file(ROOT_INODE, "more").unwrap_err();
        assert!(matches!(err, FsError::DegradedReadOnly), "{err}");
        // ...while previously-durable data is still served
        let keep = fs.lookup(ROOT_INODE, "keep").unwrap().unwrap();
        assert_eq!(fs.read_file_to_vec(InodeNo(keep.inode)).unwrap(), b"durable");
    }

    #[test]
    fn errors_panic_halts_with_typed_error_and_stamps_image() {
        let plan = FaultPlan::new().with(InjectedFault::FailWrite(1));
        let mut fs = mount_faulty(
            image_with_durable_file(),
            plan,
            errors_policy::PANIC,
            CachePolicy::WriteThrough,
        );
        let err = fs.create_file(ROOT_INODE, "new").unwrap_err();
        assert!(matches!(err, FsError::PolicyPanic(_)), "{err}");
        assert!(fs.has_panicked());
        // the halted handle serves nothing, reads included
        let err = fs.lookup(ROOT_INODE, "keep").unwrap_err();
        assert!(matches!(err, FsError::PolicyPanic(_)), "{err}");
        // unmount is crash-like but hands the device back
        let dev = fs.unmount().unwrap().into_inner();
        // the error flag was stamped before the halt, so recovery tooling
        // (and the next mount) can see the damage
        let fsck = Ext4Fs::open_for_maintenance(dev).unwrap();
        assert_ne!(fsck.superblock().state & state::ERROR_FS, 0);
    }

    #[test]
    fn failed_writeback_poisons_cache_and_retry_drains_it() {
        let plan = FaultPlan::new().with(InjectedFault::FailWrite(1));
        let mut fs = mount_faulty(
            image_with_durable_file(),
            plan,
            errors_policy::CONTINUE,
            CachePolicy::WriteBack,
        );
        // dirty the itable cache without touching the device (write #0
        // was the rw-mount superblock update), then commit: the write-back
        // pass issues write #1, which the plan kills
        let root = fs.read_inode(ROOT_INODE).unwrap();
        fs.write_inode(ROOT_INODE, &root).unwrap();
        let err = fs.flush_cache().unwrap_err();
        assert!(matches!(err, FsError::Device(_)), "{err}");
        assert!(fs.cache_poisoned(), "failed flush must poison the cache");
        // dirty state was retained, not dropped: a retried flush writes
        // the remaining blocks (the fault fired once) and clears poison
        fs.flush_cache().unwrap();
        assert!(!fs.cache_poisoned());
        // and the clean unmount path completes
        let dev = fs.unmount().unwrap().into_inner();
        let reopened = Ext4Fs::open_for_maintenance(dev).unwrap();
        let check = crate::check_image(&reopened).unwrap();
        // the error flag was stamped when the fault fired (so fsck knows
        // to look), but the metadata itself must be fully consistent —
        // nothing was dropped on the floor
        assert!(
            check
                .inconsistencies
                .iter()
                .all(|i| matches!(i.kind, crate::InconsistencyKind::ErrorFlagSet)),
            "{:?}",
            check
        );
    }

    #[test]
    fn mount_effective_policy_comes_from_superblock_when_no_option() {
        let mut image = image_with_durable_file();
        // tune2fs -e panic equivalent: record the policy on the image
        {
            let mut fs = Ext4Fs::open_for_maintenance(image).unwrap();
            fs.superblock_mut().errors = errors_policy::PANIC;
            fs.flush_metadata().unwrap();
            image = fs.unmount().unwrap();
        }
        let fs = Ext4Fs::mount(image, &MountOptions::default()).unwrap();
        assert_eq!(fs.errors_policy(), errors_policy::PANIC);
        // an explicit mount option overrides the on-image default
        let image = fs.unmount().unwrap();
        let opts =
            MountOptions { errors: Some(errors_policy::REMOUNT_RO), ..MountOptions::default() };
        let fs = Ext4Fs::mount(image, &opts).unwrap();
        assert_eq!(fs.errors_policy(), errors_policy::REMOUNT_RO);
    }

    /// Runs `ops` create+write operations with a sync between each over
    /// a recording device; returns (device, flush barriers, seals).
    fn batched_run(dev: MemDevice, batch: u32, ops: usize) -> (MemDevice, usize, usize) {
        let rec = blockdev::RecordingDevice::new(dev);
        let opts = MountOptions { max_batch_ops: batch, ..MountOptions::default() };
        let mut fs = Ext4Fs::mount(rec, &opts).unwrap();
        let mut sealed = 0usize;
        for i in 0..ops {
            let f = fs.create_file(ROOT_INODE, &format!("f{i}")).unwrap();
            fs.write_file(f, 0, &[i as u8 + 1; 200]).unwrap();
            if fs.sync().unwrap() {
                sealed += 1;
            }
        }
        let rec = fs.unmount().unwrap();
        let (dev, trace) = rec.into_parts();
        (dev, trace.flush_count(), sealed)
    }

    #[test]
    fn group_commit_coalesces_flush_barriers() {
        let base = small_fs().unmount().unwrap();
        let (dev1, flushes1, sealed1) = batched_run(base.clone(), 1, 6);
        let (dev3, flushes3, sealed3) = batched_run(base, 3, 6);
        // commit-per-sync seals every operation; batch=3 every third
        assert_eq!(sealed1, 6);
        assert_eq!(sealed3, 2);
        assert!(
            flushes3 < flushes1,
            "batch=3 must need fewer barriers: {flushes3} vs {flushes1}"
        );
        // both schedules converge on the same files
        for dev in [dev1, dev3] {
            let fs = Ext4Fs::mount(dev, &MountOptions::read_only()).unwrap();
            for i in 0..6usize {
                let e = fs.lookup(ROOT_INODE, &format!("f{i}")).unwrap().unwrap();
                assert_eq!(
                    fs.read_file_to_vec(InodeNo(e.inode)).unwrap(),
                    vec![i as u8 + 1; 200]
                );
            }
        }
    }

    #[test]
    fn batch_of_one_stays_commit_per_sync() {
        // 0 and 1 must both behave exactly like the historical
        // commit-per-operation path, write-for-write
        let base = small_fs().unmount().unwrap();
        let rec0 = blockdev::RecordingDevice::new(base.clone());
        let mut fs = Ext4Fs::mount(
            rec0,
            &MountOptions { max_batch_ops: 0, ..MountOptions::default() },
        )
        .unwrap();
        let f = fs.create_file(ROOT_INODE, "x").unwrap();
        fs.write_file(f, 0, b"abc").unwrap();
        assert!(fs.sync().unwrap(), "batch<=1 seals every sync");
        let (_, trace0) = fs.unmount().unwrap().into_parts();

        let rec1 = blockdev::RecordingDevice::new(base);
        let mut fs = Ext4Fs::mount(rec1, &MountOptions::default()).unwrap();
        let f = fs.create_file(ROOT_INODE, "x").unwrap();
        fs.write_file(f, 0, b"abc").unwrap();
        fs.flush_metadata().unwrap();
        let (_, trace1) = fs.unmount().unwrap().into_parts();
        assert_eq!(trace0.events(), trace1.events());
    }
}
