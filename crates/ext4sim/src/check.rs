//! Image-level consistency checking — the verification engine behind the
//! `e2fsck` utility and the detector that exposes the paper's Figure 1
//! corruption (a stale `free_blocks_count` after a buggy `resize2fs`
//! expansion).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use blockdev::BlockDevice;

use crate::dir::DirEntry;
use crate::fs::{Ext4Fs, RESERVED_INODES, ROOT_INODE};
use crate::inode::{Inode, InodeNo};
use crate::superblock::state;
use crate::util::div_ceil;
use crate::FsError;

/// What kind of inconsistency was found.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum InconsistencyKind {
    /// The superblock free-block count disagrees with the bitmaps.
    SuperFreeBlocks {
        /// Count recorded in the superblock.
        recorded: u64,
        /// Count recomputed from the bitmaps.
        actual: u64,
    },
    /// A group descriptor's free-block count disagrees with its bitmap.
    GroupFreeBlocks {
        /// Group number.
        group: u32,
        /// Count recorded in the descriptor.
        recorded: u32,
        /// Count recomputed from the bitmap.
        actual: u32,
    },
    /// The superblock free-inode count disagrees with the bitmaps.
    SuperFreeInodes {
        /// Count recorded in the superblock.
        recorded: u32,
        /// Count recomputed from the bitmaps.
        actual: u32,
    },
    /// A group descriptor's free-inode count disagrees with its bitmap.
    GroupFreeInodes {
        /// Group number.
        group: u32,
        /// Count recorded in the descriptor.
        recorded: u32,
        /// Count recomputed from the bitmap.
        actual: u32,
    },
    /// A metadata block is not marked in its block bitmap.
    MetadataBlockFree {
        /// Group number.
        group: u32,
        /// The unmarked cluster index.
        cluster: u32,
    },
    /// An allocated inode is not reachable from the root directory.
    UnreachableInode {
        /// The orphaned inode.
        ino: u32,
    },
    /// An inode's link count disagrees with the directory tree.
    WrongLinkCount {
        /// The inode.
        ino: u32,
        /// Recorded link count.
        recorded: u16,
        /// Count derived from directory entries.
        actual: u16,
    },
    /// A directory entry points at an unallocated inode.
    DanglingDirent {
        /// Directory inode.
        dir: u32,
        /// Entry name.
        name: String,
        /// Target inode.
        target: u32,
    },
    /// The image was not cleanly unmounted.
    NotCleanlyUnmounted,
    /// The superblock carries the error flag.
    ErrorFlagSet,
    /// A backup superblock disagrees with the primary on vital geometry.
    StaleBackupSuper {
        /// Backup group.
        group: u32,
        /// Field that differs.
        field: String,
    },
    /// A data block is referenced by two different inodes (cross-link).
    CrossLinkedBlock {
        /// The doubly-claimed block.
        block: u64,
        /// The two owners.
        inodes: (u32, u32),
    },
}

impl InconsistencyKind {
    /// Short machine-readable tag used by reports.
    pub fn tag(&self) -> &'static str {
        match self {
            InconsistencyKind::SuperFreeBlocks { .. } => "super_free_blocks",
            InconsistencyKind::GroupFreeBlocks { .. } => "group_free_blocks",
            InconsistencyKind::SuperFreeInodes { .. } => "super_free_inodes",
            InconsistencyKind::GroupFreeInodes { .. } => "group_free_inodes",
            InconsistencyKind::MetadataBlockFree { .. } => "metadata_block_free",
            InconsistencyKind::UnreachableInode { .. } => "unreachable_inode",
            InconsistencyKind::WrongLinkCount { .. } => "wrong_link_count",
            InconsistencyKind::DanglingDirent { .. } => "dangling_dirent",
            InconsistencyKind::NotCleanlyUnmounted => "not_cleanly_unmounted",
            InconsistencyKind::ErrorFlagSet => "error_flag_set",
            InconsistencyKind::StaleBackupSuper { .. } => "stale_backup_super",
            InconsistencyKind::CrossLinkedBlock { .. } => "cross_linked_block",
        }
    }
}

/// One detected inconsistency with the pass that found it (mirroring
/// e2fsck's pass structure).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Inconsistency {
    /// e2fsck pass number (1–5).
    pub pass: u8,
    /// The finding.
    pub kind: InconsistencyKind,
}

/// The result of a full check.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CheckReport {
    /// All findings in pass order.
    pub inconsistencies: Vec<Inconsistency>,
}

impl CheckReport {
    /// True when the image is fully consistent.
    pub fn is_clean(&self) -> bool {
        self.inconsistencies.is_empty()
    }

    /// Findings of one kind tag.
    pub fn of_tag(&self, tag: &str) -> Vec<&Inconsistency> {
        self.inconsistencies.iter().filter(|i| i.kind.tag() == tag).collect()
    }
}

impl std::fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pass {}: {:?}", self.pass, self.kind)
    }
}

impl std::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        writeln!(f, "{} inconsistencies:", self.inconsistencies.len())?;
        for i in &self.inconsistencies {
            writeln!(f, "  {i}")?;
        }
        Ok(())
    }
}

/// The inode that claimed each block in pass 1; `0` means unclaimed
/// (inode numbers start at 1). Blocks inside the file system sit in a
/// table indexed by block number; blocks past it, which only a corrupt
/// inode names, go to a map.
struct Claims {
    dense: Vec<u32>,
    overflow: HashMap<u64, u32>,
}

impl Claims {
    /// A table for as many blocks as `fs`'s superblock declares, capped
    /// at the device's size, so a corrupt block count cannot ask for a
    /// huge allocation.
    fn for_image<D: BlockDevice>(fs: &Ext4Fs<D>) -> Self {
        let device_blocks = fs.device().size_bytes() / u64::from(fs.layout().block_size);
        let len = fs.superblock().blocks_count.min(device_blocks);
        Claims { dense: vec![0; usize::try_from(len).unwrap_or(0)], overflow: HashMap::new() }
    }

    /// The owner slot of `block`.
    fn owner(&mut self, block: u64) -> &mut u32 {
        match usize::try_from(block).ok().filter(|&i| i < self.dense.len()) {
            Some(i) => &mut self.dense[i],
            None => self.overflow.entry(block).or_insert(0),
        }
    }
}

/// Runs the full consistency check (all five passes) without modifying the
/// image.
///
/// # Errors
///
/// Returns device errors or [`FsError::Corrupt`] when metadata cannot even
/// be parsed well enough to check.
pub fn check_image<D: BlockDevice>(fs: &Ext4Fs<D>) -> Result<CheckReport, FsError> {
    let mut report = CheckReport::default();
    let sb = fs.superblock();
    let l = fs.layout();

    // pass 0: superblock state
    if sb.state & state::VALID_FS == 0 {
        report.inconsistencies.push(Inconsistency { pass: 0, kind: InconsistencyKind::NotCleanlyUnmounted });
    }
    if sb.state & state::ERROR_FS != 0 {
        report.inconsistencies.push(Inconsistency { pass: 0, kind: InconsistencyKind::ErrorFlagSet });
    }

    // pass 1: inodes and block ownership. Every allocated inode is read
    // here once; `inodes` keeps them, in `allocated_inodes` order, for
    // the later passes (the check writes nothing, so a second read
    // would return the same inode).
    let mut claimed = Claims::for_image(fs);
    let mut allocated_inodes: Vec<u32> = Vec::new();
    for g in 0..l.group_count() {
        let ibm = fs.read_inode_bitmap(g)?;
        let mut idx = 0;
        while let Some(set) = ibm.find_set_from(idx) {
            if set >= l.inodes_per_group {
                break;
            }
            allocated_inodes.push(g * l.inodes_per_group + set + 1);
            idx = set + 1;
        }
    }
    let mut inodes: Vec<Inode> = Vec::with_capacity(allocated_inodes.len());
    for &ino in &allocated_inodes {
        let inode = fs.read_inode(InodeNo(ino))?;
        if ino <= RESERVED_INODES && ino != ROOT_INODE.0 {
            // reserved inodes other than root aren't part of the tree
            for b in fs.file_blocks(&inode)? {
                *claimed.owner(b) = ino;
            }
        } else {
            for b in fs.file_blocks(&inode)? {
                let owner = claimed.owner(b);
                if *owner == 0 {
                    *owner = ino;
                } else {
                    report.inconsistencies.push(Inconsistency {
                        pass: 1,
                        kind: InconsistencyKind::CrossLinkedBlock {
                            block: b,
                            inodes: (*owner, ino),
                        },
                    });
                }
            }
        }
        inodes.push(inode);
    }
    // `allocated_inodes` ascends, so a binary search answers both
    // "allocated?" and "which inode?"
    let allocated = |ino: u32| allocated_inodes.binary_search(&ino).ok().map(|i| &inodes[i]);

    // pass 2: directory structure; pass 3: connectivity; pass 4: link
    // counts. The findings follow `allocated_inodes` and the directory
    // walk; the sets only answer membership. Pass 4 reuses the listing
    // pass 2 read of each reachable directory.
    let mut link_counts: BTreeMap<u32, u16> = BTreeMap::new();
    let mut reachable: HashSet<u32> = HashSet::new();
    let mut listings: HashMap<u32, Result<Vec<DirEntry>, FsError>> = HashMap::new();
    let mut stack = vec![ROOT_INODE.0];
    let mut visited: BTreeSet<u32> = BTreeSet::new();
    while let Some(dir) = stack.pop() {
        if !visited.insert(dir) {
            continue;
        }
        reachable.insert(dir);
        let entries = match fs.readdir(InodeNo(dir)) {
            Ok(e) => e,
            Err(e @ (FsError::Corrupt(_) | FsError::NotADirectory(_))) => {
                listings.insert(dir, Err(e));
                continue;
            }
            Err(e) => return Err(e),
        };
        for e in &entries {
            *link_counts.entry(e.inode).or_insert(0) += 1;
            if e.name == "." || e.name == ".." {
                continue;
            }
            let child = match allocated(e.inode) {
                Some(child) if e.inode != 0 && e.inode <= sb.inodes_count => child,
                _ => {
                    report.inconsistencies.push(Inconsistency {
                        pass: 2,
                        kind: InconsistencyKind::DanglingDirent {
                            dir,
                            name: e.name.clone(),
                            target: e.inode,
                        },
                    });
                    continue;
                }
            };
            if child.is_dir() {
                stack.push(e.inode);
            } else {
                reachable.insert(e.inode);
            }
        }
        listings.insert(dir, Ok(entries));
    }
    for (&ino, inode) in allocated_inodes.iter().zip(&inodes) {
        if ino <= RESERVED_INODES && ino != ROOT_INODE.0 {
            continue;
        }
        if !reachable.contains(&ino) {
            report.inconsistencies.push(Inconsistency {
                pass: 3,
                kind: InconsistencyKind::UnreachableInode { ino },
            });
            continue;
        }
        let expected: u16 = if inode.is_dir() {
            let entries = match listings.remove(&ino) {
                Some(listing) => listing?,
                None => fs.readdir(InodeNo(ino))?,
            };
            // '.' + parent's entry + one '..' per subdirectory
            let subdirs = entries
                .iter()
                .filter(|e| e.name != "." && e.name != "..")
                .filter(|e| match allocated(e.inode) {
                    Some(child) => child.is_dir(),
                    None => fs.read_inode(InodeNo(e.inode)).map(|i| i.is_dir()).unwrap_or(false),
                })
                .count() as u16;
            2 + subdirs
        } else {
            link_counts.get(&ino).copied().unwrap_or(0)
        };
        if inode.links_count != expected && ino != ROOT_INODE.0 {
            report.inconsistencies.push(Inconsistency {
                pass: 4,
                kind: InconsistencyKind::WrongLinkCount { ino, recorded: inode.links_count, actual: expected },
            });
        }
    }

    // pass 5: bitmaps and counters
    let mut actual_free_blocks: u64 = 0;
    let mut actual_free_inodes: u32 = 0;
    for g in 0..l.group_count() {
        let bbm = fs.read_block_bitmap(g)?;
        let free_clusters = bbm.count_clear();
        // metadata clusters must be marked used: hop across clear bits at
        // word granularity instead of probing every cluster
        let overhead = l.group_overhead(g);
        let overhead_clusters = div_ceil(u64::from(overhead), u64::from(l.cluster_ratio)) as u32;
        let mut c = 0u32;
        while let Some(idx) = bbm.find_clear_from(c) {
            if idx >= overhead_clusters {
                break;
            }
            report.inconsistencies.push(Inconsistency {
                pass: 5,
                kind: InconsistencyKind::MetadataBlockFree { group: g, cluster: idx },
            });
            c = idx + 1;
        }
        let actual = free_clusters * l.cluster_ratio;
        let gd = &fs.groups()[g as usize];
        if gd.free_blocks_count != actual {
            report.inconsistencies.push(Inconsistency {
                pass: 5,
                kind: InconsistencyKind::GroupFreeBlocks { group: g, recorded: gd.free_blocks_count, actual },
            });
        }
        actual_free_blocks += u64::from(actual);

        let ibm = fs.read_inode_bitmap(g)?;
        let actual_fi = ibm.count_clear();
        if gd.free_inodes_count != actual_fi {
            report.inconsistencies.push(Inconsistency {
                pass: 5,
                kind: InconsistencyKind::GroupFreeInodes { group: g, recorded: gd.free_inodes_count, actual: actual_fi },
            });
        }
        actual_free_inodes += actual_fi;
    }
    if sb.free_blocks_count != actual_free_blocks {
        report.inconsistencies.push(Inconsistency {
            pass: 5,
            kind: InconsistencyKind::SuperFreeBlocks { recorded: sb.free_blocks_count, actual: actual_free_blocks },
        });
    }
    if sb.free_inodes_count != actual_free_inodes {
        report.inconsistencies.push(Inconsistency {
            pass: 5,
            kind: InconsistencyKind::SuperFreeInodes { recorded: sb.free_inodes_count, actual: actual_free_inodes },
        });
    }

    // backup superblocks
    for g in l.backup_groups() {
        let base = l.group_first_block(g);
        let data = fs.device().read_block_vec(base)?;
        let mut sb_bytes = data;
        if sb_bytes.len() < crate::superblock::SUPERBLOCK_SIZE {
            continue;
        }
        sb_bytes.truncate(crate::superblock::SUPERBLOCK_SIZE);
        match crate::Superblock::from_bytes(&sb_bytes) {
            Ok(backup) => {
                if backup.blocks_count != sb.blocks_count {
                    report.inconsistencies.push(Inconsistency {
                        pass: 5,
                        kind: InconsistencyKind::StaleBackupSuper { group: g, field: "blocks_count".to_string() },
                    });
                } else if backup.features != sb.features {
                    report.inconsistencies.push(Inconsistency {
                        pass: 5,
                        kind: InconsistencyKind::StaleBackupSuper { group: g, field: "features".to_string() },
                    });
                }
            }
            Err(_) => {
                report.inconsistencies.push(Inconsistency {
                    pass: 5,
                    kind: InconsistencyKind::StaleBackupSuper { group: g, field: "magic".to_string() },
                });
            }
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MkfsParams, MountOptions};
    use blockdev::MemDevice;

    fn clean_fs() -> Ext4Fs<MemDevice> {
        let dev = MemDevice::new(1024, 8192 * 2);
        let mut fs = Ext4Fs::format(
            dev,
            &MkfsParams { block_size: Some(1024), ..MkfsParams::default() },
        )
        .unwrap();
        let root = fs.root_inode();
        let f = fs.create_file(root, "file").unwrap();
        fs.write_file(f, 0, b"content").unwrap();
        fs.mkdir(root, "dir").unwrap();
        let dev = fs.unmount().unwrap();
        Ext4Fs::open_for_maintenance(dev).unwrap()
    }

    #[test]
    fn fresh_image_is_clean() {
        let fs = clean_fs();
        let report = check_image(&fs).unwrap();
        assert!(report.is_clean(), "unexpected findings: {:#?}", report.inconsistencies);
        assert_eq!(report.to_string(), "clean");
    }

    #[test]
    fn report_display_lists_findings() {
        let mut fs = clean_fs();
        fs.superblock_mut().free_blocks_count += 100;
        let report = check_image(&fs).unwrap();
        let s = report.to_string();
        assert!(s.contains("1 inconsistencies"));
        assert!(s.contains("pass 5"));
    }

    #[test]
    fn detects_wrong_super_free_blocks() {
        let mut fs = clean_fs();
        fs.superblock_mut().free_blocks_count += 100;
        let report = check_image(&fs).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.of_tag("super_free_blocks").len(), 1);
    }

    #[test]
    fn detects_wrong_group_free_blocks() {
        let mut fs = clean_fs();
        fs.groups_mut()[0].free_blocks_count += 7;
        let report = check_image(&fs).unwrap();
        assert_eq!(report.of_tag("group_free_blocks").len(), 1);
        // superblock total still matches bitmaps, so only the group is flagged
        assert!(report.of_tag("super_free_blocks").is_empty());
    }

    #[test]
    fn detects_metadata_block_freed() {
        let mut fs = clean_fs();
        let mut bbm = fs.read_block_bitmap(0).unwrap();
        bbm.clear(0); // the superblock's own cluster
        fs.write_block_bitmap(0, &bbm).unwrap();
        let report = check_image(&fs).unwrap();
        assert!(!report.of_tag("metadata_block_free").is_empty());
    }

    #[test]
    fn detects_dirty_state() {
        let dev = MemDevice::new(1024, 8192);
        let fs = Ext4Fs::format(
            dev,
            &MkfsParams { block_size: Some(1024), ..MkfsParams::default() },
        )
        .unwrap();
        // crash: no unmount. Mount wrote the dirty flag at format time? No:
        // format flushes a clean sb, then the handle is rw. Simulate a rw
        // mount followed by crash:
        let dev = fs.unmount().unwrap();
        let fs = Ext4Fs::mount(dev, &MountOptions::default()).unwrap();
        let dev = fs.dev_for_test();
        let fs = Ext4Fs::open_for_maintenance(dev).unwrap();
        let report = check_image(&fs).unwrap();
        assert!(!report.of_tag("not_cleanly_unmounted").is_empty());
    }

    #[test]
    fn detects_dangling_dirent() {
        let mut fs = clean_fs();
        // add a dirent pointing at a free inode
        let root = fs.root_inode();
        let victim = fs.create_file(root, "ghost").unwrap();
        // free the inode behind the directory's back
        fs.free_inode(victim, false).unwrap();
        let report = check_image(&fs).unwrap();
        assert!(!report.of_tag("dangling_dirent").is_empty());
    }

    #[test]
    fn detects_unreachable_inode() {
        let mut fs = clean_fs();
        let root = fs.root_inode();
        let f = fs.create_file(root, "orphan-to-be").unwrap();
        fs.write_file(f, 0, b"data").unwrap();
        // remove the dirent without freeing the inode
        let mut inode = fs.read_inode(f).unwrap();
        inode.links_count = 1;
        fs.write_inode(f, &inode).unwrap();
        fs.remove_dirent_for_test(root, "orphan-to-be");
        let report = check_image(&fs).unwrap();
        assert!(!report.of_tag("unreachable_inode").is_empty());
    }

    #[test]
    fn detects_wrong_link_count() {
        let mut fs = clean_fs();
        let root = fs.root_inode();
        let f = fs.create_file(root, "linky").unwrap();
        let mut inode = fs.read_inode(f).unwrap();
        inode.links_count = 5;
        fs.write_inode(f, &inode).unwrap();
        let report = check_image(&fs).unwrap();
        let findings = report.of_tag("wrong_link_count");
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn detects_stale_backup_super() {
        let mut fs = clean_fs();
        // grow the primary's blocks_count without updating backups
        fs.superblock_mut().blocks_count += 8192;
        // (don't refresh layout: keep backup positions)
        let report = check_image(&fs).unwrap();
        assert!(!report.of_tag("stale_backup_super").is_empty());
    }

    #[test]
    fn detects_cross_linked_blocks() {
        let mut fs = clean_fs();
        let root = fs.root_inode();
        let a = fs.create_file(root, "xa").unwrap();
        fs.write_file(a, 0, &[1u8; 1024]).unwrap();
        let ia = fs.read_inode(a).unwrap();
        let shared = fs.file_blocks(&ia).unwrap()[0];
        let b = fs.create_file(root, "xb").unwrap();
        // force file b to claim the same block
        let mut ib = fs.read_inode(b).unwrap();
        fs.set_block_for_test(&mut ib, 0, shared);
        ib.size = 1024;
        fs.write_inode(b, &ib).unwrap();
        let report = check_image(&fs).unwrap();
        assert!(!report.of_tag("cross_linked_block").is_empty());
    }

    /// Creates file `name` whose logical blocks map to `blocks`,
    /// bypassing allocation.
    fn file_at(fs: &mut Ext4Fs<MemDevice>, name: &str, blocks: &[u64]) -> u32 {
        let root = fs.root_inode();
        let ino = fs.create_file(root, name).unwrap();
        let mut inode = fs.read_inode(ino).unwrap();
        for (logical, &b) in blocks.iter().enumerate() {
            fs.set_block_for_test(&mut inode, logical as u32, b);
        }
        inode.size = blocks.len() as u64 * 1024;
        fs.write_inode(ino, &inode).unwrap();
        ino.0
    }

    fn cross_links(report: &CheckReport) -> Vec<(u64, (u32, u32))> {
        report
            .inconsistencies
            .iter()
            .filter_map(|i| match i.kind {
                InconsistencyKind::CrossLinkedBlock { block, inodes } => Some((block, inodes)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn blocks_past_the_device_end_cross_link_in_claim_order() {
        let mut fs = clean_fs();
        let end = fs.device().num_blocks();
        let a = file_at(&mut fs, "past_a", &[end + 5, 1 << 40]);
        let b = file_at(&mut fs, "past_b", &[1 << 40, end, end + 5]);
        let c = file_at(&mut fs, "past_c", &[end]);
        let report = check_image(&fs).unwrap();
        assert_eq!(
            cross_links(&report),
            vec![(1 << 40, (a, b)), (end + 5, (a, b)), (end, (b, c))],
            "{report}"
        );
        assert_eq!(report.inconsistencies.len(), 3, "{report}");
    }

    #[test]
    fn oversized_block_count_checks_without_a_huge_allocation() {
        let mut fs = clean_fs();
        let end = fs.device().num_blocks();
        let shared = {
            let root = fs.root_inode();
            let f = fs.create_file(root, "owner").unwrap();
            fs.write_file(f, 0, &[7u8; 1024]).unwrap();
            fs.file_blocks(&fs.read_inode(f).unwrap()).unwrap()[0]
        };
        let a = fs.lookup(ROOT_INODE, "owner").unwrap().unwrap().inode;
        let b = file_at(&mut fs, "thief", &[shared, end + 1]);
        let c = file_at(&mut fs, "thief2", &[end + 1]);
        // the superblock claims far more blocks than the device holds;
        // the layout (and so the groups checked) keeps the real size
        fs.superblock_mut().blocks_count = 1 << 40;
        assert_eq!(Claims::for_image(&fs).dense.len() as u64, end);
        let report = check_image(&fs).unwrap();
        assert_eq!(cross_links(&report), vec![(shared, (a, b)), (end + 1, (b, c))], "{report}");
        let stale: Vec<_> = report.of_tag("stale_backup_super");
        assert!(!stale.is_empty(), "{report}");
        assert_eq!(report.inconsistencies.len(), 2 + stale.len(), "{report}");
    }
}
