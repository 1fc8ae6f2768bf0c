//! `e2fsck` — the offline checker/repairer.
//!
//! Wraps the five-pass consistency check of `ext4sim::check_image` with
//! the real tool's CLI semantics: `-n` (check only), `-p` (preen: fix
//! only safe issues, bail on anything serious), `-y` (fix everything),
//! `-f` (force a check of a clean file system), and `-b`/`-B` (recover
//! from a backup superblock — whose valid locations depend on the
//! `mke2fs` sparse-superblock features, one of the paper's
//! cross-component dependencies).

use blockdev::BlockDevice;
use ext4sim::{
    check_image, state, CheckReport, Ext4Fs, FsError, InconsistencyKind, InodeNo, ROOT_INODE,
};

use crate::cli::{self, CliError};
use crate::manual::{DocConstraint, ManualOption, ManualPage};
use crate::params::{ParamSpec, ParamType, Stage};
use crate::typed::TypedConfig;
use crate::ToolError;

/// Boolean options of the `e2fsck` CLI surface.
const FLAG_OPTS: [&str; 8] = ["p", "n", "y", "f", "c", "d", "t", "v"];
/// Valued options of the `e2fsck` CLI surface.
const VALUE_OPTS: [&str; 6] = ["b", "B", "E", "j", "l", "z"];

/// How invasive the run may be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckMode {
    /// `-n`: open read-only, answer "no" to every fix.
    Check,
    /// `-p`: preen — fix safe problems silently, bail on serious ones.
    Preen,
    /// `-y`: answer "yes" to every fix.
    Fix,
}

/// A parsed `e2fsck` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2fsck {
    mode: FsckMode,
    force: bool,
    backup_superblock: Option<u64>,
    backup_blocksize: Option<u32>,
}

/// Result of an `e2fsck` run. `exit_code` follows the real convention:
/// 0 = clean, 1 = errors corrected, 4 = errors left uncorrected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckResult {
    /// Findings of the initial check (empty when the clean-skip path was
    /// taken).
    pub report: CheckReport,
    /// Human-readable descriptions of each applied fix.
    pub fixes: Vec<String>,
    /// Exit code (0/1/4).
    pub exit_code: i32,
    /// Whether the check was skipped because the image was clean.
    pub skipped_clean: bool,
}

impl E2fsck {
    /// Parses `e2fsck [-p|-n|-y] [-f] [-b superblock] [-B blocksize]
    /// device`.
    ///
    /// # Errors
    ///
    /// Returns [`ToolError::Cli`] for unknown options and for the mutual
    /// exclusions the real tool enforces (`-p`/`-n`/`-y` are pairwise
    /// exclusive; `-B` requires `-b`).
    pub fn from_args(argv: &[&str]) -> Result<Self, ToolError> {
        let parsed = cli::parse(argv, &FLAG_OPTS, &VALUE_OPTS)?;
        if parsed.operands.len() != 1 {
            return Err(CliError::BadOperands("exactly one device is required".to_string()).into());
        }
        // CPDs: -p, -n and -y are pairwise exclusive (real e2fsck: "only
        // one of the options -p/-a, -n or -y may be specified")
        let p = parsed.has_flag("p");
        let n = parsed.has_flag("n");
        let y = parsed.has_flag("y");
        if (p && (n || y)) || (n && y) {
            let (a, b) = if p && n {
                ("-p", "-n")
            } else if p && y {
                ("-p", "-y")
            } else {
                ("-n", "-y")
            };
            return Err(CliError::Conflict { a: a.to_string(), b: b.to_string() }.into());
        }
        let backup_superblock = parsed.int_value("b")?;
        let backup_blocksize = parsed.int_value("B")?.map(|v| v as u32);
        // CPD: -B is only meaningful together with -b
        if backup_blocksize.is_some() && backup_superblock.is_none() {
            return Err(CliError::Conflict { a: "-B".to_string(), b: "(missing -b)".to_string() }.into());
        }
        let mode = if y {
            FsckMode::Fix
        } else if p {
            FsckMode::Preen
        } else {
            FsckMode::Check // -n and the default both only report
        };
        Ok(E2fsck { mode, force: parsed.has_flag("f"), backup_superblock, backup_blocksize })
    }

    /// Parses `argv` and additionally lowers it into a [`TypedConfig`]
    /// validated against [`param_table`].
    ///
    /// Validation is delegated entirely to [`E2fsck::from_args`], so the
    /// error surface is byte-identical to the legacy path.
    ///
    /// # Errors
    ///
    /// Exactly those of [`E2fsck::from_args`].
    pub fn parse_typed(argv: &[&str]) -> Result<(Self, TypedConfig), ToolError> {
        let tool = Self::from_args(argv)?;
        let parsed = cli::parse(argv, &FLAG_OPTS, &VALUE_OPTS).expect("validated by from_args");
        let mut cfg = TypedConfig::new("e2fsck");
        for (flag, name) in [
            ("p", "preen"),
            ("n", "no"),
            ("y", "yes"),
            ("f", "force"),
            ("c", "badblocks"),
            ("d", "debug"),
            ("t", "timing"),
            ("v", "verbose"),
        ] {
            if parsed.has_flag(flag) {
                cfg.set_bool(name, true);
            }
        }
        if let Some(b) = parsed.int_value("b").expect("validated by from_args") {
            cfg.set_int("superblock", b as i64);
        }
        if let Some(bs) = parsed.int_value("B").expect("validated by from_args") {
            cfg.set_int("blocksize", bs as i64);
        }
        if let Some(j) = parsed.value("j") {
            cfg.set_str("external_journal", j);
        }
        if let Some(l) = parsed.value("l") {
            cfg.set_str("badblocks_list", l);
        }
        if let Some(z) = parsed.value("z") {
            cfg.set_str("undo_file", z);
        }
        if let Some(device) = parsed.operands.first() {
            cfg.operands.push(device.clone());
        }
        Ok((tool, cfg))
    }

    /// Builds a typed invocation.
    pub fn with_mode(mode: FsckMode) -> Self {
        E2fsck { mode, force: false, backup_superblock: None, backup_blocksize: None }
    }

    /// Forces a check even when the image is marked clean (`-f`).
    pub fn forced(mut self) -> Self {
        self.force = true;
        self
    }

    /// Recovers using the backup superblock at the given file-system
    /// block (`-b`), with `-B` giving the block size.
    pub fn with_backup_superblock(mut self, block: u64, blocksize: u32) -> Self {
        self.backup_superblock = Some(block);
        self.backup_blocksize = Some(blocksize);
        self
    }

    /// The selected mode.
    pub fn mode(&self) -> FsckMode {
        self.mode
    }

    /// Runs the check (and repairs, per mode) on `dev`.
    ///
    /// # Errors
    ///
    /// Returns [`ToolError::Fs`] when the image cannot be opened at all
    /// (no usable superblock).
    pub fn run<D: BlockDevice>(&self, dev: D) -> Result<(D, FsckResult), ToolError> {
        let mut fs = match self.backup_superblock {
            Some(block) => {
                let bs = u64::from(self.backup_blocksize.unwrap_or(1024));
                Ext4Fs::open_for_maintenance_at(dev, block * bs)?
            }
            None => Ext4Fs::open_for_maintenance(dev)?,
        };

        // like the real tool, recover the journal before checking — but
        // never in -n mode, which must not write to the device
        if self.mode != FsckMode::Check && self.backup_superblock.is_none() {
            if let Ok(Some(region)) = fs.journal_region() {
                let bs = fs.layout().block_size;
                let mut journal = ext4sim::Journal::open(fs.device(), region, bs)?;
                let fixes_from_replay = journal.replay(fs.device_mut())?;
                if fixes_from_replay > 0 {
                    // re-read the recovered metadata (replay wrote to the
                    // device behind the in-memory copies)
                    let dev = fs.into_device_dirty();
                    fs = Ext4Fs::open_for_maintenance(dev)?;
                }
            }
        }

        // the clean-skip path: like the real tool, a clean image is not
        // checked unless -f is given
        if fs.superblock().is_clean() && !self.force && self.backup_superblock.is_none() {
            let dev = fs.unmount()?;
            return Ok((
                dev,
                FsckResult {
                    report: CheckReport::default(),
                    fixes: Vec::new(),
                    exit_code: 0,
                    skipped_clean: true,
                },
            ));
        }

        let report = check_image(&fs)?;
        let mut fixes = Vec::new();
        let mut uncorrected = 0usize;

        match self.mode {
            FsckMode::Check => {
                uncorrected = report.inconsistencies.len();
                // -n must leave the image untouched, including its state
                let dev = fs.into_device_dirty();
                let exit_code = if uncorrected == 0 { 0 } else { 4 };
                return Ok((
                    dev,
                    FsckResult { report, fixes, exit_code, skipped_clean: false },
                ));
            }
            FsckMode::Preen => {
                // preen fixes only "safe" issues: counters and state
                let serious = report.inconsistencies.iter().any(|i| {
                    !matches!(
                        i.kind,
                        InconsistencyKind::SuperFreeBlocks { .. }
                            | InconsistencyKind::GroupFreeBlocks { .. }
                            | InconsistencyKind::SuperFreeInodes { .. }
                            | InconsistencyKind::GroupFreeInodes { .. }
                            | InconsistencyKind::NotCleanlyUnmounted
                            | InconsistencyKind::StaleBackupSuper { .. }
                    )
                });
                if serious {
                    // "UNEXPECTED INCONSISTENCY; RUN fsck MANUALLY"
                    let dev = fs.into_device_dirty();
                    return Ok((
                        dev,
                        FsckResult {
                            report,
                            fixes,
                            exit_code: 4,
                            skipped_clean: false,
                        },
                    ));
                }
                repair_counters_and_state(&mut fs, &report, &mut fixes)?;
            }
            FsckMode::Fix => {
                repair_structure(&mut fs, &report, &mut fixes)?;
                let restructured = !fixes.is_empty();
                repair_counters_and_state(&mut fs, &report, &mut fixes)?;
                // recount after structural repairs (they free/claim
                // space); without one, a recount could only find the
                // counters just fixed
                if restructured {
                    let recount = check_image(&fs)?;
                    repair_counters_and_state(&mut fs, &recount, &mut fixes)?;
                }
            }
        }

        // verify, unless the first check found nothing to repair
        if !report.is_clean() {
            let post = check_image(&fs)?;
            uncorrected += post.inconsistencies.len();
        }
        let exit_code = if uncorrected > 0 {
            4
        } else if fixes.is_empty() {
            0
        } else {
            1
        };
        let dev = fs.unmount()?;
        Ok((dev, FsckResult { report, fixes, exit_code, skipped_clean: false }))
    }
}

/// The block numbers a recovery tool should try with `-b`: the first
/// block of every backup-bearing group. Which groups those are depends
/// on the `mke2fs` sparse-superblock features (`sparse_super` puts them
/// in groups 1 and powers of 3/5/7; `sparse_super2` in exactly the two
/// recorded groups) — the cross-component dependency behind the real
/// tool's "try 8193, 16385, 32769..." hint.
pub fn backup_superblock_candidates(layout: &ext4sim::Layout) -> Vec<u64> {
    layout.backup_groups().iter().map(|&g| layout.group_first_block(g)).collect()
}

fn repair_counters_and_state<D: BlockDevice>(
    fs: &mut Ext4Fs<D>,
    report: &CheckReport,
    fixes: &mut Vec<String>,
) -> Result<(), FsError> {
    for inc in &report.inconsistencies {
        match &inc.kind {
            InconsistencyKind::GroupFreeBlocks { group, actual, recorded } => {
                fs.groups_mut()[*group as usize].free_blocks_count = *actual;
                fixes.push(format!(
                    "group {group}: free blocks count {recorded} -> {actual}"
                ));
            }
            InconsistencyKind::SuperFreeBlocks { actual, recorded } => {
                fs.superblock_mut().free_blocks_count = *actual;
                fixes.push(format!("free blocks count {recorded} -> {actual}"));
            }
            InconsistencyKind::GroupFreeInodes { group, actual, recorded } => {
                fs.groups_mut()[*group as usize].free_inodes_count = *actual;
                fixes.push(format!(
                    "group {group}: free inodes count {recorded} -> {actual}"
                ));
            }
            InconsistencyKind::SuperFreeInodes { actual, recorded } => {
                fs.superblock_mut().free_inodes_count = *actual;
                fixes.push(format!("free inodes count {recorded} -> {actual}"));
            }
            InconsistencyKind::NotCleanlyUnmounted => {
                fs.superblock_mut().state |= state::VALID_FS;
                fixes.push("marked file system clean".to_string());
            }
            InconsistencyKind::ErrorFlagSet => {
                fs.superblock_mut().state &= !state::ERROR_FS;
                fixes.push("cleared error flag".to_string());
            }
            InconsistencyKind::StaleBackupSuper { group, field } => {
                // flush_metadata below rewrites every backup
                fixes.push(format!("refreshed backup superblock in group {group} ({field})"));
            }
            _ => {}
        }
    }
    fs.flush_metadata()?;
    Ok(())
}

fn repair_structure<D: BlockDevice>(
    fs: &mut Ext4Fs<D>,
    report: &CheckReport,
    fixes: &mut Vec<String>,
) -> Result<(), FsError> {
    for inc in &report.inconsistencies {
        match &inc.kind {
            InconsistencyKind::DanglingDirent { dir, name, target } => {
                fs.remove_entry_only(InodeNo(*dir), name)?;
                fixes.push(format!(
                    "cleared dangling entry '{name}' (inode {target}) in directory {dir}"
                ));
            }
            InconsistencyKind::UnreachableInode { ino } => {
                // reconnect into lost+found, like the real tool
                let lf = match fs.lookup(ROOT_INODE, "lost+found")? {
                    Some(e) => InodeNo(e.inode),
                    None => fs.mkdir(ROOT_INODE, "lost+found")?,
                };
                let name = format!("#{ino}");
                let mut inode = fs.read_inode(InodeNo(*ino))?;
                // link() bumps the count; normalise to 0 first so the
                // reconnected file ends at exactly one link
                inode.links_count = 0;
                fs.write_inode(InodeNo(*ino), &inode)?;
                fs.link(lf, &name, InodeNo(*ino))?;
                fixes.push(format!("reconnected inode {ino} as lost+found/{name}"));
            }
            InconsistencyKind::WrongLinkCount { ino, actual, recorded } => {
                let mut inode = fs.read_inode(InodeNo(*ino))?;
                inode.links_count = *actual;
                fs.write_inode(InodeNo(*ino), &inode)?;
                fixes.push(format!("inode {ino}: link count {recorded} -> {actual}"));
            }
            _ => {}
        }
    }
    Ok(())
}

/// The `e2fsck` parameter table — 36 parameters.
pub fn param_table() -> Vec<ParamSpec> {
    let c = "e2fsck";
    let b = || ParamType::Bool;
    vec![
        ParamSpec::new(c, "device", ParamType::Str, Stage::Offline, "the device to check"),
        ParamSpec::new(c, "preen", b(), Stage::Offline, "-p: automatic safe repair"),
        ParamSpec::new(c, "no", b(), Stage::Offline, "-n: answer no to all questions"),
        ParamSpec::new(c, "yes", b(), Stage::Offline, "-y: answer yes to all questions"),
        ParamSpec::new(c, "force", b(), Stage::Offline, "-f: check even if clean"),
        ParamSpec::new(c, "superblock", ParamType::Size, Stage::Offline, "-b: use backup superblock (location depends on mke2fs sparse features)"),
        ParamSpec::new(c, "blocksize", ParamType::Size, Stage::Offline, "-B: block size for -b"),
        ParamSpec::new(c, "badblocks", b(), Stage::Offline, "-c: run badblocks"),
        ParamSpec::new(c, "completion", b(), Stage::Offline, "-C: progress fd"),
        ParamSpec::new(c, "debug", b(), Stage::Offline, "-d: debugging output"),
        ParamSpec::new(c, "optimize_dirs", b(), Stage::Offline, "-D: optimize directories"),
        ParamSpec::new(c, "ea_ver", ParamType::Int { min: 1, max: 2 }, Stage::Offline, "-E ea_ver=: xattr version"),
        ParamSpec::new(c, "journal_only", b(), Stage::Offline, "-E journal_only: replay journal only"),
        ParamSpec::new(c, "fixes_only", b(), Stage::Offline, "-E fixes_only: no optimisations"),
        ParamSpec::new(c, "unshare_blocks", b(), Stage::Offline, "-E unshare_blocks: unshare shared blocks"),
        ParamSpec::new(c, "discard", b(), Stage::Offline, "-E discard: discard free blocks"),
        ParamSpec::new(c, "nodiscard", b(), Stage::Offline, "-E nodiscard"),
        ParamSpec::new(c, "external_journal", ParamType::Str, Stage::Offline, "-j: external journal device"),
        ParamSpec::new(c, "keep_badblocks", b(), Stage::Offline, "-k: keep existing bad blocks"),
        ParamSpec::new(c, "badblocks_list", ParamType::Str, Stage::Offline, "-l: add bad blocks from file"),
        ParamSpec::new(c, "badblocks_set", ParamType::Str, Stage::Offline, "-L: set bad blocks from file"),
        ParamSpec::new(c, "interactive_repair", b(), Stage::Offline, "-r: interactive repair (legacy)"),
        ParamSpec::new(c, "timing", b(), Stage::Offline, "-t: timing statistics"),
        ParamSpec::new(c, "verbose", b(), Stage::Offline, "-v: verbose"),
        ParamSpec::new(c, "version", b(), Stage::Offline, "-V: version"),
        ParamSpec::new(c, "undo_file", ParamType::Str, Stage::Offline, "-z: undo file"),
        ParamSpec::new(c, "exit_on_error", b(), Stage::Offline, "-a: alias for -p"),
        ParamSpec::new(c, "progress_fd", ParamType::Int { min: 0, max: 1024 }, Stage::Offline, "-C fd"),
        ParamSpec::new(c, "broken_system_clock", b(), Stage::Offline, "-E broken_system_clock"),
        ParamSpec::new(c, "bmap2extent", b(), Stage::Offline, "-E bmap2extent: convert block-mapped files"),
        ParamSpec::new(c, "inode_count_fullmap", b(), Stage::Offline, "-E inode_count_fullmap"),
        ParamSpec::new(c, "readahead_kb", ParamType::Size, Stage::Offline, "-E readahead_kb="),
        ParamSpec::new(c, "check_blocks", b(), Stage::Offline, "-cc: non-destructive write test"),
        ParamSpec::new(c, "force_rewrite", b(), Stage::Offline, "-S: rewrite superblock"),
        ParamSpec::new(c, "threads", ParamType::Int { min: 1, max: 64 }, Stage::Offline, "-m: multiple threads"),
        ParamSpec::new(c, "no_mmap", b(), Stage::Offline, "-E no_mmap"),
    ]
}

/// The structured `e2fsck(8)` manual page. Documents the `-p`/`-n`/`-y`
/// exclusions but — like the real page at the time of the paper — not the
/// `-B`-requires-`-b` dependency, and it states nothing about where valid
/// `-b` values come from (the sparse-superblock CCD).
pub fn manual() -> ManualPage {
    ManualPage {
        component: "e2fsck".to_string(),
        synopsis: "e2fsck [-pnyf] [-b superblock] [-B blocksize] device".to_string(),
        description: "e2fsck is used to check the ext2/ext3/ext4 family of file systems."
            .to_string(),
        options: vec![
            ManualOption::flag("-p", "Automatically repair (preen) the file system without any questions.")
                .with(DocConstraint::Conflicts { param: "preen".into(), other: "no".into() })
                .with(DocConstraint::Conflicts { param: "preen".into(), other: "yes".into() }),
            ManualOption::flag("-n", "Open the filesystem read-only, and assume an answer of 'no' to all questions.")
                .with(DocConstraint::Conflicts { param: "no".into(), other: "yes".into() }),
            ManualOption::flag("-y", "Assume an answer of 'yes' to all questions."),
            ManualOption::flag("-f", "Force checking even if the file system seems clean."),
            ManualOption::valued("-b", "superblock", "Instead of using the normal superblock, use an alternative superblock specified by superblock.")
                .with(DocConstraint::DataType { param: "superblock".into(), ty: "integer".into() }),
            // GAP(paper): valid -b locations depend on the mke2fs
            // sparse_super/sparse_super2 features — not documented.
            ManualOption::valued("-B", "blocksize", "Normally, e2fsck will search for the superblock at various different block sizes. This option forces a specific blocksize."),
            // GAP(paper): -B requires -b — not documented.
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mke2fs::Mke2fs;
    use crate::resize2fs::Resize2fs;
    use blockdev::MemDevice;
    use ext4sim::MountOptions;

    fn clean_image() -> MemDevice {
        let m = Mke2fs::from_args(&["-b", "1024", "/dev/x", "12288"]).unwrap();
        m.run(MemDevice::new(1024, 16384)).unwrap().0
    }

    fn figure1_corrupted_image() -> MemDevice {
        let m = Mke2fs::from_args(&[
            "-b", "1024", "-O", "sparse_super2,^sparse_super,^resize_inode", "/dev/x", "12288",
        ])
        .unwrap();
        let (dev, _) = m.run(MemDevice::new(1024, 16384)).unwrap();
        Resize2fs::to_size(16384).run(dev).unwrap().0
    }

    #[test]
    fn backup_candidates_follow_the_sparse_features() {
        // sparse_super on a 2-group image: group 1 -> block 8193, the
        // location the real tool's error hint suggests first
        let fs = Ext4Fs::open_for_maintenance(clean_image()).unwrap();
        assert_eq!(backup_superblock_candidates(fs.layout()), vec![8193]);
        // sparse_super2 records its two groups explicitly
        let fs = Ext4Fs::open_for_maintenance(figure1_corrupted_image()).unwrap();
        let candidates = backup_superblock_candidates(fs.layout());
        assert!(candidates.contains(&8193), "group 1 backup expected in {candidates:?}");
    }

    #[test]
    fn parse_modes_and_conflicts() {
        assert_eq!(E2fsck::from_args(&["-y", "/dev/x"]).unwrap().mode(), FsckMode::Fix);
        assert_eq!(E2fsck::from_args(&["-p", "/dev/x"]).unwrap().mode(), FsckMode::Preen);
        assert_eq!(E2fsck::from_args(&["-n", "/dev/x"]).unwrap().mode(), FsckMode::Check);
        for combo in [["-p", "-y"], ["-p", "-n"], ["-n", "-y"]] {
            let argv = [combo[0], combo[1], "/dev/x"];
            assert!(
                matches!(E2fsck::from_args(&argv), Err(ToolError::Cli(CliError::Conflict { .. }))),
                "{combo:?} must conflict"
            );
        }
    }

    #[test]
    fn big_b_requires_small_b() {
        assert!(E2fsck::from_args(&["-B", "1024", "/dev/x"]).is_err());
        assert!(E2fsck::from_args(&["-b", "8193", "-B", "1024", "/dev/x"]).is_ok());
    }

    #[test]
    fn clean_image_skipped_without_force() {
        let (_, res) = E2fsck::with_mode(FsckMode::Fix).run(clean_image()).unwrap();
        assert!(res.skipped_clean);
        assert_eq!(res.exit_code, 0);
    }

    #[test]
    fn forced_check_of_clean_image_finds_nothing() {
        let (_, res) = E2fsck::with_mode(FsckMode::Fix).forced().run(clean_image()).unwrap();
        assert!(!res.skipped_clean);
        assert_eq!(res.exit_code, 0);
        assert!(res.report.is_clean());
    }

    #[test]
    fn detects_figure1_corruption_with_n() {
        let (_, res) = E2fsck::with_mode(FsckMode::Check).forced().run(figure1_corrupted_image()).unwrap();
        assert_eq!(res.exit_code, 4);
        assert!(!res.report.is_clean());
    }

    #[test]
    fn preen_fixes_figure1_counters() {
        let (dev, res) = E2fsck::with_mode(FsckMode::Preen).forced().run(figure1_corrupted_image()).unwrap();
        assert_eq!(res.exit_code, 1, "fixes applied: {:?}", res.fixes);
        assert!(!res.fixes.is_empty());
        // second run: clean
        let (_, res2) = E2fsck::with_mode(FsckMode::Preen).forced().run(dev).unwrap();
        assert_eq!(res2.exit_code, 0);
    }

    #[test]
    fn fix_mode_repairs_structural_damage() {
        // orphan an inode
        let dev = clean_image();
        let mut fs = Ext4Fs::open_for_maintenance(dev).unwrap();
        let root = fs.root_inode();
        let f = fs.create_file(root, "soon-orphan").unwrap();
        fs.write_file(f, 0, b"orphan data").unwrap();
        fs.remove_entry_only(root, "soon-orphan").unwrap();
        let dev = fs.unmount().unwrap();

        let (dev, res) = E2fsck::with_mode(FsckMode::Fix).forced().run(dev).unwrap();
        assert_eq!(res.exit_code, 1, "fixes: {:?}", res.fixes);
        assert!(res.fixes.iter().any(|f| f.contains("reconnected")));
        // the orphan now lives in lost+found
        let fs = Ext4Fs::mount(dev, &MountOptions::read_only()).unwrap();
        let lf = fs.lookup(ROOT_INODE, "lost+found").unwrap().unwrap();
        let entries = fs.readdir(InodeNo(lf.inode)).unwrap();
        assert!(entries.iter().any(|e| e.name.starts_with('#')));
    }

    #[test]
    fn fix_mode_recounts_after_structural_repair() {
        // an orphan with no lost+found, and a stale free-block count:
        // reconnecting the orphan allocates lost+found's block after
        // the count was taken, so only a recount gets it right
        let mut fs = Ext4Fs::open_for_maintenance(clean_image()).unwrap();
        let root = fs.root_inode();
        fs.rmdir(root, "lost+found").unwrap();
        let f = fs.create_file(root, "soon-orphan").unwrap();
        fs.write_file(f, 0, b"orphan data").unwrap();
        fs.remove_entry_only(root, "soon-orphan").unwrap();
        fs.superblock_mut().free_blocks_count += 3;
        let dev = fs.unmount().unwrap();

        let (dev, res) = E2fsck::with_mode(FsckMode::Fix).forced().run(dev).unwrap();
        assert_eq!(res.exit_code, 1, "fixes: {:?}", res.fixes);
        let counts: Vec<_> = res.fixes.iter().filter(|f| f.starts_with("free blocks")).collect();
        assert_eq!(counts.len(), 2, "the recount's fix is missing: {:?}", res.fixes);
        let (_, verify) = E2fsck::with_mode(FsckMode::Check).forced().run(dev).unwrap();
        assert_eq!(verify.exit_code, 0, "{}", verify.report);
    }

    #[test]
    fn preen_bails_on_serious_damage() {
        let dev = clean_image();
        let mut fs = Ext4Fs::open_for_maintenance(dev).unwrap();
        let root = fs.root_inode();
        let f = fs.create_file(root, "soon-orphan").unwrap();
        fs.remove_entry_only(root, "soon-orphan").unwrap();
        let _ = f;
        let dev = fs.unmount().unwrap();
        let (_, res) = E2fsck::with_mode(FsckMode::Preen).forced().run(dev).unwrap();
        assert_eq!(res.exit_code, 4);
        assert!(res.fixes.is_empty());
    }

    #[test]
    fn n_mode_leaves_image_untouched() {
        let img = figure1_corrupted_image();
        let before = img.clone();
        let (after, _) = E2fsck::with_mode(FsckMode::Check).forced().run(img).unwrap();
        // compare every populated block
        for b in 0..before.num_blocks() {
            let mut x = vec![0u8; 1024];
            let mut y = vec![0u8; 1024];
            before.read_block(b, &mut x).unwrap();
            after.read_block(b, &mut y).unwrap();
            assert_eq!(x, y, "block {b} modified by -n run");
        }
    }

    #[test]
    fn backup_superblock_recovery() {
        // corrupt the primary superblock, then recover with -b
        let mut dev = clean_image();
        for off in 0..32 {
            dev.corrupt_byte(1, off, 0xFF).unwrap(); // block 1 = primary sb (1k blocks)
        }
        assert!(Ext4Fs::open_for_maintenance(dev.clone()).is_err());
        // backups for sparse_super with 2 groups: group 1 at block 8193
        let ck = E2fsck::with_mode(FsckMode::Fix).with_backup_superblock(8193, 1024);
        let (dev, res) = ck.run(dev).unwrap();
        assert!(res.exit_code <= 1);
        // primary restored
        let fs = Ext4Fs::open_for_maintenance(dev).unwrap();
        assert_eq!(fs.superblock().blocks_count, 12288);
    }

    #[test]
    fn dirty_flag_cleared_by_fix() {
        let fs = Ext4Fs::mount(clean_image(), &MountOptions::default()).unwrap();
        let dev = fs.into_device_dirty(); // crash while mounted rw
        let (dev, res) = E2fsck::with_mode(FsckMode::Fix).run(dev).unwrap();
        assert_eq!(res.exit_code, 1);
        assert!(res.fixes.iter().any(|f| f.contains("clean")));
        // now mountable rw again
        Ext4Fs::mount(dev, &MountOptions::default()).unwrap();
    }

    #[test]
    fn param_table_size() {
        assert_eq!(param_table().len(), 36);
    }
}
