//! Golden digests of what `mke2fs` writes and leaves behind.
//!
//! crashsim builds its crash states from the writes `mke2fs` issues
//! (`format_workload` records them), so the order and bytes of every
//! format write are part of the crash campaign's input. Each case below
//! formats one configuration on a `RecordingDevice` and folds into one
//! FNV-1a digest:
//!
//! * the ordered event log: every write's block index and bytes, and
//!   every flush barrier;
//! * the finished image's `journal_region()`;
//! * the `check_image` report of the finished image.
//!
//! A format that fails folds the log up to the error and the error
//! text instead. Every case runs under both metadata-cache policies,
//! which issue different write streams for the same final image.
//!
//! The file also checks that `journal_region` agrees with a
//! logical-block-by-block `file_block` walk of the journal inode, and
//! pins the cross-link findings of an image whose files claim journal
//! blocks.

use confdep_suite::blockdev::{
    fnv1a, IoEvent, MemDevice, RecordingDevice, SharedDevice, FNV_OFFSET_BASIS,
};
use confdep_suite::e2fstools::Mke2fs;
use confdep_suite::ext4sim::{
    check_image, CachePolicy, Ext4Fs, ExtentRoot, ExtentTree, InconsistencyKind, InodeNo,
    JOURNAL_INODE,
};

/// Blocks in the formatted file system (the ConBugCk executor's size).
const FS_BLOCKS: &str = "12288";

/// One pinned configuration: its extra `mke2fs` arguments and the
/// digests under write-back and write-through.
struct Case {
    label: &'static str,
    args: &'static [&'static str],
    write_back: u64,
    write_through: u64,
}

const CASES: &[Case] = &[
    Case {
        label: "default",
        args: &[],
        write_back: 0x29c5_7ffa_b5a8_014f,
        write_through: 0x5893_bf9f_1121_6d58,
    },
    Case {
        label: "journal-2048",
        args: &["-J", "size=2048"],
        write_back: 0xca68_de65_ddc9_27f3,
        write_through: 0xcca7_910f_2c34_5ce4,
    },
    Case {
        label: "journal-too-big",
        args: &["-J", "size=204928"],
        write_back: 0x5534_b37d_6357_7bb9,
        write_through: 0xa9ce_774e_1f92_0899,
    },
    Case {
        label: "legacy-map",
        args: &["-O", "^extent"],
        write_back: 0x9762_e767_a106_d995,
        write_through: 0x0c28_4e35_d2dc_572f,
    },
    Case {
        label: "bigalloc",
        args: &["-O", "bigalloc"],
        write_back: 0xa2ad_76db_5228_5b86,
        write_through: 0x229b_b074_5384_31af,
    },
    Case {
        label: "spilled-journal",
        args: &["-g", "256", "-J", "size=1024"],
        write_back: 0xf2d0_18e1_eb8f_9c70,
        write_through: 0x2c6e_7cf7_60c6_135c,
    },
];

fn mkfs(args: &[&str], policy: CachePolicy) -> Mke2fs {
    let mut argv = args.to_vec();
    argv.extend(["/dev/pin", FS_BLOCKS]);
    Mke2fs::from_args(&argv).expect("pinned arguments parse").with_cache_policy(policy)
}

/// Formats `args` on a recording device. Returns the event log, and the
/// finished image or the format error.
fn format_logged(args: &[&str], policy: CachePolicy) -> (Vec<IoEvent>, Result<MemDevice, String>) {
    let shared = SharedDevice::new(RecordingDevice::new(MemDevice::new(1024, 16384)));
    // the error path drops the device inside `run`; the second handle
    // keeps the log written up to the error
    let outcome = mkfs(args, policy).run(shared.clone()).map(drop).map_err(|e| e.to_string());
    let (dev, trace) = shared.try_into_inner().expect("mke2fs kept no handle").into_parts();
    (trace.events().to_vec(), outcome.map(|()| dev))
}

fn digest(args: &[&str], policy: CachePolicy) -> (u64, Option<Ext4Fs<MemDevice>>) {
    let (events, outcome) = format_logged(args, policy);
    let mut h = FNV_OFFSET_BASIS;
    for event in &events {
        match event {
            IoEvent::Write { block, data, .. } => {
                h = fnv1a(h, b"W");
                h = fnv1a(h, &block.to_le_bytes());
                h = fnv1a(h, data);
            }
            IoEvent::Flush => h = fnv1a(h, b"F"),
        }
    }
    match outcome {
        Err(e) => (fnv1a(fnv1a(h, b"E"), e.as_bytes()), None),
        Ok(dev) => {
            let fs = Ext4Fs::open_for_maintenance(dev).expect("formatted image opens");
            let region = fs.journal_region().expect("journal map reads");
            h = fnv1a(h, b"J");
            for b in region.iter().flatten() {
                h = fnv1a(h, &b.to_le_bytes());
            }
            let report = check_image(&fs).expect("image checks");
            h = fnv1a(fnv1a(h, b"C"), format!("{report:?}").as_bytes());
            (h, Some(fs))
        }
    }
}

#[test]
fn mke2fs_write_logs_are_pinned() {
    let mut mismatches = Vec::new();
    for case in CASES {
        for (policy, want) in [
            (CachePolicy::WriteBack, case.write_back),
            (CachePolicy::WriteThrough, case.write_through),
        ] {
            let (got, _) = digest(case.args, policy);
            if got != want {
                mismatches.push(format!(
                    "{} {policy:?}: got {got:#018x}, pinned {want:#018x}",
                    case.label
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "write-log digests moved:\n{}", mismatches.join("\n"));
}

#[test]
fn pinned_matrix_covers_each_journal_map() {
    let journal_root = |args: &[&str]| {
        let (_, fs) = digest(args, CachePolicy::WriteBack);
        let fs = fs.expect("formats");
        let jino = fs.read_inode(InodeNo(JOURNAL_INODE)).unwrap();
        (jino.uses_extents(), ExtentTree::decode_inline(&jino.block_area))
    };
    let (extents, root) = journal_root(&["-g", "256", "-J", "size=1024"]);
    assert!(extents);
    assert!(matches!(root, Ok(ExtentRoot::Spilled { .. })), "journal tree did not spill: {root:?}");
    let (extents, root) = journal_root(&[]);
    assert!(extents);
    assert!(matches!(root, Ok(ExtentRoot::Inline(_))), "default journal tree spilled: {root:?}");
    let (extents, _) = journal_root(&["-O", "^extent"]);
    assert!(!extents, "legacy case kept the extent map");
    let (events, outcome) = format_logged(&["-J", "size=204928"], CachePolicy::WriteBack);
    assert!(outcome.is_err(), "oversized journal formatted");
    assert!(!events.is_empty(), "oversized journal failed before writing");
}

/// The journal's blocks found one logical block at a time.
fn walk_file_blocks(fs: &Ext4Fs<MemDevice>) -> Option<Vec<u64>> {
    let jino = fs.read_inode(InodeNo(JOURNAL_INODE)).unwrap();
    let bs = u64::from(fs.layout().block_size);
    let mut blocks = Vec::new();
    for logical in 0..jino.size.div_ceil(bs) as u32 {
        match fs.file_block(&jino, logical).unwrap() {
            Some(b) => blocks.push(b),
            None => break,
        }
    }
    (blocks.len() >= 4).then_some(blocks)
}

#[test]
fn journal_region_matches_the_per_block_walk() {
    for args in
        [&[][..], &["-g", "256", "-J", "size=1024"], &["-O", "^extent"], &["-O", "bigalloc"]]
    {
        for policy in [CachePolicy::WriteBack, CachePolicy::WriteThrough] {
            let (_, fs) = digest(args, policy);
            let fs = fs.expect("formats");
            let region = fs.journal_region().unwrap();
            assert!(region.as_ref().is_some_and(|r| r.len() > 12), "{args:?}: short journal");
            assert_eq!(region, walk_file_blocks(&fs), "{args:?} {policy:?}");
        }
    }
}

/// Points `ino`'s block map at `blocks`, in logical order.
fn remap(fs: &mut Ext4Fs<MemDevice>, ino: InodeNo, blocks: &[u64]) {
    let mut inode = fs.read_inode(ino).unwrap();
    let mut tree = ExtentTree::new();
    for (logical, &b) in blocks.iter().enumerate() {
        tree.append(logical as u32, b).unwrap();
    }
    assert!(tree.encode_inline(&mut inode.block_area).is_none(), "map fits inline");
    inode.size = blocks.len() as u64 * u64::from(fs.layout().block_size);
    fs.write_inode(ino, &inode).unwrap();
}

#[test]
fn journal_cross_links_report_in_claim_order() {
    let (_, fs) = digest(&[], CachePolicy::WriteBack);
    let dev = fs.expect("formats").unmount().unwrap();
    let mut fs = Ext4Fs::open_for_maintenance(dev).unwrap();
    let j = fs.journal_region().unwrap().expect("journal present");
    let root = fs.root_inode();
    let a = fs.create_file(root, "a").unwrap();
    fs.write_file(a, 0, &[0xA1; 1024]).unwrap();
    let a_block = fs.file_blocks(&fs.read_inode(a).unwrap()).unwrap()[0];
    let b = fs.create_file(root, "b").unwrap();
    remap(&mut fs, a, &[j[7], j[8], j[9]]);
    remap(&mut fs, b, &[j[2], a_block, j[8]]);
    let c = fs.create_file(root, "c").unwrap();
    remap(&mut fs, c, &[j[9], a_block, j[2]]);

    let found: Vec<(u64, (u32, u32))> = check_image(&fs)
        .unwrap()
        .inconsistencies
        .into_iter()
        .filter_map(|i| match i.kind {
            InconsistencyKind::CrossLinkedBlock { block, inodes } => Some((block, inodes)),
            _ => None,
        })
        .collect();
    let jn = JOURNAL_INODE;
    let expected = vec![
        (j[7], (jn, a.0)),
        (j[8], (jn, a.0)),
        (j[9], (jn, a.0)),
        (j[2], (jn, b.0)),
        (j[8], (jn, b.0)),
        (j[9], (jn, c.0)),
        (a_block, (b.0, c.0)),
        (j[2], (jn, c.0)),
    ];
    assert_eq!(found, expected);
}
