//! Golden digests of what `e2fsck` reports, fixes and leaves behind,
//! and of the writes the file operations issue.
//!
//! `e2fsck` is the oracle behind every crash, fault and ConBugCk
//! verdict. This file runs it on three families of images:
//!
//! * every write-prefix image (`IoTrace::apply_prefix` on
//!   `Workload::pre`) of the built-in crash workloads and of the seed-1
//!   crash corpus, `generated_corpus(1, 4, 48, 4)`, which is the corpus
//!   the `campaign` benchmark explores;
//! * every post-fault image of the fault-injection conformance grid,
//!   under the caps of `tests/campaign_digest.rs`;
//! * every ConBugCk configuration image (seed 42, aware and naive) that
//!   reaches the executor's final forced check.
//!
//! Each distinct image gets a forced `-n`, a forced `-p`, an unforced
//! `-y` (which skips an image it finds clean) and crashsim's repair
//! sequence: a forced `-y`, a second one if errors were left, and a
//! forced `-n` on the result. Each run folds its report, fixes, exit
//! code and `skipped_clean` flag, with the digest of the image after
//! the run (or the error text), into one FNV-1a digest per family.
//! Images live on a `CowDevice`, whose incrementally kept digest equals
//! `digest_device` (checked once per workload).
//!
//! Two counts are pinned with each family. `clean` counts the `-p`/`-y`
//! runs whose first report was clean, so no repair could follow.
//! `no_structural` counts the `-y` runs whose first report held no
//! finding that structural repair acts on.
//!
//! The second half pins the write stream (every `IoEvent`) of the
//! journalled-write and defrag crash workloads, of the seed-1 corpus,
//! and of file writes and a defrag on each block-map flavour.

use confdep_suite::blockdev::{
    digest_device, fnv1a, BlockDevice, CowDevice, FaultPlan, FaultyDevice, IoEvent, IoTrace,
    MemDevice, RecordingDevice, SharedDevice, FNV_OFFSET_BASIS,
};
use confdep_suite::contools::conbugck::{generate_naive, ConBugCk};
use confdep_suite::contools::GeneratedConfig;
use confdep_suite::crashsim::{
    defrag_workload, figure1_resize_workload, format_workload, generated_corpus,
    journaled_write_workload, Workload,
};
use confdep_suite::e2fstools::{E2fsck, E4defrag, FsckMode, Mke2fs, MountCmd};
use confdep_suite::ext4sim::{
    CachePolicy, Ext4Fs, FsError, FsState, InconsistencyKind, InodeNo, MountOptions, ROOT_INODE,
};
use confdep_suite::faultsim::{
    enumerate_schedules, probe_universe, CampaignConfig, CampaignOptions, FaultWorkload,
};

const BUILTIN_PIN: &str = "images=88 runs=429 clean=44 no_structural=118 digest=0x90cac47d3d152fa7";
const CORPUS_PIN: &str =
    "images=1173 runs=5837 clean=40 no_structural=1874 digest=0x630c1ada576e0d4b";
const FAULT_PIN: &str = "images=156 runs=780 clean=234 no_structural=195 digest=0xaac14c8481a1b607";
const CONBUGCK_PIN: &str = "images=47 runs=235 clean=82 no_structural=47 digest=0xf27513d327c9f00d";
const WRITE_STREAM_DIGEST: u64 = 0xbe4c_e4ab_f41d_12db;

/// An independent FNV-1a over text lines.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn line(&mut self, text: &str) {
        for b in text.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The digest of one image family, with its run counts.
struct Pin {
    h: Fnv,
    images: usize,
    runs: usize,
    clean: usize,
    no_structural: usize,
}

impl Pin {
    fn new() -> Self {
        Pin { h: Fnv::new(), images: 0, runs: 0, clean: 0, no_structural: 0 }
    }

    /// Runs `e2fsck` in `mode` on `img` and folds the result; returns
    /// the image after the run and the exit code.
    fn run(
        &mut self,
        label: &str,
        mode: FsckMode,
        force: bool,
        img: CowDevice,
    ) -> Option<(CowDevice, i32)> {
        self.runs += 1;
        let mut tool = E2fsck::with_mode(mode);
        if force {
            tool = tool.forced();
        }
        let tag = format!("{label} {mode:?}{}", if force { " -f" } else { "" });
        match tool.run(img) {
            Ok((dev, res)) => {
                if mode != FsckMode::Check && !res.skipped_clean {
                    if res.report.is_clean() {
                        self.clean += 1;
                    }
                    let structural = res.report.inconsistencies.iter().any(|i| {
                        matches!(
                            i.kind,
                            InconsistencyKind::DanglingDirent { .. }
                                | InconsistencyKind::UnreachableInode { .. }
                                | InconsistencyKind::WrongLinkCount { .. }
                        )
                    });
                    if mode == FsckMode::Fix && !structural {
                        self.no_structural += 1;
                    }
                }
                let image = dev.digest().expect("the image's digest is tracked");
                self.h.line(&format!(
                    "{tag}: exit={} skipped={} report={:?} fixes={:?} image={:016x}{:016x}",
                    res.exit_code,
                    res.skipped_clean,
                    res.report.inconsistencies,
                    res.fixes,
                    image.a,
                    image.b
                ));
                Some((dev, res.exit_code))
            }
            Err(e) => {
                self.h.line(&format!("{tag}: error {e}"));
                None
            }
        }
    }

    /// Every pinned run on one image.
    fn image(&mut self, label: &str, img: &CowDevice) {
        self.images += 1;
        self.run(label, FsckMode::Check, true, img.snapshot());
        self.run(label, FsckMode::Preen, true, img.snapshot());
        self.run(label, FsckMode::Fix, false, img.snapshot());
        // crashsim's repair sequence
        let Some((mut dev, mut exit)) = self.run(label, FsckMode::Fix, true, img.snapshot()) else {
            return;
        };
        if exit == 4 {
            match self.run(label, FsckMode::Fix, true, dev) {
                Some(pair) => (dev, exit) = pair,
                None => return,
            }
        }
        if exit != 4 {
            self.run(label, FsckMode::Check, true, dev);
        }
    }

    fn summary(&self) -> String {
        format!(
            "images={} runs={} clean={} no_structural={} digest={:#018x}",
            self.images, self.runs, self.clean, self.no_structural, self.h.0
        )
    }
}

/// A copy-on-write copy of `dev` whose tracked digest is checked
/// against a full rescan.
fn cow_of(dev: &MemDevice) -> CowDevice {
    let cow = CowDevice::from_device(dev).expect("in-memory image reads");
    assert_eq!(cow.digest(), digest_device(dev).ok(), "tracked digest differs from a rescan");
    cow
}

/// Pins every distinct write-prefix image of each workload.
fn pin_prefixes(workloads: &[Workload]) -> String {
    let mut pin = Pin::new();
    for w in workloads {
        let mut seen = std::collections::HashSet::new();
        let mut rolling = cow_of(&w.pre);
        let mut prefix = 0usize;
        let writes = w.trace.events().iter().filter_map(|e| match e {
            IoEvent::Write { block, data, .. } => Some((*block, data)),
            IoEvent::Flush => None,
        });
        for next in writes.map(Some).chain(std::iter::once(None)) {
            if seen.insert(rolling.digest().expect("tracked")) {
                pin.image(&format!("{} prefix {prefix}", w.name), &rolling);
            }
            let Some((block, data)) = next else { break };
            rolling.write_block(block, data).expect("trace write applies");
            prefix += 1;
        }
        // the rolling image equals apply_prefix of the whole trace
        let mut full = w.pre.clone();
        w.trace.apply_prefix(&mut full, prefix).expect("trace applies");
        assert_eq!(rolling.digest(), digest_device(&full).ok(), "{}: prefix replay", w.name);
    }
    pin.summary()
}

#[test]
fn fsck_results_on_builtin_crash_prefixes_are_pinned() {
    let files = vec![("alpha".to_string(), vec![1u8; 700]), ("beta".to_string(), vec![2u8; 300])];
    let workloads = vec![
        format_workload().expect("format workload"),
        figure1_resize_workload().expect("figure 1 workload"),
        journaled_write_workload(&files).expect("journalled workload"),
        defrag_workload().expect("defrag workload"),
    ];
    assert_eq!(pin_prefixes(&workloads), BUILTIN_PIN);
}

#[test]
fn fsck_results_on_corpus_prefixes_are_pinned() {
    let corpus = generated_corpus(1, 4, 48, 4).expect("seed-1 corpus");
    assert_eq!(pin_prefixes(&corpus), CORPUS_PIN);
}

/// The fault caps of `tests/campaign_digest.rs`.
fn fault_caps() -> CampaignOptions {
    CampaignOptions {
        threads: 1,
        write_points: 3,
        read_points: 2,
        flush_points: 1,
        corrupt_points: 1,
        verdict_cache: true,
    }
}

/// Runs `workload` under one fault on `medium`, as the fault sweep
/// does: mount, the operation, the degraded-mount probes, unmount.
fn faulted_run(workload: &FaultWorkload, medium: SharedDevice<CowDevice>, plan: FaultPlan) {
    let cfg = &workload.config;
    let faulty = FaultyDevice::new(medium, plan);
    let Ok(mut fs) = Ext4Fs::mount_with_policy(faulty, &cfg.mount_options(), cfg.cache_policy())
    else {
        return;
    };
    let _ = workload.run_op(&mut fs);
    if fs.is_degraded() {
        let _ = fs.create_file(ROOT_INODE, "probe_w");
        for (name, _) in &workload.durable_files {
            if let Ok(Some(entry)) = fs.lookup(ROOT_INODE, name) {
                let _ = fs.read_file_to_vec(InodeNo(entry.inode));
            }
        }
    }
    let _ = fs.unmount();
}

#[test]
fn fsck_results_on_fault_recoveries_are_pinned() {
    let mut pin = Pin::new();
    for config in CampaignConfig::full_grid() {
        let workload = FaultWorkload::standard(config);
        let setup = workload.setup().expect("fault workload sets up");
        let universe = probe_universe(&workload, &setup).expect("probe pass runs");
        let base = cow_of(&setup);
        for spec in enumerate_schedules(&universe, &fault_caps()) {
            let medium = SharedDevice::new(base.snapshot());
            faulted_run(&workload, medium.clone(), FaultPlan::new().with(spec.to_fault()));
            let image = medium.try_into_inner().expect("the run kept no device handle");
            pin.image(&format!("{} {spec:?}", workload.name), &image);
        }
    }
    assert_eq!(pin.summary(), FAULT_PIN);
}

/// The ConBugCk executor up to its final check: the image it checks,
/// or `None` when the configuration stops earlier.
fn conbugck_image(config: &GeneratedConfig) -> Option<CowDevice> {
    let mut argv: Vec<&str> = config.mkfs_args.iter().map(String::as_str).collect();
    argv.extend(["/dev/conbugck", "12288"]);
    let mkfs = Mke2fs::from_args(&argv).ok()?.with_cache_policy(CachePolicy::WriteBack);
    let bs: u32 = config
        .mkfs_args
        .iter()
        .position(|a| a == "-b")
        .and_then(|i| config.mkfs_args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024);
    let (dev, _) = mkfs.run(CowDevice::new(bs.clamp(1024, 65536), 16384)).ok()?;
    let mut fs = MountCmd::from_option_string(&config.mount_opts).ok()?.run(dev).ok()?;
    if fs.state() != FsState::MountedRo {
        let root = fs.root_inode();
        let ok = (|| -> Result<(), FsError> {
            let d = fs.mkdir(root, "work")?;
            let f = fs.create_file(d, "data.bin")?;
            fs.write_file(f, 0, &[0xC3; 4096])?;
            let g = fs.create_file(root, "tiny")?;
            fs.write_file(g, 0, b"x")?;
            fs.unlink(root, "tiny")?;
            fs.read_file_to_vec(f).map(drop)
        })();
        ok.ok()?;
    }
    fs.unmount().ok()
}

#[test]
fn fsck_results_on_conbugck_images_are_pinned() {
    let aware = ConBugCk::new(42).expect("models compile").generate(40);
    let naive = generate_naive(42, 40);
    let mut pin = Pin::new();
    for (label, configs) in [("aware", &aware), ("naive", &naive)] {
        for (i, config) in configs.iter().enumerate() {
            if let Some(image) = conbugck_image(config) {
                pin.image(&format!("{label} #{i} {config:?}"), &image);
            }
        }
    }
    assert_eq!(pin.summary(), CONBUGCK_PIN);
}

// ---------------------------------------------------------------------
// write streams
// ---------------------------------------------------------------------

fn fold_trace(h: &mut u64, name: &str, trace: &IoTrace) {
    *h = fnv1a(*h, name.as_bytes());
    for event in trace.events() {
        match event {
            IoEvent::Write { block, data, .. } => {
                *h = fnv1a(*h, b"W");
                *h = fnv1a(*h, &block.to_le_bytes());
                *h = fnv1a(*h, data);
            }
            IoEvent::Flush => *h = fnv1a(*h, b"F"),
        }
    }
}

/// Multi-block writes (unaligned, past a hole, over the legacy map's
/// direct blocks), a partial overwrite, and a defrag of two interleaved
/// files, recorded on a fresh `mke2fs` image with `args`.
fn file_ops_trace(args: &[&str]) -> IoTrace {
    let mut argv = args.to_vec();
    argv.extend(["/dev/pin", "12288"]);
    let (pre, _) = Mke2fs::from_args(&argv)
        .expect("pinned arguments parse")
        .run(MemDevice::new(1024, 16384))
        .expect("formats");
    let mut fs =
        Ext4Fs::mount(RecordingDevice::new(pre), &MountOptions::default()).expect("mounts");
    let root = fs.root_inode();
    let big = fs.create_file(root, "big").expect("creates");
    let body: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    fs.write_file(big, 3000, &body).expect("writes");
    fs.write_file(big, 9000, &[0x5A; 2500]).expect("overwrites");
    fs.write_file(big, 40_000, &[0x33; 1500]).expect("writes past a hole");
    let small = fs.create_file(root, "small").expect("creates");
    fs.write_file(small, 0, b"inline-sized").expect("writes");
    fs.write_file(small, 0, &[0x77; 3000]).expect("grows");
    let a = fs.create_file(root, "frag_a").expect("creates");
    let b = fs.create_file(root, "frag_b").expect("creates");
    for i in 0..6u64 {
        fs.write_file(a, i * 1024, &[0xAA; 1024]).expect("writes");
        fs.write_file(b, i * 1024, &[0xBB; 1024]).expect("writes");
    }
    let _ = E4defrag::new().run(&mut fs);
    fs.unmount().expect("unmounts").into_parts().1
}

#[test]
fn write_streams_are_pinned() {
    let mut h = FNV_OFFSET_BASIS;
    let files = vec![
        ("alpha".to_string(), vec![1u8; 700]),
        ("beta".to_string(), vec![2u8; 300]),
        ("gamma".to_string(), (0..9000u32).map(|i| (i % 13) as u8).collect()),
    ];
    let journaled = journaled_write_workload(&files).expect("journalled workload");
    fold_trace(&mut h, &journaled.name, &journaled.trace);
    let defrag = defrag_workload().expect("defrag workload");
    fold_trace(&mut h, &defrag.name, &defrag.trace);
    for w in generated_corpus(1, 4, 48, 4).expect("seed-1 corpus") {
        fold_trace(&mut h, &w.name, &w.trace);
    }
    for args in [&[][..], &["-O", "^extent"], &["-O", "bigalloc"], &["-O", "inline_data"]] {
        fold_trace(&mut h, &format!("{args:?}"), &file_ops_trace(args));
    }
    assert_eq!(h, WRITE_STREAM_DIGEST, "write-stream digest moved: got {h:#018x}");
}
