//! File-system substrate benchmark: the buffered metadata cache
//! (`CachePolicy::WriteBack`) raced against the legacy write-through
//! baseline over the ecosystem's hot paths.
//!
//! Four legs, each run under both policies on a `StatsDevice`-wrapped
//! in-memory device:
//!
//! * `mke2fs-format` — a full format, whose journal initialisation used
//!   to pay one bitmap read-modify-write round trip per allocated block;
//! * `journaled-file-cycles` — mount–write–unmount cycles creating,
//!   overwriting and deleting multi-block files (the crashsim
//!   journaled-write workload shape, scaled up);
//! * `e4defrag-online` — online defragmentation of interleaved files;
//! * `conbugck-campaign` — a ConBugCk configuration campaign executed
//!   end to end under each policy (verdict tallies must match; the
//!   devices live inside the executor, so its I/O is not counted).
//!
//! Every leg's final device image must be byte-identical across the two
//! policies — the cache buffers writes, it must never change what ends
//! up on disk. The run **exits nonzero on any divergence** (image or
//! campaign-verdict). Wall times keep the best of `reps` repetitions;
//! the I/O counters are deterministic. Results, with a `host` block
//! (cores, toolchain, revision), go to `BENCH_fsops.json` (`--out PATH`
//! to redirect); `--smoke` shrinks the run for CI gates.

use std::time::Instant;

use blockdev::{digest_device, IoStats, MemDevice, StatsDevice};
use contools::{execute_with_policy, generate_naive, ConBugCk, GeneratedConfig, RunDepth};
use e2fstools::{E4defrag, Mke2fs};
use ext4sim::{CachePolicy, Ext4Fs, MountOptions};
use serde::Serialize;

/// Serializable snapshot of [`IoStats`].
#[derive(Serialize, Clone, Copy, Default)]
struct IoNumbers {
    reads: u64,
    writes: u64,
    flushes: u64,
    bulk_reads: u64,
    bulk_writes: u64,
    vec_allocs: u64,
}

impl From<IoStats> for IoNumbers {
    fn from(s: IoStats) -> IoNumbers {
        IoNumbers {
            reads: s.reads,
            writes: s.writes,
            flushes: s.flushes,
            bulk_reads: s.bulk_reads,
            bulk_writes: s.bulk_writes,
            vec_allocs: s.vec_allocs,
        }
    }
}

/// One policy's measured run of one leg.
#[derive(Serialize)]
struct Arm {
    wall_ms: f64,
    io: IoNumbers,
    /// Content identity of the leg's final device image (or the
    /// campaign's verdict tally for the conbugck leg).
    fingerprint: String,
}

/// One leg's baseline-vs-cached comparison.
#[derive(Serialize)]
struct Leg {
    name: String,
    baseline: Arm,
    cached: Arm,
    wall_speedup: f64,
    /// baseline writes / cached writes (1.0 when neither arm counts
    /// device I/O, as in the campaign leg).
    write_reduction: f64,
    identical: bool,
}

#[derive(Serialize)]
struct Totals {
    baseline_wall_ms: f64,
    cached_wall_ms: f64,
    baseline_writes: u64,
    cached_writes: u64,
    baseline_reads: u64,
    cached_reads: u64,
    wall_speedup: f64,
    write_reduction: f64,
}

#[derive(Serialize)]
struct BenchSummary {
    description: String,
    host: bench::Host,
    smoke: bool,
    reps: usize,
    legs: Vec<Leg>,
    totals: Totals,
    all_identical: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Runs `f` once under `policy`, timing it.
fn timed<F>(policy: CachePolicy, f: F) -> (f64, IoStats, String)
where
    F: Fn(CachePolicy) -> (IoStats, String),
{
    let start = Instant::now();
    let (io, fingerprint) = f(policy);
    (start.elapsed().as_secs_f64() * 1e3, io, fingerprint)
}

fn hex(d: blockdev::ImageDigest) -> String {
    format!("{:016x}{:016x}", d.a, d.b)
}

/// A formatted 1k-block-size image, built write-through so both arms of
/// every leg start from byte-identical state.
fn pre_image(blocks: &str, total_blocks: u64) -> MemDevice {
    let m = Mke2fs::from_args(&["-b", "1024", "/dev/fsops", blocks])
        .unwrap_or_else(|e| die(&format!("mke2fs parse failed: {e}")))
        .with_cache_policy(CachePolicy::WriteThrough);
    m.run(MemDevice::new(1024, total_blocks))
        .unwrap_or_else(|e| die(&format!("pre-image format failed: {e}")))
        .0
}

// ---------------------------------------------------------------------
// legs
// ---------------------------------------------------------------------

fn leg_format(policy: CachePolicy) -> (IoStats, String) {
    let dev = StatsDevice::new(MemDevice::new(1024, 16384));
    let m = Mke2fs::from_args(&["-b", "1024", "/dev/fsops", "12288"])
        .unwrap_or_else(|e| die(&format!("mke2fs parse failed: {e}")))
        .with_cache_policy(policy);
    let (dev, _) = m.run(dev).unwrap_or_else(|e| die(&format!("format failed: {e}")));
    let io = dev.stats();
    let digest = digest_device(dev.inner()).expect("in-range scan");
    (io, hex(digest))
}

fn leg_file_cycles(pre: &MemDevice, cycles: usize, policy: CachePolicy) -> (IoStats, String) {
    let mut dev = StatsDevice::new(pre.clone());
    let payload = vec![0xC7u8; 12 * 1024];
    let scratch_data = vec![0x5Au8; 96 * 1024];
    for cycle in 0..cycles {
        let mut fs = Ext4Fs::mount_with_policy(dev, &MountOptions::default(), policy)
            .unwrap_or_else(|e| die(&format!("mount failed: {e}")));
        let root = fs.root_inode();
        let run = (|| -> Result<(), ext4sim::FsError> {
            let dir = fs.mkdir(root, &format!("cycle{cycle}"))?;
            for j in 0..6 {
                let f = fs.create_file(dir, &format!("data{j}"))?;
                fs.write_file(f, 0, &payload)?;
            }
            // overwrite one file and churn the previous cycle's blocks
            let first = fs.lookup(dir, "data0")?.expect("just created");
            fs.write_file(ext4sim::InodeNo(first.inode), 0, &payload[..6 * 1024])?;
            // allocation/free churn: the write-through baseline pays a
            // bitmap round trip per allocated and per freed block here
            let scratch = fs.create_file(dir, "scratch")?;
            fs.write_file(scratch, 0, &scratch_data)?;
            fs.truncate(scratch)?;
            fs.write_file(scratch, 0, &scratch_data[..48 * 1024])?;
            fs.truncate(scratch)?;
            fs.unlink(dir, "scratch")?;
            if cycle > 0 {
                let prev = fs
                    .lookup(root, &format!("cycle{}", cycle - 1))?
                    .expect("created last cycle");
                let prev = ext4sim::InodeNo(prev.inode);
                for j in 0..3 {
                    let name = format!("data{j}");
                    let f = fs.lookup(prev, &name)?.expect("created last cycle");
                    fs.truncate(ext4sim::InodeNo(f.inode))?;
                    fs.unlink(prev, &name)?;
                }
            }
            Ok(())
        })();
        run.unwrap_or_else(|e| die(&format!("file workload failed: {e}")));
        dev = fs.unmount().unwrap_or_else(|e| die(&format!("unmount failed: {e}")));
    }
    let io = dev.stats();
    let digest = digest_device(dev.inner()).expect("in-range scan");
    (io, hex(digest))
}

fn leg_defrag(pre: &MemDevice, policy: CachePolicy) -> (IoStats, String) {
    let mut dev = StatsDevice::new(pre.clone());
    let mut fs = Ext4Fs::mount_with_policy(dev, &MountOptions::default(), policy)
        .unwrap_or_else(|e| die(&format!("mount failed: {e}")));
    E4defrag::new()
        .run(&mut fs)
        .unwrap_or_else(|e| die(&format!("defrag failed: {e}")));
    dev = fs.unmount().unwrap_or_else(|e| die(&format!("unmount failed: {e}")));
    let io = dev.stats();
    let digest = digest_device(dev.inner()).expect("in-range scan");
    (io, hex(digest))
}

/// Two deliberately interleaved files on a fresh image — the state the
/// defrag leg starts from.
fn fragmented_image() -> MemDevice {
    let dev = pre_image("4096", 4096);
    let mut fs = Ext4Fs::mount_with_policy(dev, &MountOptions::default(), CachePolicy::WriteThrough)
        .unwrap_or_else(|e| die(&format!("mount failed: {e}")));
    let root = fs.root_inode();
    let run = (|| -> Result<(), ext4sim::FsError> {
        let a = fs.create_file(root, "frag_a")?;
        let b = fs.create_file(root, "frag_b")?;
        for i in 0..16u64 {
            fs.write_file(a, i * 1024, &[0xAA; 1024])?;
            fs.write_file(b, i * 1024, &[0xBB; 1024])?;
        }
        Ok(())
    })();
    run.unwrap_or_else(|e| die(&format!("fragmentation setup failed: {e}")));
    fs.unmount().unwrap_or_else(|e| die(&format!("unmount failed: {e}")))
}

fn leg_campaign(configs: &[GeneratedConfig], policy: CachePolicy) -> (IoStats, String) {
    let mut tally = [0usize; 4];
    for c in configs {
        let slot = match execute_with_policy(c, policy) {
            RunDepth::RejectedCli => 0,
            RunDepth::RejectedFormat => 1,
            RunDepth::RejectedMount => 2,
            RunDepth::Deep => 3,
        };
        tally[slot] += 1;
    }
    let fingerprint = format!(
        "cli={} format={} mount={} deep={}",
        tally[0], tally[1], tally[2], tally[3]
    );
    // the executor owns its devices; no counters to report
    (IoStats::default(), fingerprint)
}

// ---------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------

fn ratio(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        if a <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a / b
    }
}

fn compare(name: &str, reps: usize, run: impl Fn(CachePolicy) -> (IoStats, String)) -> Leg {
    eprintln!("benchmarking '{name}'...");
    // interleave the arms so system-load drift hits both equally; keep
    // the best wall time of each (the runs are deterministic, so
    // counters and fingerprints are identical across repetitions)
    let mut baseline: Option<Arm> = None;
    let mut cached: Option<Arm> = None;
    for _ in 0..reps.max(1) {
        let (wall_ms, io, fingerprint) = timed(CachePolicy::WriteThrough, &run);
        if baseline.as_ref().is_none_or(|a| wall_ms < a.wall_ms) {
            baseline = Some(Arm { wall_ms, io: io.into(), fingerprint });
        }
        let (wall_ms, io, fingerprint) = timed(CachePolicy::WriteBack, &run);
        if cached.as_ref().is_none_or(|a| wall_ms < a.wall_ms) {
            cached = Some(Arm { wall_ms, io: io.into(), fingerprint });
        }
    }
    let baseline = baseline.expect("at least one repetition ran");
    let cached = cached.expect("at least one repetition ran");
    let identical = baseline.fingerprint == cached.fingerprint;
    let leg = Leg {
        name: name.to_string(),
        wall_speedup: ratio(baseline.wall_ms, cached.wall_ms.max(f64::EPSILON)),
        write_reduction: ratio(baseline.io.writes as f64, cached.io.writes as f64),
        identical,
        baseline,
        cached,
    };
    eprintln!(
        "  write-through {:.1} ms / {} writes, {} reads | write-back {:.1} ms / {} writes, \
         {} reads | {:.2}x fewer writes, {:.2}x wall | identical: {identical}",
        leg.baseline.wall_ms,
        leg.baseline.io.writes,
        leg.baseline.io.reads,
        leg.cached.wall_ms,
        leg.cached.io.writes,
        leg.cached.io.reads,
        leg.write_reduction,
        leg.wall_speedup,
    );
    leg
}

fn run_bench(smoke: bool, out: &str) {
    // every leg runs on the calling thread
    let host = bench::Host::probe(1);
    // best-of-N: the legs are deterministic, so repetitions only shave
    // scheduler noise — and the smoke gate asserts a wall speedup
    let reps = 5;
    let cycles = if smoke { 2 } else { 6 };
    let campaign_n = if smoke { 10 } else { 40 };

    let files_pre = pre_image("12288", 16384);
    let frag_pre = fragmented_image();
    let mut configs = ConBugCk::new(11)
        .unwrap_or_else(|e| die(&format!("dependency extraction failed: {e}")))
        .generate(campaign_n);
    configs.extend(generate_naive(11, campaign_n));

    let legs = vec![
        compare("mke2fs-format", reps, leg_format),
        compare("journaled-file-cycles", reps, |p| leg_file_cycles(&files_pre, cycles, p)),
        compare("e4defrag-online", reps, |p| leg_defrag(&frag_pre, p)),
        compare("conbugck-campaign", reps, |p| leg_campaign(&configs, p)),
    ];

    let all_identical = legs.iter().all(|l| l.identical);
    let baseline_wall_ms: f64 = legs.iter().map(|l| l.baseline.wall_ms).sum();
    let cached_wall_ms: f64 = legs.iter().map(|l| l.cached.wall_ms).sum();
    let baseline_writes: u64 = legs.iter().map(|l| l.baseline.io.writes).sum();
    let cached_writes: u64 = legs.iter().map(|l| l.cached.io.writes).sum();
    let totals = Totals {
        baseline_wall_ms,
        cached_wall_ms,
        baseline_writes,
        cached_writes,
        baseline_reads: legs.iter().map(|l| l.baseline.io.reads).sum(),
        cached_reads: legs.iter().map(|l| l.cached.io.reads).sum(),
        wall_speedup: ratio(baseline_wall_ms, cached_wall_ms.max(f64::EPSILON)),
        write_reduction: ratio(baseline_writes as f64, cached_writes as f64),
    };
    eprintln!(
        "total: write-through {:.1} ms / {} writes -> write-back {:.1} ms / {} writes \
         ({:.2}x fewer writes, {:.2}x wall)",
        totals.baseline_wall_ms,
        totals.baseline_writes,
        totals.cached_wall_ms,
        totals.cached_writes,
        totals.write_reduction,
        totals.wall_speedup,
    );

    let summary = BenchSummary {
        description: "ext4sim metadata-cache benchmark: write-back buffered bitmaps and \
                      inode-table blocks vs the write-through baseline, over format, journaled \
                      file cycles, online defrag and a ConBugCk campaign"
            .to_string(),
        host,
        smoke,
        reps,
        legs,
        totals,
        all_identical,
    };
    let json = serde_json::to_string_pretty(&summary)
        .unwrap_or_else(|e| die(&format!("serialisation failed: {e}")));
    if let Err(e) = std::fs::write(out, json + "\n") {
        die(&format!("writing {out} failed: {e}"));
    }
    eprintln!("wrote {out}");
    if !all_identical {
        die("ERROR: write-back and write-through disagreed on at least one final image");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = false;
    let mut smoke = false;
    let mut out = "BENCH_fsops.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => bench = true,
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: repro_fsops --bench [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if !bench {
        eprintln!("usage: repro_fsops --bench [--smoke] [--out PATH]");
        std::process::exit(2);
    }
    run_bench(smoke, &out);
}
