//! The F2FS side of the checkers: executor and mutation for the fuzz
//! [`Harness`], plus the ConHandleCk violation cases of the second
//! ecosystem.
//!
//! Everything here plugs into the same ecosystem-agnostic machinery the
//! ext4 substrate uses — the campaign loop, the coverage tracker, the
//! verdict store, and the violation-outcome taxonomy are all shared;
//! only the `fn` pointers differ.

use blockdev::MemDevice;
use confdep::solve::{SolvedConfig, Solver, SolverScope};
use e2fstools::typed::TypedValue;
use f2fstools::{F2fsError, F2fsMount, FsckF2fs, MkfsF2fs};
use rand::rngs::StdRng;
use rand::Rng;

use crate::conbugck::{GeneratedConfig, RunDepth};
use crate::fuzz::{to_generated, Harness};

/// The F2FS fuzz harness: same campaign loop, second substrate. The
/// store context is distinct from the ext4 campaigns' so persisted
/// verdicts can never leak across ecosystems.
pub fn harness() -> Harness {
    Harness {
        name: "f2fs",
        store_context: "conbugck/fuzz/f2fs/v2",
        scope: f2fs_scope,
        execute: execute_f2fs,
        cheap_parent: cheap_parent_f2fs,
        mutate: mutate_f2fs,
    }
}

fn f2fs_scope() -> SolverScope {
    ecosys::f2fs().solver_scope()
}

/// Executes one f2fs configuration end to end: format, mount, a small
/// workload, unmount, final `fsck.f2fs` — classifying how deep the
/// configuration drove the ecosystem, exactly like the ext4 executor.
///
/// `mkfs_args` must carry its own device operand (the f2fs solver
/// scope renders a fixed `/dev/sim`), unlike the ext4 executor which
/// appends one.
pub fn execute_f2fs(config: &GeneratedConfig) -> RunDepth {
    let argv: Vec<&str> = config.mkfs_args.iter().map(String::as_str).collect();
    let mkfs = match MkfsF2fs::from_args(&argv) {
        Ok(m) => m,
        Err(_) => return RunDepth::RejectedCli,
    };
    // 32 MiB @ 4 KiB blocks: sixteen 2 MiB segments, 65536 512 B sectors
    let dev = MemDevice::new(4096, 8192);
    let dev = match mkfs.run(dev) {
        Ok((dev, _)) => dev,
        Err(_) => return RunDepth::RejectedFormat,
    };
    let mount = match F2fsMount::from_option_string(&config.mount_opts) {
        Ok(m) => m,
        Err(_) => return RunDepth::RejectedCli,
    };
    let mut fs = match mount.run(dev) {
        Ok(fs) => fs,
        Err(_) => return RunDepth::RejectedMount,
    };
    if !fs.readonly() {
        let ok = (|| -> Result<(), F2fsError> {
            fs.mkdir("/work")?;
            fs.create("/work/data.bin")?;
            fs.write("/work/data.bin", &[0xC3; 4096])?;
            fs.create("/tiny")?;
            fs.write("/tiny", b"x")?;
            fs.unlink("/tiny")?;
            if fs.read("/work/data.bin")?.len() != 4096 {
                return Err(F2fsError::NotFound("short read".to_string()));
            }
            Ok(())
        })();
        if ok.is_err() {
            return RunDepth::RejectedMount;
        }
    }
    let dev = match fs.unmount() {
        Ok(d) => d,
        Err(_) => return RunDepth::RejectedMount,
    };
    let fsck = FsckF2fs::from_args(&["-f", "/dev/sim"]).expect("fixed fsck invocation parses");
    match fsck.run(dev) {
        Ok(_) => RunDepth::Deep,
        Err(_) => RunDepth::RejectedMount,
    }
}

/// The f2fs simulator's superblock is a fixed-size record, so no pool
/// value makes a single run meaningfully more expensive than another —
/// every verdict-carrying config may breed.
fn cheap_parent_f2fs(_cfg: &GeneratedConfig) -> bool {
    true
}

fn pick_int(solver: &Solver<'_>, rng: &mut StdRng, component: &str, param: &str) -> Option<i64> {
    let pool = solver.int_pool(component, param);
    if pool.is_empty() {
        return None;
    }
    Some(pool[rng.gen_range(0..pool.len())])
}

/// Mutates one corpus member through the f2fs solver scope's value
/// pools: geometry integers, `-O` feature toggles, mount enums and
/// integers, and the boolean mount surface.
fn mutate_f2fs(solver: &Solver<'_>, rng: &mut StdRng, parent: &GeneratedConfig) -> GeneratedConfig {
    let [mkfs, mount] = parent.views(solver.scope());
    let mut solved = SolvedConfig { mkfs, mount };
    let ops = 1 + rng.gen_range(0..2);
    for _ in 0..ops {
        match rng.gen_range(0..6) {
            0 => {
                if let Some(v) = pick_int(solver, rng, "mkfs_f2fs", "overprovision") {
                    solved.mkfs.set_int("overprovision", v);
                }
            }
            1 => {
                if let Some(v) = pick_int(solver, rng, "mkfs_f2fs", "segs_per_sec") {
                    solved.mkfs.set_int("segs_per_sec", v);
                }
            }
            2 => {
                let features = solver.feature_pool("mkfs_f2fs");
                if !features.is_empty() {
                    let f = &features[rng.gen_range(0..features.len())];
                    let flipped = match solved.mkfs.get(f) {
                        Some(TypedValue::Bool(b)) => !*b,
                        _ => true,
                    };
                    solved.mkfs.set_bool(f, flipped);
                }
            }
            3 => {
                if let Some(v) = pick_int(solver, rng, "f2fs", "active_logs") {
                    solved.mount.set_int("active_logs", v);
                }
            }
            4 => {
                let param = match rng.gen_range(0..3) {
                    0 => "background_gc",
                    1 => "mode",
                    _ => "errors",
                };
                let members = solver.enum_pool("f2fs", param);
                if !members.is_empty() {
                    let v = &members[rng.gen_range(0..members.len())];
                    solved.mount.set_str(param, v);
                }
            }
            _ => {
                const MOUNT_BOOLS: [&str; 5] =
                    ["discard", "lazytime", "barrier", "acl", "user_xattr"];
                let name = MOUNT_BOOLS[rng.gen_range(0..MOUNT_BOOLS.len())];
                let flipped = match solved.mount.get(name) {
                    Some(TypedValue::Bool(b)) => !*b,
                    _ => true,
                };
                solved.mount.set_bool(name, flipped);
            }
        }
    }
    to_generated(solver, &solved).unwrap_or_else(|| parent.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{fuzz_campaign_with, FuzzOptions};
    use confdep::ConstraintSet;

    fn cfg(mkfs: &[&str], mount: &str) -> GeneratedConfig {
        GeneratedConfig {
            mkfs_args: mkfs.iter().map(|s| s.to_string()).collect(),
            mount_opts: mount.to_string(),
        }
    }

    #[test]
    fn executor_classifies_all_four_depths() {
        // CLI: overprovision beyond the manual's 0..=50 domain
        assert_eq!(execute_f2fs(&cfg(&["-o", "51", "/dev/sim"], "")), RunDepth::RejectedCli);
        // format: compression without extra_attr
        assert_eq!(
            execute_f2fs(&cfg(&["-O", "compression", "/dev/sim"], "")),
            RunDepth::RejectedFormat
        );
        // mount: discard against a -t 0 image
        assert_eq!(
            execute_f2fs(&cfg(&["-t", "0", "/dev/sim"], "discard")),
            RunDepth::RejectedMount
        );
        // deep: defaults
        assert_eq!(execute_f2fs(&cfg(&["/dev/sim"], "")), RunDepth::Deep);
    }

    #[test]
    fn read_only_mounts_skip_the_workload_but_reach_deep() {
        assert_eq!(execute_f2fs(&cfg(&["/dev/sim"], "ro")), RunDepth::Deep);
    }

    #[test]
    fn f2fs_campaign_reaches_full_polarity_coverage() {
        let eco = ecosys::f2fs();
        let set = eco.constraints().unwrap();
        let outcome = fuzz_campaign_with(
            &set,
            &FuzzOptions { rounds: 2, batch: 16, ..FuzzOptions::default() },
            &Harness::f2fs(),
        );
        let r = &outcome.report;
        assert_eq!(r.coverage_covered, r.coverage_universe, "uncovered f2fs targets remain");
        assert!(r.coverage_universe >= 30, "universe {}", r.coverage_universe);
        assert!(r.deep > 0, "no f2fs config reached deep code");
    }

    #[test]
    fn f2fs_campaigns_are_deterministic_in_the_seed() {
        let set: ConstraintSet = ecosys::f2fs().constraints().unwrap();
        let opts = FuzzOptions { rounds: 2, batch: 12, ..FuzzOptions::default() };
        let a = fuzz_campaign_with(&set, &opts, &Harness::f2fs());
        let b = fuzz_campaign_with(&set, &opts, &Harness::f2fs());
        assert_eq!(a.verdicts, b.verdicts);
        assert!(a.report.same_verdicts(&b.report));
    }

    #[test]
    fn harness_state_identity_tracks_the_f2fs_views() {
        let h = Harness::f2fs();
        // argument order and spelling collapse to one state
        let a = cfg(&["-s", "2", "-o", "10", "/dev/sim"], "ro,discard");
        let b = cfg(&["-o", "10", "-s", "2", "/dev/sim"], "discard,ro");
        assert_eq!(h.state_key(&a), h.state_key(&b));
        assert_eq!(h.state_id(&a), h.state_id(&b));
        // and the ext4 harness types the same bytes differently — the
        // two ecosystems can never share a state identity
        let ext4 = Harness::ext4();
        assert_ne!(ext4.state_key(&a), h.state_key(&a));
    }
}
