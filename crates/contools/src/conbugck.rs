//! ConBugCk: dependency-aware configuration generation (§4.2).
//!
//! Existing FS test suites exercise few configuration states (Table 2),
//! and naive random configurations mostly die on shallow validation
//! errors before reaching deep code. ConBugCk "manipulates
//! configurations without violating dependencies", so the driven test
//! gets past the shallow checks and exercises the target code under many
//! distinct configuration states. The ablation benchmark compares the
//! *deep-run* rate of dependency-aware generation against naive random
//! generation.

use blockdev::MemDevice;
use confdep::solve::SolverScope;
use confdep::{extract_scenario, models, ConstraintSet, ExtractOptions};
use e2fstools::{E2fsck, FsckMode, Mke2fs, MountCmd, TypedConfig};
use ext4sim::CachePolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::fuzz::Harness;

/// One generated configuration: a `mke2fs` invocation plus mount
/// options.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratedConfig {
    /// `mke2fs` arguments (without the device operand).
    pub mkfs_args: Vec<String>,
    /// `mount -o` option string.
    pub mount_opts: String,
}

impl GeneratedConfig {
    /// The typed views of the two invocation halves under `scope`'s
    /// lenient parsers — the whole-configuration state in the
    /// ecosystem's shared value model, and the views
    /// `ConfigQuery::from_cli_for` builds for the same lines.
    pub fn views(&self, scope: &SolverScope) -> [TypedConfig; 2] {
        [(scope.parse_create)(&self.mkfs_args), (scope.parse_mount)(&self.mount_opts)]
    }
}

/// How deep a configuration drove the ecosystem before something
/// stopped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RunDepth {
    /// Rejected by utility-level (CLI) validation.
    RejectedCli,
    /// Rejected by kernel-level validation at format time.
    RejectedFormat,
    /// Image created but the mount was rejected.
    RejectedMount,
    /// Mounted and the workload ran to completion with a clean final
    /// check — the deep-code target state.
    Deep,
}

/// Aggregate results of a generation campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigCampaign {
    /// Total configurations tallied (including memoized duplicates).
    pub total: usize,
    /// Runs per depth: CLI-rejected, format-rejected, mount-rejected,
    /// deep.
    pub rejected_cli: usize,
    /// Rejected at format (kernel-level).
    pub rejected_format: usize,
    /// Rejected at mount.
    pub rejected_mount: usize,
    /// Reached deep code.
    pub deep: usize,
    /// Distinct configuration states actually executed; duplicates are
    /// tallied from the memoized result without re-running.
    #[serde(default)]
    pub executed: usize,
}

impl ConfigCampaign {
    /// Fraction of runs that reached deep code.
    pub fn deep_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.deep as f64 / self.total as f64
        }
    }
}

/// The dependency-aware configuration generator.
#[derive(Debug)]
pub struct ConBugCk {
    constraints: ConstraintSet,
    rng: StdRng,
}

const FEATURES: [&str; 8] = [
    "meta_bg", "resize_inode", "bigalloc", "extent", "inline_data", "sparse_super2",
    "has_journal", "metadata_csum",
];

const BLOCK_SIZES: [u64; 6] = [512, 1024, 2048, 3000, 4096, 131072]; // includes invalid ones
const RESERVED: [u64; 4] = [0, 5, 50, 80]; // 80 is invalid
const MOUNT_SETS: [&str; 6] = ["", "ro", "dax", "data=journal", "data=writeback", "dax,data=journal"];

impl ConBugCk {
    /// Builds the generator: extracts the ecosystem's dependencies and
    /// seeds the RNG.
    ///
    /// # Errors
    ///
    /// Returns [`confdep::ConfdepError`] if the models fail to compile.
    pub fn new(seed: u64) -> Result<Self, confdep::ConfdepError> {
        let deps = extract_scenario(&models::all(), ExtractOptions::default())?;
        Ok(ConBugCk { constraints: ConstraintSet::compile(deps), rng: StdRng::seed_from_u64(seed) })
    }

    /// The compiled constraints steering generation.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Generates one configuration that respects the extracted
    /// dependencies.
    pub fn generate_one(&mut self) -> GeneratedConfig {
        // block size: respect the extracted range and the power-of-two
        // rule encoded as the data type
        let (min_bs, max_bs) =
            self.constraints.int_range("mke2fs", "blocksize").unwrap_or((1024, 65536));
        let bs = loop {
            let candidate = BLOCK_SIZES[self.rng.gen_range(0..BLOCK_SIZES.len())];
            if (candidate as i64) >= min_bs && (candidate as i64) <= max_bs
                && candidate.is_power_of_two()
            {
                break candidate;
            }
        };
        // reserved percent within range
        let (_, max_m) =
            self.constraints.int_range("mke2fs", "reserved_percent").unwrap_or((0, 50));
        let m = loop {
            let candidate = RESERVED[self.rng.gen_range(0..RESERVED.len())];
            if (candidate as i64) <= max_m {
                break candidate;
            }
        };
        // features: random subset, repaired against control dependencies
        let mut enabled: Vec<&str> =
            FEATURES.iter().copied().filter(|_| self.rng.gen_bool(0.4)).collect();
        // always keep a consistent base
        if !enabled.contains(&"extent") {
            enabled.push("extent");
        }
        // repair conflicts: drop the later feature of each conflicting pair
        let mut repaired: Vec<&str> = Vec::new();
        for f in &enabled {
            if repaired.iter().any(|g| self.constraints.conflicting(f, g)) {
                continue;
            }
            repaired.push(f);
        }
        // repair requires: bigalloc requires extent (already kept);
        // sparse_super2 conflicts with sparse_super (disable it)
        let mut tokens: Vec<String> = repaired.iter().map(|s| s.to_string()).collect();
        if repaired.contains(&"sparse_super2") {
            tokens.push("^sparse_super".to_string());
            // the repaired set may not carry resize_inode alongside
            // bigalloc/meta_bg conflicts; sparse_super2 itself is fine
        }
        if repaired.contains(&"meta_bg") || repaired.contains(&"bigalloc") {
            tokens.push("^resize_inode".to_string());
        }
        // mount options: respect the CCDs (dax needs 4k blocks and no
        // inline_data; data=journal needs has_journal)
        let mut mount_opts = MOUNT_SETS[self.rng.gen_range(0..MOUNT_SETS.len())].to_string();
        if mount_opts.contains("dax")
            && (bs != 4096 || repaired.contains(&"inline_data") || mount_opts.contains("data=journal"))
        {
            mount_opts = String::new();
        }
        if mount_opts.contains("data=journal") && !repaired.contains(&"has_journal") {
            mount_opts = "data=writeback".to_string();
        }
        let mut args =
            vec!["-b".to_string(), bs.to_string(), "-m".to_string(), m.to_string()];
        if !tokens.is_empty() {
            args.push("-O".to_string());
            args.push(tokens.join(","));
        }
        GeneratedConfig { mkfs_args: args, mount_opts }
    }

    /// Generates `n` dependency-respecting configurations.
    pub fn generate(&mut self, n: usize) -> Vec<GeneratedConfig> {
        (0..n).map(|_| self.generate_one()).collect()
    }
}

/// Naive random generation (the baseline): samples the same space with
/// no knowledge of the dependencies.
pub fn generate_naive(seed: u64, n: usize) -> Vec<GeneratedConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let bs = BLOCK_SIZES[rng.gen_range(0..BLOCK_SIZES.len())];
            let m = RESERVED[rng.gen_range(0..RESERVED.len())];
            let tokens: Vec<String> = FEATURES
                .iter()
                .filter(|_| rng.gen_bool(0.4))
                .map(|s| s.to_string())
                .collect();
            let mut args =
                vec!["-b".to_string(), bs.to_string(), "-m".to_string(), m.to_string()];
            if !tokens.is_empty() {
                args.push("-O".to_string());
                args.push(tokens.join(","));
            }
            GeneratedConfig {
                mkfs_args: args,
                mount_opts: MOUNT_SETS[rng.gen_range(0..MOUNT_SETS.len())].to_string(),
            }
        })
        .collect()
}

/// Executes one configuration end to end: format, mount, a small
/// workload, unmount, final check.
pub fn execute(config: &GeneratedConfig) -> RunDepth {
    execute_with_policy(config, CachePolicy::WriteBack)
}

/// Like [`execute`], but pins the ext4sim metadata-cache policy for the
/// format and mount stages (the fs-ops benchmark races write-back
/// against the write-through baseline; the two must classify every
/// configuration identically).
pub fn execute_with_policy(config: &GeneratedConfig, policy: CachePolicy) -> RunDepth {
    let mut argv: Vec<&str> = config.mkfs_args.iter().map(String::as_str).collect();
    argv.push("/dev/conbugck");
    argv.push("12288");
    let mkfs = match Mke2fs::from_args(&argv) {
        Ok(m) => m.with_cache_policy(policy),
        Err(_) => return RunDepth::RejectedCli,
    };
    // pick a device block size compatible with the fs block size
    let bs: u32 = config
        .mkfs_args
        .iter()
        .position(|a| a == "-b")
        .and_then(|i| config.mkfs_args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024);
    let dev = MemDevice::new(bs.clamp(1024, 65536), 16384);
    let dev = match mkfs.run(dev) {
        Ok((dev, _)) => dev,
        Err(_) => return RunDepth::RejectedFormat,
    };
    let mount = match MountCmd::from_option_string(&config.mount_opts) {
        Ok(m) => m,
        Err(_) => return RunDepth::RejectedCli,
    };
    let mut fs = match mount.run(dev) {
        Ok(fs) => fs,
        Err(_) => return RunDepth::RejectedMount,
    };
    // read-only mounts are already (and stay) write-through
    if policy == CachePolicy::WriteThrough && fs.set_cache_policy(policy).is_err() {
        return RunDepth::RejectedMount;
    }
    // deep workload: exercise file + directory paths
    if !fs.state().eq(&ext4sim::FsState::MountedRo) {
        let root = fs.root_inode();
        let ok = (|| -> Result<(), ext4sim::FsError> {
            let d = fs.mkdir(root, "work")?;
            let f = fs.create_file(d, "data.bin")?;
            fs.write_file(f, 0, &[0xC3; 4096])?;
            let g = fs.create_file(root, "tiny")?;
            fs.write_file(g, 0, b"x")?;
            fs.unlink(root, "tiny")?;
            let back = fs.read_file_to_vec(f)?;
            if back.len() != 4096 {
                return Err(ext4sim::FsError::Corrupt("short read".to_string()));
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
    match E2fsck::with_mode(FsckMode::Check).forced().run(dev) {
        Ok((_, res)) if res.exit_code == 0 => RunDepth::Deep,
        _ => RunDepth::RejectedMount,
    }
}

/// Coverage statistics of a configuration set: how many distinct
/// parameters and whole configuration states it exercises (the Table 2
/// axis ConBugCk exists to widen).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageStats {
    /// Distinct (component, parameter) pairs exercised.
    pub distinct_params: usize,
    /// Distinct whole configuration states.
    pub distinct_states: usize,
}

/// Measures the coverage of a configuration set. Parameters and states
/// are counted on the [`TypedConfig`] views, and states by the
/// [`Harness::ext4`] state key the campaigns dedup by.
pub fn coverage(configs: &[GeneratedConfig]) -> CoverageStats {
    use std::collections::BTreeSet;
    let harness = Harness::ext4();
    let scope = (harness.scope)();
    let mut params: BTreeSet<(String, String)> = BTreeSet::new();
    let mut states: BTreeSet<Box<[u8]>> = BTreeSet::new();
    for c in configs {
        states.insert(harness.state_key(c));
        for cfg in c.views(&scope) {
            for name in cfg.values.into_keys() {
                params.insert((cfg.component.clone(), name));
            }
        }
    }
    CoverageStats { distinct_params: params.len(), distinct_states: states.len() }
}

fn tally(depths: impl IntoIterator<Item = RunDepth>) -> ConfigCampaign {
    let mut c = ConfigCampaign::default();
    for depth in depths {
        c.total += 1;
        match depth {
            RunDepth::RejectedCli => c.rejected_cli += 1,
            RunDepth::RejectedFormat => c.rejected_format += 1,
            RunDepth::RejectedMount => c.rejected_mount += 1,
            RunDepth::Deep => c.deep += 1,
        }
    }
    c
}

/// Runs a campaign over a set of configurations on `threads` workers
/// (see [`conpool::effective_threads`]). Configurations of one state
/// (same [`Harness::ext4`] state key) execute once, on the campaign
/// driver [`conpool::map_unique`]; every duplicate is tallied from its
/// first occurrence's result. Each run owns its device, so the tally
/// does not depend on the thread count.
pub fn campaign(configs: &[GeneratedConfig], threads: usize) -> ConfigCampaign {
    let harness = Harness::ext4();
    let (depths, slots) = conpool::map_unique(
        configs.iter().collect(),
        threads,
        |cfg| Some(harness.state_key(cfg)),
        execute,
    );
    let mut c = tally(slots.into_iter().map(|i| depths[i]));
    c.executed = depths.len();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn aware_generation_beats_naive() {
        let mut gen = ConBugCk::new(42).unwrap();
        let aware = campaign(&gen.generate(40), 1);
        let naive = campaign(&generate_naive(42, 40), 1);
        assert!(
            aware.deep_rate() > naive.deep_rate(),
            "aware {:.2} vs naive {:.2}",
            aware.deep_rate(),
            naive.deep_rate()
        );
        // dependency-aware runs should overwhelmingly reach deep code
        // (the vendored rand's seeded stream lands exactly on 36/40)
        assert!(aware.deep_rate() >= 0.9, "aware deep rate {:.2}", aware.deep_rate());
        // naive random dies on shallow validation most of the time
        assert!(naive.deep_rate() < 0.6, "naive deep rate {:.2}", naive.deep_rate());
    }

    #[test]
    fn parallel_campaign_matches_sequential() {
        let mut gen = ConBugCk::new(11).unwrap();
        let configs = gen.generate(24);
        let seq = campaign(&configs, 1);
        let par = campaign(&configs, 4);
        assert_eq!(seq, par);
        assert_eq!(par.total, 24);
    }

    #[test]
    fn duplicate_configs_are_memoized_not_rerun() {
        let mut gen = ConBugCk::new(5).unwrap();
        let mut configs = gen.generate(6);
        // triple the list: every config now appears three times
        let uniques = coverage(&configs).distinct_states;
        configs.extend(configs.clone());
        configs.extend(configs[..6].to_vec());
        let seq = campaign(&configs, 1);
        assert_eq!(seq.total, 18);
        assert_eq!(seq.executed, uniques);
        assert!(seq.executed < seq.total);
        // duplicates land in the same depth buckets as their original
        assert_eq!(
            seq.rejected_cli + seq.rejected_format + seq.rejected_mount + seq.deep,
            seq.total
        );
        let par = campaign(&configs, 4);
        assert_eq!(par, seq);
        // the fingerprints the fuzz campaigns dedup by partition the
        // runs exactly like the state keys this campaign dedups by
        let h = Harness::ext4();
        let ids: std::collections::HashSet<u64> = configs.iter().map(|c| h.state_id(c)).collect();
        let keys: std::collections::HashSet<Box<[u8]>> =
            configs.iter().map(|c| h.state_key(c)).collect();
        assert_eq!(ids.len(), keys.len(), "state_id collision changed campaign totals");
        assert_eq!(ids.len(), uniques);
    }

    #[test]
    fn state_id_fingerprints_state_key() {
        let h = Harness::ext4();
        let mut gen = ConBugCk::new(11).unwrap();
        let configs = gen.generate(64);
        let mut by_key: HashMap<Box<[u8]>, u64> = HashMap::new();
        for cfg in &configs {
            let key = h.state_key(cfg);
            let id = h.state_id(cfg);
            assert_eq!(id, blockdev::fnv1a(blockdev::FNV_OFFSET_BASIS, &key));
            // equal keys hash equal; distinct keys stay distinct
            if let Some(&prev) = by_key.get(&key) {
                assert_eq!(prev, id, "same state key, different state id");
            }
            by_key.insert(key, id);
        }
        let distinct_ids: std::collections::HashSet<u64> = by_key.values().copied().collect();
        assert_eq!(distinct_ids.len(), by_key.len(), "state_id collision");
        // argument order does not change the fingerprint
        let a = GeneratedConfig {
            mkfs_args: vec!["-m".into(), "5".into(), "-b".into(), "4096".into()],
            mount_opts: "data=ordered,ro".into(),
        };
        let b = GeneratedConfig {
            mkfs_args: vec!["-b".into(), "4096".into(), "-m".into(), "5".into()],
            mount_opts: "ro,data=ordered".into(),
        };
        assert_eq!(h.state_id(&a), h.state_id(&b));
        assert_eq!(h.state_key(&a), h.state_key(&b));
    }

    /// Two configurations whose display keys collide: a label spelling
    /// the key's separators (deep when run alone) and a real label plus
    /// a bare `-z` (rejected at the CLI).
    fn display_key_twins() -> (GeneratedConfig, GeneratedConfig) {
        let spelled = GeneratedConfig {
            mkfs_args: vec!["-L".into(), "x,z=b:true".into()],
            mount_opts: String::new(),
        };
        let flagged = GeneratedConfig {
            mkfs_args: vec!["-L".into(), "x".into(), "-z".into()],
            mount_opts: String::new(),
        };
        (spelled, flagged)
    }

    #[test]
    fn display_key_twins_are_tallied_and_stored_separately() {
        let (a, b) = display_key_twins();
        assert_eq!(execute(&a), RunDepth::Deep);
        assert_eq!(execute(&b), RunDepth::RejectedCli);
        for configs in [[a.clone(), b.clone()], [b.clone(), a.clone()]] {
            let c = campaign(&configs, 1);
            assert_eq!((c.executed, c.deep, c.rejected_cli), (2, 1, 1), "{configs:?}");
        }
        assert_eq!(coverage(&[a.clone(), b.clone()]).distinct_states, 2);
        // the fuzz verdict store keys them apart too
        let h = Harness::ext4();
        let store_key = |cfg: &GeneratedConfig| blockdev::ImageDigest::of_bytes(&h.state_key(cfg));
        assert_ne!(store_key(&a), store_key(&b));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = ConBugCk::new(7).unwrap().generate(10);
        let b = ConBugCk::new(7).unwrap().generate(10);
        assert_eq!(a, b);
        assert_eq!(generate_naive(7, 10), generate_naive(7, 10));
    }

    #[test]
    fn coverage_counts_distinct_params_and_states() {
        let mut gen = ConBugCk::new(9).unwrap();
        let configs = gen.generate(30);
        let cov = coverage(&configs);
        // far beyond what a fixed-config suite exercises
        assert!(cov.distinct_params >= 8, "params: {}", cov.distinct_params);
        assert!(cov.distinct_states >= 10, "states: {}", cov.distinct_states);
        assert_eq!(coverage(&[]).distinct_params, 0);
    }

    #[test]
    fn aware_configs_visit_many_feature_states() {
        let mut gen = ConBugCk::new(3).unwrap();
        let configs = gen.generate(30);
        let distinct: std::collections::BTreeSet<String> =
            configs.iter().map(|c| format!("{:?}|{}", c.mkfs_args, c.mount_opts)).collect();
        assert!(distinct.len() > 10, "only {} distinct states", distinct.len());
    }

    #[test]
    fn executor_classifies_cli_rejection() {
        let cfg = GeneratedConfig {
            mkfs_args: vec!["-b".into(), "3000".into()],
            mount_opts: String::new(),
        };
        assert_eq!(execute(&cfg), RunDepth::RejectedCli);
    }

    #[test]
    fn executor_classifies_format_rejection() {
        let cfg = GeneratedConfig {
            mkfs_args: vec!["-b".into(), "1024".into(), "-O".into(), "meta_bg".into()],
            mount_opts: String::new(),
        };
        assert_eq!(execute(&cfg), RunDepth::RejectedFormat);
    }

    #[test]
    fn executor_classifies_mount_rejection() {
        let cfg = GeneratedConfig {
            mkfs_args: vec!["-b".into(), "1024".into()],
            mount_opts: "dax".into(),
        };
        assert_eq!(execute(&cfg), RunDepth::RejectedMount);
    }

    #[test]
    fn executor_reaches_deep_on_defaults() {
        let cfg = GeneratedConfig {
            mkfs_args: vec!["-b".into(), "1024".into()],
            mount_opts: String::new(),
        };
        assert_eq!(execute(&cfg), RunDepth::Deep);
    }
}
