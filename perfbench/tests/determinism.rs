//! The benchmark's inputs are a function of its seed: the same seed
//! gives byte-identical serve traffic, synthetic corpus and fuzz
//! verdicts; another seed gives other traffic.

use perfbench::campaign::Campaign;
use perfbench::extract::Extract;
use perfbench::serve::{Line, Serve};
use perfbench::{Config, Workload};

fn config(seed: u64, dir: &str) -> Config {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    Config {
        seed,
        threads: 2,
        scratch,
    }
}

fn stream(serve: &Serve) -> Vec<Line> {
    (0..3)
        .flat_map(|round| (0..2).flat_map(move |client| serve.lines(client, round)))
        .collect()
}

#[test]
fn serve_stream_is_fixed_by_the_seed() {
    let a = stream(&Serve::setup(&config(7, "serve")));
    let b = stream(&Serve::setup(&config(7, "serve")));
    let c = stream(&Serve::setup(&config(8, "serve")));
    assert_eq!(a, b, "same seed, different traffic");
    assert_ne!(a, c, "another seed gave the same traffic");
    assert!(
        a.iter().any(|l| l.eco == 0) && a.iter().any(|l| l.eco == 1),
        "traffic misses an ecosystem"
    );
}

#[test]
fn synthetic_corpus_is_fixed_by_the_seed() {
    let a = Extract::setup(&config(7, "extract"));
    let b = Extract::setup(&config(7, "extract"));
    let c = Extract::setup(&config(8, "extract"));
    assert_eq!(a.edited(3, 5), b.edited(3, 5));
    assert_ne!(a.edited(3, 5), c.edited(3, 5));
    assert_eq!(a.synthetic_digest(), b.synthetic_digest());
}

#[test]
fn fuzz_verdict_digests_are_fixed_by_the_seed() {
    let a = Campaign::setup(&config(7, "campaign-a")).verdict_digests();
    let b = Campaign::setup(&config(7, "campaign-b")).verdict_digests();
    assert_eq!(a.len(), 2);
    assert_eq!(a, b, "same seed, different fuzz verdicts");
}
