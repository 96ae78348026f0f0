//! Golden netlists: re-synthesizes suite circuits with `Options::default()`
//! and compares the BLIF byte for byte with the committed
//! `artifacts/<name>.blif`.
//!
//! Any change to grouping, derivation, §6 reuse or BLIF emission that
//! alters a netlist fails here. When such a change is intended, regenerate
//! the artifacts with `cargo run --release -p bench --bin emit` and commit
//! them with the change.

use std::path::Path;

use bidecomp::{decompose_pla, Options};

/// 16sym8, t481 and alu4 are the heaviest circuits a debug build
/// synthesizes in a few seconds (16sym8 exercises EXOR grouping on an
/// interval with don't-cares most); the rest are the fast suite members of
/// `verification.rs`.
const GOLDEN: &[&str] =
    &["16sym8", "t481", "alu4", "9sym", "rd73", "rd84", "5xp1", "misex1", "con1", "e64", "cordic"];

#[test]
fn netlists_match_committed_blif() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    let mut stale = Vec::new();
    for &name in GOLDEN {
        let b = benchmarks::by_name(name).expect("suite circuit");
        let outcome = decompose_pla(&b.pla, &Options::default());
        assert!(outcome.verified, "{name}: verification failed");
        let blif = outcome.netlist.to_blif(name);
        let golden = std::fs::read_to_string(dir.join(format!("{name}.blif")))
            .unwrap_or_else(|e| panic!("{name}: cannot read golden BLIF: {e}"));
        if blif != golden {
            stale.push(name);
        }
    }
    assert!(stale.is_empty(), "netlists differ from artifacts/*.blif: {stale:?}");
}
