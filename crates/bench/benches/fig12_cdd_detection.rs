//! Figure 12 (Appendix C.2): offline CDD-detection time per dataset.
//!
//! Paper's reading: detection time grows with repository size (85.6 s on
//! Citations up to 6,260 s on Songs at their scale) and EBooks costs more
//! than similarly-sized datasets because of its large token sets.
//!
//! Columns: dataset, `|R|`, detection time, number of CDDs. Here the time
//! is one Jaccard distance per attribute for each sampled pair and each
//! constant group's capped pairs (`ter_rules::discovery`): past the
//! sampling cap it grows with the number and size of the constant groups.

use std::time::Instant;

use ter_bench::{header, BenchScale};
use ter_datasets::{preset, GenOptions, Preset};
use ter_rules::{detect_cdds, DiscoveryConfig};

fn main() {
    let scale = BenchScale::default();
    header("Figure 12", "offline CDD detection time per dataset");
    println!(
        "{:<11} {:>10} {:>12} {:>10}",
        "dataset", "|R|", "time (s)", "#CDDs"
    );
    for p in Preset::all() {
        let ds = preset(
            p,
            &GenOptions {
                scale: scale.for_preset(p),
                ..GenOptions::default()
            },
        );
        let t = Instant::now();
        let rules = detect_cdds(&ds.repo, &DiscoveryConfig::default());
        let secs = t.elapsed().as_secs_f64();
        println!(
            "{:<11} {:>10} {:>12.4} {:>10}",
            p.name(),
            ds.repo.len(),
            secs,
            rules.len()
        );
    }
    println!("(paper: 85.6 s Citations … 6,260 s Songs; EBooks disproportionately slow)");
}
