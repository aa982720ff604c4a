//! How much `newview` work subtree site repeats could save, measured on the
//! simulating trees before any engine change (ROADMAP item 11's gate: build
//! the class maps only if the mean ratio is well below 0.7).
//!
//! ```sh
//! cargo test --release --test site_repeats -- --ignored --nocapture
//! ```

#[path = "common/site_repeats.rs"]
mod site_repeats;

use phylo::simulate::SimulationConfig;

#[test]
#[ignore = "a measurement, not a check: prints the ratios EXPERIMENTS.md records"]
fn site_repeat_class_ratios() {
    let aln42 = |seed| SimulationConfig { seed, ..SimulationConfig::aln42() };
    let datasets = [
        ("aln42", aln42(0x42_5C)),
        ("aln42 seed 1", aln42(1)),
        ("aln42 seed 2", aln42(2)),
        ("aln42 seed 3", aln42(3)),
        ("8x300", SimulationConfig::new(8, 300, 7)),
        ("96x1000", SimulationConfig::new(96, 1000, 3)),
        ("500x2000", SimulationConfig::new(500, 2000, 5)),
    ];
    for (label, config) in datasets {
        let w = config.generate();
        let ratios = site_repeats::class_ratios(&w.true_tree, &w.alignment);
        let share = |keep: fn(f64) -> bool| {
            ratios.iter().filter(|&&r| keep(r)).count() as f64 / ratios.len() as f64
        };
        println!(
            "{label:<13} {:>4} patterns  {:>4} CLVs  mean ratio {:.3}  below 0.2: {:>4.1}%  above 0.8: {:>4.1}%",
            w.alignment.n_patterns(),
            ratios.len(),
            ratios.iter().sum::<f64>() / ratios.len() as f64,
            100.0 * share(|r| r < 0.2),
            100.0 * share(|r| r > 0.8),
        );
        assert!(ratios.iter().all(|&r| r > 0.0 && r <= 1.0));
    }
}
