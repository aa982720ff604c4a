//! Integration of the I/O formats with the analysis pipeline: everything a
//! user round-trips through files must survive and interoperate.

use phylo::bipartitions::robinson_foulds;
use phylo::bootstrap::BootstrapAnalysis;
use phylo::io::{parse_fasta, parse_newick, parse_phylip, write_fasta, write_newick, write_phylip};
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::LikelihoodConfig;
use phylo::model::{GammaRates, SubstModel};
use phylo::search::SearchConfig;
use phylo::simulate::SimulationConfig;

#[test]
fn phylip_and_fasta_carry_identical_information() {
    let w = SimulationConfig::new(9, 400, 77).generate();
    let via_phylip = parse_phylip(&write_phylip(&w.raw)).unwrap();
    let via_fasta = parse_fasta(&write_fasta(&w.raw)).unwrap();
    assert_eq!(via_phylip, via_fasta);
    assert_eq!(via_phylip, w.raw);
    // And they compress identically.
    assert_eq!(via_phylip.compress(), via_fasta.compress());
}

#[test]
fn likelihood_is_invariant_under_io_round_trips() {
    let w = SimulationConfig::new(7, 300, 5).generate();
    let names = w.raw.taxon_names().to_vec();

    // Tree → Newick → tree; alignment → PHYLIP → alignment.
    let newick = write_newick(&w.true_tree, &names);
    let tree_back = parse_newick(&newick, &names).unwrap();
    let aln_back = parse_phylip(&write_phylip(&w.raw)).unwrap().compress();

    let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
    let rates = GammaRates::standard(0.8).unwrap();
    let mut e1 = LikelihoodEngine::new(
        &w.alignment,
        model.clone(),
        rates.clone(),
        LikelihoodConfig::optimized(),
    );
    let mut e2 = LikelihoodEngine::new(&aln_back, model, rates, LikelihoodConfig::optimized());
    let original = e1.log_likelihood(&w.true_tree);
    let round_tripped = e2.log_likelihood(&tree_back);
    // Branch lengths go through 9-decimal text; likelihood agrees tightly.
    assert!((original - round_tripped).abs() < 1e-4, "{original} vs {round_tripped}");
}

#[test]
fn support_annotated_newick_is_parseable() {
    // The analysis writes support values as internal labels; our parser (and
    // every standard tool) must read the topology back.
    let w = SimulationConfig { mean_branch: 0.12, ..SimulationConfig::new(7, 500, 21) }.generate();
    let analysis = BootstrapAnalysis {
        n_inferences: 1,
        n_bootstraps: 5,
        n_workers: 2,
        seed: 3,
        search: SearchConfig::fast(),
    };
    let result = analysis.try_run(&w.alignment).unwrap();
    let names = w.alignment.taxon_names().to_vec();
    let annotated = result.best.to_newick_with_support(&names);
    let parsed = parse_newick(&annotated, &names).unwrap();
    assert_eq!(
        robinson_foulds(&parsed, &result.best.tree),
        0,
        "support labels must not disturb the topology: {annotated}"
    );
}

/// Every file in the corrupt-input corpus must come back as a *typed* error
/// through the loader — never a panic, never a silent best-effort parse.
#[test]
fn corrupt_corpus_yields_typed_errors() {
    use phylo::io::load_alignment;
    use std::path::Path;

    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");

    // The good files load, agree, and carry the declared shape.
    let fasta = load_alignment(&data.join("good.fasta")).unwrap();
    let phylip = load_alignment(&data.join("good.phy")).unwrap();
    assert_eq!(fasta, phylip);
    assert_eq!(fasta.n_taxa(), 4);
    assert_eq!(fasta.n_sites(), 16);

    // Each corrupt file maps to the expected PhyloError variant.
    use phylo::error::PhyloError as E;
    type ErrorCheck = fn(&E) -> bool;
    let cases: &[(&str, ErrorCheck)] = &[
        ("ragged.fasta", |e| matches!(e, E::RaggedAlignment { .. })),
        ("bad_char.fasta", |e| matches!(e, E::InvalidCharacter { .. })),
        ("duplicate_taxon.fasta", |e| matches!(e, E::DuplicateTaxon(_))),
        ("headerless.fasta", |e| matches!(e, E::Parse { format: "FASTA", .. })),
        ("truncated.phy", |e| matches!(e, E::Parse { format: "PHYLIP", .. })),
        ("bad_header.phy", |e| matches!(e, E::Parse { format: "PHYLIP", .. })),
        ("short_row.phy", |e| matches!(e, E::Parse { format: "PHYLIP", .. })),
        // Header counts far beyond the records must not size an allocation.
        ("huge_site_count.phy", |e| matches!(e, E::Parse { format: "PHYLIP", .. })),
        ("huge_taxon_count.phy", |e| matches!(e, E::Parse { format: "PHYLIP", .. })),
    ];
    for (name, expected) in cases {
        match load_alignment(&data.join(name)) {
            Err(e) => {
                assert!(expected(&e), "{name}: unexpected error {e}");
                // Display output is a real diagnosis, not Debug spew.
                assert!(!e.to_string().is_empty());
            }
            Ok(_) => panic!("{name}: corrupt input must not load"),
        }
    }

    // A missing file is an I/O error with the path in the message.
    let missing = data.join("does-not-exist.fasta");
    match load_alignment(&missing) {
        Err(E::Io { path, .. }) => {
            assert!(path.contains("does-not-exist"));
        }
        other => panic!("expected Io error, got {other:?}"),
    }
}

#[test]
fn files_round_trip_on_disk() {
    let dir = std::env::temp_dir().join(format!("raxml-cell-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let w = SimulationConfig::new(6, 200, 9).generate();
    let names = w.raw.taxon_names().to_vec();

    let aln_path = dir.join("data.phy");
    let tree_path = dir.join("tree.nwk");
    std::fs::write(&aln_path, write_phylip(&w.raw)).unwrap();
    std::fs::write(&tree_path, write_newick(&w.true_tree, &names)).unwrap();

    let aln = parse_phylip(&std::fs::read_to_string(&aln_path).unwrap()).unwrap();
    let tree = parse_newick(&std::fs::read_to_string(&tree_path).unwrap(), &names).unwrap();
    assert_eq!(aln, w.raw);
    assert_eq!(robinson_foulds(&tree, &w.true_tree), 0);

    std::fs::remove_dir_all(&dir).ok();
}
