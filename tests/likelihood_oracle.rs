//! The engine against an oracle that shares no code with it, plus two
//! metamorphic relations the likelihood must satisfy.
//!
//! * For 4–6 taxa, [`oracle::brute_force_log_likelihood`] sums over every
//!   inner-state assignment; the engine must agree to 1e-10 relative across
//!   branch lengths from 1e-6 to 5, Γ shapes 0.1, 1 and 10 with one and four
//!   categories, and alignments with IUPAC ambiguity codes and gaps.
//! * Permuting the alignment's sites, and relabelling taxa (rows and tree
//!   tips permuted together), leave the log-likelihood unchanged to 1e-12
//!   relative.

#[path = "common/oracle.rs"]
mod oracle;

use phylo::alignment::{Alignment, PatternAlignment};
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::LikelihoodConfig;
use phylo::model::{GammaRates, SubstModel};
use phylo::tree::{NodeId, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SITES: usize = 40;

/// One randomized problem: sequences, tree and model parameters.
struct Case {
    rows: Vec<String>,
    tree: Tree,
    freqs: [f64; 4],
    exchange: [f64; 6],
    rates: GammaRates,
}

impl Case {
    fn random(n_taxa: usize, alpha: f64, categories: usize, rng: &mut StdRng) -> Case {
        // Mostly bases, with ambiguity codes and gaps mixed in.
        let ambiguous: Vec<char> = "RYSWKMBDHVN-?".chars().collect();
        let rows = (0..n_taxa)
            .map(|_| {
                (0..SITES)
                    .map(|_| {
                        if rng.gen_bool(0.8) {
                            ['A', 'C', 'G', 'T'][rng.gen_range(0usize..4)]
                        } else {
                            ambiguous[rng.gen_range(0..ambiguous.len())]
                        }
                    })
                    .collect()
            })
            .collect();
        let mut tree = Tree::random(n_taxa, 0.1, rng).unwrap();
        for (a, b) in tree.edges() {
            // Log-uniform over [1e-6, 5].
            let len = (rng.gen_range(1e-6f64.ln()..5f64.ln())).exp();
            tree.set_branch_length(a, b, len);
        }
        let raw = [0; 4].map(|_| rng.gen_range(0.1..1.0));
        let total: f64 = raw.iter().sum();
        Case {
            rows,
            tree,
            freqs: raw.map(|f| f / total),
            exchange: [0; 6].map(|_| rng.gen_range(0.2..4.0)),
            rates: GammaRates::new(alpha, categories).unwrap(),
        }
    }

    fn alignment(&self) -> PatternAlignment {
        let named: Vec<(String, &String)> =
            self.rows.iter().enumerate().map(|(i, r)| (format!("t{i}"), r)).collect();
        Alignment::from_named_sequences(&named).unwrap().compress()
    }

    fn engine_log_likelihood(&self) -> f64 {
        let aln = self.alignment();
        let model = SubstModel::gtr(self.freqs, self.exchange).unwrap();
        LikelihoodEngine::new(&aln, model, self.rates.clone(), LikelihoodConfig::optimized())
            .log_likelihood(&self.tree)
    }

    fn oracle_log_likelihood(&self) -> f64 {
        let model = SubstModel::gtr(self.freqs, self.exchange).unwrap();
        oracle::brute_force_log_likelihood(
            &self.rows,
            &self.tree,
            model.freqs(),
            model.exchange(),
            self.rates.rates(),
        )
    }
}

fn relative(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

/// Every case of the grid: taxa × Γ shape × category count.
fn cases() -> Vec<(String, Case)> {
    let mut rng = StdRng::seed_from_u64(0x0dac1e);
    let mut out = Vec::new();
    for n_taxa in 4..=6 {
        for alpha in [0.1, 1.0, 10.0] {
            for categories in [1, 4] {
                let label = format!("{n_taxa} taxa, alpha {alpha}, {categories} categories");
                out.push((label, Case::random(n_taxa, alpha, categories, &mut rng)));
            }
        }
    }
    out
}

#[test]
fn engine_matches_the_brute_force_sum() {
    for (label, case) in cases() {
        let engine = case.engine_log_likelihood();
        let oracle = case.oracle_log_likelihood();
        assert!(engine.is_finite() && engine < 0.0, "{label}: {engine}");
        assert!(
            relative(engine, oracle) <= 1e-10,
            "{label}: engine {engine} vs oracle {oracle} ({:.2e} relative)",
            relative(engine, oracle)
        );
    }
}

#[test]
fn site_permutation_leaves_the_likelihood_unchanged() {
    let mut rng = StdRng::seed_from_u64(17);
    for (label, case) in cases() {
        let mut order: Vec<usize> = (0..SITES).collect();
        for i in (1..SITES).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let rows = case
            .rows
            .iter()
            .map(|r| {
                let chars: Vec<char> = r.chars().collect();
                order.iter().map(|&s| chars[s]).collect()
            })
            .collect();
        let permuted = Case { rows, tree: case.tree.clone(), rates: case.rates.clone(), ..case };
        let (a, b) = (case.engine_log_likelihood(), permuted.engine_log_likelihood());
        assert!(relative(b, a) <= 1e-12, "{label}: {a} vs {b} after permuting sites");
    }
}

#[test]
fn taxon_relabelling_leaves_the_likelihood_unchanged() {
    let mut rng = StdRng::seed_from_u64(29);
    for (label, case) in cases() {
        let n_taxa = case.rows.len();
        // Taxon i becomes taxon sigma[i], in the alignment and on the tree.
        let mut sigma: Vec<NodeId> = (0..n_taxa).collect();
        for i in (1..n_taxa).rev() {
            sigma.swap(i, rng.gen_range(0..i + 1));
        }
        let relabel = |node: NodeId| if node < n_taxa { sigma[node] } else { node };
        let edges: Vec<(NodeId, NodeId, f64)> = case
            .tree
            .edges()
            .into_iter()
            .map(|(a, b)| (relabel(a), relabel(b), case.tree.branch_length(a, b)))
            .collect();
        let mut rows = vec![String::new(); n_taxa];
        for (i, row) in case.rows.iter().enumerate() {
            rows[sigma[i]] = row.clone();
        }
        let relabelled = Case {
            rows,
            tree: Tree::from_edges(n_taxa, &edges).unwrap(),
            rates: case.rates.clone(),
            ..case
        };
        let (a, b) = (case.engine_log_likelihood(), relabelled.engine_log_likelihood());
        assert!(relative(b, a) <= 1e-12, "{label}: {a} vs {b} after relabelling {sigma:?}");
    }
}
