//! A likelihood oracle that shares no code with the engine.
//!
//! For a handful of taxa the likelihood of one site is the textbook sum over
//! every assignment of nucleotide states to the inner nodes (4^(n − 2) of
//! them): the root's stationary frequency times one transition probability
//! per branch, a tip contributing the sum over the states its character
//! allows. Transition matrices come from the series exponential
//! [`expm`] of a GTR rate matrix built here; Γ categories are averaged with
//! equal weights. No partials, no pruning, no scaling, no tip tables — so a
//! bug in any of those cannot hide by being shared with the reference.

use phylo::likelihood::reference::expm;
use phylo::tree::{NodeId, Tree};

/// The nucleotides an IUPAC character (or a gap) allows, in `A, C, G, T`
/// order.
pub fn iupac_states(ch: char) -> [bool; 4] {
    let allowed = match ch.to_ascii_uppercase() {
        'A' => "A",
        'C' => "C",
        'G' => "G",
        'T' => "T",
        'R' => "AG",
        'Y' => "CT",
        'S' => "CG",
        'W' => "AT",
        'K' => "GT",
        'M' => "AC",
        'B' => "CGT",
        'D' => "AGT",
        'H' => "ACT",
        'V' => "ACG",
        'N' | '-' | '?' => "ACGT",
        other => panic!("not a nucleotide character: {other:?}"),
    };
    ['A', 'C', 'G', 'T'].map(|base| allowed.contains(base))
}

/// The GTR rate matrix for stationary frequencies `freqs` and
/// exchangeabilities in `AC, AG, AT, CG, CT, GT` order, scaled to one
/// expected substitution per unit time.
pub fn gtr_rate_matrix(freqs: &[f64; 4], exchange: &[f64; 6]) -> [[f64; 4]; 4] {
    let pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    let mut q = [[0.0; 4]; 4];
    for (&(i, j), &x) in pairs.iter().zip(exchange) {
        q[i][j] = x * freqs[j];
        q[j][i] = x * freqs[i];
    }
    for (i, row) in q.iter_mut().enumerate() {
        row[i] = -row.iter().sum::<f64>();
    }
    let mean_rate: f64 = -(0..4).map(|i| freqs[i] * q[i][i]).sum::<f64>();
    q.map(|row| row.map(|x| x / mean_rate))
}

/// The log-likelihood of `rows` (one sequence per taxon, taxon `i` at tip
/// `i`) on `tree`, by explicit summation over inner-state assignments.
pub fn brute_force_log_likelihood(
    rows: &[String],
    tree: &Tree,
    freqs: &[f64; 4],
    exchange: &[f64; 6],
    rates: &[f64],
) -> f64 {
    let n_taxa = tree.n_taxa();
    let n_inner = tree.n_nodes() - n_taxa;
    assert!(n_inner <= 5, "4^{n_inner} assignments is too many for an oracle");
    let q = gtr_rate_matrix(freqs, exchange);

    // Branches directed away from the first inner node.
    let root = n_taxa;
    let mut branches: Vec<(NodeId, NodeId, f64)> = Vec::new();
    let mut stack = vec![(root, root)];
    while let Some((node, parent)) = stack.pop() {
        for (next, len) in tree.neighbors_of(node).filter(|&(n, _)| n != parent) {
            branches.push((node, next, len));
            if !tree.is_tip(next) {
                stack.push((next, node));
            }
        }
    }
    // p[k][b]: transition matrix of branch b under rate category k.
    let p: Vec<Vec<[[f64; 4]; 4]>> = rates
        .iter()
        .map(|&r| branches.iter().map(|&(_, _, t)| expm(&q, t * r)).collect())
        .collect();
    // columns[site][taxon]: the states the taxon's character allows.
    let chars: Vec<Vec<char>> = rows.iter().map(|r| r.chars().collect()).collect();
    let columns: Vec<Vec<[bool; 4]>> = (0..chars[0].len())
        .map(|site| chars.iter().map(|r| iupac_states(r[site])).collect())
        .collect();

    let mut log_likelihood = 0.0;
    for column in &columns {
        let mut site_likelihood = 0.0;
        for p in &p {
            let mut sum = 0.0;
            for assignment in 0..1usize << (2 * n_inner) {
                let state = |node: NodeId| (assignment >> (2 * (node - n_taxa))) & 3;
                let mut term = freqs[state(root)];
                for (&(parent, child, _), pm) in branches.iter().zip(p) {
                    let row = &pm[state(parent)];
                    term *= if tree.is_tip(child) {
                        (0..4).filter(|&x| column[child][x]).map(|x| row[x]).sum()
                    } else {
                        row[state(child)]
                    };
                }
                sum += term;
            }
            site_likelihood += sum / rates.len() as f64;
        }
        log_likelihood += site_likelihood.ln();
    }
    log_likelihood
}
