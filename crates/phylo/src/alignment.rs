//! Multiple sequence alignments and site-pattern compression.
//!
//! ML implementations never iterate over raw alignment columns: identical
//! columns ("site patterns") contribute identical per-site likelihoods, so
//! they are collapsed into one pattern with an integer weight. For the
//! paper's `42_SC` input (42 taxa × 1167 sites) this yields ~250 distinct
//! patterns — the trip count of the big `newview` loop the paper vectorizes.

use crate::alphabet::{decode_base, encode_sequence, DnaCode};
use crate::error::{PhyloError, Result};
use rand::Rng;
use std::collections::HashMap;

/// An uncompressed multiple sequence alignment (taxon-major).
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    names: Vec<String>,
    /// `rows[t][site]` is the encoded base of taxon `t` at column `site`.
    rows: Vec<Vec<DnaCode>>,
    n_sites: usize,
}

impl Alignment {
    /// Build an alignment from (name, sequence-string) pairs.
    pub fn from_named_sequences<S: AsRef<str>, T: AsRef<str>>(
        pairs: &[(S, T)],
    ) -> Result<Alignment> {
        if pairs.is_empty() {
            return Err(PhyloError::TooFewTaxa { found: 0, required: 1 });
        }
        let mut names = Vec::with_capacity(pairs.len());
        let mut rows = Vec::with_capacity(pairs.len());
        let mut seen = HashMap::new();
        let n_sites = pairs[0].1.as_ref().chars().count();
        for (name, seq) in pairs {
            let name = name.as_ref().to_string();
            if seen.insert(name.clone(), ()).is_some() {
                return Err(PhyloError::DuplicateTaxon(name));
            }
            let row = encode_sequence(&name, seq.as_ref())?;
            if row.len() != n_sites {
                return Err(PhyloError::RaggedAlignment {
                    taxon: name,
                    expected: n_sites,
                    found: row.len(),
                });
            }
            names.push(name);
            rows.push(row);
        }
        if n_sites == 0 {
            return Err(PhyloError::EmptyAlignment);
        }
        Ok(Alignment { names, rows, n_sites })
    }

    /// Build directly from already-encoded rows.
    pub fn from_encoded(names: Vec<String>, rows: Vec<Vec<DnaCode>>) -> Result<Alignment> {
        if names.len() != rows.len() || names.is_empty() {
            return Err(PhyloError::TooFewTaxa { found: names.len().min(rows.len()), required: 1 });
        }
        let n_sites = rows[0].len();
        if n_sites == 0 {
            return Err(PhyloError::EmptyAlignment);
        }
        for (name, row) in names.iter().zip(&rows) {
            if row.len() != n_sites {
                return Err(PhyloError::RaggedAlignment {
                    taxon: name.clone(),
                    expected: n_sites,
                    found: row.len(),
                });
            }
        }
        let mut seen = HashMap::new();
        for name in &names {
            if seen.insert(name.clone(), ()).is_some() {
                return Err(PhyloError::DuplicateTaxon(name.clone()));
            }
        }
        Ok(Alignment { names, rows, n_sites })
    }

    /// Number of taxa (rows).
    pub fn n_taxa(&self) -> usize {
        self.names.len()
    }

    /// Number of columns (sites).
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Taxon names in row order.
    pub fn taxon_names(&self) -> &[String] {
        &self.names
    }

    /// Encoded row of one taxon.
    pub fn row(&self, taxon: usize) -> &[DnaCode] {
        &self.rows[taxon]
    }

    /// The decoded sequence string of one taxon.
    pub fn sequence_string(&self, taxon: usize) -> String {
        self.rows[taxon].iter().map(|&c| decode_base(c)).collect()
    }

    /// One alignment column as a taxon-ordered vector.
    pub fn column(&self, site: usize) -> Vec<DnaCode> {
        self.rows.iter().map(|r| r[site]).collect()
    }

    /// Empirical base frequencies (A, C, G, T), counting ambiguity codes
    /// fractionally and ignoring full gaps.
    pub fn empirical_base_frequencies(&self) -> [f64; 4] {
        let mut counts = [0.0f64; 4];
        for row in &self.rows {
            for &code in row {
                let n = code.count_ones() as f64;
                if n == 4.0 {
                    continue; // gap/N carries no information
                }
                for s in 0..4 {
                    if code & (1 << s) != 0 {
                        counts[s] += 1.0 / n;
                    }
                }
            }
        }
        let total: f64 = counts.iter().sum();
        if total == 0.0 {
            return [0.25; 4];
        }
        // Guard against zero frequencies, which break reversible models.
        let mut freqs = [0.0; 4];
        for s in 0..4 {
            freqs[s] = (counts[s] / total).max(1e-6);
        }
        let norm: f64 = freqs.iter().sum();
        for f in &mut freqs {
            *f /= norm;
        }
        freqs
    }

    /// Compress identical columns into weighted site patterns.
    ///
    /// Convenience wrapper over [`Alignment::try_compress`]; panics on the
    /// (astronomically large) inputs whose site count does not fit a `u32`
    /// pattern index.
    pub fn compress(&self) -> PatternAlignment {
        self.try_compress().expect("alignment exceeds the u32 site-index limit")
    }

    /// Compress identical columns into weighted site patterns.
    ///
    /// Interns columns through an open-addressing hash table keyed by the
    /// column *content* (hash first, byte-compare on probe), so the per-site
    /// steady state does zero heap allocations: one reusable column scratch
    /// buffer is gathered from the taxon-major rows, looked up by reference,
    /// and only genuinely new patterns are appended to a flat pattern store.
    /// The older implementation allocated a fresh `Vec<DnaCode>` per column
    /// and cloned it again as a `HashMap` key — O(sites × taxa) heap
    /// traffic, which dominates wall time at 10⁶⁺ sites.
    ///
    /// Returns [`PhyloError::AlignmentTooLarge`] when `n_sites` exceeds
    /// `u32::MAX`, since `site_to_pattern` stores `u32` indices.
    pub fn try_compress(&self) -> Result<PatternAlignment> {
        if self.n_sites > u32::MAX as usize {
            return Err(PhyloError::AlignmentTooLarge { n_sites: self.n_sites });
        }
        let n_taxa = self.n_taxa();
        let mut interner = ColumnInterner::with_pattern_len(n_taxa);
        // Pattern-major flat store: pattern `p` occupies
        // `pattern_data[p*n_taxa .. (p+1)*n_taxa]`.
        let mut pattern_data: Vec<DnaCode> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut site_to_pattern: Vec<u32> = Vec::with_capacity(self.n_sites);
        let mut col: Vec<DnaCode> = vec![0; n_taxa];
        for site in 0..self.n_sites {
            for (slot, row) in col.iter_mut().zip(&self.rows) {
                *slot = row[site];
            }
            let id = interner.intern(&col, &mut pattern_data);
            if id as usize == weights.len() {
                weights.push(0.0);
            }
            weights[id as usize] += 1.0;
            site_to_pattern.push(id);
        }
        // Re-layout taxon-major for kernel access.
        let n_patterns = weights.len();
        let mut tips = vec![vec![0u8; n_patterns]; n_taxa];
        for p in 0..n_patterns {
            let col = &pattern_data[p * n_taxa..(p + 1) * n_taxa];
            for (t, &code) in col.iter().enumerate() {
                tips[t][p] = code;
            }
        }
        Ok(PatternAlignment {
            names: self.names.clone(),
            tips,
            weights,
            site_to_pattern,
            n_sites: self.n_sites,
            base_frequencies: self.empirical_base_frequencies(),
        })
    }
}

/// Open-addressing interner over site-pattern columns.
///
/// The table stores pattern ids only; the column bytes live in the caller's
/// flat `pattern_data` store, so lookups borrow the probe column instead of
/// owning a key. Power-of-two capacity, linear probing, ~⅞ max load.
struct ColumnInterner {
    /// Bucket array of pattern ids; `EMPTY` marks a free slot.
    table: Vec<u32>,
    /// Bytes per pattern (= number of taxa).
    pattern_len: usize,
    /// Number of interned patterns.
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl ColumnInterner {
    fn with_pattern_len(pattern_len: usize) -> ColumnInterner {
        ColumnInterner { table: vec![EMPTY; 64], pattern_len, len: 0 }
    }

    /// FNV-1a over the column bytes.
    fn hash(col: &[DnaCode]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in col {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Return the id of `col`, appending its bytes to `pattern_data` when it
    /// is new. Allocates only when the bucket array grows (O(log patterns)
    /// times over a whole compression, never per site).
    fn intern(&mut self, col: &[DnaCode], pattern_data: &mut Vec<DnaCode>) -> u32 {
        debug_assert_eq!(col.len(), self.pattern_len);
        if (self.len + 1) * 8 > self.table.len() * 7 {
            self.grow(pattern_data);
        }
        let mask = self.table.len() - 1;
        let mut slot = (Self::hash(col) as usize) & mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                let new_id = self.len as u32;
                self.table[slot] = new_id;
                self.len += 1;
                pattern_data.extend_from_slice(col);
                return new_id;
            }
            let start = id as usize * self.pattern_len;
            if &pattern_data[start..start + self.pattern_len] == col {
                return id;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn grow(&mut self, pattern_data: &[DnaCode]) {
        let new_cap = self.table.len() * 2;
        let mut table = vec![EMPTY; new_cap];
        let mask = new_cap - 1;
        for &id in self.table.iter().filter(|&&id| id != EMPTY) {
            let start = id as usize * self.pattern_len;
            let col = &pattern_data[start..start + self.pattern_len];
            let mut slot = (Self::hash(col) as usize) & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = id;
        }
        self.table = table;
    }
}

/// A pattern-compressed alignment: the form consumed by the likelihood
/// kernels. Column weights may be re-weighted for bootstrapping (the
/// paper's §3.1: "a certain amount of columns is re-weighted").
#[derive(Debug, Clone, PartialEq)]
pub struct PatternAlignment {
    names: Vec<String>,
    /// `tips[t][p]` is the encoded base of taxon `t` at pattern `p`.
    tips: Vec<Vec<DnaCode>>,
    /// Pattern weights; initially the column multiplicities.
    weights: Vec<f64>,
    /// Maps each original column to its pattern. `u32` halves the footprint
    /// of the dominant per-site array (8 → 4 bytes/site); `try_compress`
    /// rejects alignments whose sites would not fit.
    site_to_pattern: Vec<u32>,
    n_sites: usize,
    base_frequencies: [f64; 4],
}

impl PatternAlignment {
    /// Number of distinct site patterns.
    pub fn n_patterns(&self) -> usize {
        self.weights.len()
    }

    /// Number of original alignment columns.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Number of taxa.
    pub fn n_taxa(&self) -> usize {
        self.names.len()
    }

    /// Taxon names in row order.
    pub fn taxon_names(&self) -> &[String] {
        &self.names
    }

    /// Encoded pattern row for one taxon.
    pub fn tip_row(&self, taxon: usize) -> &[DnaCode] {
        &self.tips[taxon]
    }

    /// Current pattern weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Sum of pattern weights (= effective number of sites).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Pattern index of each original column.
    pub fn site_to_pattern(&self) -> &[u32] {
        &self.site_to_pattern
    }

    /// Reconstruct the raw (uncompressed) alignment by expanding every
    /// column through `site_to_pattern`. Inverse of [`Alignment::compress`];
    /// used by round-trip tests and by tools that need column order back.
    /// On a [bootstrap replicate](Self::bootstrap_replicate) the columns are
    /// the drawn ones, grouped by pattern.
    pub fn expand(&self) -> Result<Alignment> {
        let mut rows = vec![vec![0u8; self.n_sites]; self.n_taxa()];
        for (row, tips) in rows.iter_mut().zip(&self.tips) {
            for (slot, &pat) in row.iter_mut().zip(&self.site_to_pattern) {
                *slot = tips[pat as usize];
            }
        }
        Alignment::from_encoded(self.names.clone(), rows)
    }

    /// Empirical base frequencies carried over from the raw alignment.
    pub fn base_frequencies(&self) -> [f64; 4] {
        self.base_frequencies
    }

    /// Replace the pattern weights (used by bootstrapping). The weight
    /// vector must have one entry per pattern. Weights are expected to be
    /// integer-valued counts: stepwise addition relies on their sums being
    /// exact to break ties the way a full parsimony re-score would.
    pub fn set_weights(&mut self, weights: Vec<f64>) {
        assert_eq!(weights.len(), self.n_patterns(), "weight vector length mismatch");
        self.weights = weights;
    }

    /// Draw non-parametric bootstrap weights: `n_sites` columns are sampled
    /// with replacement from the original alignment and mapped onto
    /// patterns. Returns a weight vector summing to `n_sites`.
    pub fn bootstrap_weights<R: Rng>(&self, rng: &mut R) -> Vec<f64> {
        let mut weights = vec![0.0; self.n_patterns()];
        for _ in 0..self.n_sites {
            let col = rng.gen_range(0..self.n_sites);
            weights[self.site_to_pattern[col] as usize] += 1.0;
        }
        weights
    }

    /// A bootstrap replicate at its own size: only the patterns a draw of
    /// [`Self::bootstrap_weights`] gave weight (about two thirds), in this
    /// alignment's pattern order, so no kernel walks a pattern of weight 0.
    /// Taxon names, `n_sites` and the base frequencies are carried over;
    /// `site_to_pattern` lists the drawn columns grouped by pattern, so
    /// [`Self::expand`] compresses to exactly these patterns and weights.
    pub fn bootstrap_replicate<R: Rng>(&self, rng: &mut R) -> PatternAlignment {
        let drawn = self.bootstrap_weights(rng);
        let kept: Vec<usize> = (0..drawn.len()).filter(|&p| drawn[p] > 0.0).collect();
        let mut site_to_pattern = Vec::with_capacity(self.n_sites);
        for (&p, id) in kept.iter().zip(0u32..) {
            site_to_pattern.extend(std::iter::repeat_n(id, drawn[p] as usize));
        }
        PatternAlignment {
            names: self.names.clone(),
            tips: self.tips.iter().map(|row| kept.iter().map(|&p| row[p]).collect()).collect(),
            weights: kept.iter().map(|&p| drawn[p]).collect(),
            site_to_pattern,
            n_sites: self.n_sites,
            base_frequencies: self.base_frequencies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Alignment {
        Alignment::from_named_sequences(&[
            ("t1", "ACGTACGT"),
            ("t2", "ACGTACGA"),
            ("t3", "ACGAACGA"),
        ])
        .unwrap()
    }

    #[test]
    fn dimensions() {
        let a = toy();
        assert_eq!(a.n_taxa(), 3);
        assert_eq!(a.n_sites(), 8);
        assert_eq!(a.taxon_names(), &["t1", "t2", "t3"]);
    }

    #[test]
    fn ragged_rejected() {
        let err = Alignment::from_named_sequences(&[("a", "ACGT"), ("b", "ACG")]).unwrap_err();
        assert!(matches!(err, PhyloError::RaggedAlignment { .. }));
    }

    #[test]
    fn duplicate_taxon_rejected() {
        let err = Alignment::from_named_sequences(&[("a", "ACGT"), ("a", "ACGT")]).unwrap_err();
        assert_eq!(err, PhyloError::DuplicateTaxon("a".into()));
    }

    #[test]
    fn empty_rejected() {
        let err = Alignment::from_named_sequences(&[("a", ""), ("b", "")]).unwrap_err();
        assert_eq!(err, PhyloError::EmptyAlignment);
    }

    #[test]
    fn compression_preserves_total_weight_and_columns() {
        let a = toy();
        let p = a.compress();
        assert_eq!(p.total_weight(), a.n_sites() as f64);
        // Reconstruct every column through the pattern map.
        for site in 0..a.n_sites() {
            let pat = p.site_to_pattern()[site] as usize;
            for taxon in 0..a.n_taxa() {
                assert_eq!(p.tip_row(taxon)[pat], a.row(taxon)[site]);
            }
        }
    }

    #[test]
    fn identical_columns_collapse() {
        // Columns: A/A, A/A, C/C -> 2 patterns.
        let a = Alignment::from_named_sequences(&[("x", "AAC"), ("y", "AAC")]).unwrap();
        let p = a.compress();
        assert_eq!(p.n_patterns(), 2);
        let mut w = p.weights().to_vec();
        w.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(w, vec![1.0, 2.0]);
    }

    #[test]
    fn base_frequencies_sum_to_one_and_reflect_content() {
        let a = Alignment::from_named_sequences(&[("x", "AAAA"), ("y", "AAAC")]).unwrap();
        let f = a.empirical_base_frequencies();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(f[0] > f[1], "A must dominate: {f:?}");
        assert!(f[2] > 0.0 && f[3] > 0.0, "frequencies are kept positive");
    }

    #[test]
    fn gaps_do_not_bias_frequencies() {
        let a = Alignment::from_named_sequences(&[("x", "AC--"), ("y", "AC-N")]).unwrap();
        let f = a.empirical_base_frequencies();
        assert!((f[0] - f[1]).abs() < 1e-12, "A and C appear equally often: {f:?}");
    }

    #[test]
    fn bootstrap_weights_sum_to_site_count() {
        let p = toy().compress();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let w = p.bootstrap_weights(&mut rng);
            assert_eq!(w.iter().sum::<f64>(), p.n_sites() as f64);
            assert_eq!(w.len(), p.n_patterns());
        }
    }

    #[test]
    fn bootstrap_replicate_keeps_exactly_the_drawn_patterns() {
        let p = toy().compress();
        for seed in 0..20 {
            let drawn = p.bootstrap_weights(&mut StdRng::seed_from_u64(seed));
            let rep = p.bootstrap_replicate(&mut StdRng::seed_from_u64(seed));
            assert!(rep.weights().iter().all(|&w| w > 0.0));
            assert_eq!(rep.total_weight(), p.n_sites() as f64);
            assert_eq!(rep.base_frequencies(), p.base_frequencies());
            // Kept pattern `i` is the source's `i`-th pattern of weight > 0.
            let kept = (0..p.n_patterns()).filter(|&q| drawn[q] > 0.0);
            for (i, q) in kept.enumerate() {
                assert_eq!(rep.weights()[i], drawn[q]);
                assert!((0..p.n_taxa()).all(|t| rep.tip_row(t)[i] == p.tip_row(t)[q]));
            }
            // `expand()` is the resampled alignment: it compresses to the
            // replicate, pattern for pattern.
            let again = rep.expand().unwrap().compress();
            assert_eq!((again.tips, again.weights), (rep.tips, rep.weights));
        }
    }

    #[test]
    fn sequence_string_round_trip() {
        let a = toy();
        assert_eq!(a.sequence_string(0), "ACGTACGT");
    }

    #[test]
    fn expand_inverts_compress() {
        let a = toy();
        assert_eq!(a.compress().expand().unwrap(), a);
    }

    #[test]
    fn interner_survives_table_growth() {
        // More distinct patterns than the initial 64-slot table: every
        // column distinct, so the bucket array must grow (and rehash from
        // the flat store) several times without corrupting ids.
        let n_sites = 1000;
        let mut rows: Vec<Vec<DnaCode>> = (0..5).map(|_| Vec::with_capacity(n_sites)).collect();
        for site in 0..n_sites {
            // Encode the site number in base 4 across the five taxa.
            let mut v = site;
            for row in rows.iter_mut() {
                row.push(1u8 << (v % 4));
                v /= 4;
            }
        }
        let names = (0..5).map(|t| format!("t{t}")).collect();
        let a = Alignment::from_encoded(names, rows).unwrap();
        let p = a.try_compress().unwrap();
        assert_eq!(p.n_patterns(), n_sites);
        assert_eq!(p.expand().unwrap(), a);
    }

    #[test]
    fn compress_matches_reference_map_implementation() {
        // The interner must produce the same patterns, weights, and mapping
        // as a straightforward HashMap-keyed reference.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n_taxa = 7;
        let n_sites = 400;
        let mut rows: Vec<Vec<DnaCode>> =
            (0..n_taxa).map(|_| Vec::with_capacity(n_sites)).collect();
        for _ in 0..n_sites {
            for row in rows.iter_mut() {
                row.push(1u8 << (next() % 4));
            }
        }
        let names = (0..n_taxa).map(|t| format!("t{t}")).collect();
        let a = Alignment::from_encoded(names, rows).unwrap();

        let mut index: HashMap<Vec<DnaCode>, usize> = HashMap::new();
        let mut ref_weights: Vec<f64> = Vec::new();
        let mut ref_map: Vec<usize> = Vec::new();
        for site in 0..a.n_sites() {
            let col = a.column(site);
            let id = *index.entry(col).or_insert_with(|| {
                ref_weights.push(0.0);
                ref_weights.len() - 1
            });
            ref_weights[id] += 1.0;
            ref_map.push(id);
        }

        let p = a.compress();
        assert_eq!(p.weights(), &ref_weights[..]);
        let got: Vec<usize> = p.site_to_pattern().iter().map(|&i| i as usize).collect();
        assert_eq!(got, ref_map);
    }
}
