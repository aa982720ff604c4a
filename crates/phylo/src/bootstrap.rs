//! Full analyses: multiple inferences + non-parametric bootstrapping on the
//! one-queue inference farm (the paper's §3.1 MPI scheme, in-process).
//!
//! A "publishable" reconstruction runs 20–200 distinct inferences on the
//! original alignment (to find the best-known ML tree) plus 100–1,000
//! bootstrap replicates on re-weighted alignments (to attach confidence
//! values to the tree's branches). All of these are independent — the
//! embarrassing parallelism the Cell port schedules across SPEs. The farm
//! gives each worker a private [`crate::likelihood::LikelihoodWorkspace`]
//! shard (zero-allocation steady state) and seals results in job order,
//! which is what lets checkpointed runs append every completed job to the
//! store as it finishes.

use crate::alignment::PatternAlignment;
use crate::bipartitions::split_support;
use crate::checkpoint::{fingerprint, search_fingerprint, BootstrapStore};
use crate::error::{PhyloError, Result};
use crate::farm::{run_farm, FarmConfig};
use crate::likelihood::LikelihoodWorkspace;
use crate::search::{
    run_inference, InferenceOptions, InferenceRequest, SearchConfig, SearchResult,
};
use crate::trace::Trace;
use crate::tree::{NodeId, Tree};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Configuration of a complete analysis.
#[derive(Debug, Clone)]
pub struct BootstrapAnalysis {
    /// Distinct inferences on the original alignment.
    pub n_inferences: usize,
    /// Bootstrap replicates on re-weighted alignments.
    pub n_bootstraps: usize,
    /// Worker threads (the MPI "workers" of the paper).
    pub n_workers: usize,
    /// Master seed; every job derives its own deterministic seed.
    pub seed: u64,
    /// Per-inference search settings.
    pub search: SearchConfig,
}

/// The best tree with per-internal-edge bootstrap support.
#[derive(Debug, Clone)]
pub struct SupportTree {
    /// The best-scoring ML tree.
    pub tree: Tree,
    /// Support fraction (0–1) for each internal edge.
    pub support: Vec<((NodeId, NodeId), f64)>,
}

impl SupportTree {
    /// Support of a given internal edge, if it is one.
    pub fn support_of(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.support
            .iter()
            .find(|((x, y), _)| (*x == a && *y == b) || (*x == b && *y == a))
            .map(|&(_, s)| s)
    }

    /// Newick string with bootstrap support values as internal node labels
    /// (the standard `(...)support:length` convention, support in percent).
    pub fn to_newick_with_support(&self, names: &[String]) -> String {
        let tree = &self.tree;
        let root = names.len(); // first inner node
        let mut s = String::new();
        s.push('(');
        let kids: Vec<(NodeId, f64)> = tree.neighbors_of(root).collect();
        for (i, &(child, len)) in kids.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            self.write_rec(child, root, len, names, &mut s);
        }
        s.push_str(");");
        s
    }

    fn write_rec(
        &self,
        node: NodeId,
        parent: NodeId,
        len: f64,
        names: &[String],
        out: &mut String,
    ) {
        if self.tree.is_tip(node) {
            let _ = write!(out, "{}:{:.9}", names[node], len);
            return;
        }
        out.push('(');
        let mut first = true;
        for (child, clen) in self.tree.neighbors_of(node) {
            if child == parent {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            self.write_rec(child, node, clen, names, out);
        }
        out.push(')');
        if let Some(sup) = self.support_of(node, parent) {
            let _ = write!(out, "{:.0}", sup * 100.0);
        }
        let _ = write!(out, ":{:.9}", len);
    }
}

/// Result of a complete analysis.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// Best tree over all inferences, with support values.
    pub best: SupportTree,
    /// Log-likelihood of the best tree.
    pub best_log_likelihood: f64,
    /// Log-likelihoods of every inference, in job order.
    pub inference_log_likelihoods: Vec<f64>,
    /// Final trees of the bootstrap replicates.
    pub bootstrap_trees: Vec<Tree>,
    /// Merged kernel trace over all jobs.
    pub trace: Trace,
}

impl AnalysisResult {
    /// Majority-rule consensus of the bootstrap replicate trees (the other
    /// standard way — besides support values on the best tree — to
    /// summarize a bootstrap analysis).
    pub fn consensus(&self, threshold: f64) -> crate::bipartitions::Consensus {
        crate::bipartitions::majority_rule_consensus(&self.bootstrap_trees, threshold)
    }
}

enum Job {
    Inference { seed: u64 },
    Bootstrap { seed: u64 },
}

/// Where and how an analysis persists progress; see
/// [`BootstrapAnalysis::run_with_checkpoint`].
#[derive(Debug, Clone)]
pub struct BootstrapCheckpointPolicy {
    /// The append-only [`BootstrapStore`] file.
    pub path: PathBuf,
    /// Jobs dispatched per farm wave. Within a wave every completed job is
    /// appended to the store as the farm seals it in job order, so a kill
    /// loses at most the unsealed tail of one wave.
    pub chunk_size: usize,
    /// Testing hook: return [`PhyloError::Interrupted`] after this many
    /// waves (with their results already on disk) — models a mid-analysis
    /// kill without a real signal.
    pub abort_after_chunks: Option<usize>,
}

impl BootstrapCheckpointPolicy {
    /// Checkpoint to `path` after every `chunk_size` completed jobs.
    pub fn new(path: impl Into<PathBuf>, chunk_size: usize) -> BootstrapCheckpointPolicy {
        assert!(chunk_size >= 1, "chunk size must be at least 1");
        BootstrapCheckpointPolicy { path: path.into(), chunk_size, abort_after_chunks: None }
    }

    /// Abort (with progress safely on disk) after `n` waves.
    pub fn abort_after_chunks(mut self, n: usize) -> BootstrapCheckpointPolicy {
        self.abort_after_chunks = Some(n);
        self
    }
}

impl BootstrapAnalysis {
    /// Sensible defaults for a quick analysis.
    pub fn quick(seed: u64) -> BootstrapAnalysis {
        BootstrapAnalysis {
            n_inferences: 3,
            n_bootstraps: 10,
            n_workers: 4,
            seed,
            search: SearchConfig::fast(),
        }
    }

    /// Total jobs (inferences + bootstraps).
    fn n_jobs(&self) -> usize {
        self.n_inferences + self.n_bootstraps
    }

    /// The job at position `index` in the analysis's fixed job list. The
    /// seed derivation is per-job and independent of execution order, which
    /// is what lets a checkpointed run execute the list in chunks and still
    /// land bit-identically on [`BootstrapAnalysis::run`]'s results.
    fn job_for(&self, index: usize) -> Job {
        if index < self.n_inferences {
            Job::Inference { seed: self.seed.wrapping_add(index as u64) }
        } else {
            let i = (index - self.n_inferences) as u64;
            Job::Bootstrap { seed: self.seed.wrapping_add(0x1000_0000).wrapping_add(i) }
        }
    }

    /// Dispatch jobs `start..end` to the inference farm and return their
    /// results in job order. `on_result` fires once per completed job, in
    /// strict job order, as the farm seals it — the per-job checkpoint
    /// hook. A failed job (panic in a search) becomes
    /// [`PhyloError::Farm`]; results sealed before it are already through
    /// `on_result` (a prefix, so an append-only store stays resumable).
    fn run_jobs(
        &self,
        aln: &PatternAlignment,
        start: usize,
        end: usize,
        mut on_result: impl FnMut(&SearchResult) -> Result<()>,
    ) -> Result<Vec<SearchResult>> {
        let jobs: Vec<Job> = (start..end).map(|i| self.job_for(i)).collect();
        // Each farm worker owns one workspace arena for its whole lifetime:
        // `n_workers` arenas serve all replicates, so steady-state jobs
        // reuse the previous job's buffers instead of reallocating every
        // partial vector (results are bit-identical either way). An arena
        // is sized for `aln` itself: a replicate holds a subset of its
        // patterns, so whichever job a worker meets first, none regrows it.
        let search = &self.search;
        let (n_taxa, n_patterns, n_rates) =
            (aln.n_taxa(), aln.n_patterns(), search.n_rate_categories);
        let config = FarmConfig::new(self.n_workers.min((end - start).max(1)));
        let mut seal_err: Option<PhyloError> = None;
        let mut sealing_stopped = false;
        let outcome = run_farm(
            &config,
            jobs,
            |_worker| LikelihoodWorkspace::for_dimensions(n_taxa, n_patterns, n_rates),
            |ws: &mut LikelihoodWorkspace, _, job| {
                let owned = std::mem::take(ws);
                let outcome = match job {
                    Job::Inference { seed } => run_inference(
                        aln,
                        &InferenceRequest::new(search.clone(), seed),
                        InferenceOptions::new().with_workspace(owned),
                    ),
                    Job::Bootstrap { seed } => {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let replicate = aln.bootstrap_replicate(&mut rng);
                        run_inference(
                            &replicate,
                            &InferenceRequest::new(search.clone(), seed),
                            InferenceOptions::new().with_workspace(owned),
                        )
                    }
                };
                let outcome = outcome.expect("un-checkpointed search on finite data cannot fail");
                *ws = outcome.workspace;
                outcome.result
            },
            None,
            |_, sealed| {
                // Stop at the first failure or append error so the results
                // passed downstream stay an uninterrupted job-order prefix.
                if sealing_stopped {
                    return;
                }
                match sealed {
                    Ok(r) => {
                        if let Err(e) = on_result(r) {
                            seal_err = Some(e);
                            sealing_stopped = true;
                        }
                    }
                    Err(_) => sealing_stopped = true,
                }
            },
        );
        if let Some(e) = seal_err {
            return Err(e);
        }
        outcome
            .results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.map_err(|fe| PhyloError::Farm { job: start + i, message: fe.to_string() })
            })
            .collect()
    }

    /// Assemble the final [`AnalysisResult`] from per-job (log-likelihood,
    /// tree) pairs in job order, plus whatever trace was gathered.
    fn assemble(&self, per_job: Vec<(f64, Tree)>, trace: Trace) -> AnalysisResult {
        let (inferences, bootstraps) = per_job.split_at(self.n_inferences);
        let best_idx = inferences
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.0.partial_cmp(&b.0).expect("lnl is never NaN"))
            .map(|(i, _)| i)
            .expect("at least one inference");
        let best_tree = inferences[best_idx].1.clone();
        let bootstrap_trees: Vec<Tree> = bootstraps.iter().map(|(_, t)| t.clone()).collect();
        let support = split_support(&best_tree, &bootstrap_trees);
        AnalysisResult {
            best: SupportTree { tree: best_tree, support },
            best_log_likelihood: inferences[best_idx].0,
            inference_log_likelihoods: inferences.iter().map(|(l, _)| *l).collect(),
            bootstrap_trees,
            trace,
        }
    }

    /// Run the full analysis on an alignment. A job that panics inside the
    /// farm surfaces as [`PhyloError::Farm`] naming the failed job, without
    /// discarding the other jobs' completed work inside the farm.
    pub fn try_run(&self, aln: &PatternAlignment) -> Result<AnalysisResult> {
        assert!(self.n_inferences >= 1, "need at least one inference to pick a best tree");
        let results = self.run_jobs(aln, 0, self.n_jobs(), |_| Ok(()))?;
        let mut trace = Trace::counters_only();
        for r in &results {
            trace.merge(&r.trace);
        }
        let per_job = results.into_iter().map(|r| (r.log_likelihood, r.tree)).collect();
        Ok(self.assemble(per_job, trace))
    }

    /// Fingerprint tying a [`BootstrapStore`] to this exact analysis on this
    /// exact alignment.
    pub fn fingerprint(&self, aln: &PatternAlignment) -> u64 {
        fingerprint([
            search_fingerprint(aln, &self.search, self.seed),
            self.n_inferences as u64,
            self.n_bootstraps as u64,
        ])
    }

    /// As [`BootstrapAnalysis::try_run`], persisting every completed job to an
    /// append-only store and resuming from it when one already exists.
    ///
    /// Job seeds are derived from the job index, never from execution
    /// order, so a run killed partway and resumed — even with a different
    /// `chunk_size` or worker count — produces trees and log-likelihoods
    /// bit-identical to an uninterrupted [`BootstrapAnalysis::try_run`]. The
    /// one exception is [`AnalysisResult::trace`]: it only counts kernels
    /// the *current* process executed (jobs restored from disk are not
    /// re-run, so their kernel work is genuinely absent).
    pub fn run_with_checkpoint(
        &self,
        aln: &PatternAlignment,
        policy: &BootstrapCheckpointPolicy,
    ) -> Result<AnalysisResult> {
        assert!(self.n_inferences >= 1, "need at least one inference to pick a best tree");
        let total = self.n_jobs();
        let mut store = BootstrapStore::open(&policy.path, self.fingerprint(aln), total)?;

        let mut trace = Trace::counters_only();
        let mut chunks = 0;
        while store.completed() < total {
            let start = store.completed();
            let end = (start + policy.chunk_size).min(total);
            // The farm seals results in job order, so each completed job is
            // appended to the store as soon as it (and all jobs before it)
            // finished — a kill mid-wave loses only unsealed work.
            let results = self.run_jobs(aln, start, end, |result| {
                store.append(result.log_likelihood, &result.tree.to_exact_string())
            })?;
            for result in &results {
                trace.merge(&result.trace);
            }
            chunks += 1;
            if let Some(limit) = policy.abort_after_chunks {
                if chunks >= limit && store.completed() < total {
                    return Err(PhyloError::Interrupted { completed: store.completed() });
                }
            }
        }

        let per_job = store
            .records()
            .iter()
            .map(|rec| Ok((rec.log_likelihood, Tree::from_exact_string(&rec.tree_exact)?)))
            .collect::<Result<Vec<(f64, Tree)>>>()?;
        Ok(self.assemble(per_job, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartitions::robinson_foulds;
    use crate::simulate::SimulationConfig;

    fn quick_analysis(
        n_taxa: usize,
        n_sites: usize,
        seed: u64,
    ) -> (AnalysisResult, crate::simulate::SimulatedWorkload) {
        let w =
            SimulationConfig { mean_branch: 0.12, ..SimulationConfig::new(n_taxa, n_sites, seed) }
                .generate();
        let analysis = BootstrapAnalysis {
            n_inferences: 2,
            n_bootstraps: 6,
            n_workers: 3,
            seed: 7,
            search: SearchConfig::fast(),
        };
        (analysis.try_run(&w.alignment).unwrap(), w)
    }

    #[test]
    fn analysis_produces_consistent_result() {
        let (result, w) = quick_analysis(6, 800, 3);
        assert_eq!(result.inference_log_likelihoods.len(), 2);
        assert_eq!(result.bootstrap_trees.len(), 6);
        assert!(result.best_log_likelihood < 0.0);
        assert!(result.inference_log_likelihoods.iter().all(|&l| l <= result.best_log_likelihood));
        result.best.tree.validate().unwrap();
        // n − 3 internal edges get support values.
        assert_eq!(result.best.support.len(), 6 - 3);
        // Clean data: the best tree should be at most one split away from
        // the truth (the ML tree on finite data can legitimately differ)
        // and reasonably supported.
        assert!(robinson_foulds(&result.best.tree, &w.true_tree) <= 2);
        let mean_support: f64 = result.best.support.iter().map(|&(_, s)| s).sum::<f64>()
            / result.best.support.len() as f64;
        assert!(mean_support > 0.5, "clean data should be well supported: {mean_support}");
    }

    #[test]
    fn support_values_are_probabilities() {
        let (result, _) = quick_analysis(6, 300, 5);
        for &(_, s) in &result.best.support {
            assert!((0.0..=1.0).contains(&s), "support {s} out of range");
        }
    }

    #[test]
    fn newick_with_support_is_parseable_shape() {
        let (result, w) = quick_analysis(6, 300, 1);
        let names = w.alignment.taxon_names().to_vec();
        let nwk = result.best.to_newick_with_support(&names);
        assert!(nwk.ends_with(");"));
        for name in &names {
            assert!(nwk.contains(name.as_str()));
        }
        // Internal labels appear as ")<digits>:".
        assert!(
            nwk.contains(")1") || nwk.contains(")0") || nwk.contains(")8") || nwk.contains(")9"),
            "expected support labels in {nwk}"
        );
    }

    #[test]
    fn consensus_agrees_with_support_values() {
        let (result, _) = quick_analysis(6, 800, 3);
        let consensus = result.consensus(0.5);
        // Every consensus clade's support must match a well-supported split
        // of the best tree or reflect genuine replicate variation; at
        // minimum the counts are consistent: a fully resolved consensus has
        // n − 3 clades.
        assert!(consensus.n_clades() <= 6 - 3);
        for (taxa, f) in consensus.clades() {
            assert!(*f > 0.5 && *f <= 1.0);
            assert!(taxa.len() >= 2 && taxa.len() <= 4);
        }
        // High-support splits on the best tree (>50%) appear in the
        // consensus (they are, by definition, majority splits of the
        // replicates).
        let majority_on_best = result.best.support.iter().filter(|&&(_, s)| s > 0.5).count();
        assert!(consensus.n_clades() >= majority_on_best.min(6 - 3));
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = quick_analysis(6, 200, 13);
        let (b, _) = quick_analysis(6, 200, 13);
        assert_eq!(a.best_log_likelihood, b.best_log_likelihood);
        assert_eq!(a.best.tree, b.best.tree);
        assert_eq!(a.inference_log_likelihoods, b.inference_log_likelihoods);
    }

    /// A bootstrap analysis killed mid-run and resumed from its store must
    /// reproduce the uninterrupted analysis bit-for-bit: same best tree,
    /// same per-job log-likelihoods, same replicate trees.
    #[test]
    fn killed_analysis_resumes_bit_identically() {
        let w =
            SimulationConfig { mean_branch: 0.12, ..SimulationConfig::new(6, 200, 3) }.generate();
        let analysis = BootstrapAnalysis {
            n_inferences: 2,
            n_bootstraps: 6,
            n_workers: 3,
            seed: 7,
            search: SearchConfig::fast(),
        };
        let reference = analysis.try_run(&w.alignment).unwrap();

        let dir = std::env::temp_dir().join("raxml-cell-bootstrap-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kill-resume.ckpt");
        let _ = std::fs::remove_file(&path);

        // First attempt dies after one 3-job wave (progress on disk).
        let dying = BootstrapCheckpointPolicy::new(&path, 3).abort_after_chunks(1);
        let err = analysis.run_with_checkpoint(&w.alignment, &dying).unwrap_err();
        assert_eq!(err, PhyloError::Interrupted { completed: 3 });

        // Resume with a *different* chunk size: job seeds depend only on the
        // job index, so chunking must not matter.
        let policy = BootstrapCheckpointPolicy::new(&path, 2);
        let resumed = analysis.run_with_checkpoint(&w.alignment, &policy).unwrap();

        assert_eq!(resumed.best.tree.to_exact_string(), reference.best.tree.to_exact_string());
        assert_eq!(resumed.best_log_likelihood.to_bits(), reference.best_log_likelihood.to_bits());
        assert_eq!(
            resumed.inference_log_likelihoods.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            reference.inference_log_likelihoods.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(resumed.bootstrap_trees.len(), reference.bootstrap_trees.len());
        for (a, b) in resumed.bootstrap_trees.iter().zip(&reference.bootstrap_trees) {
            assert_eq!(a.to_exact_string(), b.to_exact_string());
        }
        assert_eq!(resumed.best.support, reference.best.support);

        // A third invocation finds everything done and re-runs nothing: the
        // trace is empty, the results unchanged.
        let again = analysis.run_with_checkpoint(&w.alignment, &policy).unwrap();
        assert_eq!(again.trace.counters().newview_calls, 0);
        assert_eq!(again.best_log_likelihood.to_bits(), reference.best_log_likelihood.to_bits());
    }

    /// The store refuses to resume an analysis with different parameters.
    #[test]
    fn checkpoint_refuses_a_different_analysis() {
        let w = SimulationConfig::new(6, 120, 9).generate();
        let analysis = BootstrapAnalysis {
            n_inferences: 1,
            n_bootstraps: 2,
            n_workers: 2,
            seed: 1,
            search: SearchConfig::fast(),
        };
        let dir = std::env::temp_dir().join("raxml-cell-bootstrap-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foreign.ckpt");
        let _ = std::fs::remove_file(&path);

        let policy = BootstrapCheckpointPolicy::new(&path, 2);
        analysis.run_with_checkpoint(&w.alignment, &policy).unwrap();

        let mut other = analysis.clone();
        other.seed = 2;
        let err = other.run_with_checkpoint(&w.alignment, &policy).unwrap_err();
        assert!(matches!(err, PhyloError::Checkpoint { .. }), "{err}");
    }

    #[test]
    fn trace_aggregates_all_jobs() {
        let (result, _) = quick_analysis(6, 200, 17);
        // 8 jobs, each a full search: plenty of kernel calls.
        assert!(result.trace.counters().newview_calls > 500);
        assert!(result.trace.counters().makenewz_calls > 50);
    }
}
