//! `phylo-ml` — a command-line interface to the inference engine.
//!
//! ```text
//! phylo-ml simulate --taxa 24 --sites 1200 --seed 7 --out data.phy
//! phylo-ml infer    data.phy --preset standard --seed 1 --out best.nwk
//! phylo-ml analyze  data.phy --inferences 4 --bootstraps 100 --workers 8
//! phylo-ml score    data.phy best.nwk --alpha 0.6
//! ```
//!
//! Formats are auto-detected (by extension, else `>` ⇒ FASTA, otherwise
//! PHYLIP). All runs are deterministic given `--seed`.

use phylo::alignment::PatternAlignment;
use phylo::bootstrap::BootstrapAnalysis;
use phylo::error::PhyloError;
use phylo::io::{load_alignment, parse_newick, write_phylip};
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::{KernelTier, LikelihoodConfig};
use phylo::model::{GammaRates, SubstModel};
use phylo::search::{run_inference, InferenceOptions, InferenceRequest, SearchConfig};
use phylo::simulate::SimulationConfig;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("infer") => cmd_infer(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("score") => cmd_score(&args[1..]),
        Some("score-protein") => cmd_score_protein(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
phylo-ml — maximum-likelihood phylogenetic inference

USAGE:
  phylo-ml simulate --taxa N --sites N [--seed N] [--alpha F] [--mean-branch F] [--out FILE]
  phylo-ml infer   ALIGNMENT [--preset fast|standard|thorough] [--seed N]
                   [--radius N] [--rounds N] [--alpha F] [--no-alpha-opt]
                   [--parallel] [--out FILE]
  phylo-ml analyze ALIGNMENT [--inferences N] [--bootstraps N] [--workers N]
                   [--preset ...] [--seed N] [--consensus] [--out FILE]
  phylo-ml score   ALIGNMENT TREE.nwk [--alpha F]
  phylo-ml score-protein AA_FASTA TREE.nwk [--matrix PAML.dat] [--optimize-branches]

Alignments may be PHYLIP or FASTA (auto-detected). Output trees are Newick.
";

/// Minimal flag parser: positionals plus `--key value` / `--switch` pairs.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if switches.contains(&name) {
                    flags.push((name.to_string(), None));
                } else {
                    let value = it.next().ok_or_else(|| format!("flag --{name} needs a value"))?;
                    flags.push((name.to_string(), Some(value.clone())));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value {v:?} for --{name}")),
        }
    }
}

/// Load and pattern-compress an alignment; the error names the file.
fn load_compressed(path: &str) -> Result<PatternAlignment, String> {
    match load_alignment(Path::new(path)) {
        Ok(aln) => Ok(aln.compress()),
        // An I/O error already carries the path; a parse error does not.
        Err(e @ PhyloError::Io { .. }) => Err(e.to_string()),
        Err(e) => Err(format!("cannot parse {path:?}: {e}")),
    }
}

fn write_out(path: Option<&str>, content: &str) -> Result<(), String> {
    match path {
        Some(p) => {
            std::fs::write(p, content).map_err(|e| format!("cannot write {p:?}: {e}"))?;
            eprintln!("wrote {p}");
            Ok(())
        }
        None => {
            println!("{content}");
            Ok(())
        }
    }
}

fn search_config(a: &Args) -> Result<SearchConfig, String> {
    let mut cfg = match a.get("preset").unwrap_or("standard") {
        "fast" => SearchConfig::fast(),
        "standard" => SearchConfig::standard(),
        "thorough" => SearchConfig::thorough(),
        other => return Err(format!("unknown preset {other:?} (fast|standard|thorough)")),
    };
    cfg.spr_radius = a.get_parse("radius", cfg.spr_radius)?;
    cfg.max_spr_rounds = a.get_parse("rounds", cfg.max_spr_rounds)?;
    cfg.initial_alpha = a.get_parse("alpha", cfg.initial_alpha)?;
    if a.has("no-alpha-opt") {
        cfg.optimize_alpha = false;
    }
    if a.has("parallel") {
        cfg.likelihood.parallel = true;
    }
    Ok(cfg)
}

fn cmd_simulate(raw: &[String]) -> Result<(), String> {
    let a = Args::parse(raw, &[])?;
    let taxa: usize = a.get_parse("taxa", 16)?;
    let sites: usize = a.get_parse("sites", 1000)?;
    let seed: u64 = a.get_parse("seed", 42)?;
    let alpha: f64 = a.get_parse("alpha", 0.7)?;
    let mean_branch: f64 = a.get_parse("mean-branch", 0.08)?;
    if taxa < 3 {
        return Err("need at least 3 taxa".into());
    }
    let cfg = SimulationConfig { alpha, mean_branch, ..SimulationConfig::new(taxa, sites, seed) };
    let w = cfg.try_generate().map_err(|e| e.to_string())?;
    eprintln!(
        "simulated {taxa} taxa × {sites} sites ({} patterns) under GTR+Γ(α={alpha})",
        w.alignment.n_patterns()
    );
    eprintln!("true tree: {}", w.true_tree.to_newick(w.alignment.taxon_names()));
    write_out(a.get("out"), &write_phylip(&w.raw))
}

fn cmd_infer(raw: &[String]) -> Result<(), String> {
    let a = Args::parse(raw, &["no-alpha-opt", "parallel"])?;
    let path = a.positional.first().ok_or("infer needs an alignment file")?;
    let aln = load_compressed(path)?;
    let cfg = search_config(&a)?;
    let seed: u64 = a.get_parse("seed", 1)?;

    eprintln!(
        "inferring: {} taxa × {} sites ({} patterns), preset {}, kernels {}",
        aln.n_taxa(),
        aln.n_sites(),
        aln.n_patterns(),
        a.get("preset").unwrap_or("standard"),
        KernelTier::probe()
    );
    let t0 = std::time::Instant::now();
    let request = InferenceRequest::new(cfg, seed);
    let result =
        run_inference(&aln, &request, InferenceOptions::new()).map_err(|e| e.to_string())?.result;
    eprintln!(
        "done in {:.2?}: lnL = {:.4}, alpha = {:.4}, {} SPR moves in {} rounds",
        t0.elapsed(),
        result.log_likelihood,
        result.alpha,
        result.moves_applied,
        result.rounds
    );
    write_out(a.get("out"), &result.tree.to_newick(aln.taxon_names()))
}

fn cmd_analyze(raw: &[String]) -> Result<(), String> {
    let a = Args::parse(raw, &["no-alpha-opt", "parallel", "consensus"])?;
    let path = a.positional.first().ok_or("analyze needs an alignment file")?;
    let aln = load_compressed(path)?;
    let analysis = BootstrapAnalysis {
        n_inferences: a.get_parse("inferences", 4)?,
        n_bootstraps: a.get_parse("bootstraps", 100)?,
        n_workers: a.get_parse("workers", 4)?,
        seed: a.get_parse("seed", 42)?,
        search: search_config(&a)?,
    };
    if analysis.n_inferences == 0 {
        return Err("need at least one inference".into());
    }
    eprintln!(
        "analysis: {} inferences + {} bootstraps on {} workers, kernels {}…",
        analysis.n_inferences,
        analysis.n_bootstraps,
        analysis.n_workers,
        KernelTier::probe()
    );
    let t0 = std::time::Instant::now();
    let result = analysis.try_run(&aln).map_err(|e| e.to_string())?;
    eprintln!("done in {:.2?}: best lnL = {:.4}", t0.elapsed(), result.best_log_likelihood);
    let names = aln.taxon_names().to_vec();
    if a.has("consensus") {
        // Emit the majority-rule consensus of the replicates instead of the
        // support-annotated best tree.
        write_out(a.get("out"), &result.consensus(0.5).to_newick(&names))
    } else {
        write_out(a.get("out"), &result.best.to_newick_with_support(&names))
    }
}

fn cmd_score_protein(raw: &[String]) -> Result<(), String> {
    use phylo::protein::{
        optimize_branch_lengths, protein_log_likelihood, MultiStateModel, ProteinAlignment,
    };
    let a = Args::parse(raw, &["optimize-branches"])?;
    let aln_path = a.positional.first().ok_or("score-protein needs an AA FASTA file")?;
    let tree_path = a.positional.get(1).ok_or("score-protein needs a Newick tree file")?;

    // Parse AA FASTA by hand (the DNA parser rejects amino-acid letters).
    let text =
        std::fs::read_to_string(aln_path).map_err(|e| format!("cannot read {aln_path:?}: {e}"))?;
    let mut pairs: Vec<(String, String)> = Vec::new();
    for block in text.split('>').filter(|b| !b.trim().is_empty()) {
        let mut lines = block.lines();
        let name = lines
            .next()
            .and_then(|h| h.split_whitespace().next())
            .ok_or("malformed FASTA header")?
            .to_string();
        let seq: String = lines.collect::<Vec<_>>().join("");
        pairs.push((name, seq));
    }
    let aln = ProteinAlignment::from_named_sequences(&pairs).map_err(|e| e.to_string())?;

    let model = match a.get("matrix") {
        Some(path) => {
            let m =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
            MultiStateModel::from_paml(&m, None).map_err(|e| e.to_string())?
        }
        None => {
            MultiStateModel::poisson(&aln.empirical_frequencies()).map_err(|e| e.to_string())?
        }
    };

    let tree_text = std::fs::read_to_string(tree_path)
        .map_err(|e| format!("cannot read {tree_path:?}: {e}"))?;
    let mut tree = parse_newick(&tree_text, aln.taxon_names()).map_err(|e| e.to_string())?;

    if a.has("optimize-branches") {
        let lnl = optimize_branch_lengths(&mut tree, &aln, &model, 2);
        println!("lnL = {lnl:.6} (branch lengths optimized)");
        println!("{}", tree.to_newick(aln.taxon_names()));
    } else {
        println!("lnL = {:.6}", protein_log_likelihood(&tree, &aln, &model));
    }
    Ok(())
}

fn cmd_score(raw: &[String]) -> Result<(), String> {
    let a = Args::parse(raw, &[])?;
    let aln_path = a.positional.first().ok_or("score needs an alignment file")?;
    let tree_path = a.positional.get(1).ok_or("score needs a Newick tree file")?;
    let aln = load_compressed(aln_path)?;
    let tree_text = std::fs::read_to_string(tree_path)
        .map_err(|e| format!("cannot read {tree_path:?}: {e}"))?;
    let tree = parse_newick(&tree_text, aln.taxon_names()).map_err(|e| e.to_string())?;
    let alpha: f64 = a.get_parse("alpha", 0.7)?;

    let model = SubstModel::gtr(aln.base_frequencies(), [1.0; 6]).map_err(|e| e.to_string())?;
    let rates = GammaRates::standard(alpha).map_err(|e| e.to_string())?;
    let mut engine = LikelihoodEngine::new(&aln, model, rates, LikelihoodConfig::optimized());
    println!("lnL = {:.6}", engine.log_likelihood(&tree));
    Ok(())
}
