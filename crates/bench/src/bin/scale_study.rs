//! Large-alignment scaling study: the end-to-end costs that dominate
//! before the first likelihood is ever computed.
//!
//! The paper's runs top out at hundreds of taxa; real alignments reach
//! 1k–10k. At that scale three pre-likelihood costs used to be
//! superlinear or unbounded here: pattern compression (per-site column
//! allocation + map rehashing), PHYLIP I/O (whole-file strings), and
//! checkpoint snapshots (multi-MB tree strings). This study measures all
//! three plus the parallel `newview` dispatcher, sweeping taxa × sites
//! tiers up to 10k taxa, and reports the likelihood-workspace memory
//! estimate for each tier (the admission-control number).
//!
//! Both `--quick` and full runs measure the fixed **reference tier**
//! (1000 taxa × 2000 sites), so two runs always share one comparable row.
//! Scaling is judged by comparing tiers across the sweep (throughput should
//! stay roughly flat as sites grow: time ~linear in sites). This is the one
//! host-side study the `benchmark/` package has no workload for; it prints
//! text only.
//!
//! Flags:
//!   --smoke        self-check suite (compress round trip, PHYLIP round
//!                  trip, checkpoint round trip, memory-budget admission,
//!                  compression-cost linearity)
//!   --quick        reference tier + 100-taxa tier only

use std::hint::black_box;
use std::io::BufReader;
use std::time::Instant;

use bench::cli::StudyArgs;
use phylo::alignment::{Alignment, PatternAlignment};
use phylo::alphabet::DnaCode;
use phylo::checkpoint::{SearchCheckpoint, SearchCheckpointer};
use phylo::io::{parse_phylip_reader, write_phylip_to};
use phylo::likelihood::kernels::{self, build_tip_tables, tiled_len, Child, Mat4, TipTable16};
use phylo::likelihood::{KernelKind, LikelihoodWorkspace, ScalingCheck};
use phylo::model::{ExpImpl, GammaRates, SubstModel};
use phylo::tree::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_RATES: usize = 4;

/// One taxa × sites point of the sweep.
#[derive(Clone, Copy)]
struct Tier {
    taxa: usize,
    sites: usize,
}

impl Tier {
    fn label(&self) -> String {
        format!("{}x{}", self.taxa, self.sites)
    }
}

/// The tier both quick and full runs measure.
const REFERENCE: Tier = Tier { taxa: 1000, sites: 2000 };

fn main() {
    let args = StudyArgs::parse("scale_study [--smoke] [--quick]", &[], &["--smoke", "--quick"]);
    if args.smoke {
        match smoke() {
            Ok(()) => {
                println!("scale smoke: all checks passed");
                return;
            }
            Err(msg) => {
                eprintln!("scale smoke FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }

    let tiers: Vec<Tier> = if args.quick {
        vec![Tier { taxa: 100, sites: 2000 }, REFERENCE]
    } else {
        vec![
            Tier { taxa: 100, sites: 2000 },
            REFERENCE,
            Tier { taxa: 1000, sites: 10_000 },
            Tier { taxa: 4096, sites: 2000 },
            Tier { taxa: 10_000, sites: 5000 },
        ]
    };

    println!("large-alignment scaling ({} tiers)", tiers.len());
    println!(
        "{:>14} {:>10} {:>16} {:>16} {:>16} {:>14}",
        "tier", "patterns", "compress site/s", "load site/s", "newview pat/s", "clv est MB"
    );
    let mut checkpoint_p99_ns = 0.0;
    for tier in &tiers {
        let m = match measure_tier(*tier, args.quick) {
            Ok(m) => m,
            Err(msg) => {
                eprintln!("scale study FAILED at tier {}: {msg}", tier.label());
                std::process::exit(1);
            }
        };
        println!(
            "{:>14} {:>10} {:>16.0} {:>16.0} {:>16.0} {:>14.1}",
            tier.label(),
            m.n_patterns,
            m.compress_sites_per_sec,
            m.load_sites_per_sec,
            m.newview_patterns_per_sec,
            m.clv_estimate_bytes as f64 / (1024.0 * 1024.0),
        );
        if tier.taxa == REFERENCE.taxa && tier.sites == REFERENCE.sites {
            checkpoint_p99_ns = m.checkpoint_write_p99_ns;
        }
    }
    println!(
        "checkpoint write p99 ({} taxa tree): {:.2} ms",
        REFERENCE.taxa,
        checkpoint_p99_ns / 1e6
    );
}

// ---------------------------------------------------------------------
// fixtures
// ---------------------------------------------------------------------

/// splitmix64: one cheap, statistically solid step per draw.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic star-phylogeny alignment: one random root sequence,
/// each taxon mutating ~3% of its sites independently. Orders of
/// magnitude cheaper than the GTR simulator at 10k taxa while still
/// producing realistic pattern sharing (conserved columns collapse,
/// divergent ones stay distinct).
fn synthetic_alignment(n_taxa: usize, n_sites: usize, seed: u64) -> Alignment {
    let mut state = seed;
    let root: Vec<DnaCode> = (0..n_sites).map(|_| 1u8 << (splitmix(&mut state) % 4)).collect();
    let mut names = Vec::with_capacity(n_taxa);
    let mut rows = Vec::with_capacity(n_taxa);
    for t in 0..n_taxa {
        let mut row = root.clone();
        let mut s = seed ^ (t as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        for site in row.iter_mut() {
            let r = splitmix(&mut s);
            if r.is_multiple_of(32) {
                *site = 1u8 << ((r >> 8) % 4);
            }
        }
        names.push(format!("taxon{t}"));
        rows.push(row);
    }
    Alignment::from_encoded(names, rows).expect("synthetic alignment is well-formed")
}

/// Best-of-trials wall time of `body`, in seconds.
fn best_of<F: FnMut()>(trials: usize, mut body: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best.max(1e-12)
}

struct TierMeasurement {
    n_patterns: usize,
    compress_sites_per_sec: f64,
    load_sites_per_sec: f64,
    newview_patterns_per_sec: f64,
    clv_estimate_bytes: u64,
    checkpoint_write_p99_ns: f64,
}

fn measure_tier(tier: Tier, quick: bool) -> Result<TierMeasurement, String> {
    let aln = synthetic_alignment(tier.taxa, tier.sites, 0x5CA1E + tier.taxa as u64);
    let cells = tier.taxa * tier.sites;
    // Scale trial counts down as the tier grows so the full sweep stays
    // in CI-friendly wall time; best-of keeps small-trial noise bounded.
    let trials = if cells > 10_000_000 {
        2
    } else if quick {
        3
    } else {
        5
    };

    let mut compressed: Option<PatternAlignment> = None;
    let compress_secs = best_of(trials, || {
        compressed = Some(black_box(aln.compress()));
    });
    let pat = compressed.expect("at least one compress trial ran");
    let n_patterns = pat.n_patterns();

    let load_secs = {
        let dir = std::env::temp_dir().join(format!("scale_study_{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.phy", tier.label()));
        let file = std::fs::File::create(&path).map_err(|e| format!("create: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        write_phylip_to(&aln, &mut w).map_err(|e| format!("writing phylip: {e}"))?;
        std::io::Write::flush(&mut w).map_err(|e| format!("flush: {e}"))?;
        drop(w);
        let secs = best_of(trials, || {
            let f = std::fs::File::open(&path).expect("fixture file exists");
            let parsed = parse_phylip_reader(BufReader::new(f)).expect("fixture parses");
            black_box(parsed);
        });
        std::fs::remove_dir_all(&dir).ok();
        secs
    };

    let newview_pps = newview_throughput(n_patterns, if quick { 10 } else { 25 });

    let clv_estimate_bytes = LikelihoodWorkspace::estimate_bytes(tier.taxa, n_patterns, N_RATES);

    // Checkpoint latency is only reported at the reference tier; skip the
    // Tree::random cost elsewhere.
    let checkpoint_write_p99_ns = if tier.taxa == REFERENCE.taxa && tier.sites == REFERENCE.sites {
        checkpoint_p99(tier.taxa, if quick { 15 } else { 40 })?
    } else {
        0.0
    };

    Ok(TierMeasurement {
        n_patterns,
        compress_sites_per_sec: tier.sites as f64 / compress_secs,
        load_sites_per_sec: tier.sites as f64 / load_secs,
        newview_patterns_per_sec: newview_pps,
        clv_estimate_bytes,
        checkpoint_write_p99_ns,
    })
}

/// Single-thread tip/tip `newview` throughput, in patterns per second, at
/// the tier's real pattern count.
fn newview_throughput(n_patterns: usize, reps: usize) -> f64 {
    let model = SubstModel::gtr([0.3, 0.2, 0.25, 0.25], [1.2, 3.1, 0.8, 0.9, 3.4, 1.0]).unwrap();
    let gamma = GammaRates::standard(0.7).unwrap();
    let pl: Vec<Mat4> =
        gamma.rates().iter().map(|&r| model.transition_matrix(0.13, r, ExpImpl::Sdk)).collect();
    let pr: Vec<Mat4> =
        gamma.rates().iter().map(|&r| model.transition_matrix(0.31, r, ExpImpl::Sdk)).collect();
    let tables_l: Vec<TipTable16> = build_tip_tables(&pl);
    let tables_r: Vec<TipTable16> = build_tip_tables(&pr);
    let mut state = 0xFEEDu64;
    let codes: Vec<u8> = (0..n_patterns).map(|_| 1u8 << (splitmix(&mut state) % 4)).collect();
    let mut out = vec![0.0f64; tiled_len(n_patterns, N_RATES)];
    let mut scale = vec![0u32; n_patterns];
    let mut newview = || {
        black_box(kernels::newview(
            &Child::Tip { codes: &codes, tables: &tables_l },
            &Child::Tip { codes: &codes, tables: &tables_r },
            &mut out,
            &mut scale,
            N_RATES,
            KernelKind::Vector,
            ScalingCheck::IntegerCast,
        ));
    };
    newview();
    newview();
    let secs = best_of(3, || {
        for _ in 0..reps {
            newview();
        }
    });
    (n_patterns * reps) as f64 / secs
}

/// p99 of `SearchCheckpointer::save` with a `n_taxa`-leaf tree snapshot —
/// the streaming-writer path the large-run driver hits between rounds.
fn checkpoint_p99(n_taxa: usize, reps: usize) -> Result<f64, String> {
    let dir = std::env::temp_dir().join(format!("scale_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("search.ckpt");
    let mut rng = StdRng::seed_from_u64(17);
    let tree = Tree::random(n_taxa, 0.1, &mut rng).map_err(|e| format!("tree: {e}"))?;
    let snap = SearchCheckpoint {
        rounds_done: 3,
        moves_applied: 41,
        last_applied: 7,
        alpha_bits: 0.73f64.to_bits(),
        tree_exact: tree.to_exact_string(),
    };
    let mut ckpt = SearchCheckpointer::new(&path, 0xDEAD_BEEF);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        ckpt.save(&snap).map_err(|e| format!("save: {e}"))?;
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    std::fs::remove_dir_all(&dir).ok();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Ok(samples[((samples.len() - 1) as f64 * 0.99).round() as usize])
}

// ---------------------------------------------------------------------
// smoke
// ---------------------------------------------------------------------

fn smoke() -> Result<(), String> {
    smoke_compress_round_trip()?;
    smoke_phylip_round_trip()?;
    smoke_checkpoint_round_trip()?;
    smoke_memory_budget()?;
    smoke_compression_linearity()?;
    println!(
        "scale smoke: compress/expand + phylip + checkpoint round trips, budget admission, \
         linearity all OK"
    );
    Ok(())
}

/// `compress` is lossless: expanding the pattern alignment reproduces the
/// original matrix, and the weights recount the original columns.
fn smoke_compress_round_trip() -> Result<(), String> {
    let aln = synthetic_alignment(40, 500, 7);
    let pat = aln.try_compress().map_err(|e| format!("compress: {e}"))?;
    if pat.weights().iter().sum::<f64>() as usize != aln.n_sites() {
        return Err("pattern weights do not sum to the site count".to_string());
    }
    let back = pat.expand().map_err(|e| format!("expand: {e}"))?;
    for t in 0..aln.n_taxa() {
        if back.row(t) != aln.row(t) {
            return Err(format!("expand lost data in taxon {t}"));
        }
    }
    Ok(())
}

/// The streaming PHYLIP writer and reader are inverses.
fn smoke_phylip_round_trip() -> Result<(), String> {
    let aln = synthetic_alignment(25, 301, 11);
    let mut buf = Vec::new();
    write_phylip_to(&aln, &mut buf).map_err(|e| format!("write: {e}"))?;
    let back = parse_phylip_reader(BufReader::new(&buf[..])).map_err(|e| format!("parse: {e}"))?;
    for t in 0..aln.n_taxa() {
        if back.row(t) != aln.row(t) {
            return Err(format!("phylip round trip lost data in taxon {t}"));
        }
    }
    Ok(())
}

/// A saved snapshot of a 500-taxon tree reloads exactly through the
/// streaming checkpoint reader.
fn smoke_checkpoint_round_trip() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("scale_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("smoke.ckpt");
    let mut rng = StdRng::seed_from_u64(5);
    let tree = Tree::random(500, 0.1, &mut rng).map_err(|e| format!("tree: {e}"))?;
    let snap = SearchCheckpoint {
        rounds_done: 1,
        moves_applied: 2,
        last_applied: 2,
        alpha_bits: 1.1f64.to_bits(),
        tree_exact: tree.to_exact_string(),
    };
    let mut ckpt = SearchCheckpointer::new(&path, 42);
    ckpt.save(&snap).map_err(|e| format!("save: {e}"))?;
    let loaded = SearchCheckpointer::new(&path, 42)
        .load()
        .map_err(|e| format!("load: {e}"))?
        .ok_or("snapshot vanished")?;
    std::fs::remove_dir_all(&dir).ok();
    if loaded.tree_exact != snap.tree_exact || loaded.alpha_bits != snap.alpha_bits {
        return Err("checkpoint round trip lost the snapshot".to_string());
    }
    Ok(())
}

/// The workspace memory estimate admits at its own number and rejects one
/// byte below it — the same check phylo-serve runs at admission.
fn smoke_memory_budget() -> Result<(), String> {
    let required = LikelihoodWorkspace::check_budget(1000, 2000, N_RATES, None)
        .map_err(|e| format!("unbudgeted check must pass: {e}"))?;
    if LikelihoodWorkspace::check_budget(1000, 2000, N_RATES, Some(required)).is_err() {
        return Err("budget equal to the estimate must admit".to_string());
    }
    if LikelihoodWorkspace::check_budget(1000, 2000, N_RATES, Some(required - 1)).is_ok() {
        return Err("budget below the estimate must reject".to_string());
    }
    Ok(())
}

/// The regression this study exists to catch: compression cost must be
/// ~linear in sites. 4× the sites may cost at most ~10× the time (the old
/// per-site-allocating path with map rehashing trended quadratic, ≥16×).
fn smoke_compression_linearity() -> Result<(), String> {
    let small = synthetic_alignment(50, 2000, 3);
    let large = synthetic_alignment(50, 8000, 3);
    let t_small = best_of(5, || {
        black_box(small.compress());
    });
    let t_large = best_of(5, || {
        black_box(large.compress());
    });
    let ratio = t_large / t_small;
    if ratio > 10.0 {
        return Err(format!("4x sites cost {ratio:.1}x time — compression is superlinear"));
    }
    Ok(())
}
