//! Regenerates the paper's tables, figure and extension studies on the
//! simulated Cell, one subcommand each:
//!
//! * `table1` … `table8`, `figure3`, `profile` (the §5.2 gprofile-style
//!   breakdown), `all` (every table and the figure in one run);
//! * `ablation`, `multilevel`, `scaling`, `overlay`, `fault` — the extension
//!   studies over the same priced trace;
//! * `traces` — one SPR round under EDTLP, LLP/2 and MGPS with event
//!   tracing on, exported as Chrome traces + JSONL snapshots into `--out`
//!   (default `target/paper_traces`).
//!
//! `--quick` captures the reduced workload instead of the 42_SC equivalent
//! (~1 min). Everything printed is simulated cycles: deterministic per
//! workload, so nothing here needs a baseline.

use bench::cli::StudyArgs;
use bench::{or_exit, paper_text, workload_for, PAPER_SUBCOMMANDS};
use std::path::PathBuf;

fn main() {
    let usage = format!("paper <{}> [--quick] [--out DIR]", PAPER_SUBCOMMANDS.join("|"));
    let args = StudyArgs::parse(&usage, &PAPER_SUBCOMMANDS, &["--quick", "--out"]);
    let out_dir = args.out.unwrap_or_else(|| PathBuf::from("target/paper_traces"));
    let (workload, label) = or_exit(workload_for(args.quick));
    println!("workload: {label}");
    print!("{}", or_exit(paper_text(&args.subcommand, &workload, &out_dir)));
}
