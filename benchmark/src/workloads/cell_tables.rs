//! `cell_tables`: the paper's contribution. One operation captures the
//! kernel trace of a real aln42 search and prices Tables 1a-8 and Figure 3
//! on the simulated Cell under the paper-calibrated cost model.
//!
//! Host time is what this workload times. Simulated seconds are a pure
//! function of the captured trace, so for one `--seed` they repeat exactly;
//! the first operation is run again after the window to prove it.

use super::{derive, repeat_setup, timed_ops, Args, Checks, Outcome};
use crate::spans::{Spans, NO_PARENT};
use crate::stats::median_or_zero;
use cellsim::cost::CostModel;
use raxml_cell::experiment::{run_figure3, run_ladder, run_table8, Figure3, LevelResult};
use raxml_cell::report::{shape_deviation, Comparison};
use raxml_cell::sched::DesParams;
use raxml_cell::{capture_workload, ExperimentError, WorkloadSpec};
use std::collections::BTreeMap;
use std::hint::black_box;

/// The search seed is the input: the aln42 alignment itself is the paper's
/// fixed dataset, the stepwise-addition order (and so the trace) is drawn
/// from `--seed`.
fn spec(args: &Args, index: u64) -> WorkloadSpec {
    let base = if args.smoke { WorkloadSpec::test_mid() } else { WorkloadSpec::aln42() };
    WorkloadSpec { seed: derive(args.seed, 0, index), ..base }
}

struct Tables {
    trace_events: usize,
    ladder: Vec<LevelResult>,
    table8: Vec<Comparison>,
    figure3: Figure3,
}

impl Tables {
    /// Every simulated second of every table and the figure, as bits.
    fn simulated_bits(&self) -> Vec<u64> {
        let rows = self.ladder.iter().flat_map(|level| &level.rows).chain(&self.table8);
        let figure = [&self.figure3.cell, &self.figure3.power5, &self.figure3.xeon];
        rows.map(|row| row.simulated_seconds)
            .chain(figure.into_iter().flatten().copied())
            .map(f64::to_bits)
            .collect()
    }
}

fn tables(spec: &WorkloadSpec, spans: &mut Spans, op: u64) -> Result<Tables, ExperimentError> {
    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let root = spans.begin("cell_tables", NO_PARENT, op);
    let workload = spans.time("core.capture", root, op, || capture_workload(spec))?;
    let ladder = spans.time("core.price_ladder", root, op, || run_ladder(&workload, &model))?;
    let table8 = spans.time("core.table8", root, op, || run_table8(&workload, &model, &params))?;
    let figure3 =
        spans.time("core.figure3", root, op, || run_figure3(&workload, &model, &params))?;
    spans.end(root);
    Ok(Tables { trace_events: workload.events.len(), ladder, table8, figure3 })
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut spans = Spans::new(args.traced);
    let ((), setups_s) = repeat_setup(args.setup_repeats(), || {
        // Nothing to generate ahead: a spec is a few numbers. Warm-up runs
        // the whole pipeline once on the small test workload.
        black_box(
            tables(&WorkloadSpec::small(), &mut Spans::new(false), 0).expect("warm-up tables"),
        );
    });

    let mut untraced = Spans::new(false);
    let timed = timed_ops(
        args,
        1,
        &mut checks,
        |i, under_spans| {
            let spans = if under_spans { &mut spans } else { &mut untraced };
            tables(&spec(args, i as u64), spans, i as u64).map_err(|e| e.to_string())
        },
        |plain, traced| plain.simulated_bits() == traced.simulated_bits(),
    );

    for done in &timed.done {
        // Figure 3 at its largest bootstrap count: the Xeon pair is the
        // slowest platform. The paper's full ranking (Cell < Power5) does
        // not hold on the full aln42 trace at the commit this benchmark was
        // added on, so it is reported (`core.fig3_power5_over_cell`), not
        // asserted; see README.md.
        let fig = &done.plain.figure3;
        let last = fig.bootstraps.len() - 1;
        checks
            .require(fig.cell[last] < fig.xeon[last] && fig.power5[last] < fig.xeon[last], || {
                format!("op {}: Figure 3: the Xeon is no longer the slowest platform", done.index)
            });
    }

    let mut layers = BTreeMap::new();
    if let Some(first) = timed.done.first() {
        // Same spec, same simulated seconds, to the bit.
        match tables(&spec(args, first.index as u64), &mut untraced, 0) {
            Ok(again) => checks
                .require(again.simulated_bits() == first.plain.simulated_bits(), || {
                    format!("op {}: simulated seconds do not repeat", first.index)
                }),
            Err(e) => checks.require(false, || format!("repeat of op {} failed: {e}", first.index)),
        }
        if args.traced {
            layer_metrics(&mut layers, &first.plain, &spans);
            timed.obs_layers(&mut layers, &spans, timed.done.len() as u64);
        }
    }
    let jobs = timed.done.len() as u64;
    timed.into_outcome(setups_s, jobs, checks, layers, spans)
}

fn layer_metrics(layers: &mut BTreeMap<&'static str, f64>, first: &Tables, spans: &Spans) {
    let med = |name: &str| median_or_zero(&spans.durations_s(name));
    let pricing_s = med("core.price_ladder") + med("core.table8") + med("core.figure3");
    layers.insert("core.capture_s", med("core.capture"));
    layers.insert("core.price_ladder_s", med("core.price_ladder"));
    layers.insert("core.table8_s", med("core.table8"));
    layers.insert("core.figure3_s", med("core.figure3"));
    layers.insert("core.trace_events", first.trace_events as f64);
    layers
        .insert("cellsim.host_us_per_kevent", pricing_s * 1e6 / (first.trace_events as f64 / 1e3));

    const TABLES: [&str; 9] = [
        "core.shape_dev_pct.t1a",
        "core.shape_dev_pct.t1b",
        "core.shape_dev_pct.t2",
        "core.shape_dev_pct.t3",
        "core.shape_dev_pct.t4",
        "core.shape_dev_pct.t5",
        "core.shape_dev_pct.t6",
        "core.shape_dev_pct.t7",
        "core.shape_dev_pct.t8",
    ];
    let rows = first.ladder.iter().map(|level| &level.rows).chain([&first.table8]);
    let mut worst = 0.0f64;
    for (name, rows) in TABLES.into_iter().zip(rows) {
        let pct = 100.0 * shape_deviation(rows);
        worst = worst.max(pct);
        layers.insert(name, pct);
    }
    layers.insert("shape_dev_max_pct", worst);
    let t1a = first.ladder[0].rows[0].simulated_seconds;
    let t7 = first.ladder[7].rows[0].simulated_seconds;
    let t8 = first.table8[0].simulated_seconds;
    layers.insert("cellsim.sim_seconds_t7_row1", t7);
    layers.insert("cellsim.sim_seconds_t8_row1", t8);
    // PPE-only over the final MGPS configuration at one bootstrap
    // (paper: 36.9 s / 17.6 s).
    layers.insert("sim_offload_speedup", t1a / t8);
    // Figure 3 at 128 bootstraps (paper: Power5 ~1.10x, Xeon > 2x the Cell).
    let fig = &first.figure3;
    let last = fig.bootstraps.len() - 1;
    layers.insert("core.fig3_power5_over_cell", fig.power5[last] / fig.cell[last]);
    layers.insert("core.fig3_xeon_over_cell", fig.xeon[last] / fig.cell[last]);
}
