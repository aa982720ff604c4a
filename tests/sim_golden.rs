//! Golden pins for every simulated number.
//!
//! The simulator is deterministic, and most of the suite proves it equal to
//! itself (traced vs untraced, inert plan vs no plan). That cannot catch a
//! change to the scheduler core or the pricing that moves every path the
//! same way, so these cases pin recorded outputs as constants: the `f64`
//! bits of every row of every table, figure and extension study on the
//! `WorkloadSpec::test_mid()` capture, and the complete outcome — makespan,
//! `SimStats`, `FaultReport` and the trace log's re-derived summary — of
//! EDTLP, LLP/2 and MGPS under a live fault plan with an SPE death and
//! tracing on.
//!
//! The constants were recorded before the discrete-event core moved from a
//! heap of events to one calendar slot per worker, and before pricing
//! stopped re-pricing the trace for every ladder rung. A mismatch prints
//! the new values in the form the constants are written in.

use cellsim::cost::CostModel;
use cellsim::fault::FaultPlan;
use cellsim::tracelog::TraceLog;
use phylo::trace::{CallParent, KernelEvent, KernelOp};
use raxml_cell::config::{OptConfig, Scheduler};
use raxml_cell::experiment::{
    capture_workload, profile_breakdown, run_ablation, run_figure3, run_ladder,
    run_multilevel_study, run_overlay_study, run_scaling_study, run_table8, Workload, WorkloadSpec,
};
use raxml_cell::offload::price_trace;
use raxml_cell::sched::{schedule_makespan, DesParams};
use recorded::*;
use std::sync::OnceLock;

fn workload() -> &'static Workload {
    static CACHE: OnceLock<Workload> = OnceLock::new();
    CACHE.get_or_init(|| capture_workload(&WorkloadSpec::test_mid()).expect("capture"))
}

/// Compare `actual` with the recorded `expected`; on a mismatch, fail with
/// the new values written as a constant.
fn pin(name: &str, actual: &[u64], expected: &[u64]) {
    if actual != expected {
        let body: Vec<String> = actual.iter().map(|v| format!("{v:#x}")).collect();
        panic!(
            "{name} moved; recorded now:\nconst {name}: [u64; {}] = [{}];",
            actual.len(),
            body.join(", ")
        );
    }
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// FNV-1a over a value's `Debug` text: one constant for a whole struct.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn paper_tables_match_the_recording() {
    let (w, model, params) = (workload(), CostModel::paper_calibrated(), DesParams::default());
    let ladder = run_ladder(w, &model).unwrap();
    let rows = ladder.iter().flat_map(|level| &level.rows);
    pin("LADDER", &bits(rows.map(|r| r.simulated_seconds)), &LADDER);
    let t8 = run_table8(w, &model, &params).unwrap();
    pin("TABLE8", &bits(t8.iter().map(|r| r.simulated_seconds)), &TABLE8);
    let fig = run_figure3(w, &model, &params).unwrap();
    let series = [&fig.cell, &fig.power5, &fig.xeon];
    pin("FIGURE3", &bits(series.into_iter().flatten().copied()), &FIGURE3);
}

#[test]
fn extension_studies_match_the_recording() {
    let (w, model, params) = (workload(), CostModel::paper_calibrated(), DesParams::default());
    let multilevel = run_multilevel_study(w, &model, &params).unwrap();
    let values = multilevel.iter().flat_map(|r| [r.edtlp_seconds, r.llp_seconds, r.mgps_seconds]);
    pin("MULTILEVEL", &bits(values), &MULTILEVEL);
    let scaling = run_scaling_study(w, &model, 32).unwrap();
    let values = scaling.iter().flat_map(|r| [r.makespan_seconds, r.speedup, r.spe_utilization]);
    pin("SCALING", &bits(values), &SCALING);
    let ablation = run_ablation(w, &model).unwrap();
    let values = ablation
        .iter()
        .flat_map(|r| [r.alone_seconds, r.alone_gain, r.without_seconds, r.without_loss]);
    pin("ABLATION", &bits(values), &ABLATION);
    let overlay = run_overlay_study(w, &model).unwrap();
    let values = overlay
        .iter()
        .flat_map(|r| [r.faults as f64, r.fault_rate, r.overhead_seconds, r.bootstrap_seconds]);
    pin("OVERLAY", &bits(values), &OVERLAY);
    let p = profile_breakdown(w, &model).unwrap();
    let values = p.fractions.into_iter().chain([
        p.nested_fraction,
        p.invocations as f64,
        p.newview_mean_flops,
    ]);
    pin("PROFILE", &bits(values), &PROFILE);
}

/// The synthetic trace of the scheduler unit tests: nine `newview` per
/// `makenewz`, an `evaluate` in every ten, a third of the calls from the
/// search itself.
fn synthetic_trace(n: usize) -> Vec<KernelEvent> {
    (0..n)
        .map(|i| KernelEvent {
            op: match i % 10 {
                9 => KernelOp::Makenewz,
                8 => KernelOp::Evaluate,
                _ => KernelOp::NewviewInnerInner,
            },
            parent: if i % 3 == 0 { CallParent::Search } else { CallParent::Makenewz },
            patterns: 228,
            rates: 4,
            exp_calls: 32,
            scaling_checks: 912,
            scalings: 0,
            newton_iters: if i % 10 == 9 { 4 } else { 0 },
            inner_operands: 3,
        })
        .collect()
}

#[test]
fn faulty_traced_schedules_match_the_recording() {
    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let priced = price_trace(&synthetic_trace(500), &model, &OptConfig::fully_optimized());
    let plan = FaultPlan::uniform(11, 0.05).with_death(3, DEATH_AT);
    let mut actual = Vec::new();
    for sched in [Scheduler::Edtlp, Scheduler::Llp { workers: 2 }, Scheduler::Mgps] {
        let mut tlog = TraceLog::enabled();
        let out = schedule_makespan(sched, &priced, 12, &model, &params, &plan, &mut tlog);
        let f = out.faults;
        actual.extend([out.makespan, f.injected, f.retries, f.redispatches]);
        actual.extend([f.degradations, f.blacklisted, f.penalty_cycles]);
        actual.extend([digest(&out.stats), digest(&tlog.summary(params.n_spes))]);
    }
    pin("SCHEDULES", &actual, &SCHEDULES);
}

/// When the live plan kills SPE 3: about 40 % into each clean run.
const DEATH_AT: u64 = 400_000_000;

/// Recorded values.
#[rustfmt::skip]
mod recorded {
    pub const LADDER: [u64; 32] = [
        0x3fe2063631147502, 0x40095c3222bcee5d, 0x40195c3222bcee5d, 0x40295c3222bcee5d,
        0x3ff4762e81f38aa7, 0x4016c1eebe8f1c68, 0x4026c1eebe8f1c68, 0x4036c1eebe8f1c68,
        0x3fec9f2542afa7f9, 0x40109b52ddf365be, 0x40209b52ddf365be, 0x40309b52ddf365be,
        0x3fe572c4b1cb3ead, 0x400a0a452b026230, 0x401a0a452b026230, 0x402a0a452b026230,
        0x3fe4694ce3de614a, 0x400900cd5d1584cd, 0x401900cd5d1584cd, 0x402900cd5d1584cd,
        0x3fe28b520eeb8041, 0x400722d28822a3c4, 0x401722d28822a3c4, 0x402722d28822a3c4,
        0x3fe242fea83c1ebf, 0x4006da7f21734242, 0x4016da7f21734242, 0x4026da7f21734242,
        0x3fda39773139dec9, 0x3ffb05e44d9cebdf, 0x400b05e44d9cebdf, 0x401b05e44d9cebdf,
    ];
    pub const TABLE8: [u64; 4] = [
        0x3fc9fce0135094c3, 0x3fe2b7c2e440b1cc, 0x3ff2c184b8209851, 0x4002c665a2108b93,
    ];
    pub const FIGURE3: [u64; 18] = [
        0x3fc9fce0135094c3, 0x3fe2b7c2e440b1cc, 0x3ff2c184b8209851, 0x4002c665a2108b93,
        0x4012c8d617088535, 0x4022ca0e51848205, 0x3fd6599f5b943f2b, 0x3fe6599f5b943f2b,
        0x3ff6599f5b943f2b, 0x4006599f5b943f2b, 0x4016599f5b943f2b, 0x4026599f5b943f2b,
        0x3fe687c3bd599242, 0x3ff687c3bd599242, 0x400687c3bd599242, 0x401687c3bd599242,
        0x402687c3bd599242, 0x403687c3bd599242,
    ];
    pub const MULTILEVEL: [u64; 27] = [
        0x3fda39773139dec9, 0x3fc9fce0135094c3, 0x3fc9fce0135094c3, 0x3fdb05e45c607e1a,
        0x3fcb817796e55f40, 0x3fcb817796e55f40, 0x3fe0ad9b8328bee6, 0x3fd7df3dcf188181,
        0x3fd7df3dcf188181, 0x3fe0b098a2a3ae70, 0x3fd7e901dca40558, 0x3fd7e901dca40558,
        0x3fe10abd286a017c, 0x3fe78f820d8bd9bd, 0x3fe10abd286a017c, 0x3fe2b7c2e440b1cc,
        0x3fe7e72cec473b7e, 0x3fe2b7c2e440b1cc, 0x3ff1b09731f5c66b, 0x3ff1ecec751e3a28,
        0x3feeac43d292b478, 0x3ff2c184b8209851, 0x3ff7e6427418d691, 0x3ff2c184b8209851,
        0x4002c665a2108b93, 0x4007e5cd3801a41a, 0x4002c665a2108b93,
    ];
    pub const SCALING: [u64; 18] = [
        0x402a39773139dec9, 0x3ff0000000000000, 0x3fed8c22dc683693, 0x401b05e45c607e1a,
        0x3fff0dec54ae5ac7, 0x3fecac9ceb607207, 0x4010aed8da920754, 0x4009269e56613638,
        0x3fe73923d945a731, 0x4002c665a2108b93, 0x4016593303f94077, 0x3fe4a2b4d37f7fdd,
        0x4000f0bc9836c30b, 0x4018c4cb535fdb90, 0x3fd6ded038cd4aa1, 0x3ff2c8f5853d4129,
        0x40265626b57b85e1, 0x3fe49fe4533416c6,
    ];
    pub const ABLATION: [u64; 20] = [
        0x3fec9f2542afa7f9, 0x3fd33d10fab64862, 0x3fee903669738c14, 0x3fe58e60fbf544d0,
        0x3ff0dffe39815601, 0x3fc66fd376a2e730, 0x3fe96f5f3920880b, 0x3fd923c5d8346470,
        0x3ff3f1729afd1bf5, 0x3f99f2a701425280, 0x3fe34c767628fc23, 0x3fad12e10011cee0,
        0x3ff38731177a1a22, 0x3fa75c1b4c426510, 0x3fe420f97d2effc8, 0x3fba2c8485dcb5a0,
        0x3ff45204ce9bd9e6, 0x3f7c4710d4780400, 0x3fe28b520eeb8041, 0x3f8faf241680e300,
    ];
    pub const OVERLAY: [u64; 20] = [
        0x4008000000000000, 0x3f530951e56da85a, 0x3ed3407997c685b6, 0x3fda398a71b37690,
        0x4008000000000000, 0x3f530951e56da85a, 0x3ed3407997c685b6, 0x3fda398a71b37690,
        0x402a000000000000, 0x3f749f6e0de17662, 0x3ef157ec252cb540, 0x3fda39bc90ea737c,
        0x408b980000000000, 0x3fd5e30c7e1dbe90, 0x3f5b0782d633a8cf, 0x3fda547eb4101272,
        0x4091100000000000, 0x3fdb11407237eb61, 0x3f60251bee481ca4, 0x3fda59c169166f02,
    ];
    pub const PROFILE: [u64; 7] = [
        0x3fe0f93b90f74703, 0x3fdbb5db8d93c9ac, 0x3f98e27602e93c23, 0x3f8930be09e2919a,
        0x3ff0000000000000, 0x40a42c0000000000, 0x40e54337a15a5e25,
    ];
    /// Per scheduler (EDTLP, LLP/2, MGPS): makespan, the six `FaultReport`
    /// fields, then digests of `SimStats` and of the trace summary.
    pub const SCHEDULES: [u64; 27] = [
        0x45188aa0, 0x62e, 0x515, 0x1, 0x1, 0x1, 0xc790625,
        0x1d3a33f473d7ab43, 0x38f75cbe575825f5,
        0x381d627c, 0x68a, 0x561, 0x0, 0x0, 0x1, 0x7c84da8,
        0xc2aa543d78c900fd, 0x43f8465a9c14eecf,
        0x4a4ef6bc, 0x613, 0x4f9, 0x1, 0x1, 0x1, 0xc7312b5,
        0x44a025d7be438ddf, 0x55f08082bb1c76ae,
    ];
}
