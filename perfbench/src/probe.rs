//! The traced run: times the public call into each layer from the
//! benchmark's own code and reads the counters the program already
//! exposes. Nothing inside the program is instrumented for it.
//!
//! Each layer is probed separately on the same PLA, so the probes for
//! ordering, ISF build, root grouping and verification repeat work that
//! `decompose_pla` also does internally; `decompose.self_s` subtracts
//! those probes from the `decompose_pla` time and is an estimate.

use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use bdd::{reorder, Bdd};
use bidecomp::{check, decompose_pla, doctor, grouping, isfs_from_pla, trace, verify};
use bidecomp::{GateChoice, Options};
use pla::Pla;

use crate::{median, oracle, Circuit, Metric, Synth, Tally};

/// Per-layer figures of one traced pass, summed over its circuits
/// (peaks are maxima).
#[derive(Clone, Copy, Default)]
pub struct Layers {
    parse_s: f64,
    rows: u64,
    order_s: f64,
    isf_build_s: f64,
    isf_nodes_allocated: u64,
    isf_bdd_nodes: u64,
    dc_share_sum: f64,
    outputs: u64,
    grouping_root_s: f64,
    theorem_checks: u64,
    decompose_pla_s: f64,
    calls: u64,
    weak_or_shannon: u64,
    decomposing: u64,
    shannon: u64,
    reuse_hits: u64,
    mk_calls: u64,
    nodes_allocated: u64,
    apply_steps: u64,
    cache_hits: u64,
    cache_lookups: u64,
    cache_evictions: u64,
    gc_runs: u64,
    peak_bytes: u64,
    peak_nodes: u64,
    verify_s: f64,
    blif_s: f64,
    obs_decompose_s: f64,
    obs_report_s: f64,
    obs_doctor_s: f64,
    trace_events: u64,
    trace_jsonl_bytes: u64,
    resim_s: f64,
    /// The user path inside this pass: parse, the workload's decompose
    /// flow and BLIF.
    user_path_s: f64,
}

/// Probes every circuit once and records each produced netlist in its
/// tally, like an untimed pass.
pub fn traced_pass(
    circuits: &[Circuit],
    instrumented: bool,
    seed: u64,
    tallies: &mut [Tally],
) -> Layers {
    let mut layers = Layers::default();
    for (circuit, tally) in circuits.iter().zip(tallies.iter_mut()) {
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
            probe_circuit(circuit, instrumented, seed, &mut layers)
        }));
        tally.record(attempt, false);
    }
    layers
}

fn probe_circuit(circuit: &Circuit, instrumented: bool, seed: u64, l: &mut Layers) -> Synth {
    let t = Instant::now();
    let pla: Pla = circuit.text.parse().expect("generated PLA text parses");
    let parse_s = t.elapsed().as_secs_f64();
    l.parse_s += parse_s;
    l.rows += pla.cubes().len() as u64;

    let t = Instant::now();
    let order = reorder::order_by_frequency(&pla.literal_frequencies());
    l.order_s += t.elapsed().as_secs_f64();

    let mut mgr = Bdd::new(pla.num_inputs());
    mgr.reorder(&order, &[]);
    let t = Instant::now();
    let isfs = isfs_from_pla(&mut mgr, &pla);
    l.isf_build_s += t.elapsed().as_secs_f64();
    l.isf_nodes_allocated += mgr.op_stats().nodes_allocated();
    l.isf_bdd_nodes += mgr.total_nodes() as u64;
    for isf in &isfs {
        let dc = isf.dont_care(&mut mgr);
        l.dc_share_sum += mgr.sat_fraction(dc);
        l.outputs += 1;
    }

    let supports: Vec<_> = isfs.iter().map(|isf| isf.support(&mgr)).collect();
    let t = Instant::now();
    for (isf, support) in isfs.iter().zip(&supports) {
        for gate in [GateChoice::Or, GateChoice::And, GateChoice::Exor] {
            black_box(grouping::group_variables(&mut mgr, isf, support, gate));
        }
    }
    l.grouping_root_s += t.elapsed().as_secs_f64();

    let checks = check::theorem_checks();
    let t = Instant::now();
    let outcome = decompose_pla(&pla, &Options::default());
    let decompose_pla_s = t.elapsed().as_secs_f64();
    l.decompose_pla_s += decompose_pla_s;
    l.theorem_checks += check::theorem_checks() - checks;
    let s = outcome.stats;
    let decomposing = s.strong_or + s.strong_and + s.strong_exor + s.weak + s.shannon;
    l.calls += s.calls as u64;
    l.weak_or_shannon += (s.weak + s.shannon) as u64;
    l.decomposing += decomposing as u64;
    l.shannon += s.shannon as u64;
    l.reuse_hits += outcome.component_cache.total_hits() as u64;
    let op = outcome.op_stats;
    l.mk_calls += op.mk_calls;
    l.nodes_allocated += op.nodes_allocated();
    l.apply_steps += op.apply_steps;
    l.cache_hits += op.cache_hits;
    l.cache_lookups += op.cache_lookups;
    l.cache_evictions += op.cache_evictions;
    l.gc_runs += op.gc_runs;
    l.peak_bytes = l.peak_bytes.max(outcome.mem.peak_bytes as u64);
    l.peak_nodes = l.peak_nodes.max(outcome.bdd_nodes as u64);

    let t = Instant::now();
    let blif = outcome.netlist.to_blif(&circuit.name);
    let blif_s = t.elapsed().as_secs_f64();
    l.blif_s += blif_s;

    let t = Instant::now();
    let verified = verify::verify_netlist(&mut mgr, &outcome.netlist, &isfs);
    l.verify_s += t.elapsed().as_secs_f64();

    // The report/stats flow on the same PLA.
    let t = Instant::now();
    let traced =
        decompose_pla(&pla, &Options { telemetry: true, trace: true, ..Options::default() });
    let obs_decompose_s = t.elapsed().as_secs_f64();
    l.obs_decompose_s += obs_decompose_s;
    let t = Instant::now();
    black_box(doctor::diagnose(&traced, &doctor::DoctorConfig::default()));
    let obs_doctor_s = t.elapsed().as_secs_f64();
    l.obs_doctor_s += obs_doctor_s;
    let t = Instant::now();
    black_box(bench::report::record_from_outcome(&circuit.name, &traced).render());
    let obs_report_s = t.elapsed().as_secs_f64();
    l.obs_report_s += obs_report_s;
    l.trace_events += traced.trace.len() as u64;
    let mut jsonl = Vec::new();
    trace::write_trace_jsonl(&traced.trace, &mut jsonl).expect("writing to memory cannot fail");
    l.trace_jsonl_bytes += jsonl.len() as u64;

    l.user_path_s += parse_s
        + blif_s
        + if instrumented {
            obs_decompose_s + obs_doctor_s + obs_report_s
        } else {
            decompose_pla_s
        };

    let t = Instant::now();
    let simulated = oracle::check(&pla, &blif, seed);
    l.resim_s += t.elapsed().as_secs_f64();

    Synth {
        stats: outcome.netlist.stats(),
        verified: verified && outcome.verified && simulated.is_ok(),
        blif,
        secs: 0.0,
    }
}

/// The per-layer metrics of a traced run: times are medians over its
/// traced passes, counts come from the last pass (they repeat exactly).
/// `untraced_s` is the run's untraced `synth_s`.
pub fn per_layer_metrics(passes: &[Layers], untraced_s: f64) -> Vec<Metric> {
    let time = |f: fn(&Layers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let last = passes.last().copied().unwrap_or_default();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let self_s = time(|l| l.decompose_pla_s - l.order_s - l.isf_build_s - l.verify_s);
    let traced_s = time(|l| l.user_path_s);
    let metric = |name, unit, value| Metric { name, unit, value };
    vec![
        metric("pla.parse_s", "s", time(|l| l.parse_s)),
        metric("pla.rows", "count", last.rows as f64),
        metric("order.s", "s", time(|l| l.order_s)),
        metric("isf.build_s", "s", time(|l| l.isf_build_s)),
        metric("isf.nodes_allocated", "count", last.isf_nodes_allocated as f64),
        metric("isf.bdd_nodes", "count", last.isf_bdd_nodes as f64),
        metric("isf.dc_share", "ratio", last.dc_share_sum / last.outputs.max(1) as f64),
        metric("grouping.root_s", "s", time(|l| l.grouping_root_s)),
        metric("check.theorem_checks", "count", last.theorem_checks as f64),
        metric("decompose_pla.s", "s", time(|l| l.decompose_pla_s)),
        metric("decompose.self_s", "s", self_s),
        metric("decompose.calls", "count", last.calls as f64),
        metric("decompose.weak_rate", "ratio", ratio(last.weak_or_shannon, last.decomposing)),
        metric("decompose.shannon", "count", last.shannon as f64),
        metric("decompose.reuse_rate", "ratio", ratio(last.reuse_hits, last.calls)),
        metric("bdd.mk_calls", "count", last.mk_calls as f64),
        metric("bdd.nodes_allocated", "count", last.nodes_allocated as f64),
        metric("bdd.apply_steps", "count", last.apply_steps as f64),
        metric("bdd.cache_hit_rate", "ratio", ratio(last.cache_hits, last.cache_lookups)),
        metric("bdd.cache_evictions", "count", last.cache_evictions as f64),
        metric("bdd.gc_runs", "count", last.gc_runs as f64),
        metric("bdd.peak_bytes", "bytes", last.peak_bytes as f64),
        metric("bdd.peak_nodes", "count", last.peak_nodes as f64),
        metric("verify.s", "s", time(|l| l.verify_s)),
        metric("netlist.blif_s", "s", time(|l| l.blif_s)),
        metric("obs.decompose_pla_s", "s", time(|l| l.obs_decompose_s)),
        metric("obs.report_s", "s", time(|l| l.obs_report_s)),
        metric("obs.doctor_s", "s", time(|l| l.obs_doctor_s)),
        metric("obs.trace_events", "count", last.trace_events as f64),
        metric("obs.trace_jsonl_bytes", "bytes", last.trace_jsonl_bytes as f64),
        metric("oracle.resim_s", "s", time(|l| l.resim_s)),
        metric("trace.overhead_pct", "%", (traced_s - untraced_s) / untraced_s * 100.0),
    ]
}
