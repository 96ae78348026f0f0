//! End-to-end and per-layer benchmark of the BI-DECOMP user path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--dc-seed <n>]
//! ```
//!
//! One synthesis is the path a user of the library takes: parse PLA text
//! with `Pla::from_str`, call `bidecomp::decompose_pla` with
//! `Options::default()` (BDD verifier included, one thread) and write the
//! netlist with `Netlist::to_blif`. With `--trace 0` the run prints the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! separately traced run (see `probe`). Every netlist is checked by an
//! independent simulator (`oracle`) outside the timed region. The last
//! line of standard output is one JSON object; `README.md` documents the
//! workloads and metrics.

mod oracle;
mod probe;

use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use benchmarks::{ExprSpec, SplitMix64};
use bidecomp::{decompose_pla, doctor, Options};
use netlist::NetlistStats;
use obs::json::Json;
use pla::Pla;

const USAGE: &str =
    "usage: perfbench --workload <single-output|multi-output|dc-rich|instrumented> \
                     --seed <n> --seconds <s> --trace <0|1> [--dc-seed <n>]";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Seed of the `dc-rich` circuits unless `--dc-seed` overrides it.
const DEFAULT_DC_SEED: u64 = 1;
/// `dc-rich` circuits per pass (4 outputs and about 12.5 k rows each).
const DC_RICH_CIRCUITS: usize = 8;
/// A measured pass repeats each circuit until its syntheses take about
/// this many seconds, so that circuits of a few milliseconds get enough
/// samples for a steady median.
const MIN_CIRCUIT_S: f64 = 0.02;
/// Upper limit on those repeats.
const MAX_REPEATS: usize = 256;

const SINGLE_OUTPUT: [&str; 3] = ["16sym8", "t481", "9sym"];
const MULTI_OUTPUT: [&str; 15] = [
    "alu4", "cps", "duke2", "pdc", "spla", "vg2", "misex3", "e64", "alu2", "5xp1", "cordic",
    "rd84", "rd73", "misex1", "con1",
];

/// A named set of circuits and the flow each is put through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    SingleOutput,
    MultiOutput,
    DcRich,
    Instrumented,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "single-output" => Workload::SingleOutput,
            "multi-output" => Workload::MultiOutput,
            "dc-rich" => Workload::DcRich,
            "instrumented" => Workload::Instrumented,
            _ => return None,
        })
    }

    /// Whether each synthesis runs the `report`/`stats` telemetry flow.
    fn instrumented(self) -> bool {
        self == Workload::Instrumented
    }

    /// Generates the workload's PLA texts.
    fn circuits(self, dc_seed: u64) -> Vec<Circuit> {
        match self {
            Workload::SingleOutput => named(&SINGLE_OUTPUT),
            Workload::MultiOutput | Workload::Instrumented => named(&MULTI_OUTPUT),
            Workload::DcRich => {
                let mut rng = SplitMix64::new(dc_seed);
                (0..DC_RICH_CIRCUITS)
                    .map(|k| {
                        let pla = benchmarks::expression_pla(&ExprSpec {
                            num_inputs: 20,
                            num_outputs: 4,
                            window: 12,
                            depth: 6,
                            xor_weight: 0.2,
                            dc_fraction: 0.5,
                            seed: rng.next_u64(),
                        });
                        Circuit { name: format!("dc{dc_seed}_{k}"), text: pla.to_string() }
                    })
                    .collect()
            }
        }
    }
}

/// The PLA texts of named suite members.
fn named(names: &[&str]) -> Vec<Circuit> {
    names
        .iter()
        .map(|&name| {
            let bench = benchmarks::by_name(name).expect("workload names are suite members");
            Circuit { name: name.to_owned(), text: bench.pla.to_string() }
        })
        .collect()
}

/// One input of a workload: a name and its PLA text.
struct Circuit {
    name: String,
    text: String,
}

/// What one synthesis produced.
struct Synth {
    blif: String,
    stats: NetlistStats,
    verified: bool,
    /// Seconds spent on the user path (parse → decompose → BLIF).
    secs: f64,
}

/// The user path, timed. The instrumented flow adds telemetry, tracing,
/// the doctor and the report encoding, as `report`/`stats` run them.
fn synthesize(circuit: &Circuit, instrumented: bool) -> Synth {
    let start = Instant::now();
    let pla: Pla = circuit.text.parse().expect("generated PLA text parses");
    let options = if instrumented {
        Options { telemetry: true, trace: true, ..Options::default() }
    } else {
        Options::default()
    };
    let outcome = decompose_pla(&pla, &options);
    if instrumented {
        black_box(doctor::diagnose(&outcome, &doctor::DoctorConfig::default()));
        black_box(bench::report::record_from_outcome(&circuit.name, &outcome).render());
    }
    let blif = outcome.netlist.to_blif(&circuit.name);
    let secs = start.elapsed().as_secs_f64();
    Synth { stats: outcome.netlist.stats(), verified: outcome.verified, blif, secs }
}

/// Attempts, failures and timings of one circuit across a run.
#[derive(Default)]
struct Tally {
    /// First verified synthesis; later ones must match its BLIF byte for byte.
    reference: Option<Synth>,
    attempts: usize,
    failures: usize,
    /// Attempts that reproduced the reference.
    matched: usize,
    times: Vec<f64>,
    verdict: Option<String>,
}

impl Tally {
    /// Counts one attempt: a panic, an unverified netlist or a BLIF that
    /// differs from the reference is a failure.
    fn record(&mut self, attempt: std::thread::Result<Synth>, timed: bool) {
        self.attempts += 1;
        let synth = match attempt {
            Ok(synth) if synth.verified => synth,
            Ok(_) => return self.fail("netlist failed verification"),
            Err(_) => return self.fail("synthesis panicked"),
        };
        if timed {
            self.times.push(synth.secs);
        }
        match &self.reference {
            None => self.reference = Some(synth),
            Some(reference) if reference.blif != synth.blif => {
                return self.fail("BLIF differs between passes")
            }
            Some(_) => {}
        }
        self.matched += 1;
    }

    /// Syntheses per measured pass: enough for `MIN_CIRCUIT_S`, judged by
    /// the first (warm-up) synthesis.
    fn repeats(&self) -> usize {
        self.reference
            .as_ref()
            .map_or(1, |r| ((MIN_CIRCUIT_S / r.secs).ceil() as usize).clamp(1, MAX_REPEATS))
    }

    fn fail(&mut self, why: &str) {
        self.failures += 1;
        self.verdict.get_or_insert_with(|| why.to_owned());
    }

    /// Checks the reference with the independent simulator; if it is
    /// wrong, so is every attempt that reproduced it.
    fn check(&mut self, pla_text: &str, seed: u64) {
        let Some(reference) = &self.reference else {
            self.verdict.get_or_insert_with(|| "no verified synthesis".to_owned());
            return;
        };
        let pla: Pla = pla_text.parse().expect("generated PLA text parses");
        if let Err(why) = oracle::check(&pla, &reference.blif, seed) {
            self.failures += self.matched;
            self.matched = 0;
            self.verdict = Some(format!("simulation mismatch: {why}"));
        }
    }
}

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// What a run reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    rows: Vec<String>,
}

/// Runs one workload: `SETUP_REPEATS` set-ups (generation plus an untimed
/// warm-up pass), then passes for `seconds`, then the output checks.
fn run(
    generate: &dyn Fn() -> Vec<Circuit>,
    instrumented: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Outcome {
    let mut tallies: Vec<Tally> = Vec::new();
    let mut setup_times = Vec::new();
    let mut circuits = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let generated = generate();
        if tallies.is_empty() {
            tallies.resize_with(generated.len(), Tally::default);
        }
        run_pass(&generated, instrumented, &mut tallies, &vec![1; generated.len()], false);
        setup_times.push(start.elapsed().as_secs_f64());
        circuits = generated;
    }
    let repeats: Vec<usize> = tallies.iter().map(Tally::repeats).collect();

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut traced = Vec::new();
    loop {
        run_pass(&circuits, instrumented, &mut tallies, &repeats, true);
        if trace {
            traced.push(probe::traced_pass(&circuits, instrumented, seed, &mut tallies));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();

    for (tally, circuit) in tallies.iter_mut().zip(&circuits) {
        tally.check(&circuit.text, seed);
    }

    let attempted: usize = tallies.iter().map(|t| t.attempts).sum();
    let failed: usize = tallies.iter().map(|t| t.failures).sum();
    let references: Vec<&NetlistStats> =
        tallies.iter().filter_map(|t| t.reference.as_ref().map(|s| &s.stats)).collect();
    let total =
        |f: fn(&NetlistStats) -> usize| references.iter().map(|s| f(s)).sum::<usize>() as f64;
    let circuit_s: Vec<f64> =
        tallies.iter().filter(|t| !t.times.is_empty()).map(|t| median(&t.times)).collect();
    let synth_s: f64 = circuit_s.iter().sum();
    let metrics = if trace {
        probe::per_layer_metrics(&traced, synth_s)
    } else {
        vec![
            Metric { name: "synth_s", unit: "s", value: synth_s },
            Metric { name: "synth_geomean_ms", unit: "ms", value: geomean(&circuit_s) * 1e3 },
            Metric { name: "gates", unit: "count", value: total(|s| s.gates) },
            Metric { name: "exors", unit: "count", value: total(|s| s.exors) },
            Metric { name: "cascades", unit: "count", value: total(|s| s.cascades) },
            Metric { name: "peak_rss_mb", unit: "MB", value: peak_rss_mb },
            Metric {
                name: "pass_rate",
                unit: "ratio",
                value: (attempted - failed) as f64 / attempted.max(1) as f64,
            },
            Metric { name: "setup_s", unit: "s", value: median(&setup_times) },
        ]
    };
    let rows = tallies
        .iter()
        .zip(&circuits)
        .map(|(t, c)| {
            let (gates, exors, cascades) = t
                .reference
                .as_ref()
                .map_or((0, 0, 0), |s| (s.stats.gates, s.stats.exors, s.stats.cascades));
            let time_ms = if t.times.is_empty() { f64::NAN } else { median(&t.times) * 1e3 };
            format!(
                "{:<10} {:>10.3} {:>6} {:>6} {:>8}  {}",
                c.name,
                time_ms,
                gates,
                exors,
                cascades,
                t.verdict.as_deref().unwrap_or("ok")
            )
        })
        .collect();
    Outcome { attempted, failed, metrics, rows }
}

/// Synthesizes every circuit in workload order, `repeats[i]` times in a
/// row for circuit `i`.
fn run_pass(
    circuits: &[Circuit],
    instrumented: bool,
    tallies: &mut [Tally],
    repeats: &[usize],
    timed: bool,
) {
    for ((circuit, tally), &repeat) in circuits.iter().zip(tallies.iter_mut()).zip(repeats) {
        for _ in 0..repeat {
            let attempt =
                panic::catch_unwind(AssertUnwindSafe(|| synthesize(circuit, instrumented)));
            tally.record(attempt, timed);
        }
    }
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dc_seed: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut dc_seed = DEFAULT_DC_SEED;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--dc-seed" => dc_seed = value.parse::<u64>().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace))
            if (0.0..1e6).contains(&seconds) =>
        {
            Ok(Args { workload, seed, seconds, trace, dc_seed })
        }
        _ => Err("--workload, --seed, --seconds (0 to 1e6) and --trace are required".to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let outcome = run(
        &|| workload.circuits(args.dc_seed),
        workload.instrumented(),
        args.seed,
        args.seconds,
        args.trace,
    );
    println!(
        "{:<10} {:>10} {:>6} {:>6} {:>8}  check",
        "circuit", "time_ms", "gates", "exors", "cascades"
    );
    for row in &outcome.rows {
        println!("{row}");
    }
    let mut metrics = Json::obj();
    for m in &outcome.metrics {
        metrics = metrics.field(m.name, Json::obj().field("value", m.value).field("unit", m.unit));
    }
    let result = Json::obj()
        .field("correct", outcome.failed == 0)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("metrics", metrics);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Complements the gate that drives the first output of a BLIF text.
    fn flip_first_output_gate(blif: &str) -> String {
        let lines: Vec<&str> = blif.lines().collect();
        let output = lines.iter().find_map(|l| l.strip_prefix(".outputs ")).unwrap();
        let output = output.split_whitespace().next().unwrap();
        let buffer = lines.iter().position(|l| l.ends_with(&format!(" {output}"))).unwrap();
        let root = lines[buffer].split_whitespace().nth(1).unwrap();
        let gate = lines
            .iter()
            .position(|l| l.starts_with(".names") && l.ends_with(&format!(" {root}")))
            .unwrap();
        let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let mut flipped = 0;
        for row in out.iter_mut().skip(gate + 1).take_while(|l| !l.starts_with('.')) {
            *row = format!("{}0", row.strip_suffix('1').unwrap());
            flipped += 1;
        }
        assert!(flipped > 0, "the driving gate has a cover to flip");
        out.join("\n") + "\n"
    }

    #[test]
    fn planted_wrong_netlist_raises_fail_rate() {
        // rd73 is simulated exhaustively, cordic (23 inputs) by sampling.
        for circuit in named(&["rd73", "cordic"]) {
            let mut sound = Tally::default();
            let mut planted = Tally::default();
            for _ in 0..2 {
                sound.record(Ok(synthesize(&circuit, false)), true);
                let mut wrong = synthesize(&circuit, false);
                wrong.blif = flip_first_output_gate(&wrong.blif);
                planted.record(Ok(wrong), true);
            }
            sound.check(&circuit.text, 7);
            planted.check(&circuit.text, 7);
            assert_eq!((sound.attempts, sound.failures), (2, 0), "{}", circuit.name);
            assert_eq!((planted.attempts, planted.failures), (2, 2), "{}", circuit.name);
            assert!(planted.verdict.unwrap().starts_with("simulation mismatch"));
        }
    }

    #[test]
    fn panics_and_unstable_output_are_failures() {
        let circuit = &named(&["con1"])[0];
        let mut tally = Tally::default();
        tally.record(Ok(synthesize(circuit, false)), true);
        tally.record(Err(Box::new("planted panic")), true);
        let mut changed = synthesize(circuit, false);
        changed.blif.push_str("# a different byte\n");
        tally.record(Ok(changed), true);
        let mut unverified = synthesize(circuit, false);
        unverified.verified = false;
        tally.record(Ok(unverified), true);
        tally.check(&circuit.text, 1);
        assert_eq!((tally.attempts, tally.failures), (4, 3));
    }

    #[test]
    fn dc_rich_seed_reproduces_text_and_gates() {
        let a = Workload::DcRich.circuits(DEFAULT_DC_SEED);
        let b = Workload::DcRich.circuits(DEFAULT_DC_SEED);
        let held_out = Workload::DcRich.circuits(2);
        assert_eq!(a.len(), DC_RICH_CIRCUITS);
        for ((x, y), z) in a.iter().zip(&b).zip(&held_out) {
            assert_eq!(x.text, y.text, "{}", x.name);
            assert_ne!(x.text, z.text, "{}", x.name);
        }
        let (sa, sb) = (synthesize(&a[0], false), synthesize(&b[0], false));
        assert_eq!(sa.stats.gates, sb.stats.gates);
        assert_eq!(sa.blif, sb.blif);
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let mut names: Vec<(String, String)> = doc
            .get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect();
        names.sort();
        names
    }

    #[test]
    fn printed_metrics_are_declared() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(&|| named(&["con1", "rd73"]), false, 3, 0.0, trace);
            assert_eq!(outcome.failed, 0);
            let mut printed: Vec<(String, String)> =
                outcome.metrics.iter().map(|m| (m.name.to_owned(), m.unit.to_owned())).collect();
            printed.sort();
            assert_eq!(printed, declared(section), "{section}");
        }
    }
}
