//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <forward|stream-attack|fleet> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! A run sets its workload up from the seed, measures for the given
//! seconds, checks every output against the in-tree serial oracles, and
//! prints a readable report followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`. It
//! exits 1 if any output diverged. `--smoke` runs every workload at a tiny
//! size twice at one seed and once at another, and checks determinism.
//! See `perfbench/README.md` for the workloads and metrics.

mod dataplane;
mod fleet;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;
use util::{metric, Ledger, Metric};

/// The workloads, in the order `--smoke` runs them.
const WORKLOADS: [&str; 3] = ["forward", "stream-attack", "fleet"];

/// End-to-end metrics (`--trace 0`), the same names on every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("call_p50_us", "us"),
    ("call_p90_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A traced run prints all of them; a
/// layer its workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("interp.ns_per_pkt", "ns"),
    ("interp.instr_per_pkt", "instr"),
    ("interp.ns_per_instr", "ns"),
    ("monitor.block_ns_per_pkt", "ns"),
    ("monitor.scalar_ns_per_pkt", "ns"),
    ("hash.block_ns_per_word", "ns"),
    ("hash.scalar_ns_per_word", "ns"),
    ("np.ns_per_pkt_1shard", "ns"),
    ("np.dispatch_ns_per_pkt", "ns"),
    ("engine.speedup_2v1", "x"),
    ("engine.call_overhead_us", "us"),
    ("forward.unattributed_ns_per_pkt", "ns"),
    ("monitor.attack_ns_per_pkt", "ns"),
    ("admission.ns_per_offer", "ns"),
    ("engine.steal_plan_ns_per_round", "ns"),
    ("engine.steals_per_round", "count"),
    ("engine.planned_steals_per_round", "count"),
    ("recovery.reset_us", "us"),
    ("recovery.resets_per_kpkt", "count"),
    ("stream.exec_ns_per_round", "ns"),
    ("np.residual_ns_per_round", "ns"),
    ("stream.ns_per_round_2shard", "ns"),
    ("stream.queue_delay_p99_pkts", "pkts"),
    ("obs.trace_overhead_frac", "ratio"),
    ("stream.drop_frac", "ratio"),
    ("stream.escape_frac", "ratio"),
    ("stream.detect_p99_instr", "instr"),
    ("crypto.keygen_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("crypto.wrap_us_per_router", "us"),
    ("distrib.fetch_us_per_router", "us"),
    ("distrib.attempts_per_router", "count"),
    ("install.cert_us", "us"),
    ("install.unwrap_us", "us"),
    ("install.aes_us", "us"),
    ("install.sig_us", "us"),
    ("install.parse_us", "us"),
    ("install.program_us", "us"),
    ("install.unattributed_us", "us"),
    ("rollout.unattributed_us_per_router", "us"),
    ("ledger.trace_gap_frac", "ratio"),
    ("host.calib_ms", "ms"),
];

/// Simulated quantities that must repeat exactly at one seed.
const DETERMINISTIC: [&str; 12] = [
    "drop_frac",
    "escape_frac",
    "detect_p99_instr",
    "attacks_admitted",
    "engine.planned_steals_per_round",
    "recoveries_per_pass",
    "transport_attempts",
    "sections_fetched",
    "interp.instr_per_pkt",
    "engine.steals_per_round",
    "distrib.attempts_per_router",
    "stream.detect_p99_instr",
];

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Size {
    /// `forward` rounds of 256 packets per pass.
    pub forward_rounds: usize,
    /// `stream-attack` arrival rounds per pass.
    pub stream_rounds: usize,
    /// Set-up repetitions (setup_s is their median).
    pub setup_reps: usize,
    /// Untimed warm-up before the data plane is timed.
    pub warmup_s: f64,
    /// Routers in the `deploy_fleet` rollout.
    pub routers: usize,
    /// Relays in the rollout.
    pub relays: usize,
    /// RSA installs per `fleet` pass.
    pub installs: usize,
    /// Key size of the RSA install part.
    pub key_bits: usize,
    /// Device key pairs the RSA routers cycle through.
    pub key_pool: usize,
}

impl Size {
    fn full() -> Size {
        Size {
            forward_rounds: 128,
            stream_rounds: 1024,
            setup_reps: 9,
            warmup_s: 1.0,
            routers: 2000,
            relays: 8,
            installs: 200,
            key_bits: fleet::PAPER_KEY_BITS,
            key_pool: 4,
        }
    }

    /// The smoke-test size: seconds, not minutes, per workload.
    fn tiny() -> Size {
        Size {
            forward_rounds: 4,
            stream_rounds: 16,
            setup_reps: 1,
            warmup_s: 0.0,
            routers: 24,
            relays: 2,
            installs: 4,
            key_bits: 1024,
            key_pool: 2,
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted: packets offered, routers deployed, installs.
    pub attempted: u64,
    /// Operations that diverged from the oracle or failed.
    pub failed: u64,
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// The workload's own named figures, printed before the JSON line.
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    pub ledger: Option<Ledger>,
    /// Each end-to-end figure beside the sum of its layers.
    pub ledger_lines: Vec<String>,
}

impl Run {
    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
        self.failed += 1;
    }

    /// A named figure from any of the run's metric lists.
    fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.report)
            .chain(&self.layers)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <forward|stream-attack|fleet> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench --smoke";

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("one of forward, stream-attack, fleet")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs one workload and fills in the metrics its mode reports.
fn execute(workload: &str, seed: u64, seconds: f64, trace: bool, size: &Size) -> Run {
    let mut run = Run::default();
    match workload {
        "forward" => dataplane::forward(seed, seconds, trace, size, &mut run),
        "stream-attack" => dataplane::stream_attack(seed, seconds, trace, size, &mut run),
        "fleet" => fleet::fleet(seed, seconds, trace, size, &mut run),
        other => unreachable!("workload `{other}` was validated by the parser"),
    }
    match util::peak_rss_mb() {
        Some(mb) => {
            run.e2e.push(metric("peak_rss_mb", mb, "MiB"));
            run.report.push(metric("peak_rss_mb", mb, "MiB"));
        }
        None => run.error("peak resident memory is not available on this platform"),
    }
    run
}

/// The metrics of the JSON line, in `BENCHMARK.json` order, or why they are
/// incomplete.
fn result_metrics(run: &Run, trace: bool) -> Result<Vec<Metric>, String> {
    if trace {
        return Ok(PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = run
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                metric(name, value, unit)
            })
            .collect());
    }
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let m = run
                .e2e
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?;
            if m.unit != unit || !m.value.is_finite() || m.value <= 0.0 {
                return Err(format!("end-to-end metric {name} = {} {}", m.value, m.unit));
            }
            Ok(m.clone())
        })
        .collect()
}

fn json_line(correct: bool, run: &Run, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted.max(1),
        run.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Writes the traced run's spans under `perfbench/out/`.
fn write_spans(ledger: &Ledger, workload: &str, seed: u64) -> Result<String, std::io::Error> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
    std::fs::write(&path, ledger.render_tsv())?;
    Ok(path.display().to_string())
}

fn measure(args: &Args) -> ExitCode {
    let host = util::host();
    let mut run = execute(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Size::full(),
    );
    if args.trace {
        run.layers
            .push(metric("host.calib_ms", host.calib_ms, "ms"));
    }
    println!(
        "# perfbench {} seed {} trace {} | host nproc {} calib_ms {:.3}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host.nproc,
        host.calib_ms
    );
    for m in run.report.iter().chain(&run.layers) {
        println!("# {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for line in &run.ledger_lines {
        println!("# {line}");
    }
    if let Some(ledger) = &run.ledger {
        println!("# span self time (total ms / self ms):");
        for (name, total, own) in ledger.self_times() {
            println!("#   {name:<24} {:>12.3} {:>12.3}", total / 1e6, own / 1e6);
        }
        match write_spans(ledger, &args.workload, args.seed) {
            Ok(path) => println!("# spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let metrics = match result_metrics(&run, args.trace) {
        Ok(m) => m,
        Err(e) => {
            run.error(e);
            Vec::new()
        }
    };
    for e in &run.errors {
        eprintln!("perfbench: {e}");
    }
    let correct = run.failed == 0 && run.errors.is_empty();
    println!("{}", json_line(correct, &run, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload at the tiny size: twice at one seed (the
/// deterministic figures must agree exactly, every metric must be named
/// with its unit) and once at a second seed (it must run clean).
fn smoke() -> Result<(), String> {
    let size = Size::tiny();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let runs: Vec<Run> = [7, 7, 8]
                .iter()
                .map(|&seed| execute(workload, seed, 0.05, trace, &size))
                .collect();
            for (run, seed) in runs.iter().zip([7, 7, 8]) {
                if run.failed != 0 || !run.errors.is_empty() {
                    return Err(format!(
                        "{workload} seed {seed} trace {trace}: {} failed: {:?}",
                        run.failed, run.errors
                    ));
                }
                let metrics = result_metrics(run, trace)?;
                let line = json_line(true, run, &metrics);
                let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (name, unit) in names {
                    let key = format!("\"{name}\": {{\"value\": ");
                    if !line.contains(&key) || !line.contains(&format!("\"unit\": \"{unit}\"")) {
                        return Err(format!("{workload}: {name} [{unit}] missing from {line}"));
                    }
                }
            }
            for name in DETERMINISTIC {
                let (a, b) = (runs[0].get(name), runs[1].get(name));
                if a.map(f64::to_bits) != b.map(f64::to_bits) {
                    return Err(format!(
                        "{workload}: {name} differs at one seed: {a:?} vs {b:?}"
                    ));
                }
            }
            println!("smoke: {workload} trace {} ok", u8::from(trace));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--smoke"] {
        return match smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parse(&args) {
        Ok(args) => measure(&args),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the binary prints is declared, with the same unit, in
    /// the repository's `BENCHMARK.json`.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} [{unit}] not declared");
        }
        let declared = json.matches("\"better\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    /// The determinism smoke test (`--smoke`); run it with `--release`.
    #[test]
    fn smoke_runs_clean_and_repeats() {
        smoke().expect("smoke");
    }

    #[test]
    fn rejects_bad_arguments() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("--workload forward --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse(&args("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse(&args("--workload forward --seed x --seconds 2 --trace 0")).is_err());
        assert!(parse(&args("--workload forward --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&args("--workload forward --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse(&args("--workload forward --seed 1 --seconds 2")).is_err());
        assert!(parse(&args("--bogus 1")).is_err());
    }
}
