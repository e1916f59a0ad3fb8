//! The two data-plane workloads, `forward` and `stream-attack`.
//!
//! Both run 8 simulated cores, each watched by its own hardware monitor
//! configured the way the install protocol configures it: S-box
//! compression and a distinct hash parameter per core. The timed
//! (end-to-end) runs use one engine shard; the traced run also measures
//! the 2-shard engine on the same inputs (see `perfbench/README.md` for
//! why). Every timed round is compared with a reference computed once,
//! untimed, by the serial oracles (`process_batch_serial`,
//! `process_stream_serial`).

use crate::util::{median, metric, percentile, ratio, Ledger, Metric};
use crate::{Run, Size};
use sdmmon_core::system::craft_evasive_hijack;
use sdmmon_isa::asm::Program;
use sdmmon_monitor::hash::{Compression, InstructionHash, MerkleTreeHash};
use sdmmon_monitor::{HardwareMonitor, MonitoringGraph};
use sdmmon_net::traffic::{OpenLoopConfig, OpenLoopSource};
use sdmmon_npu::core::Core;
use sdmmon_npu::cpu::{ExecutionObserver, NullObserver};
use sdmmon_npu::engine::{steal_plan, IngressQueues};
use sdmmon_npu::np::{flow_hash, NetworkProcessor, NpStats, StreamConfig, StreamOutcome};
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::{HaltReason, PacketOutcome, Verdict};
use sdmmon_npu::supervisor::SupervisorPolicy;
use sdmmon_npu::trace::Tracer;
use sdmmon_obs::trace::TraceContext;
use sdmmon_obs::EventBus;
use sdmmon_rng::{split_seed, Rng, RngCore, SeedableRng, StdRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated NP cores.
pub const CORES: usize = 8;
/// Engine shards of the timed end-to-end runs.
const GATED_SHARDS: usize = 1;
/// Engine shards (worker threads) the traced run compares against.
const ENGINE_SHARDS: usize = 2;
/// Packets per `process_batch` call in `forward`.
const BATCH: usize = 256;
/// Ingress budget per round in `stream-attack` (split evenly over the
/// shards): tight enough that admission refuses part of the bursty
/// offered load.
const ROUND_CAPACITY: usize = 112;
/// One offered packet in this many is an attack in `stream-attack`.
const ATTACK_EVERY: usize = 16;
/// Output port the noisy hijack's injected code forwards to.
const NOISY_PORT: u32 = 15;

/// The graded supervisor both data-plane workloads run under: the
/// default ladder with the frontier's "lenient" thresholds, under which
/// the 1-in-16 attack mix settles without lockdown.
pub fn policy() -> SupervisorPolicy {
    use sdmmon_npu::supervisor::AdaptiveConfig;
    SupervisorPolicy::graded(AdaptiveConfig {
        low: 120,
        elevated: 360,
        high: 640,
        critical: 900,
        parole_batches: 2,
        ..AdaptiveConfig::default()
    })
}

/// A program plus one (graph, hash) monitor recipe per core.
struct Plane {
    program: Program,
    image: Vec<u8>,
    monitors: Vec<(MonitoringGraph, MerkleTreeHash)>,
}

impl Plane {
    /// Extracts one monitoring graph per core, each with its own hash
    /// parameter drawn from `seed`.
    fn new(program: Program, seed: u64) -> Plane {
        let mut rng = StdRng::seed_from_u64(split_seed(seed, 0x4A5));
        let monitors = (0..CORES)
            .map(|_| {
                let hash = MerkleTreeHash::with_compression(rng.next_u32(), Compression::SBox);
                let graph = MonitoringGraph::extract(&program, &hash).expect("program has a graph");
                (graph, hash)
            })
            .collect();
        Plane {
            image: program.to_bytes(),
            program,
            monitors,
        }
    }

    fn np(&self, shards: usize) -> NetworkProcessor {
        let mut np = NetworkProcessor::with_policy(CORES, policy());
        np.install_all(&self.image, self.program.base, |i| {
            let (graph, hash) = &self.monitors[i];
            Box::new(HardwareMonitor::new(graph.clone(), *hash))
        });
        np.set_shards(shards);
        np
    }

    /// A stand-alone core programmed like NP core `i`, with its monitor.
    fn monitored_core(&self, i: usize) -> (Core, HardwareMonitor<MerkleTreeHash>) {
        let (graph, hash) = &self.monitors[i];
        (self.bare_core(), HardwareMonitor::new(graph.clone(), *hash))
    }

    fn bare_core(&self) -> Core {
        let mut core = Core::new();
        core.install(&self.image, self.program.base);
        core
    }
}

/// Host timings of the timed rounds of a run.
#[derive(Default)]
struct Timing {
    round_us: Vec<f64>,
    /// Executed packets per host second of each pass's timed rounds.
    pass_rates: Vec<f64>,
    pass_packets: u64,
    pass_s: f64,
}

impl Timing {
    fn record(&mut self, elapsed: Duration, packets: usize) {
        self.round_us.push(elapsed.as_secs_f64() * 1e6);
        self.pass_packets += packets as u64;
        self.pass_s += elapsed.as_secs_f64();
    }

    fn end_pass(&mut self) {
        if self.pass_s > 0.0 {
            self.pass_rates.push(self.pass_packets as f64 / self.pass_s);
        }
        (self.pass_packets, self.pass_s) = (0, 0.0);
    }

    /// Packets per second: the median over passes, so a pass the host
    /// preempted does not move it.
    fn packets_per_s(&self) -> f64 {
        median(&self.pass_rates)
    }

    /// The end-to-end metrics of a data-plane run.
    fn metrics(&self, setup_s: f64) -> Vec<Metric> {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("work_per_s", self.packets_per_s(), "1/s"),
            metric("call_p50_us", median(&self.round_us), "us"),
            metric("call_p90_us", percentile(&self.round_us, 90.0), "us"),
        ]
    }
}

/// Runs passes over the workload's rounds until `seconds` have elapsed
/// (at least one pass). Each pass starts from a freshly installed NP; its
/// first round, which pays the NP's lazy set-up, is checked but not timed.
/// `round` runs one round and returns `(packets executed, packets offered,
/// mismatches)`; `finish` checks the NP at the end of a pass and returns
/// mismatches.
fn drive<F, G>(
    plane: &Plane,
    rounds: usize,
    seconds: f64,
    run: &mut Run,
    mut round: F,
    mut finish: G,
) -> Timing
where
    F: FnMut(&mut NetworkProcessor, usize) -> (usize, usize, u64),
    G: FnMut(&NetworkProcessor) -> u64,
{
    let mut timing = Timing::default();
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut np = plane.np(GATED_SHARDS);
        for r in 0..rounds {
            let t = Instant::now();
            let (executed, offered, bad) = round(&mut np, r);
            let elapsed = t.elapsed();
            if r > 0 {
                timing.record(elapsed, executed);
            }
            run.attempted += offered as u64;
            run.failed += bad;
        }
        run.failed += finish(&np);
        timing.end_pass();
        passes += 1;
    }
    timing
}

/// Median of `reps` timings of `setup`, returning the last result.
fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

// ---------------------------------------------------------------- forward

/// `forward` inputs: minimum-size IPv4/UDP packets over 1024 flows, with
/// one honest-options packet in eight.
fn forward_rounds(seed: u64, rounds: usize) -> Vec<Vec<Vec<u8>>> {
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 0xF0));
    let flows: Vec<([u8; 4], [u8; 4], u16, u16)> = (0..1024)
        .map(|_| {
            (
                [10, 1, rng.gen(), rng.gen()],
                [10, 0, 0, rng.gen_range(1..=15u8)],
                rng.gen(),
                rng.gen(),
            )
        })
        .collect();
    (0..rounds)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    if rng.gen_range(0..8u32) == 0 {
                        testing::benign_options_packet(rng.gen_range(1..=15u8))
                    } else {
                        let (src, dst, sport, dport) = flows[rng.gen_range(0..flows.len())];
                        testing::ipv4_udp_packet(src, dst, sport, dport, &[])
                    }
                })
                .collect()
        })
        .collect()
}

/// The `forward` workload: closed loop, one `process_batch` of 256
/// packets per round through the IPv4+CM binary.
pub fn forward(seed: u64, seconds: f64, trace: bool, size: &Size, run: &mut Run) {
    let build = || {
        let rounds = forward_rounds(seed, size.forward_rounds);
        let plane = Plane::new(
            programs::ipv4_cm().expect("embedded program assembles"),
            seed,
        );
        let mut np = plane.np(GATED_SHARDS);
        black_box(np.process_batch(&rounds[0]));
        (rounds, plane)
    };
    let (setup_s, (rounds, plane)) = timed_setup(size.setup_reps, build);

    // The reference, untimed: the serial oracle over the same rounds.
    let mut oracle = plane.np(1);
    let expected: Vec<Vec<(usize, PacketOutcome)>> = rounds
        .iter()
        .map(|r| oracle.process_batch_serial(r))
        .collect();
    let expected_stats = oracle.stats();
    if expected
        .iter()
        .flatten()
        .any(|(_, o)| o.halt != HaltReason::Completed)
    {
        run.error("forward: benign traffic halted uncleanly under the oracle");
    }

    let mut round = |np: &mut NetworkProcessor, r: usize| {
        let out = np.process_batch(&rounds[r]);
        (out.len(), out.len(), mismatches(&out, &expected[r]))
    };
    let mut finish = |np: &NetworkProcessor| u64::from(np.stats() != expected_stats);
    // Untimed (but checked) warm-up, so the host settles: clock ramp,
    // caches, allocator.
    drive(
        &plane,
        rounds.len(),
        size.warmup_s,
        run,
        &mut round,
        &mut finish,
    );
    if trace {
        forward_traced(&plane, &rounds, &expected, seconds, run);
        return;
    }
    let timing = drive(&plane, rounds.len(), seconds, run, &mut round, &mut finish);
    run.e2e = timing.metrics(setup_s);
    run.report = vec![
        metric("pkt_per_s", timing.packets_per_s(), "packets/s"),
        metric("round_p50_us", median(&timing.round_us), "us"),
        metric("round_p90_us", percentile(&timing.round_us, 90.0), "us"),
        metric("round_p99_us", percentile(&timing.round_us, 99.0), "us"),
        metric("round_samples", timing.round_us.len() as f64, "count"),
        metric("packets_per_pass", (rounds.len() * BATCH) as f64, "count"),
    ];
}

/// Packets whose `(core, outcome)` differs from the reference.
fn mismatches(got: &[(usize, PacketOutcome)], want: &[(usize, PacketOutcome)]) -> u64 {
    if got.len() != want.len() {
        return want.len().max(1) as u64;
    }
    got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
}

/// The traced `forward` run: every layer's public call on the same
/// rounds, each inside a span.
fn forward_traced(
    plane: &Plane,
    rounds: &[Vec<Vec<u8>>],
    expected: &[Vec<(usize, PacketOutcome)>],
    seconds: f64,
    run: &mut Run,
) {
    // Retired words per round, recorded first with the tracer.
    let mut tracer = Tracer::keep_last(1 << 16);
    let mut recorder = plane.bare_core();
    let words: Vec<Vec<u32>> = rounds
        .iter()
        .map(|round| {
            let mut w = Vec::new();
            for p in round {
                recorder.process_packet(p, &mut tracer);
                w.extend(tracer.entries().map(|e| e.word));
            }
            w
        })
        .collect();

    // Untraced reference for the trace gap: one timed-run pass.
    let mut np_plain = plane.np(GATED_SHARDS);
    black_box(np_plain.process_batch(&rounds[0]));
    let t = Instant::now();
    for round in &rounds[1..] {
        black_box(np_plain.process_batch(round));
    }
    let plain_ns_per_pkt =
        t.elapsed().as_nanos() as f64 / ((rounds.len() - 1) * BATCH).max(1) as f64;

    let mut ledger = Ledger::new();
    let mut np1 = plane.np(1);
    let mut np2 = plane.np(ENGINE_SHARDS);
    let mut np_call = plane.np(ENGINE_SHARDS);
    black_box(np_call.process_batch(&rounds[0][..1]));
    let mut bare = plane.bare_core();
    let (mut block_core, mut block_mon) = plane.monitored_core(0);
    let (mut scalar_core, mut scalar_mon) = plane.monitored_core(0);
    let hash = plane.monitors[0].1;
    let (mut packets, mut steps, mut first_pass_steps, mut words_hashed) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut r = 0usize;
    while r < rounds.len() || start.elapsed().as_secs_f64() < seconds {
        let i = r % rounds.len();
        let round = &rounds[i];
        let root = ledger.open("forward.round", r as u64);
        let out2 = ledger.span("np.2shard", r as u64, || np2.process_batch(round));
        let out1 = ledger.span("np.1shard", r as u64, || np1.process_batch(round));
        let mut bad = mismatches(&out2, &out1);
        if r < rounds.len() {
            bad += mismatches(&out2, &expected[i]);
        }
        let interp: Vec<PacketOutcome> = ledger.span("interp", r as u64, || {
            round
                .iter()
                .map(|p| bare.process_packet(p, &mut NullObserver))
                .collect()
        });
        let block: Vec<PacketOutcome> = ledger.span("monitor.block", r as u64, || {
            round
                .iter()
                .map(|p| block_mon.run_packet(&mut block_core, p))
                .collect()
        });
        let scalar: Vec<PacketOutcome> = ledger.span("monitor.scalar", r as u64, || {
            round
                .iter()
                .map(|p| scalar_core.process_packet(p, &mut scalar_mon))
                .collect()
        });
        bad += (0..round.len())
            .filter(|&k| {
                interp[k] != block[k] || block[k] != scalar[k] || !block[k].halt.is_clean()
            })
            .count() as u64;
        let lanes = &words[i];
        ledger.span("hash.block", r as u64, || {
            let mut acc = 0u8;
            for chunk in lanes.chunks_exact(16) {
                let block: &[u32; 16] = chunk.try_into().expect("16 lanes");
                acc = hash
                    .hash_block(black_box(block))
                    .iter()
                    .fold(acc, |a, &h| a ^ h);
            }
            black_box(acc)
        });
        ledger.span("hash.scalar", r as u64, || {
            let mut acc = 0u8;
            for &w in &lanes[..lanes.len() / 16 * 16] {
                acc ^= hash.hash(black_box(w));
            }
            black_box(acc)
        });
        ledger.span("engine.call", r as u64, || {
            np_call.process_batch(&round[..1])
        });
        ledger.close(root);
        packets += round.len() as u64;
        let round_steps: u64 = interp.iter().map(|o| o.steps).sum();
        steps += round_steps;
        if r < rounds.len() {
            // The guard counts the first pass only, so it repeats exactly.
            first_pass_steps += round_steps;
        }
        words_hashed += (lanes.len() / 16 * 16) as u64;
        run.attempted += round.len() as u64;
        run.failed += bad;
        r += 1;
    }

    let per_pkt = |name: &str| ledger.total_ns(name) / packets as f64;
    let interp_ns = per_pkt("interp");
    let run_packet_ns = per_pkt("monitor.block");
    let np1_ns = per_pkt("np.1shard");
    let dispatch_ns = np1_ns - run_packet_ns;
    let layers = interp_ns + (run_packet_ns - interp_ns) + dispatch_ns;
    run.ledger_lines.push(format!(
        "forward ns/pkt untraced {plain_ns_per_pkt:.1} | layers: interp {interp_ns:.1} + \
         monitor.block {:.1} + dispatch {dispatch_ns:.1} = {layers:.1} | remainder {:.1} \
         | 2-shard engine {:.1}",
        run_packet_ns - interp_ns,
        plain_ns_per_pkt - layers,
        per_pkt("np.2shard"),
    ));
    run.layers = vec![
        metric("interp.ns_per_pkt", interp_ns, "ns"),
        metric(
            "interp.instr_per_pkt",
            first_pass_steps as f64 / (rounds.len() * BATCH) as f64,
            "instr",
        ),
        metric(
            "interp.ns_per_instr",
            ledger.total_ns("interp") / steps as f64,
            "ns",
        ),
        metric("monitor.block_ns_per_pkt", run_packet_ns - interp_ns, "ns"),
        metric("monitor.scalar_ns_per_pkt", per_pkt("monitor.scalar"), "ns"),
        metric(
            "hash.block_ns_per_word",
            ledger.total_ns("hash.block") / words_hashed as f64,
            "ns",
        ),
        metric(
            "hash.scalar_ns_per_word",
            ledger.total_ns("hash.scalar") / words_hashed as f64,
            "ns",
        ),
        metric("np.ns_per_pkt_1shard", np1_ns, "ns"),
        metric("np.dispatch_ns_per_pkt", dispatch_ns, "ns"),
        metric(
            "engine.speedup_2v1",
            ledger.total_ns("np.1shard") / ledger.total_ns("np.2shard"),
            "x",
        ),
        metric(
            "engine.call_overhead_us",
            ledger.total_ns("engine.call") / ledger.count("engine.call") as f64 / 1e3,
            "us",
        ),
        metric(
            "forward.unattributed_ns_per_pkt",
            plain_ns_per_pkt - layers,
            "ns",
        ),
        metric(
            "ledger.trace_gap_frac",
            (np1_ns - plain_ns_per_pkt) / plain_ns_per_pkt,
            "ratio",
        ),
    ];
    run.ledger = Some(ledger);
}

// ---------------------------------------------------------- stream-attack

/// What an offered packet of `stream-attack` is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Benign,
    /// `testing::hijack_packet` stack smash with uncrafted injected code.
    Noisy,
    /// `craft_evasive_hijack` built with core 0's hash parameter.
    Evasive,
}

/// `stream-attack` inputs: open-loop rounds with one attack in every 16
/// offered packets, alternating noisy and evasive hijacks.
struct StreamInputs {
    rounds: Vec<Vec<Vec<u8>>>,
    kinds: Vec<Vec<Kind>>,
    evasive_port: u32,
}

/// `packet` with source address `src` and a fixed-up header checksum.
fn with_source(packet: &[u8], src: [u8; 4]) -> Vec<u8> {
    let mut p = packet.to_vec();
    let header_len = usize::from(p[0] & 0xf) * 4;
    p[12..16].copy_from_slice(&src);
    p[10..12].copy_from_slice(&[0, 0]);
    let ck = testing::ipv4_checksum(&p[..header_len]);
    p[10..12].copy_from_slice(&ck.to_be_bytes());
    p
}

fn stream_inputs(seed: u64, rounds: usize, plane: &Plane) -> StreamInputs {
    let noisy = testing::hijack_packet(&format!(
        "li $t4, 0x0007fff0\n li $t5, {NOISY_PORT}\n sw $t5, 0($t4)\n break 0"
    ))
    .expect("injected code assembles");
    let evasive = craft_evasive_hijack(
        &plane.program,
        plane.monitors[0].1.param(),
        Compression::SBox,
    )
    .expect("an evasive path exists through the S-box monitoring graph");
    let mut source = OpenLoopSource::new(OpenLoopConfig {
        seed: split_seed(seed, 0x57),
        ..OpenLoopConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 0xA7));
    let (mut offered, mut attacks) = (0usize, 0usize);
    let mut out_rounds = Vec::with_capacity(rounds);
    let mut kinds = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut round = Vec::new();
        let mut round_kinds = Vec::new();
        for packet in source.next_round() {
            round.push(packet);
            round_kinds.push(Kind::Benign);
            offered += 1;
            if offered % (ATTACK_EVERY - 1) == 0 {
                // Attack flows spread evenly over the nominal flow→core map,
                // so the escape share does not hinge on a few flow hashes.
                let (kind, template) = if attacks % 2 == 0 {
                    (Kind::Evasive, &evasive.packet)
                } else {
                    (Kind::Noisy, &noisy)
                };
                let target = (attacks / 2) % CORES;
                let packet = loop {
                    let p = with_source(template, [172, 16, rng.gen(), rng.gen()]);
                    if flow_hash(&p) % CORES as u64 == target as u64 {
                        break p;
                    }
                };
                round.push(packet);
                round_kinds.push(kind);
                attacks += 1;
            }
        }
        out_rounds.push(round);
        kinds.push(round_kinds);
    }
    StreamInputs {
        rounds: out_rounds,
        kinds,
        evasive_port: evasive.port,
    }
}

/// The simulated (deterministic) results of one pass, from the oracle.
#[derive(Debug, Clone, PartialEq)]
struct AttackTally {
    offered: u64,
    dropped: u64,
    attacks_admitted: u64,
    escapes: u64,
    detect_steps: Vec<f64>,
}

impl AttackTally {
    fn of(inputs: &StreamInputs, outcomes: &[StreamOutcome]) -> AttackTally {
        let mut t = AttackTally {
            offered: 0,
            dropped: 0,
            attacks_admitted: 0,
            escapes: 0,
            detect_steps: Vec::new(),
        };
        for (r, out) in outcomes.iter().enumerate() {
            t.offered += out.report.offered;
            t.dropped += out.report.dropped;
            for (k, slot) in out.outcomes.iter().enumerate() {
                let kind = inputs.kinds[r][k];
                let Some((_, o)) = slot else { continue };
                if kind == Kind::Benign {
                    continue;
                }
                t.attacks_admitted += 1;
                let port = if kind == Kind::Noisy {
                    NOISY_PORT
                } else {
                    inputs.evasive_port
                };
                if o.halt.is_clean() && o.verdict == Verdict::Forward(port) {
                    t.escapes += 1;
                }
                if o.halt == HaltReason::MonitorViolation {
                    t.detect_steps.push(o.steps as f64);
                }
            }
        }
        t
    }

    fn drop_frac(&self) -> f64 {
        ratio(self.dropped as f64, self.offered as f64)
    }

    fn escape_frac(&self) -> f64 {
        ratio(self.escapes as f64, self.attacks_admitted as f64)
    }

    fn detect_p99(&self) -> f64 {
        percentile(&self.detect_steps, 99.0)
    }
}

/// Round outcomes agree with the oracle's: outcomes, offered, admitted,
/// dropped (the serial oracle never steals, so steals are not compared).
fn stream_mismatches(got: &StreamOutcome, want: &StreamOutcome) -> u64 {
    let (g, w) = (&got.report, &want.report);
    let report_ok = (g.offered, g.admitted, g.dropped) == (w.offered, w.admitted, w.dropped);
    if got.outcomes.len() != want.outcomes.len() {
        return want.outcomes.len().max(1) as u64;
    }
    let bad = got
        .outcomes
        .iter()
        .zip(&want.outcomes)
        .filter(|(a, b)| a != b)
        .count() as u64;
    bad + u64::from(!report_ok)
}

/// The ingress budget of one round split over `shards` shards.
fn stream_config(shards: usize) -> StreamConfig {
    StreamConfig {
        shard_capacity: ROUND_CAPACITY / shards,
    }
}

/// The `stream-attack` workload: open-loop bursty traffic with hijacks
/// through `process_stream`, one call per arrival round.
pub fn stream_attack(seed: u64, seconds: f64, trace: bool, size: &Size, run: &mut Run) {
    let cfg = stream_config(GATED_SHARDS);
    let build = || {
        let plane = Plane::new(
            programs::vulnerable_forward().expect("embedded program assembles"),
            seed,
        );
        let inputs = stream_inputs(seed, size.stream_rounds, &plane);
        let mut np = plane.np(GATED_SHARDS);
        black_box(np.process_stream(&inputs.rounds[..1], &cfg));
        (plane, inputs)
    };
    let (setup_s, (plane, inputs)) = timed_setup(size.setup_reps, build);
    let rounds = &inputs.rounds;

    let mut oracle = plane.np(GATED_SHARDS);
    let expected: Vec<StreamOutcome> = (0..rounds.len())
        .map(|r| oracle.process_stream_serial(&rounds[r..r + 1], &cfg))
        .collect();
    let expected_stats: NpStats = oracle.stats();
    if oracle.is_locked_down() {
        run.error("stream-attack: the supervisor policy reached lockdown under the oracle");
    }
    let tally = AttackTally::of(&inputs, &expected);

    let mut round = |np: &mut NetworkProcessor, r: usize| {
        let out = np.process_stream(&rounds[r..r + 1], &cfg);
        let (admitted, offered) = (out.report.admitted, out.report.offered);
        (
            admitted as usize,
            offered as usize,
            stream_mismatches(&out, &expected[r]),
        )
    };
    let mut finish =
        |np: &NetworkProcessor| u64::from(np.stats() != expected_stats || np.is_locked_down());
    drive(
        &plane,
        rounds.len(),
        size.warmup_s,
        run,
        &mut round,
        &mut finish,
    );
    if trace {
        stream_traced(&plane, &inputs, &expected, seconds, run);
        run.layers.extend([
            metric("stream.drop_frac", tally.drop_frac(), "ratio"),
            metric("stream.escape_frac", tally.escape_frac(), "ratio"),
            metric("stream.detect_p99_instr", tally.detect_p99(), "instr"),
        ]);
        return;
    }
    let timing = drive(&plane, rounds.len(), seconds, run, &mut round, &mut finish);
    let pkt_per_s = timing.packets_per_s();
    run.e2e = timing.metrics(setup_s);
    run.report = vec![
        metric("pkt_per_s", pkt_per_s, "packets/s"),
        metric("round_p50_us", median(&timing.round_us), "us"),
        metric("round_p90_us", percentile(&timing.round_us, 90.0), "us"),
        metric("round_p99_us", percentile(&timing.round_us, 99.0), "us"),
        metric("round_samples", timing.round_us.len() as f64, "count"),
        metric("drop_frac", tally.drop_frac(), "ratio"),
        metric("escape_frac", tally.escape_frac(), "ratio"),
        metric("detect_p99_instr", tally.detect_p99(), "instructions"),
        metric("attacks_admitted", tally.attacks_admitted as f64, "count"),
        metric("escapes", tally.escapes as f64, "count"),
        metric("detections", tally.detect_steps.len() as f64, "count"),
        metric(
            "recoveries_per_pass",
            expected_stats.recoveries as f64,
            "count",
        ),
        metric(
            "quarantined_cores",
            expected_stats.quarantined_cores as f64,
            "count",
        ),
    ];
}

/// The traced `stream-attack` run.
fn stream_traced(
    plane: &Plane,
    inputs: &StreamInputs,
    expected: &[StreamOutcome],
    seconds: f64,
    run: &mut Run,
) {
    let rounds = &inputs.rounds;
    let cfg = stream_config(GATED_SHARDS);
    let cfg2 = stream_config(ENGINE_SHARDS);
    // Untraced reference for the trace gap: one timed-run pass.
    let mut np_plain = plane.np(GATED_SHARDS);
    black_box(np_plain.process_stream(&rounds[..1], &cfg));
    let t = Instant::now();
    for r in 1..rounds.len() {
        black_box(np_plain.process_stream(&rounds[r..r + 1], &cfg));
    }
    let plain_ns_per_round = t.elapsed().as_nanos() as f64 / (rounds.len() - 1).max(1) as f64;

    let mut ledger = Ledger::new();
    let mut np = plane.np(GATED_SHARDS);
    let mut np_obs = plane.np(GATED_SHARDS);
    let mut np2 = plane.np(ENGINE_SHARDS);
    let bus = Arc::new(EventBus::new());
    np_obs.set_event_bus(Some(bus.clone()));
    np_obs.set_trace(Some(TraceContext::new(0x5EED, 64)));
    let mut cores: Vec<(Core, HardwareMonitor<MerkleTreeHash>)> =
        (0..CORES).map(|i| plane.monitored_core(i)).collect();
    let stats_before = np.stats();
    let (mut offers, mut admitted, mut steals, mut planned, mut resets) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut attack_ns, mut attack_pkts) = (0f64, 0u64);
    let mut delays: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut r = 0usize;
    while r < rounds.len() || start.elapsed().as_secs_f64() < seconds {
        let i = r % rounds.len();
        let round = &rounds[i];
        let id = r as u64;
        let root = ledger.open("stream.round", id);
        let out = ledger.span("np.stream", id, || {
            np.process_stream(&rounds[i..i + 1], &cfg)
        });
        let out_obs = ledger.span("np.stream_obs", id, || {
            np_obs.process_stream(&rounds[i..i + 1], &cfg)
        });
        drop(bus.take());
        let out2 = ledger.span("np.stream_2shard", id, || {
            np2.process_stream(&rounds[i..i + 1], &cfg2)
        });
        // Observability must not change a single outcome.
        let mut bad = u64::from(out.outcomes != out_obs.outcomes);
        if r < rounds.len() {
            bad += stream_mismatches(&out, &expected[i]);
        }
        offers += out.report.offered;
        admitted += out.report.admitted;
        if r < rounds.len() {
            // Counts of the first pass only, so they repeat exactly.
            steals += out2.report.steals;
        }

        // Admission replayed from outside with the all-healthy flow table.
        let (ingress, admitted_at) = ledger.span("admission", id, || {
            let mut ingress = IngressQueues::new(CORES, GATED_SHARDS, cfg.shard_capacity);
            let mut admitted_at: Vec<usize> = Vec::new();
            for (k, p) in round.iter().enumerate() {
                let core = (flow_hash(p) % CORES as u64) as usize;
                if let Some(delay) = ingress.offer(core, admitted_at.len()) {
                    delays.push(delay as f64);
                    admitted_at.push(k);
                }
            }
            (ingress, admitted_at)
        });
        // What the 2-shard engine would plan for these queue loads.
        let (_, n) = ledger.span("engine.steal_plan", id, || {
            steal_plan(&ingress.loads(), ENGINE_SHARDS)
        });
        if r < rounds.len() {
            planned += n;
        }
        // Execution on stand-alone copies of the cores: core c runs its
        // ingress queue in order, resetting after every unclean halt.
        let exec = ledger.open("exec", id);
        for (c, queue) in ingress.queues().iter().enumerate() {
            let (core, monitor) = &mut cores[c];
            for &a in queue {
                let k = admitted_at[a];
                let t = Instant::now();
                let o = monitor.run_packet(core, &round[k]);
                if inputs.kinds[i][k] != Kind::Benign {
                    attack_ns += t.elapsed().as_nanos() as f64;
                    attack_pkts += 1;
                }
                if !o.halt.is_clean() {
                    ledger.span("recovery.reset", id, || core.reset());
                    resets += 1;
                }
            }
        }
        ledger.close(exec);
        ledger.close(root);
        run.attempted += out.report.offered;
        run.failed += bad;
        r += 1;
    }
    let rounds_run = r as f64;
    let per_round = |name: &str| ledger.total_ns(name) / rounds_run;
    let round_ns = per_round("np.stream");
    let admission_ns = per_round("admission");
    let exec_ns = per_round("exec");
    let residual = round_ns - admission_ns - exec_ns;
    let recoveries = np.stats().recoveries - stats_before.recoveries;
    run.ledger_lines.push(format!(
        "stream-attack ns/round {round_ns:.0} (untraced {plain_ns_per_round:.0}) | layers: \
         admission {admission_ns:.0} + execution and resets {exec_ns:.0} = {:.0} | remainder \
         (supervisor, merge, telemetry) {residual:.0} | 2-shard engine {:.0}",
        admission_ns + exec_ns,
        per_round("np.stream_2shard"),
    ));
    run.layers = vec![
        metric(
            "monitor.attack_ns_per_pkt",
            ratio(attack_ns, attack_pkts as f64),
            "ns",
        ),
        metric(
            "admission.ns_per_offer",
            ledger.total_ns("admission") / offers as f64,
            "ns",
        ),
        metric(
            "engine.steal_plan_ns_per_round",
            per_round("engine.steal_plan"),
            "ns",
        ),
        metric(
            "engine.steals_per_round",
            steals as f64 / rounds.len() as f64,
            "count",
        ),
        metric(
            "engine.planned_steals_per_round",
            planned as f64 / rounds.len() as f64,
            "count",
        ),
        metric(
            "recovery.reset_us",
            ratio(ledger.total_ns("recovery.reset"), resets as f64) / 1e3,
            "us",
        ),
        metric(
            "recovery.resets_per_kpkt",
            ratio(recoveries as f64, admitted as f64) * 1e3,
            "count",
        ),
        metric("stream.exec_ns_per_round", exec_ns, "ns"),
        metric("np.residual_ns_per_round", residual, "ns"),
        metric(
            "stream.ns_per_round_2shard",
            per_round("np.stream_2shard"),
            "ns",
        ),
        metric(
            "stream.queue_delay_p99_pkts",
            percentile(&delays, 99.0),
            "pkts",
        ),
        metric(
            "obs.trace_overhead_frac",
            (ledger.total_ns("np.stream_obs") - ledger.total_ns("np.stream"))
                / ledger.total_ns("np.stream"),
            "ratio",
        ),
        metric(
            "ledger.trace_gap_frac",
            (round_ns - plain_ns_per_round) / plain_ns_per_round,
            "ratio",
        ),
    ];
    run.ledger = Some(ledger);
}
