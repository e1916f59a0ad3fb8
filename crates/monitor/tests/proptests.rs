//! Randomized property tests for the monitoring stack — the soundness
//! property the whole paper rests on: **legitimate execution is never
//! flagged**, for any workload, parameter, compression, and traffic.
//!
//! Cases are drawn from seeded [`StdRng`] streams so failures reproduce.

use sdmmon_isa::asm::Assembler;
use sdmmon_monitor::block::{BlockGraph, BlockMonitor};
use sdmmon_monitor::graph::MonitoringGraph;
use sdmmon_monitor::hash::{Compression, InstructionHash, MerkleTreeHash, WidthHash, BLOCK_LANES};
use sdmmon_monitor::monitor::HardwareMonitor;
use sdmmon_npu::core::Core;
use sdmmon_npu::cpu::ExecutionObserver;
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::HaltReason;
use sdmmon_rng::{Rng, RngCore, SeedableRng, StdRng};

const CASES: usize = 64;

fn arb_compression(rng: &mut StdRng) -> Compression {
    Compression::ALL[rng.gen_range(0..Compression::ALL.len())]
}

/// No false positives: any parameter, any compression, any valid or
/// malformed packet — the instruction-level monitor never flags the
/// legitimate binary.
#[test]
fn no_false_positives_instruction_level() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0001);
    for _ in 0..CASES {
        let param = rng.next_u32();
        let compression = arb_compression(&mut rng);
        let dst = rng.gen::<u8>();
        let ttl = rng.gen::<u8>();
        let mut payload = vec![0u8; rng.gen_range(0..128usize)];
        rng.fill_bytes(&mut payload);
        let hash = MerkleTreeHash::with_compression(param, compression);
        let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
        let mut monitor = HardwareMonitor::new(graph, hash);
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], ttl, &payload);
        let out = core.process_packet(&packet, &mut monitor);
        assert_eq!(out.halt, HaltReason::Completed);
        assert_eq!(monitor.stats().violations, 0);
    }
}

/// Same soundness for the block-granularity monitor.
#[test]
fn no_false_positives_block_level() {
    let program = programs::ipv4_cm().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0002);
    for _ in 0..CASES {
        let param = rng.next_u32();
        let dst = rng.gen::<u8>();
        let mut payload = vec![0u8; rng.gen_range(0..128usize)];
        rng.fill_bytes(&mut payload);
        let hash = MerkleTreeHash::new(param);
        let graph = BlockGraph::extract(&program, &hash).expect("graph extracts");
        let mut monitor = BlockMonitor::new(graph, hash);
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], 64, &payload);
        let out = core.process_packet(&packet, &mut monitor);
        assert_eq!(out.halt, HaltReason::Completed);
        assert_eq!(monitor.stats().violations, 0);
    }
}

/// Width-ablated monitors are sound too.
#[test]
fn no_false_positives_any_width() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0003);
    for _ in 0..CASES {
        let param = rng.next_u32();
        let width = [2, 4, 8][rng.gen_range(0..3usize)];
        let dst = rng.gen_range(1..10u8);
        let hash = WidthHash::new(param, width);
        let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
        let mut monitor = HardwareMonitor::new(graph, hash);
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], 64, b"x");
        let out = core.process_packet(&packet, &mut monitor);
        assert_eq!(out.halt, HaltReason::Completed);
    }
}

/// Graph serialization round-trips for arbitrary small programs built from
/// random (mostly invalid) words — the graph treats undecodable words as
/// data and must survive them.
#[test]
fn graph_serialization_round_trips_any_program() {
    let mut rng = StdRng::seed_from_u64(0x4D0_0004);
    for _ in 0..CASES {
        let words: Vec<u32> = (0..rng.gen_range(1..64usize))
            .map(|_| rng.next_u32())
            .collect();
        let param = rng.next_u32();
        let program = sdmmon_isa::asm::Program {
            base: 0,
            words,
            symbols: Default::default(),
        };
        let hash = MerkleTreeHash::new(param);
        let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
        let restored = MonitoringGraph::from_bytes(&graph.to_bytes()).expect("round trip");
        assert_eq!(restored, graph);
    }
}

/// Corrupting any single instruction of the binary is detected when that
/// instruction executes on the hot path — or at worst the run completes
/// with identical observable behaviour (a 4-bit hash collision AND
/// semantically harmless change). The monitor must never produce a *wrong
/// verdict silently while flagging nothing on a changed hash*.
#[test]
fn corruption_is_detected_or_collides() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0005);
    for _ in 0..CASES {
        let param = rng.next_u32();
        let word_index = rng.gen_range(0..program.words.len().min(40));
        let bit = rng.gen_range(0..32usize);
        let hash = MerkleTreeHash::with_compression(param, Compression::SBox);
        let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
        let mut monitor = HardwareMonitor::new(graph, hash);
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        let addr = program.base + 4 * word_index as u32;
        let original = core.memory().load_u32(addr).expect("in range");
        let corrupted = original ^ (1 << bit);
        core.memory_mut()
            .store_u32(addr, corrupted)
            .expect("in range");
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"pp");
        let out = core.process_packet(&packet, &mut monitor);
        if out.halt == HaltReason::MonitorViolation {
            // Detected: fine. The hash of the corrupted word must indeed
            // differ... from at least the corrupted position's node
            // (otherwise the monitor had a real reason elsewhere).
            assert_eq!(monitor.stats().violations, 1);
        } else {
            // Not flagged: either the corrupted word never executed, or its
            // hash collided. In both cases the run must have ended in an
            // orderly way.
            assert!(matches!(
                out.halt,
                HaltReason::Completed | HaltReason::Fault(_) | HaltReason::StepLimit
            ));
        }
    }
}

/// Monitoring-graph structure is parameter-independent: only hashes change
/// with the parameter, never successor sets.
#[test]
fn graph_structure_is_parameter_independent() {
    let program = programs::vulnerable_forward().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0006);
    for _ in 0..16 {
        let (a, b) = (rng.next_u32(), rng.next_u32());
        let ga = MonitoringGraph::extract(&program, &MerkleTreeHash::new(a)).expect("graph");
        let gb = MonitoringGraph::extract(&program, &MerkleTreeHash::new(b)).expect("graph");
        for (addr, node) in ga.iter() {
            assert_eq!(
                &node.successors,
                &gb.node(addr).expect("same shape").successors
            );
        }
    }
}

/// Deterministic: a graph extracted from one workload rejects execution of
/// a different workload almost immediately (cross-binary install guard).
#[test]
fn wrong_binary_graph_rejects_quickly() {
    let fwd = programs::ipv4_forward().unwrap();
    let cm = programs::ipv4_cm().unwrap();
    let hash = MerkleTreeHash::new(0x1122_3344);
    let graph_for_cm = MonitoringGraph::extract(&cm, &hash).unwrap();
    let mut monitor = HardwareMonitor::new(graph_for_cm, hash);
    let mut core = Core::new();
    core.install(&fwd.to_bytes(), fwd.base);
    let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
    let out = core.process_packet(&packet, &mut monitor);
    assert_eq!(out.halt, HaltReason::MonitorViolation);
    assert!(
        out.steps < 40,
        "mismatch found within a few instructions: {}",
        out.steps
    );
}

/// The bit-sliced block hash is a drop-in for the scalar tree: for every
/// compression, random parameters, and random instruction words, all 16
/// lanes of [`InstructionHash::hash_block`] agree with the scalar
/// [`InstructionHash::hash`] — including words whose nibbles exercise the
/// full 0..16 range in every plane.
#[test]
fn bitsliced_block_hash_matches_scalar_all_compressions() {
    let mut rng = StdRng::seed_from_u64(0x4D0_0007);
    for _ in 0..CASES {
        let param = rng.next_u32();
        for compression in Compression::ALL {
            let hash = MerkleTreeHash::with_compression(param, compression);
            let mut words = [0u32; BLOCK_LANES];
            for w in &mut words {
                *w = rng.next_u32();
            }
            let block = hash.hash_block(&words);
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(
                    block[i],
                    hash.hash(w),
                    "lane {i} param {param:#010x} {compression:?}"
                );
            }
        }
    }
}

/// [`WidthHash`] block hashing agrees with its scalar path at every
/// ablation width (2, 4, 8 bits), random parameters and words.
#[test]
fn width_hash_block_path_matches_scalar() {
    let mut rng = StdRng::seed_from_u64(0x4D0_0008);
    for _ in 0..CASES {
        let param = rng.next_u32();
        for width in [2, 4, 8] {
            let hash = WidthHash::new(param, width);
            let mut words = [0u32; BLOCK_LANES];
            for w in &mut words {
                *w = rng.next_u32();
            }
            let block = hash.hash_block(&words);
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(block[i], hash.hash(w), "lane {i} width {width}");
            }
        }
    }
}

/// The fast packet path ([`ExecutionObserver::run_packet`], which takes
/// word hashes from the monitor's verified-word memo) is observationally
/// identical to the per-instruction reference dispatch: same verdict, halt
/// reason, and step count, same monitor statistics and final candidate set
/// — for random parameters, compressions, and packets. Each monitor pair
/// sees 2–4 packets, and in half the cases one text bit is flipped
/// *between* packets, after the memo has been warmed on the pristine word,
/// so a stale memo entry would show as a missed violation.
#[test]
fn fast_path_is_byte_identical_to_reference_path() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0009);
    for case in 0..CASES * 2 {
        let param = rng.next_u32();
        let compression = arb_compression(&mut rng);
        let packets = rng.gen_range(2..5usize);
        let corrupt_before = rng.gen_bool(0.5).then(|| rng.gen_range(1..packets));

        let hash = MerkleTreeHash::with_compression(param, compression);
        let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
        let mut reference = HardwareMonitor::new(graph.clone(), hash);
        let mut fast = HardwareMonitor::new(graph, hash);

        let mut core_a = Core::new();
        let mut core_b = Core::new();
        core_a.install(&program.to_bytes(), program.base);
        core_b.install(&program.to_bytes(), program.base);
        for k in 0..packets {
            if corrupt_before == Some(k) {
                let word_index = rng.gen_range(0..program.words.len().min(40));
                let bit = rng.gen_range(0..32usize);
                let addr = program.base + 4 * word_index as u32;
                let original = core_a.memory().load_u32(addr).expect("in range");
                let patched = original ^ (1 << bit);
                core_a
                    .memory_mut()
                    .store_u32(addr, patched)
                    .expect("in range");
                core_b
                    .memory_mut()
                    .store_u32(addr, patched)
                    .expect("in range");
            }
            let dst = rng.gen::<u8>();
            let ttl = rng.gen::<u8>();
            let mut payload = vec![0u8; rng.gen_range(0..96usize)];
            rng.fill_bytes(&mut payload);
            let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], ttl, &payload);
            // Reference: the trait's default per-instruction observe loop.
            let ref_out = core_a.process_packet(&packet, &mut reference);
            // Under test: the memo fast path behind `run_packet`.
            let fast_out = fast.run_packet(&mut core_b, &packet);

            assert_eq!(fast_out, ref_out, "case {case} packet {k} outcome");
            assert_eq!(
                fast.stats(),
                reference.stats(),
                "case {case} packet {k} stats"
            );
            assert_eq!(
                fast.candidate_count(),
                reference.candidate_count(),
                "case {case} packet {k} candidates"
            );
        }
    }
}

/// Deterministic: monitors survive tiny synthetic programs with odd shapes
/// (single instruction, all-data, immediate self-loop).
#[test]
fn degenerate_programs_are_handled() {
    for src in ["break 0", "spin: b spin", ".word 0xffffffff"] {
        let program = Assembler::new().assemble(src).unwrap();
        let hash = MerkleTreeHash::new(9);
        let graph = MonitoringGraph::extract(&program, &hash).unwrap();
        assert_eq!(graph.len(), program.words.len(), "{src}");
        let block_graph = BlockGraph::extract(&program, &hash).unwrap();
        assert!(!block_graph.is_empty(), "{src}");
    }
}
