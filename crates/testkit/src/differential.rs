//! Differential/property harnesses: every fast path introduced by the
//! performance overhaul is checked bit-for-bit against its slow in-tree
//! oracle — *under injected faults*, not just on well-formed inputs.
//!
//! * parallel [`Fleet::deploy`] ≡ the [`deploy_serial`] oracle, including when
//!   the deployed program carries injected bit flips (both sides must fail
//!   with the *same* error);
//! * Montgomery/CRT RSA ≡ the plain square-and-multiply oracle, including
//!   degenerate and bit-flipped ciphertexts;
//! * the pre-decoded instruction cache ≡ the uncached interpreter, over
//!   corrupted text segments and hostile packets, compared retire-by-retire;
//! * the sharded batch engine ≡ the serial per-instruction oracle, over
//!   monitored cores with injected instruction-memory faults, hijack
//!   packets, and mutated traffic — outcomes *and* statistics;
//! * the streaming ingest engine (bounded ingress + deterministic work
//!   stealing) ≡ its serial oracle, over open-loop heavy-tailed rounds
//!   salted with hijacks — outcomes, backpressure accounting, *and*
//!   statistics.

use crate::fault::mutate_packet;
use sdmmon_core::entities::{InstallReport, Manufacturer, NetworkOperator, RouterDevice};
use sdmmon_core::system::Fleet;
use sdmmon_core::SdmmonError;
use sdmmon_crypto::bignum::BigUint;
use sdmmon_crypto::rsa::RsaKeyPair;
use sdmmon_isa::asm::Program;
use sdmmon_isa::Reg;
use sdmmon_monitor::{HardwareMonitor, MerkleTreeHash, MonitoringGraph};
use sdmmon_net::traffic::{OpenLoopConfig, OpenLoopSource};
use sdmmon_npu::cpu::{Cpu, DecodeCache, Trap};
use sdmmon_npu::mem::Memory;
use sdmmon_npu::np::{NetworkProcessor, StreamConfig};
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::{
    Verdict, MEM_SIZE, PKT_DATA_ADDR, PKT_LEN_ADDR, STACK_TOP, VERDICT_ADDR,
};
use sdmmon_npu::supervisor::SupervisorPolicy;
use sdmmon_rng::{Rng, RngCore, SeedableRng, StdRng};

/// Outcome of one differential check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffCheck {
    /// Stable snake_case check name.
    pub name: &'static str,
    /// Input pairs compared.
    pub trials: u64,
    /// Pairs where fast path and oracle disagreed. Must be zero.
    pub divergences: u64,
}

/// All differential checks of one campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferentialReport {
    /// The individual checks, in a fixed order.
    pub checks: Vec<DiffCheck>,
}

impl DifferentialReport {
    /// Total disagreements across all checks (the acceptance gate: 0).
    pub fn total_divergences(&self) -> u64 {
        self.checks.iter().map(|c| c.divergences).sum()
    }
}

/// Trial counts for [`run_differentials`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffBudget {
    /// RSA private-op input pairs.
    pub rsa_trials: u64,
    /// Montgomery-vs-binary `mod_pow` input pairs.
    pub modpow_trials: u64,
    /// Parallel-vs-serial fleet deployment rounds (each deploys two
    /// fleets, half of them over fault-injected programs).
    pub deploy_rounds: u64,
    /// Cached-vs-uncached execution runs (each over corrupted text and a
    /// hostile or mutated packet).
    pub decode_runs: u64,
    /// Sharded-vs-serial batch runs (each over monitored cores with
    /// injected instruction-memory faults and hostile traffic).
    pub batch_runs: u64,
    /// Streaming-vs-serial runs (each pushes open-loop heavy-tailed rounds
    /// through the bounded ingress + work-stealing engine and its serial
    /// oracle, over monitored cores with injected faults).
    pub stream_runs: u64,
}

impl DiffBudget {
    /// The smoke-sized default used by `run_campaign`.
    pub fn smoke() -> DiffBudget {
        DiffBudget {
            rsa_trials: 24,
            modpow_trials: 24,
            deploy_rounds: 3,
            decode_runs: 16,
            batch_runs: 6,
            stream_runs: 4,
        }
    }
}

/// Runs every differential check with its own sub-seed.
///
/// # Errors
///
/// Propagates infrastructure failures (key generation, packaging); a
/// *divergence* is never an error — it is counted and reported.
pub fn run_differentials(seed: u64, budget: DiffBudget) -> Result<DifferentialReport, SdmmonError> {
    Ok(DifferentialReport {
        checks: vec![
            rsa_crt_vs_plain(budget.rsa_trials, sdmmon_rng::split_seed(seed, 0))?,
            modpow_fast_vs_binary(budget.modpow_trials, sdmmon_rng::split_seed(seed, 1)),
            deploy_parallel_vs_serial(budget.deploy_rounds, sdmmon_rng::split_seed(seed, 2))?,
            decode_cached_vs_uncached(budget.decode_runs, sdmmon_rng::split_seed(seed, 3)),
            sharded_batch_vs_serial(budget.batch_runs, sdmmon_rng::split_seed(seed, 4)),
            stream_steal_vs_serial(budget.stream_runs, sdmmon_rng::split_seed(seed, 5)),
        ],
    })
}

/// CRT private op vs the plain `c^d mod n` oracle: degenerate inputs
/// (0, 1, n−1), uniform ciphertexts, and oversized out-of-range values —
/// what an attacker-controlled wrapped key actually delivers.
fn rsa_crt_vs_plain(trials: u64, seed: u64) -> Result<DiffCheck, SdmmonError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = RsaKeyPair::generate(512, &mut rng)?;
    let n = BigUint::from_be_bytes(&keys.public.modulus_bytes());
    let mut inputs = vec![
        BigUint::zero(),
        BigUint::one(),
        n.checked_sub(&BigUint::one()).expect("n >= 1"),
    ];
    while (inputs.len() as u64) < trials {
        if inputs.len() % 2 == 0 {
            inputs.push(BigUint::random_below(&n, &mut rng));
        } else {
            // Out of range on purpose: larger than the modulus.
            let mut bytes = vec![0u8; 70];
            rng.fill_bytes(&mut bytes);
            bytes[0] |= 0x80;
            inputs.push(BigUint::from_be_bytes(&bytes));
        }
    }
    let mut divergences = 0u64;
    for c in &inputs {
        if keys.private.private_op_crt(c) != keys.private.private_op_plain(c) {
            divergences += 1;
        }
    }
    Ok(DiffCheck {
        name: "rsa_crt_vs_plain",
        trials: inputs.len() as u64,
        divergences,
    })
}

/// Montgomery `mod_pow_fast` vs binary `mod_pow` over random odd moduli.
fn modpow_fast_vs_binary(trials: u64, seed: u64) -> DiffCheck {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut divergences = 0u64;
    for _ in 0..trials {
        let mut m = vec![0u8; 32];
        rng.fill_bytes(&mut m);
        m[0] |= 0x80; // full width
        m[31] |= 1; // odd, as Montgomery requires
        let modulus = BigUint::from_be_bytes(&m);
        let base = BigUint::random_below(&modulus, &mut rng);
        let mut e = vec![0u8; 8];
        rng.fill_bytes(&mut e);
        let exponent = BigUint::from_be_bytes(&e);
        if base.mod_pow_fast(&exponent, &modulus) != base.mod_pow(&exponent, &modulus) {
            divergences += 1;
        }
    }
    DiffCheck {
        name: "modpow_montgomery_vs_binary",
        trials,
        divergences,
    }
}

/// What [`deploy_serial`] deployed, in router order.
#[derive(Debug)]
pub struct SerialFleet {
    /// The deployed routers.
    pub routers: Vec<RouterDevice>,
    /// Per-router installation reports.
    pub reports: Vec<InstallReport>,
}

/// The serial reference for [`Fleet::deploy`], built only from public
/// calls: one master seed drawn from `rng`, one reserved block of package
/// sequences, then router `i` provisioned, packaged and installed from its
/// own `split_seed(master, i)` stream — one router at a time. The
/// parallel deploy must match it byte for byte, whatever the worker
/// scheduling.
///
/// # Errors
///
/// Propagates the first provisioning, packaging or installation failure,
/// in router order.
pub fn deploy_serial<R: RngCore + ?Sized>(
    manufacturer: &Manufacturer,
    operator: &NetworkOperator,
    program: &Program,
    count: usize,
    cores_each: usize,
    key_bits: usize,
    rng: &mut R,
) -> Result<SerialFleet, SdmmonError> {
    let master = rng.next_u64();
    let first_seq = operator.reserve_sequences(count as u64);
    let cores: Vec<usize> = (0..cores_each).collect();
    let mut fleet = SerialFleet {
        routers: Vec::with_capacity(count),
        reports: Vec::with_capacity(count),
    };
    for i in 0..count {
        let mut rng = StdRng::seed_from_u64(sdmmon_rng::split_seed(master, i as u64));
        let mut router = manufacturer.provision_router(
            &format!("router-{i}"),
            cores_each,
            key_bits,
            &mut rng,
        )?;
        let bundle = operator.prepare_package_with_sequence(
            program,
            router.public_key(),
            first_seq + i as u64,
            &mut rng,
        )?;
        fleet.reports.push(router.install_bundle(&bundle, &cores)?);
        fleet.routers.push(router);
    }
    Ok(fleet)
}

/// Observable state of one deployed fleet, for equality comparison.
fn fleet_fingerprint(routers: &[RouterDevice]) -> Vec<(String, Vec<u8>, Option<u32>)> {
    routers
        .iter()
        .map(|r| {
            (
                r.name().to_owned(),
                r.public_key().modulus_bytes(),
                r.installed(0).map(|a| a.hash_param),
            )
        })
        .collect()
}

/// Parallel vs serial fleet deployment from identically seeded worlds.
/// Every second round deploys a program with injected word bit flips, so
/// the comparison also covers the error path (both sides must reject
/// identically — `SdmmonError` is `PartialEq`).
fn deploy_parallel_vs_serial(rounds: u64, seed: u64) -> Result<DiffCheck, SdmmonError> {
    let base_program = programs::ipv4_forward().map_err(|e| SdmmonError::Graph(e.to_string()))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut divergences = 0u64;
    for round in 0..rounds {
        let mut program = base_program.clone();
        if round % 2 == 1 {
            // Injected fault: corrupt a few instruction words. Extraction
            // may fail (undecodable word) or succeed with a warped graph —
            // either way both deployment paths must agree exactly.
            for _ in 0..rng.gen_range(1..=3u32) {
                let i = rng.gen_range(0..program.words.len());
                program.words[i] ^= 1 << rng.gen_range(0..32u32);
            }
        }
        let world_seed = rng.next_u64();
        let world = |seed: u64| -> Result<(Manufacturer, NetworkOperator, StdRng), SdmmonError> {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = Manufacturer::new("acme", 512, &mut rng)?;
            let mut o = NetworkOperator::new("op", 512, &mut rng)?;
            o.accept_certificate(m.certify_operator(o.public_key(), "op"));
            Ok((m, o, rng))
        };
        let (m_par, o_par, mut rng_par) = world(world_seed)?;
        let (m_ser, o_ser, mut rng_ser) = world(world_seed)?;
        let parallel = Fleet::deploy(&m_par, &o_par, &program, 3, 1, 512, &mut rng_par);
        let serial = deploy_serial(&m_ser, &o_ser, &program, 3, 1, 512, &mut rng_ser);
        let agree = match (&parallel, &serial) {
            (Ok(p), Ok(s)) => {
                p.reports() == s.reports.as_slice()
                    && fleet_fingerprint(p.routers()) == fleet_fingerprint(&s.routers)
            }
            (Err(p), Err(s)) => p == s,
            _ => false,
        };
        if !agree {
            divergences += 1;
        }
    }
    Ok(DiffCheck {
        name: "deploy_parallel_vs_serial",
        trials: rounds,
        divergences,
    })
}

/// FNV-1a fold of one retired-instruction record into a run digest.
fn fold(digest: u64, values: &[u32]) -> u64 {
    let mut d = digest;
    for &v in values {
        for b in v.to_le_bytes() {
            d ^= b as u64;
            d = d.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    d
}

/// Cached vs uncached execution: two bare cores with identical images,
/// identical injected text corruption, identical staged packets — stepped
/// side by side, comparing the full retire stream (pc, word, next pc), the
/// terminal trap, and the final verdict word.
///
/// The corruption is written *before* the cache is built: a standalone
/// [`DecodeCache`] only tracks stores made through [`Cpu::step_cached`],
/// so pre-run corruption must be part of the cached image, exactly as it
/// is on a real core (the NP invalidates on its install/inject write path).
fn decode_cached_vs_uncached(runs: u64, seed: u64) -> DiffCheck {
    const STEP_CAP: u64 = 200_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let program = programs::ipv4_forward().expect("embedded workload assembles");
    let vulnerable = programs::vulnerable_forward().expect("embedded workload assembles");
    let mut divergences = 0u64;
    for run in 0..runs {
        let (prog, packet) = match run % 3 {
            0 => (
                &program,
                testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, rng.gen_range(1..=15u8)], 64, b"x"),
            ),
            1 => {
                let mut p = testing::ipv4_packet(
                    [10, 0, 0, 1],
                    [10, 0, 0, rng.gen_range(1..=15u8)],
                    64,
                    b"x",
                );
                mutate_packet(&mut p, &mut rng);
                (&program, p)
            }
            _ => (
                &vulnerable,
                testing::hijack_packet("li $t4, 0x0007fff0\nli $t5, 9\nsw $t5, 0($t4)\nbreak 0")
                    .expect("hijack payload assembles"),
            ),
        };
        let image = prog.to_bytes();

        let stage = |flips: &[(u32, u32)]| -> (Cpu, Memory) {
            let mut mem = Memory::new(MEM_SIZE);
            mem.write_bytes(prog.base, &image).expect("image fits");
            for &(addr, bit) in flips {
                let word = mem.load_u32(addr).expect("text mapped");
                mem.store_u32(addr, word ^ (1 << bit)).expect("text mapped");
            }
            mem.store_u32(PKT_LEN_ADDR, packet.len() as u32)
                .expect("slot mapped");
            mem.write_bytes(PKT_DATA_ADDR, &packet)
                .expect("packet fits");
            mem.store_u32(VERDICT_ADDR, Verdict::Drop.to_word())
                .expect("slot mapped");
            let mut cpu = Cpu::new();
            cpu.set_pc(prog.base);
            cpu.set_reg(Reg::SP, STACK_TOP);
            (cpu, mem)
        };

        // Identical corruption on both sides (possibly none).
        let flips: Vec<(u32, u32)> = (0..rng.gen_range(0..=2u32))
            .map(|_| {
                (
                    prog.base + 4 * rng.gen_range(0..(image.len() as u32 / 4)),
                    rng.gen_range(0..32u32),
                )
            })
            .collect();
        let (mut cpu_u, mut mem_u) = stage(&flips);
        let (mut cpu_c, mut mem_c) = stage(&flips);
        let mut cache = DecodeCache::build(&mem_c, prog.base, image.len() as u32);

        let digest = |result: &Result<sdmmon_npu::cpu::Retired, Trap>, d: u64| match result {
            Ok(r) => fold(d, &[r.pc, r.word, r.next_pc]),
            Err(trap) => {
                let mut d = d;
                for b in format!("{trap:?}").bytes() {
                    d ^= b as u64;
                    d = d.wrapping_mul(0x0000_0100_0000_01B3);
                }
                d
            }
        };
        let mut d_u = 0xcbf2_9ce4_8422_2325u64;
        let mut d_c = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..STEP_CAP {
            let su = cpu_u.step(&mut mem_u);
            let sc = cpu_c.step_cached(&mut mem_c, &mut cache);
            d_u = digest(&su, d_u);
            d_c = digest(&sc, d_c);
            if su.is_err() || sc.is_err() {
                break;
            }
        }
        let v_u = mem_u.load_u32(VERDICT_ADDR).expect("slot mapped");
        let v_c = mem_c.load_u32(VERDICT_ADDR).expect("slot mapped");
        if d_u != d_c || v_u != v_c {
            divergences += 1;
        }
    }
    DiffCheck {
        name: "decode_cached_vs_uncached",
        trials: runs,
        divergences,
    }
}

/// Sharded batch engine vs the serial per-instruction oracle, over the
/// full recovery stack: four monitored cores (per-core hash parameters,
/// as deployed), an aggressive supervisor ladder, identical injected
/// instruction-memory bit flips on both sides, and traffic mixing clean
/// flows, stack-smash hijacks, and mutated packets. A run diverges if the
/// merged outcomes *or* the aggregate [`sdmmon_npu::np::NpStats`] differ
/// for any shard count — the exact guarantee `process_batch` documents.
fn sharded_batch_vs_serial(runs: u64, seed: u64) -> DiffCheck {
    const CORES: usize = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let program = programs::vulnerable_forward().expect("embedded workload assembles");
    let image = program.to_bytes();
    let policy = SupervisorPolicy::ladder(2, 2);
    let attack = testing::hijack_packet("li $t4, 0x0007fff0\nli $t5, 9\nsw $t5, 0($t4)\nbreak 0")
        .expect("hijack payload assembles");
    let mut divergences = 0u64;
    for run in 0..runs {
        let shards = [2usize, 3, 4][run as usize % 3];
        let hash_seed: u32 = rng.gen();
        let build = || {
            let mut np = NetworkProcessor::with_policy(CORES, policy);
            for core in 0..CORES {
                let hash = MerkleTreeHash::new(hash_seed ^ core as u32);
                let graph =
                    MonitoringGraph::extract(&program, &hash).expect("workload graph extracts");
                np.install(
                    core,
                    &image,
                    program.base,
                    Box::new(HardwareMonitor::new(graph, hash)),
                );
            }
            np
        };
        let mut sharded = build();
        sharded.set_shards(shards);
        let mut serial = build();

        // Identical instruction-memory faults on both sides, injected
        // after install so the extracted graphs describe the *clean*
        // program — executing a flipped word is what the monitor catches.
        let flips: Vec<(usize, u32, u32)> = (0..rng.gen_range(1..=3u32))
            .map(|_| {
                (
                    rng.gen_range(0..CORES),
                    program.base + 4 * rng.gen_range(0..(image.len() as u32 / 4)),
                    rng.gen_range(0..32u32),
                )
            })
            .collect();
        for np in [&mut sharded, &mut serial] {
            for &(core, addr, bit) in &flips {
                let word = np
                    .core_mut(core)
                    .memory()
                    .load_u32(addr)
                    .expect("text mapped");
                np.core_mut(core)
                    .memory_mut()
                    .store_u32(addr, word ^ (1 << bit))
                    .expect("text mapped");
            }
        }

        let packets: Vec<Vec<u8>> = (0..40)
            .map(|_| match rng.gen_range(0..5u32) {
                0 => attack.clone(),
                1 => {
                    let mut p = testing::ipv4_packet(
                        [10, rng.gen_range(0..8u8), rng.gen_range(0..250u8), 1],
                        [10, 0, 0, rng.gen_range(1..=15u8)],
                        64,
                        b"dp",
                    );
                    mutate_packet(&mut p, &mut rng);
                    p
                }
                _ => testing::ipv4_packet(
                    [10, rng.gen_range(0..8u8), rng.gen_range(0..250u8), 1],
                    [10, 0, 0, rng.gen_range(1..=15u8)],
                    64,
                    b"dp",
                ),
            })
            .collect();

        let fast = sharded.process_batch(&packets);
        let oracle = serial.process_batch_serial(&packets);
        if fast != oracle || sharded.stats() != serial.stats() {
            divergences += 1;
        }
    }
    DiffCheck {
        name: "sharded_batch_vs_serial",
        trials: runs,
        divergences,
    }
}

/// The streaming engine — bounded ingress admission followed by
/// deterministic whole-queue work stealing — vs its serial oracle at the
/// same shard count, over open-loop heavy-tailed arrival rounds salted
/// with stack-smash hijacks, on monitored cores carrying injected
/// instruction-memory faults. A run diverges if the per-offered-packet
/// outcomes, the backpressure accounting (offered/admitted/dropped), or
/// the aggregate [`sdmmon_npu::np::NpStats`] differ — the exact guarantee
/// `process_stream` documents.
fn stream_steal_vs_serial(runs: u64, seed: u64) -> DiffCheck {
    const CORES: usize = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let program = programs::vulnerable_forward().expect("embedded workload assembles");
    let image = program.to_bytes();
    let policy = SupervisorPolicy::ladder(2, 2);
    let attack = testing::hijack_packet("li $t4, 0x0007fff0\nli $t5, 9\nsw $t5, 0($t4)\nbreak 0")
        .expect("hijack payload assembles");
    let mut divergences = 0u64;
    for run in 0..runs {
        let shards = [2usize, 3, 4][run as usize % 3];
        let hash_seed: u32 = rng.gen();
        let build = || {
            let mut np = NetworkProcessor::with_policy(CORES, policy);
            for core in 0..CORES {
                let hash = MerkleTreeHash::new(hash_seed ^ core as u32);
                let graph =
                    MonitoringGraph::extract(&program, &hash).expect("workload graph extracts");
                np.install(
                    core,
                    &image,
                    program.base,
                    Box::new(HardwareMonitor::new(graph, hash)),
                );
            }
            np.set_shards(shards);
            np
        };
        let mut streaming = build();
        let mut serial = build();

        // Identical instruction-memory faults on both sides (see
        // `sharded_batch_vs_serial`).
        let flips: Vec<(usize, u32, u32)> = (0..rng.gen_range(1..=3u32))
            .map(|_| {
                (
                    rng.gen_range(0..CORES),
                    program.base + 4 * rng.gen_range(0..(image.len() as u32 / 4)),
                    rng.gen_range(0..32u32),
                )
            })
            .collect();
        for np in [&mut streaming, &mut serial] {
            for &(core, addr, bit) in &flips {
                let word = np
                    .core_mut(core)
                    .memory()
                    .load_u32(addr)
                    .expect("text mapped");
                np.core_mut(core)
                    .memory_mut()
                    .store_u32(addr, word ^ (1 << bit))
                    .expect("text mapped");
            }
        }

        // Open-loop heavy-tailed arrivals, salted with hijacks so the
        // supervisor ladder fires mid-stream.
        let mut source = OpenLoopSource::new(OpenLoopConfig {
            seed: rng.gen::<u64>(),
            ..OpenLoopConfig::default()
        });
        let mut rounds = source.take_rounds(3);
        for round in &mut rounds {
            for packet in round.iter_mut() {
                if rng.gen_range(0..10u32) == 0 {
                    *packet = attack.clone();
                }
            }
        }

        let cfg = StreamConfig { shard_capacity: 24 };
        let fast = streaming.process_stream(&rounds, &cfg);
        let oracle = serial.process_stream_serial(&rounds, &cfg);
        let reports_agree = fast.report.offered == oracle.report.offered
            && fast.report.admitted == oracle.report.admitted
            && fast.report.dropped == oracle.report.dropped;
        if fast.outcomes != oracle.outcomes || !reports_agree || streaming.stats() != serial.stats()
        {
            divergences += 1;
        }
    }
    DiffCheck {
        name: "stream_steal_vs_serial",
        trials: runs,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_deploy_is_bit_identical_to_serial() {
        // Two identically seeded worlds: one deployed in parallel, one by
        // the serial oracle. Thread scheduling must not leak into any
        // observable output — router identity, key material, hash
        // parameters, or the install reports.
        let program = programs::ipv4_forward().unwrap();
        let world = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = Manufacturer::new("acme", 512, &mut rng).unwrap();
            let mut o = NetworkOperator::new("op", 512, &mut rng).unwrap();
            o.accept_certificate(m.certify_operator(o.public_key(), "op"));
            (m, o, rng)
        };
        let (m_par, o_par, mut rng_par) = world(16);
        let (m_ser, o_ser, mut rng_ser) = world(16);
        let parallel = Fleet::deploy(&m_par, &o_par, &program, 4, 2, 512, &mut rng_par).unwrap();
        let serial = deploy_serial(&m_ser, &o_ser, &program, 4, 2, 512, &mut rng_ser).unwrap();

        assert_eq!(parallel.len(), serial.routers.len());
        assert_eq!(parallel.reports(), serial.reports.as_slice());
        for (a, b) in parallel.routers().iter().zip(&serial.routers) {
            assert_eq!(a.name(), b.name());
            assert_eq!(
                a.public_key().modulus_bytes(),
                b.public_key().modulus_bytes()
            );
            assert_eq!(a.installed(0), b.installed(0));
            assert_eq!(a.installed(1), b.installed(1));
        }
        // Both deployments leave the caller's rng in the same state.
        assert_eq!(rng_par.next_u64(), rng_ser.next_u64());
    }

    #[test]
    fn all_checks_agree_under_faults() {
        let report = run_differentials(
            91,
            DiffBudget {
                rsa_trials: 8,
                modpow_trials: 8,
                deploy_rounds: 2,
                decode_runs: 6,
                batch_runs: 3,
                stream_runs: 2,
            },
        )
        .unwrap();
        assert_eq!(report.checks.len(), 6);
        assert_eq!(report.total_divergences(), 0, "{:?}", report.checks);
    }

    #[test]
    fn differentials_replay_from_seed() {
        let budget = DiffBudget {
            rsa_trials: 5,
            modpow_trials: 5,
            deploy_rounds: 1,
            decode_runs: 3,
            batch_runs: 2,
            stream_runs: 1,
        };
        let a = run_differentials(7, budget).unwrap();
        let b = run_differentials(7, budget).unwrap();
        assert_eq!(a, b);
    }
}
