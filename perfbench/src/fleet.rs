//! The `fleet` workload: the control plane only.
//!
//! (a) The real rollout: `deploy_fleet` operator → relays → routers over
//! wire v2, with light seeded loss and corruption on every link, 256-bit
//! device keys from the key pool. (b) Secure installs at the paper's
//! RSA-2048: one `prepare_fleet_update`, then per router `bundle_v2_for`
//! and `RouterDevice::install_bundle_v2` on 4 cores. No packet executes
//! except one probe per installed core, which checks the install.

use crate::util::{median, metric, percentile, ratio, Ledger};
use crate::{Run, Size};
use sdmmon_core::distrib::{
    deploy_fleet, fetch_document, key_path, FleetDeployConfig, SectionCache, SHARED_PATH,
};
use sdmmon_core::entities::{FleetUpdate, Manufacturer, NetworkOperator};
use sdmmon_core::package::Package;
use sdmmon_core::wire2::BundleV2;
use sdmmon_crypto::aes::Aes;
use sdmmon_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use sdmmon_isa::asm::Program;
use sdmmon_monitor::hash::MerkleTreeHash;
use sdmmon_monitor::{HardwareMonitor, MonitoringGraph};
use sdmmon_net::channel::{Channel, FileServer};
use sdmmon_net::download::{DownloadClient, RetryPolicy};
use sdmmon_net::resilience::{FlakyServer, LossyChannel};
use sdmmon_npu::core::Core;
use sdmmon_npu::cpu::NullObserver;
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::PacketOutcome;
use sdmmon_rng::{split_seed, SeedableRng, StdRng};
use std::hint::black_box;
use std::time::Instant;

/// NP cores of each RSA-2048 router.
const INSTALL_CORES: [usize; 4] = [0, 1, 2, 3];
/// Authority (manufacturer, operator) and device key size of part (b).
pub const PAPER_KEY_BITS: usize = 2048;
/// Seed of part (b)'s RSA keys. It is fixed rather than drawn from the
/// workload seed: the prime search dominates set-up and its length swings
/// about 2x from one key seed to the next, which would drown setup_s.
const KEY_SEED: u64 = 0x2048_C0DE;

/// The rollout's links: light loss and corruption, so retries and the
/// section cache do work.
fn link() -> LossyChannel {
    LossyChannel::clean(Channel::ideal_gigabit())
        .with_loss(0.02)
        .with_corrupt(0.01)
}

fn rollout_config(size: &Size) -> FleetDeployConfig {
    FleetDeployConfig {
        routers: size.routers,
        relays: size.relays,
        link: link(),
        // A short per-range budget, so some document rounds fail and the
        // next round or cycle reuses verified sections from the cache.
        retry: RetryPolicy::default().with_max_attempts(3),
        keep_routers: 4,
        ..FleetDeployConfig::default()
    }
}

/// Everything part (b) needs, built in set-up.
struct Authorities {
    manufacturer: Manufacturer,
    operator: NetworkOperator,
    pool: Vec<RsaKeyPair>,
    keygen_ms: Vec<f64>,
}

fn authorities(size: &Size) -> Authorities {
    let mut rng = StdRng::seed_from_u64(KEY_SEED);
    let mut keygen_ms = Vec::new();
    let mut timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        keygen_ms.push(t.elapsed().as_secs_f64() * 1e3);
    };
    let mut manufacturer = None;
    timed(&mut || {
        manufacturer =
            Some(Manufacturer::new("bench-mfr", size.key_bits, &mut rng).expect("keygen"))
    });
    let mut operator = None;
    timed(&mut || {
        operator = Some(NetworkOperator::new("bench-op", size.key_bits, &mut rng).expect("keygen"))
    });
    let mut pool = Vec::new();
    for _ in 0..size.key_pool {
        timed(&mut || pool.push(RsaKeyPair::generate(size.key_bits, &mut rng).expect("keygen")));
    }
    let manufacturer = manufacturer.expect("generated");
    let mut operator = operator.expect("generated");
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "bench-op"));
    Authorities {
        manufacturer,
        operator,
        pool,
        keygen_ms,
    }
}

/// The probe every installed core forwards, and its reference outcome on
/// an unmonitored core.
fn probe(program: &Program) -> (Vec<u8>, PacketOutcome) {
    let packet = testing::ipv4_udp_packet([10, 9, 0, 1], [10, 0, 0, 7], 4000, 53, b"probe");
    let mut core = Core::new();
    core.install(&program.to_bytes(), program.base);
    let outcome = core.process_packet(&packet, &mut NullObserver);
    (packet, outcome)
}

/// The `fleet` workload.
pub fn fleet(seed: u64, seconds: f64, trace: bool, size: &Size, run: &mut Run) {
    // Set-up: key generation once (it dominates; see KEY_SEED), the cheap
    // part repeated; setup_s is their sum.
    let t = Instant::now();
    let auth = authorities(size);
    let keygen_s = t.elapsed().as_secs_f64();
    let mut cheap = Vec::new();
    let mut setup = None;
    for _ in 0..size.setup_reps.max(1) {
        let t = Instant::now();
        let program = programs::ipv4_cm().expect("embedded program assembles");
        let reference = probe(&program);
        cheap.push(t.elapsed().as_secs_f64());
        setup = Some((program, reference));
    }
    let setup_s = keygen_s + median(&cheap);
    let (program, (probe_packet, probe_want)) = setup.expect("at least one repetition");
    let cfg = rollout_config(size);
    let rollout_seed = split_seed(seed, 0xDE9);

    if trace {
        fleet_traced(seed, seconds, size, &auth, &program, run);
        return;
    }
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 0x1B));
    let mut rollout_s = Vec::new();
    let mut install_us = Vec::new();
    let mut first_summary: Option<String> = None;
    let mut last_report = None;
    let start = Instant::now();
    while rollout_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // (a) The rollout, timed whole.
        let t = Instant::now();
        let report = deploy_fleet(&cfg, &program, rollout_seed, None);
        rollout_s.push(t.elapsed().as_secs_f64());
        match report {
            Ok(mut report) => {
                run.attempted += report.routers as u64;
                run.failed += report.quarantined as u64;
                if let Err(e) = report.verify_accounting() {
                    run.error(format!("fleet accounting: {e}"));
                }
                // The rollout replays byte-identically per seed.
                let summary = report.summary();
                if *first_summary.get_or_insert_with(|| summary.clone()) != summary {
                    run.error("fleet rollout did not replay identically");
                }
                for router in &mut report.kept {
                    run.attempted += 1;
                    let (_, got) = router.process(&probe_packet);
                    run.failed += u64::from(got != probe_want);
                }
                last_report = Some(report);
            }
            Err(e) => run.error(format!("fleet rollout failed: {e}")),
        }

        // (b) RSA-2048 installs, each call timed.
        let update = auth
            .operator
            .prepare_fleet_update(&program, &mut rng)
            .expect("fleet update prepares");
        for i in 0..size.installs {
            let keys = auth.pool[i % auth.pool.len()].clone();
            let mut router = auth.manufacturer.provision_router_with_keys(
                &format!("r{i}"),
                INSTALL_CORES.len(),
                keys,
            );
            let bundle = update
                .bundle_v2_for(router.public_key(), &mut rng)
                .expect("key wraps");
            let t = Instant::now();
            let result = router.install_bundle_v2(&bundle, &INSTALL_CORES);
            install_us.push(t.elapsed().as_secs_f64() * 1e6);
            run.attempted += 1;
            if let Err(e) = result {
                run.error(format!("install {i} failed: {e}"));
                continue;
            }
            for core in INSTALL_CORES {
                let installed = router.installed(core).map(|a| a.hash_param);
                let got = router.process_on(core, &probe_packet);
                run.failed +=
                    u64::from(got != probe_want || installed != Some(update.hash_param()));
            }
        }
    }
    let rollout = median(&rollout_s);
    run.e2e = vec![
        metric("setup_s", setup_s, "s"),
        metric("work_per_s", size.routers as f64 / rollout, "1/s"),
        metric("call_p50_us", median(&install_us), "us"),
        metric("call_p90_us", percentile(&install_us, 90.0), "us"),
    ];
    run.report = vec![
        metric("rollout_s", rollout, "s"),
        metric("rollout_samples", rollout_s.len() as f64, "count"),
        metric("install_p50_ms", median(&install_us) / 1e3, "ms"),
        metric("install_p90_ms", percentile(&install_us, 90.0) / 1e3, "ms"),
        metric("install_p99_ms", percentile(&install_us, 99.0) / 1e3, "ms"),
        metric("install_samples", install_us.len() as f64, "count"),
        metric("keygen_s", keygen_s, "s"),
    ];
    if let Some(r) = last_report {
        run.report.extend([
            metric("routers", r.routers as f64, "count"),
            metric("quarantined", r.quarantined as f64, "count"),
            metric("transport_attempts", r.transport_attempts as f64, "count"),
            metric("sections_fetched", r.sections_fetched as f64, "count"),
            metric("sections_reused", r.sections_reused as f64, "count"),
        ]);
    }
}

/// The traced `fleet` run: each control-plane layer's public call, on the
/// workload's own keys, update and link model.
fn fleet_traced(
    seed: u64,
    seconds: f64,
    size: &Size,
    auth: &Authorities,
    program: &Program,
    run: &mut Run,
) {
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 0x1B));
    let cfg = rollout_config(size);
    let mut small_rng = StdRng::seed_from_u64(split_seed(seed, 0x256));
    let small_pool: Vec<RsaKeyPair> = (0..cfg.key_pool.min(cfg.routers))
        .map(|_| RsaKeyPair::generate(cfg.key_bits, &mut small_rng).expect("keygen"))
        .collect();
    let client = DownloadClient::new(RetryPolicy::default());
    let manufacturer_key = auth.manufacturer.public_key().clone();

    // Untraced reference for the trace gap: plain install calls.
    let update = auth
        .operator
        .prepare_fleet_update(program, &mut rng)
        .expect("prepares");
    let mut plain_us = Vec::new();
    for i in 0..size.installs.min(32) {
        let keys = auth.pool[i % auth.pool.len()].clone();
        let mut router = auth
            .manufacturer
            .provision_router_with_keys("plain", 4, keys);
        let bundle = update
            .bundle_v2_for(router.public_key(), &mut rng)
            .expect("wraps");
        let t = Instant::now();
        black_box(router.install_bundle_v2(&bundle, &INSTALL_CORES)).ok();
        plain_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let mut ledger = Ledger::new();
    let (mut rollouts, mut fetches, mut attempts, mut installs) = (0u64, 0u64, 0u64, 0u64);
    let mut cores: Vec<Core> = INSTALL_CORES.iter().map(|_| Core::new()).collect();
    let start = Instant::now();
    while rollouts == 0 || start.elapsed().as_secs_f64() < seconds {
        let pass = rollouts;
        let root = ledger.open("fleet.pass", pass);
        let report = ledger.span("fleet.rollout", pass, || {
            deploy_fleet(&cfg, program, split_seed(seed, 0xDE9), None)
        });
        match report {
            Ok(r) => {
                run.attempted += r.routers as u64;
                run.failed += r.quarantined as u64;
            }
            Err(e) => run.error(format!("fleet rollout failed: {e}")),
        }
        rollouts += 1;
        let update = ledger.span("core.prepare", pass, || {
            auth.operator
                .prepare_fleet_update(program, &mut rng)
                .expect("prepares")
        });
        let recipients: Vec<&RsaPublicKey> = (0..cfg.routers)
            .map(|i| &small_pool[i % small_pool.len()].public)
            .collect();
        let wrapped = ledger.span("crypto.wrap", pass, || {
            update.wrap_keys(&recipients, &mut rng).expect("wraps")
        });

        // Per-router fetches over the workload's link model: the shared
        // document from a relay, the wrapped key from the origin.
        let mut origin = FlakyServer::new(FileServer::new(), split_seed(seed, 0x0A));
        let mut relay = FlakyServer::new(FileServer::new(), split_seed(seed, 0x0B));
        origin
            .server_mut()
            .publish(SHARED_PATH, update.shared_document());
        relay
            .server_mut()
            .publish(SHARED_PATH, update.shared_document());
        for (i, w) in wrapped.iter().enumerate() {
            origin
                .server_mut()
                .publish(key_path(i), FleetUpdate::key_document(w.clone()));
        }
        let mut fetch_rng = StdRng::seed_from_u64(split_seed(seed, 0xFE7));
        for i in 0..cfg.routers {
            let mut cache = SectionCache::new();
            let fetched = ledger.span("distrib.fetch", i as u64, || {
                let shared = fetch_document(
                    &client,
                    &mut relay,
                    SHARED_PATH,
                    &cfg.link,
                    &mut cache,
                    &mut fetch_rng,
                );
                let key = fetch_document(
                    &client,
                    &mut origin,
                    &key_path(i),
                    &cfg.link,
                    &mut cache,
                    &mut fetch_rng,
                );
                shared.and_then(|s| key.map(|k| (s, k)))
            });
            fetches += 1;
            match fetched {
                Ok(((_, s), (_, k))) => attempts += s.attempts + k.attempts,
                Err(e) => run.error(format!("fetch {i} failed: {e}")),
            }
        }

        // The install ladder's public steps, then the real call on the same
        // bundle for the unattributed remainder.
        for i in 0..size.installs {
            let router_span = ledger.open("install.router", i as u64);
            let keys = &auth.pool[i % auth.pool.len()];
            let bundle = update.bundle_v2_for(&keys.public, &mut rng).expect("wraps");
            let bytes = bundle.to_bytes();
            let ok = ledger.span("install.cert", i as u64, || {
                bundle.certificate.verify(&manufacturer_key)
            });
            let operator_key = bundle.certificate.subject_key().expect("certificate key");
            let sym = ledger.span("install.unwrap", i as u64, || {
                keys.private.decrypt(&bundle.wrapped_key)
            });
            let Ok(sym) = sym else {
                run.error("unwrap failed");
                ledger.close(router_span);
                continue;
            };
            let payload = ledger.span("install.aes", i as u64, || {
                let aes = Aes::new(&sym).expect("AES-128 key");
                let mut payload = Vec::new();
                for s in &bundle.cipher_sections {
                    payload.extend(aes.decrypt_cbc(s).expect("section decrypts"));
                }
                payload
            });
            let verified = ledger.span("install.sig", i as u64, || {
                operator_key.verify(&payload, &bundle.signature)
            });
            let parsed = ledger.span("install.parse", i as u64, || {
                let b = BundleV2::from_bytes(&bytes).ok()?;
                let package = Package::from_bytes(&payload).ok()?;
                let graph = MonitoringGraph::from_bytes(&package.graph).ok()?;
                Some((b, package, graph))
            });
            let Some((_, package, graph)) = parsed else {
                run.error("bundle, package or graph did not parse");
                ledger.close(router_span);
                continue;
            };
            ledger.span("install.program", i as u64, || {
                let hash =
                    MerkleTreeHash::with_compression(package.hash_param, package.compression);
                for core in cores.iter_mut() {
                    core.install(&package.binary, package.base);
                    black_box(HardwareMonitor::new(graph.clone(), hash));
                }
            });
            let mut router = auth.manufacturer.provision_router_with_keys(
                "traced",
                INSTALL_CORES.len(),
                keys.clone(),
            );
            let result = ledger.span("install.total", i as u64, || {
                router.install_bundle_v2(&bundle, &INSTALL_CORES)
            });
            ledger.close(router_span);
            installs += 1;
            run.attempted += 1;
            run.failed += u64::from(!ok || !verified || result.is_err());
        }
        ledger.close(root);
    }

    let per_install = |name: &str| ledger.total_ns(name) / installs as f64 / 1e3;
    let steps = [
        "install.cert",
        "install.unwrap",
        "install.aes",
        "install.sig",
        "install.parse",
        "install.program",
    ];
    let layer_sum: f64 = steps.iter().map(|s| per_install(s)).sum();
    let install_total = per_install("install.total");
    let per_router =
        |name: &str| ledger.total_ns(name) / (rollouts * cfg.routers as u64) as f64 / 1e3;
    let rollout_us = per_router("fleet.rollout");
    let fetch_us = ledger.total_ns("distrib.fetch") / fetches as f64 / 1e3;
    let wrap_us = per_router("crypto.wrap");
    // Means on both sides: `install_total` is a mean over the traced calls.
    let plain = plain_us.iter().sum::<f64>() / plain_us.len() as f64;
    run.ledger_lines.push(format!(
        "fleet install us {install_total:.0} (untraced {plain:.0}) | layers: cert {:.0} + \
         unwrap {:.0} + aes {:.0} + sig {:.0} + parse {:.0} + program {:.0} = {layer_sum:.0} | \
         remainder {:.0}",
        per_install("install.cert"),
        per_install("install.unwrap"),
        per_install("install.aes"),
        per_install("install.sig"),
        per_install("install.parse"),
        per_install("install.program"),
        install_total - layer_sum
    ));
    run.ledger_lines.push(format!(
        "fleet rollout us/router {rollout_us:.1} | layers: wrap {wrap_us:.1} + fetch {fetch_us:.1} \
         = {:.1} | remainder (install ladder, provisioning, key pool) {:.1}",
        wrap_us + fetch_us,
        rollout_us - wrap_us - fetch_us
    ));
    run.layers = vec![
        metric("crypto.keygen_ms", median(&auth.keygen_ms), "ms"),
        metric(
            "core.prepare_ms",
            ledger.total_ns("core.prepare") / rollouts as f64 / 1e6,
            "ms",
        ),
        metric("crypto.wrap_us_per_router", wrap_us, "us"),
        metric("distrib.fetch_us_per_router", fetch_us, "us"),
        metric(
            "distrib.attempts_per_router",
            ratio(attempts as f64, fetches as f64),
            "count",
        ),
        metric("install.cert_us", per_install("install.cert"), "us"),
        metric("install.unwrap_us", per_install("install.unwrap"), "us"),
        metric("install.aes_us", per_install("install.aes"), "us"),
        metric("install.sig_us", per_install("install.sig"), "us"),
        metric("install.parse_us", per_install("install.parse"), "us"),
        metric("install.program_us", per_install("install.program"), "us"),
        metric("install.unattributed_us", install_total - layer_sum, "us"),
        metric(
            "rollout.unattributed_us_per_router",
            rollout_us - wrap_us - fetch_us,
            "us",
        ),
        metric(
            "ledger.trace_gap_frac",
            (install_total - plain) / plain,
            "ratio",
        ),
    ];
    run.ledger = Some(ledger);
}
