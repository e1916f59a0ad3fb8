//! Integration tests for the paper's four security requirements (§2.2.1),
//! exercised end-to-end across all crates through the facade.

use sdmmon::core::cert::Certificate;
use sdmmon::core::entities::{Manufacturer, NetworkOperator, RouterDevice};
use sdmmon::core::package::{InstallationBundle, Package};
use sdmmon::core::SdmmonError;
use sdmmon::crypto::rsa::RsaKeyPair;
use sdmmon::isa::asm::Program;
use sdmmon::monitor::hash::Compression;
use sdmmon::monitor::{MerkleTreeHash, MonitoringGraph};
use sdmmon::net::channel::{Channel, FileServer};
use sdmmon::npu::programs;
use sdmmon::testkit::{WireFault, WireFaultInjector};
use sdmmon_rng::SeedableRng;

const KEY_BITS: usize = 512;

struct World {
    manufacturer: Manufacturer,
    operator: NetworkOperator,
    router: RouterDevice,
    rng: sdmmon_rng::StdRng,
}

fn world(seed: u64) -> World {
    let mut rng = sdmmon_rng::StdRng::seed_from_u64(seed);
    let manufacturer = Manufacturer::new("acme", KEY_BITS, &mut rng).expect("keygen");
    let mut operator = NetworkOperator::new("op", KEY_BITS, &mut rng).expect("keygen");
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let router = manufacturer
        .provision_router("r", 2, KEY_BITS, &mut rng)
        .expect("provision");
    World {
        manufacturer,
        operator,
        router,
        rng,
    }
}

/// SR1: only valid binaries and matching monitor graphs are installed —
/// the attacker of AC2 who *can* generate a monitoring graph matching a
/// vulnerable binary still fails, because the self-built package carries
/// no valid operator signature.
#[test]
fn sr1_attacker_generated_graph_rejected() {
    let mut w = world(0xA1);
    let program = programs::vulnerable_forward().expect("workload");

    // The attacker builds a perfectly well-formed package for the binary
    // of their choosing (AC2), with their own key material.
    let attacker_keys = RsaKeyPair::generate(KEY_BITS, &mut w.rng).expect("keygen");
    let hash = MerkleTreeHash::new(0x005C_A4ED);
    let graph = MonitoringGraph::extract(&program, &hash).expect("graph");
    let package = Package {
        binary: program.to_bytes(),
        base: program.base,
        graph: graph.to_bytes(),
        hash_param: hash.param(),
        compression: Compression::SumMod16,
        sequence: 1,
    };
    let payload = package.to_bytes();
    let signature = attacker_keys.private.sign(&payload);
    let sym_key = [9u8; 16];
    let aes = sdmmon::crypto::aes::Aes::new(&sym_key).expect("key");
    let bundle = InstallationBundle {
        ciphertext: aes.encrypt_cbc(&payload, &mut w.rng),
        wrapped_key: w
            .router
            .public_key()
            .encrypt(&sym_key, &mut w.rng)
            .expect("wrap"),
        signature,
        // Forged certificate: attacker key signed by the attacker.
        certificate: Certificate::issue("op", &attacker_keys.public, &attacker_keys.private),
    };
    assert_eq!(
        w.router.install_bundle(&bundle, &[0]).unwrap_err(),
        SdmmonError::CertificateInvalid
    );
    assert!(w.router.installed(0).is_none());
}

/// SR1 variant: a certified operator's bundle whose *signature* is swapped
/// for another message's signature is rejected after decryption.
#[test]
fn sr1_signature_substitution_rejected() {
    let mut w = world(0xA2);
    let ipv4 = programs::ipv4_forward().expect("workload");
    let vulnerable = programs::vulnerable_forward().expect("workload");
    let good = w
        .operator
        .prepare_package(&ipv4, w.router.public_key(), &mut w.rng)
        .expect("package");
    let other = w
        .operator
        .prepare_package(&vulnerable, w.router.public_key(), &mut w.rng)
        .expect("package");
    // Frankenstein bundle: vulnerable payload, signature from the ipv4
    // package.
    let franken = InstallationBundle {
        signature: good.signature.clone(),
        ..other
    };
    assert_eq!(
        w.router.install_bundle(&franken, &[0]).unwrap_err(),
        SdmmonError::SignatureInvalid
    );
}

/// SR2: two packages for the same binary produce different parameters and
/// different monitoring graphs (fleet diversity at the package level).
#[test]
fn sr2_packages_are_diverse() {
    let mut w = world(0xA3);
    let program = programs::ipv4_forward().expect("workload");
    let mut params = std::collections::BTreeSet::new();
    for _ in 0..8 {
        let bundle = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .expect("package");
        w.router.install_bundle(&bundle, &[0]).expect("install");
        params.insert(w.router.installed(0).unwrap().hash_param);
    }
    assert_eq!(
        params.len(),
        8,
        "8 installs must draw 8 distinct parameters"
    );
}

/// SR3: the transported bundle reveals neither the binary, the graph, nor
/// the hash parameter, and two bundles of the same program share no
/// ciphertext structure.
#[test]
fn sr3_confidentiality_of_transport() {
    let mut w = world(0xA4);
    let program = programs::ipv4_cm().expect("workload");
    let b1 = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)
        .expect("package");
    let b2 = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)
        .expect("package");
    let binary = program.to_bytes();
    let contains = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).any(|wd| wd == needle);
    assert!(
        !contains(&b1.ciphertext, &binary[..16]),
        "plaintext binary leaked"
    );
    // Fresh AES key + IV per package: identical payloads encrypt
    // differently.
    assert_ne!(b1.ciphertext[..32], b2.ciphertext[..32]);
    assert_ne!(b1.wrapped_key, b2.wrapped_key);
}

/// SR4: a bundle prepared for router A cannot be installed on router B,
/// and (anti-replay across devices) B's error does not reveal the payload.
#[test]
fn sr4_cross_device_replay_rejected() {
    let mut w = world(0xA5);
    let mut router_b = w
        .manufacturer
        .provision_router("r-b", 1, KEY_BITS, &mut w.rng)
        .expect("provision");
    let program = programs::ipv4_forward().expect("workload");
    let bundle_for_a = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)
        .expect("package");
    assert_eq!(
        router_b.install_bundle(&bundle_for_a, &[0]).unwrap_err(),
        SdmmonError::WrongDevice
    );
    assert!(router_b.installed(0).is_none());
    // The intended router still accepts the very same bundle.
    w.router
        .install_bundle(&bundle_for_a, &[0])
        .expect("intended device installs");
}

/// Reproduction extension: replaying an *old, validly signed* package to
/// the same device is rejected by the sequence high-water mark. (The
/// paper's protocol has no temporal ordering, so a recorded package for a
/// binary later found vulnerable would re-install cleanly.)
#[test]
fn replay_of_old_package_rejected() {
    let mut w = world(0xA7);
    let program = programs::ipv4_forward().expect("workload");
    let old_bundle = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)
        .expect("package");
    let new_bundle = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)
        .expect("package");

    w.router
        .install_bundle(&old_bundle, &[0])
        .expect("first install");
    w.router
        .install_bundle(&new_bundle, &[0])
        .expect("upgrade installs");
    // The attacker replays the recorded older bundle.
    assert!(matches!(
        w.router.install_bundle(&old_bundle, &[0]).unwrap_err(),
        SdmmonError::ReplayedPackage { .. }
    ));
    // Exact re-replay of the current bundle is rejected too.
    assert!(matches!(
        w.router.install_bundle(&new_bundle, &[0]).unwrap_err(),
        SdmmonError::ReplayedPackage { .. }
    ));
    // And newer packages keep flowing.
    let next = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)
        .expect("package");
    w.router
        .install_bundle(&next, &[0])
        .expect("later package installs");
}

/// Tampering with any single transported field is caught by some layer —
/// driven by the testkit's wire-fault injector over the *serialized*
/// transport bytes (the representation an on-path attacker actually sees),
/// rather than hand-rolled per-field flips on the in-memory struct.
#[test]
fn every_bundle_field_is_tamper_evident() {
    let mut w = world(0xA6);
    let program = programs::ipv4_forward().expect("workload");

    // Baseline sanity: the untampered transport round-trips and installs.
    let bundle = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)
        .expect("package");
    let clean = InstallationBundle::from_bytes(&bundle.to_bytes()).expect("round-trip");
    w.router
        .install_bundle(&clean, &[0])
        .expect("clean bundle installs");

    let mut attacker_rng = sdmmon_rng::StdRng::seed_from_u64(0x7A3);
    let injector = WireFaultInjector::new(KEY_BITS, &mut attacker_rng).expect("keygen");
    for fault in WireFault::ALL {
        let fresh = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .expect("package");
        let mut transport = fresh.to_bytes();
        injector.inject(fault, &mut transport, &mut attacker_rng);
        let result = InstallationBundle::from_bytes(&transport)
            .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))
            .and_then(|b| w.router.install_bundle(&b, &[1]).map(|_| ()));
        let err = result.expect_err(fault.name());
        assert!(
            fault.matches_expected(&err),
            "{}: unexpected rejection {err:?}",
            fault.name()
        );
    }
    assert!(
        w.router.installed(1).is_none(),
        "no tampered transport may install"
    );
}

/// Maps the rejection to a stable label so the distinct-variant assertion
/// below reads as data.
fn variant_name(err: &SdmmonError) -> &'static str {
    match err {
        SdmmonError::CertificateInvalid => "certificate_invalid",
        SdmmonError::WrongDevice => "wrong_device",
        SdmmonError::DecryptionFailed => "decryption_failed",
        SdmmonError::SignatureInvalid => "signature_invalid",
        SdmmonError::MalformedPackage(_) => "malformed_package",
        SdmmonError::ReplayedPackage { .. } => "replayed_package",
        _ => "other",
    }
}

/// Publishes a freshly prepared bundle, lets `tamper` rewrite the bytes on
/// the file server (the on-path attacker position of AC3), then fetches
/// and installs on core 0.
fn deploy_over_wire(
    w: &mut World,
    server: &mut FileServer,
    channel: &Channel,
    program: &Program,
    tamper: impl FnOnce(&mut Vec<u8>),
) -> Result<(), SdmmonError> {
    let bundle = w
        .operator
        .prepare_package(program, w.router.public_key(), &mut w.rng)?;
    let path = format!("pkg/{}.sdmmon", w.router.name());
    server.publish(path.clone(), bundle.to_bytes());
    assert!(server.tamper(&path, tamper), "published path exists");
    let (bytes, _) = server
        .fetch(&path, channel)
        .map_err(|e| SdmmonError::Download(e.to_string()))?;
    let fetched = InstallationBundle::from_bytes(&bytes)
        .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))?;
    w.router.install_bundle(&fetched, &[0]).map(|_| ())
}

/// SR1–SR4 negative paths over the wire: every fault class the testkit
/// injector can apply to a transported bundle is rejected, and each class
/// trips the error variant of the specific security requirement it
/// violates — tampered signatures and IVs fail SR1's signature check,
/// garbled ciphertext fails SR3's decryption, foreign key wraps fail SR4's
/// device binding, forged certificates fail SR1's chain of trust,
/// truncation fails parsing, and stale replays fail the sequence check.
/// No fault collapses into a generic error.
#[test]
fn wire_faults_reject_with_distinct_variants() {
    let mut w = world(0xA8);
    let program = programs::ipv4_forward().expect("workload");
    let mut attacker_rng = sdmmon_rng::StdRng::seed_from_u64(0x0B5E);
    let injector = WireFaultInjector::new(KEY_BITS, &mut attacker_rng).expect("keygen");
    let mut server = FileServer::new();
    let channel = Channel::ideal_gigabit();

    let mut variants = std::collections::BTreeSet::new();
    for fault in WireFault::ALL {
        for _ in 0..3 {
            let err = deploy_over_wire(&mut w, &mut server, &channel, &program, |bytes| {
                injector.inject(fault, bytes, &mut attacker_rng)
            })
            .expect_err(fault.name());
            assert!(
                fault.matches_expected(&err),
                "{}: unexpected rejection {err:?}",
                fault.name()
            );
            variants.insert(variant_name(&err));
        }
    }
    assert!(
        w.router.installed(0).is_none(),
        "no tampered transport may install"
    );

    // Replay over the same wire: a recorded stale bundle re-fed after an
    // upgrade is its own rejection class (the SR4 extension).
    let old = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)
        .expect("package");
    let newer = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)
        .expect("package");
    w.router.install_bundle(&old, &[1]).expect("first install");
    w.router.install_bundle(&newer, &[1]).expect("upgrade");
    server.publish("pkg/replay.sdmmon", old.to_bytes());
    let (bytes, _) = server.fetch("pkg/replay.sdmmon", &channel).expect("fetch");
    let stale = InstallationBundle::from_bytes(&bytes).expect("parses");
    let err = w.router.install_bundle(&stale, &[1]).unwrap_err();
    assert!(
        matches!(err, SdmmonError::ReplayedPackage { .. }),
        "{err:?}"
    );
    variants.insert(variant_name(&err));

    let expected: std::collections::BTreeSet<&str> = [
        "certificate_invalid",
        "decryption_failed",
        "malformed_package",
        "replayed_package",
        "signature_invalid",
        "wrong_device",
    ]
    .into_iter()
    .collect();
    assert_eq!(variants, expected, "each fault class has its own variant");
}

/// Wire-format v2 round-trips: seeded random section layouts survive
/// serialize → parse exactly, and a real fleet rendering survives the same
/// wire and still installs (the TLV layer loses nothing SR1–SR4 needs).
#[test]
fn wire_v2_round_trips_random_layouts_and_fleet_renderings() {
    use sdmmon::core::wire2::{BundleV2, Section, SectionTag, TlvBundle};
    use sdmmon_rng::RngCore;

    let tags = [
        SectionTag::Certificate,
        SectionTag::Signature,
        SectionTag::WrappedKey,
        SectionTag::Ciphertext,
    ];
    for seed in 0..16u64 {
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(0x00B2_0000 + seed);
        let count = 1 + (rng.next_u32() as usize % 9);
        let sections: Vec<Section> = (0..count)
            .map(|_| {
                let tag = tags[rng.next_u32() as usize % tags.len()];
                let len = rng.next_u32() as usize % 6000; // zero-length included
                let mut bytes = vec![0u8; len];
                rng.fill_bytes(&mut bytes);
                Section::new(tag, bytes)
            })
            .collect();
        let doc = TlvBundle::new(sections);
        assert_eq!(
            TlvBundle::from_bytes(&doc.to_bytes()).expect("round-trip"),
            doc,
            "layout seed {seed}"
        );
    }

    let mut w = world(0xB1);
    let program = programs::ipv4_forward().expect("workload");
    let update = w
        .operator
        .prepare_fleet_update(&program, &mut w.rng)
        .expect("update");
    let v2 = update
        .bundle_v2_for(w.router.public_key(), &mut w.rng)
        .expect("render");
    let parsed = BundleV2::from_bytes(&v2.to_bytes()).expect("wire round-trip");
    assert_eq!(parsed, v2);
    w.router
        .install_bundle_v2(&parsed, &[0])
        .expect("round-tripped bundle installs");
    assert!(w.router.installed(0).is_some());
}

/// v1 and v2 renderings reject each other's parser: the v2 magic reads as
/// an implausible v1 length prefix, and v1 bytes fail the v2 magic check —
/// no crafted transport can be smuggled across format versions.
#[test]
fn wire_v1_and_v2_renderings_reject_cross_parsing() {
    use sdmmon::core::wire2::BundleV2;

    for seed in [0xC1u64, 0xC2, 0xC3] {
        let mut w = world(seed);
        let program = programs::ipv4_forward().expect("workload");
        let update = w
            .operator
            .prepare_fleet_update(&program, &mut w.rng)
            .expect("update");
        let v1 = update
            .bundle_v1_for(w.router.public_key(), &mut w.rng)
            .expect("v1 rendering");
        let v2 = update
            .bundle_v2_for(w.router.public_key(), &mut w.rng)
            .expect("v2 rendering");
        assert!(
            BundleV2::from_bytes(&v1.to_bytes()).is_err(),
            "seed {seed}: v1 bytes must fail the v2 magic check"
        );
        assert!(
            InstallationBundle::from_bytes(&v2.to_bytes()).is_err(),
            "seed {seed}: v2 bytes must fail v1 length-prefix parsing"
        );
    }
}

/// Per-section checksums localize damage: a tampered section burns retries
/// on its own index alone (earlier sections fetch once and are reused from
/// the cache across rounds), and a cache already holding every verified
/// section heals straight over the tampered upstream copy. A seeded
/// corrupt-link sweep confirms the section fetcher converges and replays
/// deterministically.
#[test]
fn corrupted_section_localizes_refetch() {
    use sdmmon::core::distrib::{fetch_document, SectionCache};
    use sdmmon::core::wire2::TlvBundle;
    use sdmmon::net::download::{DownloadClient, RetryPolicy};
    use sdmmon::net::resilience::{FlakyServer, LossyChannel};

    let mut w = world(0xD1);
    let program = programs::ipv4_forward().expect("workload");
    let update = w
        .operator
        .prepare_fleet_update(&program, &mut w.rng)
        .expect("update");
    let doc = update.shared_document();
    let entries = TlvBundle::parse_table(&doc).expect("table");
    let n = entries.len();
    assert!(n >= 3, "shared document carries cert, sig, ciph");

    let path = "fleet/shared.sdb2";
    let clean_link = LossyChannel::clean(Channel::ideal_gigabit());
    let client = DownloadClient::new(RetryPolicy::default().with_chunk_bytes(1024));

    // Cold fetch over a clean link: every section fetched, no retries.
    let mut server = FlakyServer::new(FileServer::new(), 0xD2);
    server.server_mut().publish(path.to_string(), doc.clone());
    let mut cache = SectionCache::new();
    let (sections, stats) = fetch_document(
        &client,
        &mut server,
        path,
        &clean_link,
        &mut cache,
        &mut w.rng,
    )
    .expect("clean fetch");
    assert_eq!(sections.len(), n);
    assert_eq!(stats.sections_fetched, n as u64);
    assert_eq!(stats.sections_reused, 0);
    assert!(stats.retries_by_section.iter().all(|&r| r == 0));

    // Tamper one middle section's payload on the server (table intact).
    let damaged = 1; // the signature section
    let off = entries[damaged].offset;
    assert!(server.server_mut().tamper(path, |bytes| bytes[off] ^= 0x40));

    // The warm cache heals over the tamper: every section is a checksum
    // hit, nothing touches the damaged bytes.
    let (healed, warm_stats) = fetch_document(
        &client,
        &mut server,
        path,
        &clean_link,
        &mut cache,
        &mut w.rng,
    )
    .expect("warm fetch heals over tamper");
    assert_eq!(healed, sections);
    assert_eq!(warm_stats.sections_fetched, 0);
    assert_eq!(warm_stats.sections_reused, n as u64);

    // A cold cache cannot verify the damaged section — the fetch fails,
    // and the retry budget is burned on that index alone: earlier sections
    // fetch once (then reuse from cache on later rounds) with zero extras.
    let mut cold = SectionCache::new();
    let err = fetch_document(
        &client,
        &mut server,
        path,
        &clean_link,
        &mut cold,
        &mut w.rng,
    )
    .expect_err("persistently tampered section cannot verify");
    assert!(matches!(err, SdmmonError::Download(_)), "{err:?}");
    // (re-run to inspect the stats: the error path drops them)
    let mut cold2 = SectionCache::new();
    let mut probe_rng = sdmmon_rng::StdRng::seed_from_u64(0xD3);
    let mut probe = FlakyServer::new(FileServer::new(), 0xD4);
    probe.server_mut().publish(path.to_string(), {
        let mut d = doc.clone();
        d[off] ^= 0x40;
        d
    });
    // Earlier sections land in the cache on round one and are reused after.
    let _ = fetch_document(
        &client,
        &mut probe,
        path,
        &clean_link,
        &mut cold2,
        &mut probe_rng,
    )
    .expect_err("tampered");
    assert_eq!(
        cold2.len(),
        damaged,
        "every section before the damaged one verified and cached; none after"
    );

    // Seeded fault sweep: a corrupting link slows sections independently
    // but the per-section restarts converge, and identical seeds replay to
    // identical accounting.
    for sweep_seed in 0..4u64 {
        let run = |seed: u64| {
            let mut rng = sdmmon_rng::StdRng::seed_from_u64(seed);
            let mut srv = FlakyServer::new(FileServer::new(), seed ^ 0x5A5A);
            srv.server_mut().publish(path.to_string(), doc.clone());
            let link = clean_link.with_corrupt(0.2);
            let mut c = SectionCache::new();
            fetch_document(&client, &mut srv, path, &link, &mut c, &mut rng)
                .expect("corrupt link converges")
        };
        let (sa, fa) = run(0xE0 + sweep_seed);
        let (sb, fb) = run(0xE0 + sweep_seed);
        assert_eq!(sa, sections, "faulty fetch delivers the clean document");
        assert_eq!(sb, sections);
        assert_eq!(fa, fb, "seed {sweep_seed}: fetch accounting replays");
    }
}

/// The monitor's fast path remembers words it has already verified. A
/// text word flipped *after* that memo is warm must still be hashed for
/// real and caught: the fast path (`run_packet`) and the per-instruction
/// reference (`Core::process_packet`) agree on every outcome, on the
/// monitor statistics and on the candidate set, before and after the
/// flip, and both flag the flipped word.
#[test]
fn warm_memo_still_catches_a_flipped_text_word() {
    use sdmmon::monitor::{HardwareMonitor, InstructionHash};
    use sdmmon::npu::core::Core;
    use sdmmon::npu::cpu::ExecutionObserver;
    use sdmmon::npu::programs::testing;
    use sdmmon::npu::runtime::HaltReason;

    let program = programs::ipv4_forward().expect("workload");
    let hash = MerkleTreeHash::with_compression(0x00C0_FFEE, Compression::SBox);
    let graph = MonitoringGraph::extract(&program, &hash).expect("graph");
    let mut fast = HardwareMonitor::new(graph.clone(), hash);
    let mut reference = HardwareMonitor::new(graph, hash);
    let mut fast_core = Core::new();
    fast_core.install(&program.to_bytes(), program.base);
    let mut ref_core = fast_core.clone();

    let mut run = |fast_core: &mut Core, ref_core: &mut Core, dst: u8| {
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], 64, b"memo");
        let got = fast.run_packet(fast_core, &packet);
        let want = ref_core.process_packet(&packet, &mut reference);
        assert_eq!(got, want, "outcome, dst {dst}");
        assert_eq!(fast.stats(), reference.stats(), "stats, dst {dst}");
        assert_eq!(
            fast.candidate_count(),
            reference.candidate_count(),
            "candidates, dst {dst}"
        );
        got
    };

    // Warm the memo: every word on the benign path is verified once.
    for dst in 1..=6 {
        assert_eq!(
            run(&mut fast_core, &mut ref_core, dst).halt,
            HaltReason::Completed
        );
    }

    // Flip bit 0 of the fourth text word, which every packet executes, on
    // both sides. Under this parameter the flip changes the word's hash.
    let addr = program.base + 12;
    let original = fast_core.memory().load_u32(addr).expect("in range");
    let patched = original ^ 1;
    assert_ne!(
        hash.hash(patched),
        hash.hash(original),
        "pick a non-colliding parameter"
    );
    for core in [&mut fast_core, &mut ref_core] {
        core.memory_mut()
            .store_u32(addr, patched)
            .expect("in range");
    }
    for dst in 1..=4 {
        let out = run(&mut fast_core, &mut ref_core, dst);
        assert_eq!(out.halt, HaltReason::MonitorViolation, "dst {dst}");
        assert_eq!(out.steps, 4, "flagged at the flipped word, dst {dst}");
    }
    assert_eq!(fast.stats().violations, 4);
}
