//! Event-stream determinism pins for the observability layer (PR 5).
//!
//! The `sdmmon-events-v1` contract: an event stream is a byte-identical
//! function of the seed (and explicit configuration), never of scheduling
//! or wall time. These tests pin the two places that could break it:
//!
//! * the campaign harness — same seed ⇒ byte-identical JSONL, two seeds
//!   checked, plus every line passing schema validation;
//! * the sharded batch engine — supervisor events buffered per shard and
//!   merged by logical clock must render identically at 1 and 4 shards
//!   (the clock is the packet's batch ordinal, so the merged stream is
//!   shard-count-independent by construction);
//! * both fleet deploys — an attached bus or span layer only adds events:
//!   the deployment itself is the same with the sink and without.

use sdmmon::core::distrib::{deploy_fleet, FleetDeployConfig, FleetScaleReport};
use sdmmon::core::entities::{Manufacturer, NetworkOperator};
use sdmmon::core::system::{Fleet, ResilientConfig, ResilientFleet};
use sdmmon::net::channel::{Channel, FileServer};
use sdmmon::net::download::RetryPolicy;
use sdmmon::net::resilience::{FlakyServer, LossyChannel, OutageWindow};
use sdmmon::npu::cpu::NullObserver;
use sdmmon::npu::np::{NetworkProcessor, StreamConfig};
use sdmmon::npu::programs::{self, testing};
use sdmmon::npu::supervisor::SupervisorPolicy;
use sdmmon::obs::trace::{
    STAGE_ADMISSION, STAGE_DISPATCH, STAGE_INGEST, STAGE_RESPOND, STAGE_VERIFY,
};
use sdmmon::obs::{
    assemble_traces, validate_event_line, Event, EventBus, StreamValidator, TraceContext,
    EVENTS_SCHEMA,
};
use sdmmon::testkit::{run_campaign_observed, CampaignConfig};
use sdmmon_rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// A small-but-complete campaign configuration (mirrors the testkit's own
/// smoke sizing).
fn campaign_cfg(seed: u64) -> CampaignConfig {
    CampaignConfig::new(seed)
        .with_budget(40)
        .with_routers(2)
        .with_escape_trials(400)
}

/// Renders the campaign event stream for one seed.
fn campaign_jsonl(seed: u64) -> String {
    let bus = EventBus::new();
    run_campaign_observed(&campaign_cfg(seed), Some(&bus)).expect("campaign runs");
    bus.render_jsonl()
}

#[test]
fn campaign_event_stream_replays_byte_identically_for_two_seeds() {
    for seed in [5u64, 1234] {
        let a = campaign_jsonl(seed);
        let b = campaign_jsonl(seed);
        assert_eq!(a, b, "seed {seed}: stream must replay byte-identically");
        assert!(!a.is_empty());
        for line in a.lines() {
            validate_event_line(line).expect("every line carries the schema");
            assert!(line.contains(&format!("\"schema\":\"{EVENTS_SCHEMA}\"")));
        }
    }
    assert_ne!(
        campaign_jsonl(5),
        campaign_jsonl(1234),
        "different seeds must differ (the stream reflects the run)"
    );
}

/// Mixed traffic with an attack burst dense enough to drive supervisor
/// ladder transitions mid-batch (same shape as the sharded-engine pins).
fn traffic(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let attacks: Vec<Vec<u8>> = (0..4)
        .map(|i| testing::hijack_packet(&format!("li $t5, {i}\nbreak 1")).unwrap())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::with_capacity(n + 16);
    for attack in &attacks {
        for _ in 0..4 {
            packets.push(attack.clone());
        }
    }
    for _ in 0..n {
        if rng.gen_range(0..8u32) == 0 {
            packets.push(attacks[rng.gen_range(0..attacks.len())].clone());
        } else {
            let src = [10, rng.gen_range(0..4u8), rng.gen_range(0..250u8), 1];
            let dst = [10, 0, 0, rng.gen_range(1..=16u8)];
            packets.push(testing::ipv4_packet(src, dst, 64, b"pay"));
        }
    }
    packets
}

/// Runs the burst workload on a fresh NP at the given shard count and
/// returns the rendered event stream.
fn np_jsonl(seed: u64, shards: usize) -> String {
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::with_policy(8, SupervisorPolicy::ladder(2, 2));
    np.install_all(&program.to_bytes(), program.base, |_| {
        Box::new(NullObserver)
    });
    np.set_shards(shards);
    let bus = Arc::new(EventBus::new());
    np.set_event_bus(Some(bus.clone()));
    let packets = traffic(seed, 160);
    np.process_batch(&packets);
    // A second batch repartitions against the degraded core set.
    np.process_batch(&traffic(seed ^ 0xFFFF, 80));
    bus.render_jsonl()
}

/// Runs a graded-supervisor workload (PR 8): a short attack burst that
/// walks one core up the threat ladder to quarantine (flushing its
/// forensic ring), then clean batches that walk it back down through
/// parole. Returns the rendered event stream.
fn graded_np_jsonl(seed: u64, shards: usize) -> String {
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::with_policy(8, SupervisorPolicy::default());
    np.install_all(&program.to_bytes(), program.base, |_| {
        Box::new(NullObserver)
    });
    np.set_shards(shards);
    let bus = Arc::new(EventBus::new());
    np.set_event_bus(Some(bus.clone()));
    let mut rng = StdRng::seed_from_u64(seed);
    let benign = |rng: &mut StdRng| {
        let src = [10, rng.gen_range(0..4u8), rng.gen_range(0..250u8), 1];
        let dst = [10, 0, 0, rng.gen_range(1..=16u8)];
        testing::ipv4_packet(src, dst, 64, b"pay")
    };
    // All hijack packets share one flow (fixed header), so the burst lands
    // on a single victim core: two hits clear the quarantine threshold
    // without reaching the zeroize one (a zeroized core never paroles).
    let attack = testing::hijack_packet("li $t5, 7\nbreak 1").unwrap();
    let mut burst: Vec<Vec<u8>> = (0..2).map(|_| attack.clone()).collect();
    for _ in 0..48 {
        burst.push(benign(&mut rng));
    }
    np.process_batch(&burst);
    // Clean batches tick the parole clock: quarantine -> throttled -> full.
    for _ in 0..12 {
        let clean: Vec<Vec<u8>> = (0..24).map(|_| benign(&mut rng)).collect();
        np.process_batch(&clean);
    }
    bus.render_jsonl()
}

/// Runs the burst workload as a traced stream (PR 10) at the given shard
/// count and returns the full event stream. The shard budget is sized
/// above the largest round so admission never drops — the precondition
/// for span streams being shard-count-invariant.
fn traced_stream_events(seed: u64, shards: usize, per_mille: u16) -> Vec<Event> {
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::with_policy(8, SupervisorPolicy::ladder(2, 2));
    np.install_all(&program.to_bytes(), program.base, |_| {
        Box::new(NullObserver)
    });
    np.set_shards(shards);
    let bus = Arc::new(EventBus::new());
    np.set_event_bus(Some(bus.clone()));
    np.set_trace(Some(TraceContext::new(seed, per_mille)));
    let packets = traffic(seed, 160);
    let rounds: Vec<Vec<Vec<u8>>> = packets.chunks(40).map(<[_]>::to_vec).collect();
    let out = np.process_stream(
        &rounds,
        &StreamConfig {
            shard_capacity: 512,
        },
    );
    assert_eq!(out.report.dropped, 0, "budget must admit every round");
    bus.take()
}

/// The trace-layer event kinds (spans plus flight-recorder promotions).
fn trace_kinds(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|e| e.kind.starts_with("span.") || e.kind == sdmmon::obs::trace::KIND_FLIGHT)
        .cloned()
        .collect()
}

#[test]
fn trace_span_stream_is_identical_across_shard_counts() {
    for seed in [0xC0DE_CAFEu64, 0x5EED_0002] {
        let one = trace_kinds(&traced_stream_events(seed, 1, 200));
        assert!(!one.is_empty(), "seed {seed:#x}: sampler must fire at 200‰");
        for shards in [2usize, 4, 8] {
            let other = trace_kinds(&traced_stream_events(seed, shards, 200));
            assert_eq!(
                one, other,
                "seed {seed:#x}: span stream must be identical at {shards} shards"
            );
        }
        // And the assembled artifact view agrees with itself on replay.
        let replay = trace_kinds(&traced_stream_events(seed, 1, 200));
        assert_eq!(assemble_traces(&one), assemble_traces(&replay));
    }
}

#[test]
fn flight_recorder_promotes_hijacked_flow_to_full_trace() {
    // Sampling off: every trace present can only come from retroactive
    // flight-recorder promotion at detection time.
    let events = traced_stream_events(0xC0DE_CAFE, 4, 0);
    let traces = assemble_traces(&events);
    assert!(
        !traces.is_empty(),
        "hijack burst must promote at least one flow"
    );
    let flight = traces
        .iter()
        .find(|t| t.spans.iter().any(|s| s.stage == STAGE_RESPOND))
        .expect("a promoted trace must reach the graded response");
    assert!(!flight.sampled, "promotion is not sampling");
    // The causal chain runs from admission through dispatch and
    // verification to the graded response, with every parent resolving to
    // another span of the same trace.
    for stage in [STAGE_ADMISSION, STAGE_DISPATCH, STAGE_VERIFY, STAGE_RESPOND] {
        assert!(
            flight.spans.iter().any(|s| s.stage == stage),
            "promoted trace missing {stage}: {flight:?}"
        );
    }
    for span in &flight.spans {
        if span.stage == STAGE_INGEST || span.stage == STAGE_ADMISSION {
            continue; // chain roots
        }
        assert!(
            flight.spans.iter().any(|s| s.id == span.parent),
            "span {span:?} has a dangling parent in {flight:?}"
        );
    }
}

#[test]
fn traced_streams_satisfy_the_stream_validator() {
    // The tightened validator (duplicate keys, per-kind clock monotonicity,
    // seq ordering) must accept every real producer stream — spans and
    // flight promotions included.
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::with_policy(8, SupervisorPolicy::ladder(2, 2));
    np.install_all(&program.to_bytes(), program.base, |_| {
        Box::new(NullObserver)
    });
    np.set_shards(4);
    let bus = Arc::new(EventBus::new());
    np.set_event_bus(Some(bus.clone()));
    np.set_trace(Some(TraceContext::new(0x5EED_0002, 200)));
    let packets = traffic(0x5EED_0002, 160);
    let rounds: Vec<Vec<Vec<u8>>> = packets.chunks(40).map(<[_]>::to_vec).collect();
    np.process_stream(
        &rounds,
        &StreamConfig {
            shard_capacity: 512,
        },
    );
    let jsonl = bus.render_jsonl();
    let mut validator = StreamValidator::new();
    let mut saw_span = false;
    for line in jsonl.lines() {
        validator.check_line(line).expect("stream must validate");
        saw_span |= line.contains("\"kind\":\"span.");
    }
    assert!(saw_span, "workload must emit spans: {jsonl}");
}

#[test]
fn np_event_stream_is_identical_across_shard_counts() {
    for seed in [0xC0DE_CAFEu64, 0x5EED_0002] {
        let one = np_jsonl(seed, 1);
        let four = np_jsonl(seed, 4);
        // Supervisor events carry the packet-ordinal clock, so the merged
        // stream is independent of sharding. Only the np.batch telemetry
        // lines describe the engine configuration itself (shard count,
        // imbalance), so they are excluded from the cross-shard
        // comparison; their count and positions must still agree.
        let strip = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.contains("\"kind\":\"np.batch\""))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(
            strip(&one),
            strip(&four),
            "seed {seed:#x}: shard count must not reorder or change events"
        );
        assert_eq!(one.lines().count(), four.lines().count());
        assert_eq!(one, np_jsonl(seed, 1), "replay at 1 shard");
        assert_eq!(four, np_jsonl(seed, 4), "replay at 4 shards");
        assert!(
            one.contains("supervisor.quarantine"),
            "burst workload must exercise the ladder"
        );
        for line in four.lines() {
            validate_event_line(line).unwrap();
        }
    }
}

#[test]
fn graded_supervisor_stream_is_identical_across_shard_counts() {
    for seed in [0x6EAD_0001u64, 0x6EAD_0002] {
        let one = graded_np_jsonl(seed, 1);
        let four = graded_np_jsonl(seed, 4);
        // Same invariant the strike ladder satisfies: supervisor events
        // (including forensic flushes and parole records) carry logical
        // clocks, so sharding may not reorder or change them. np.batch
        // telemetry describes the engine configuration and is excluded.
        let strip = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.contains("\"kind\":\"np.batch\""))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(
            strip(&one),
            strip(&four),
            "seed {seed:#x}: graded stream must be shard-count-independent"
        );
        assert_eq!(one.lines().count(), four.lines().count());
        assert_eq!(one, graded_np_jsonl(seed, 1), "replay at 1 shard");
        assert_eq!(four, graded_np_jsonl(seed, 4), "replay at 4 shards");
        for kind in [
            "supervisor.throttle",
            "supervisor.quarantine",
            "supervisor.forensic",
            "supervisor.parole",
        ] {
            assert!(
                one.contains(kind),
                "seed {seed:#x}: workload must produce {kind}"
            );
        }
        for line in four.lines() {
            validate_event_line(line).unwrap();
        }
    }
}

/// A small relay-tree rollout over faulty links — an origin outage and one
/// blackholed key document included — with every event captured.
fn fleet_rollout(trace: Option<TraceContext>) -> (FleetScaleReport, Vec<Event>) {
    let cfg = FleetDeployConfig {
        routers: 6,
        relays: 2,
        key_pool: 3,
        link: LossyChannel::clean(Channel::ideal_gigabit())
            .with_loss(0.1)
            .with_corrupt(0.05),
        outage: Some(OutageWindow { from: 1, len: 3 }),
        blackhole_router: Some(4),
        trace,
        ..FleetDeployConfig::default()
    };
    let program = programs::ipv4_forward().unwrap();
    let bus = EventBus::new();
    let report = deploy_fleet(&cfg, &program, 0x51_4E5, Some(&bus)).unwrap();
    (report, bus.take())
}

#[test]
fn fleet_spans_only_add_events() {
    let (plain, plain_events) = fleet_rollout(None);
    let (traced, traced_events) = fleet_rollout(Some(TraceContext::new(7, 1000)));
    assert_eq!(plain.rows, traced.rows);
    assert_eq!(plain.summary(), traced.summary());
    assert_eq!(plain.transport_attempts, traced.transport_attempts);
    assert_eq!(plain.quarantined_routers, vec![4], "the blackholed router");

    let is_span = |e: &Event| e.kind.starts_with("span.");
    assert!(!plain_events.iter().any(is_span), "no trace, no spans");
    let spans = traced_events.iter().filter(|e| is_span(e)).count();
    assert_eq!(
        spans,
        1 + plain.relays_synced + plain.routers,
        "one operator root, one span per synced relay and per router"
    );
    let stripped: Vec<Event> = traced_events.into_iter().filter(|e| !is_span(e)).collect();
    assert_eq!(plain_events, stripped);
}

/// A four-router single-origin deploy through a lossy link, one server
/// outage and one blackholed router, optionally narrated on `bus`.
fn resilient_rollout(bus: Option<&EventBus>) -> (ResilientFleet, u64) {
    let mut rng = StdRng::seed_from_u64(0xBD5);
    let manufacturer = Manufacturer::new("acme", 512, &mut rng).unwrap();
    let mut operator = NetworkOperator::new("op", 512, &mut rng).unwrap();
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let mut server = FlakyServer::new(FileServer::new(), 0xF1EE7);
    server.schedule_outage(OutageWindow { from: 2, len: 5 });
    server.blackhole("pkg/router-2.sdmmon");
    let config = ResilientConfig {
        link: LossyChannel::clean(Channel::ideal_gigabit())
            .with_loss(0.2)
            .with_corrupt(0.05)
            .with_stall(0.05),
        retry: RetryPolicy::default()
            .with_chunk_bytes(16 * 1024)
            .with_max_attempts(60),
        ..ResilientConfig::default()
    };
    let program = programs::ipv4_forward().unwrap();
    let result = Fleet::deploy_resilient(
        &manufacturer,
        &operator,
        &program,
        4,
        1,
        256,
        &mut server,
        &config,
        &mut rng,
        bus,
    )
    .unwrap();
    (result, server.stats().attempts)
}

#[test]
fn resilient_deploy_bus_only_adds_events() {
    let (quiet, quiet_attempts) = resilient_rollout(None);
    let bus = EventBus::new();
    let (observed, observed_attempts) = resilient_rollout(Some(&bus));
    assert_eq!(quiet.deployments, observed.deployments);
    assert_eq!(quiet.fleet.reports(), observed.fleet.reports());
    assert_eq!(quiet_attempts, observed_attempts, "same fault clock");
    assert_eq!(quiet.quarantined(), 1, "the blackholed router");

    let events = bus.take();
    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count("deploy.installed"), 3);
    assert_eq!(count("deploy.quarantined"), 1);
    let cycles: u32 = quiet.deployments.iter().map(|d| d.deploy_attempts).sum();
    assert_eq!(count("deploy.cycle"), cycles as usize);
}
