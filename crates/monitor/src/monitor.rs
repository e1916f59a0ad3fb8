//! The runtime hardware monitor.
//!
//! The hardware design gets a 4-bit hash of the processor's current
//! operation each clock and compares it with the monitoring graph. Because
//! the monitor has no data path, it cannot know which way a branch went —
//! it tracks the *set* of graph positions consistent with the hash stream
//! observed so far (an NFA over the graph). An empty set means the
//! processor's behaviour matches no valid path: an attack is flagged.
//!
//! This also faithfully reproduces the probabilistic escape behaviour the
//! paper analyses: injected code survives one comparison only when its hash
//! happens to match some candidate position (chance ≈ 2⁻⁴ per
//! instruction), so the escape probability decreases geometrically with
//! attack length.

use crate::graph::MonitoringGraph;
use crate::hash::InstructionHash;
use sdmmon_npu::core::Core;
use sdmmon_npu::cpu::{ExecutionObserver, Observation};
use sdmmon_npu::runtime::PacketOutcome;

/// "No singleton candidate" sentinel for [`MemoRun::node`].
const NO_NODE: u32 = u32::MAX;

/// Empty-slot value of [`HardwareMonitor`]'s verified-word memo: no `u32`
/// word widens to it.
const UNVERIFIED: u64 = u64::MAX;

/// Counters kept by a monitor across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Packet runs observed (calls to `begin`).
    pub runs: u64,
    /// Instructions checked against the graph.
    pub instructions_checked: u64,
    /// Violations flagged.
    pub violations: u64,
    /// High-water mark of the candidate set (hardware sizing input).
    pub max_candidates: usize,
}

/// A per-core hardware monitor: monitoring graph + parameterized hash +
/// candidate-set tracking.
///
/// Matching uses **only the hash stream**, never the reported pc, mirroring
/// the hardware. See the crate-level example for typical usage with a
/// [`sdmmon_npu::core::Core`].
#[derive(Debug, Clone)]
pub struct HardwareMonitor<H: InstructionHash> {
    graph: MonitoringGraph,
    hash: H,
    /// Per-node instruction hash, indexed by node index — the dense table
    /// the hardware actually compares against, one memory access per
    /// retired instruction.
    node_hashes: Vec<u8>,
    /// Flattened successor lists as node indices (not addresses).
    succ_edges: Vec<u32>,
    /// Per-node `(start, end)` span into [`Self::succ_edges`].
    succ_spans: Vec<(u32, u32)>,
    /// Per-node successor lists pre-sorted and deduplicated — exactly what
    /// the general path's `sort_unstable` + `dedup` produces for a
    /// singleton candidate set, computed once at construction so the fast
    /// path ([`ExecutionObserver::run_packet`]) advances with a span copy
    /// instead of a sort per instruction.
    fast_edges: Vec<u32>,
    /// Per-node `(start, end)` span into [`Self::fast_edges`].
    fast_spans: Vec<(u32, u32)>,
    /// Verified-word memo, indexed like [`Self::node_hashes`]: a word
    /// already proven to hash to `node_hashes[c]` (or [`UNVERIFIED`]),
    /// written right after a real hash for every live candidate it
    /// matched. Keyed by the word's value, not its address, so it never
    /// needs invalidation: a changed or injected word simply misses. Read
    /// and written only by the fast path, never by the reference
    /// `observe`.
    verified: Vec<u64>,
    /// Candidate graph positions (node indices) consistent with the
    /// observed hash stream.
    current: Vec<u32>,
    scratch: Vec<u32>,
    stats: MonitorStats,
}

impl<H: InstructionHash> HardwareMonitor<H> {
    /// Couples a monitoring graph with the hash function it was built
    /// under. (SDMMon guarantees the coupling cryptographically: graph and
    /// hash parameter travel in the same signed package.)
    ///
    /// The graph is compiled into dense index-based tables here, so the
    /// per-instruction check in [`ExecutionObserver::observe`] is a plain
    /// array compare with no address arithmetic or bounds decisions.
    /// Successor addresses that fall outside the graph (possible only in
    /// hand-crafted or corrupted serialized graphs) are dropped during
    /// compilation — they could never match any future hash, which is
    /// exactly how the uncompiled monitor treated them.
    ///
    /// # Panics
    ///
    /// Panics if the graph's hash width differs from the function's — a
    /// mismatched installation that hardware could not even wire up.
    pub fn new(graph: MonitoringGraph, hash: H) -> HardwareMonitor<H> {
        assert_eq!(
            graph.hash_bits(),
            hash.output_bits(),
            "graph and hash function disagree on output width"
        );
        let mut node_hashes = Vec::with_capacity(graph.len());
        let mut succ_edges = Vec::new();
        let mut succ_spans = Vec::with_capacity(graph.len());
        for (_, node) in graph.iter() {
            node_hashes.push(node.hash);
            let start = succ_edges.len() as u32;
            succ_edges.extend(
                node.successors
                    .iter()
                    .filter_map(|&addr| node_index(&graph, addr)),
            );
            succ_spans.push((start, succ_edges.len() as u32));
        }
        let mut fast_edges = Vec::with_capacity(succ_edges.len());
        let mut fast_spans = Vec::with_capacity(succ_spans.len());
        for &(start, end) in &succ_spans {
            let mut sorted: Vec<u32> = succ_edges[start as usize..end as usize].to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let fast_start = fast_edges.len() as u32;
            fast_edges.extend(sorted);
            fast_spans.push((fast_start, fast_edges.len() as u32));
        }
        let verified = vec![UNVERIFIED; node_hashes.len()];
        HardwareMonitor {
            graph,
            hash,
            node_hashes,
            succ_edges,
            succ_spans,
            fast_edges,
            fast_spans,
            verified,
            current: Vec::new(),
            scratch: Vec::new(),
            stats: MonitorStats::default(),
        }
    }

    /// The monitoring graph installed in this monitor.
    pub fn graph(&self) -> &MonitoringGraph {
        &self.graph
    }

    /// The hash function (with its secret parameter).
    pub fn hash_function(&self) -> &H {
        &self.hash
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Number of graph positions currently considered possible.
    pub fn candidate_count(&self) -> usize {
        self.current.len()
    }
}

/// Maps an address to its dense node index, if it is a covered, aligned
/// graph position.
fn node_index(graph: &MonitoringGraph, addr: u32) -> Option<u32> {
    let off = addr.wrapping_sub(graph.base());
    if addr < graph.base() || !off.is_multiple_of(4) {
        return None;
    }
    let idx = off / 4;
    ((idx as usize) < graph.len()).then_some(idx)
}

impl<H: InstructionHash> HardwareMonitor<H> {
    /// Whether node `cand` has already proven `word` (then `word` hashes
    /// to `node_hashes[cand]`). Fast path only.
    #[inline]
    fn proven(&self, cand: usize, word: u32) -> bool {
        self.verified[cand] == u64::from(word)
    }

    fn begin_impl(&mut self, entry: u32) {
        self.stats.runs += 1;
        self.current.clear();
        self.current.extend(node_index(&self.graph, entry));
    }

    /// The reference per-instruction check: hash the word, compare against
    /// every candidate, advance to the union of matched successors. This is
    /// the hardware's data path and the oracle the fast path must agree
    /// with.
    fn observe_general(&mut self, word: u32) -> Observation {
        let observed = self.hash.hash(word);
        self.advance_candidates(observed)
    }

    /// Candidate-set advance for an already-computed hash value.
    fn advance_candidates(&mut self, observed: u8) -> Observation {
        self.scratch.clear();
        let mut matched = false;
        for i in 0..self.current.len() {
            let cand = self.current[i] as usize;
            if self.node_hashes[cand] == observed {
                matched = true;
                let (start, end) = self.succ_spans[cand];
                self.scratch
                    .extend_from_slice(&self.succ_edges[start as usize..end as usize]);
            }
        }
        if !matched {
            self.stats.violations += 1;
            return Observation::Violation;
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        std::mem::swap(&mut self.current, &mut self.scratch);
        self.stats.max_candidates = self.stats.max_candidates.max(self.current.len());
        Observation::Continue
    }
}

/// The fast-path observer [`HardwareMonitor::run_packet`] hands to
/// [`Core::process_packet`]: the same per-instruction NFA walk as the
/// reference path, but the hash of a retired word comes from the monitor's
/// verified-word memo whenever a live candidate already proved that word,
/// and the common candidate-set shapes live in registers. Per-run
/// bookkeeping is merged back into [`MonitorStats`] once per packet.
/// Private on purpose — the fast path is reachable only through
/// [`ExecutionObserver::run_packet`], keeping the trait's per-instruction
/// `observe` on [`HardwareMonitor`] the unchanged reference implementation
/// (the differential oracle), which never reads the memo.
struct MemoRun<'a, H: InstructionHash> {
    mon: &'a mut HardwareMonitor<H>,
    /// The sole candidate while the set is a singleton ([`NO_NODE`]
    /// otherwise) — the overwhelmingly common straight-line mode, kept in
    /// a register instead of `current[0]`.
    node: u32,
    /// Both live arms of a branch while the set has exactly two
    /// candidates (`pair.0 == NO_NODE` otherwise; always sorted, like the
    /// sets the reference path produces). The pair resolves with two
    /// table compares, so the branch round-trip — the most common
    /// non-singleton shape by far — never touches `mon.current`.
    pair: (u32, u32),
    /// Local high-water mark of the candidate-set sizes produced by the
    /// register-resident advances; merged into `stats.max_candidates` at
    /// the end of the packet (the materialized fallback updates the stat
    /// directly, and `max` is order-independent).
    max_seen: usize,
    /// Words actually hashed this run (memo misses).
    hashed: u64,
}

impl<'a, H: InstructionHash> MemoRun<'a, H> {
    fn new(mon: &'a mut HardwareMonitor<H>) -> MemoRun<'a, H> {
        MemoRun {
            mon,
            node: NO_NODE,
            pair: (NO_NODE, NO_NODE),
            max_seen: 0,
            hashed: 0,
        }
    }

    /// A memo miss: hash the word for real.
    #[inline]
    fn hash(&mut self, word: u32) -> u8 {
        self.hashed += 1;
        self.mon.hash.hash(word)
    }

    /// After a proven match on `cand`, move to its pre-sorted, pre-deduped
    /// successor span, picking the cheapest mode for the new set size and
    /// recording the high-water statistic the reference path would.
    #[inline]
    fn advance_span(&mut self, cand: usize) {
        let (start, end) = self.mon.fast_spans[cand];
        let span = &self.mon.fast_edges[start as usize..end as usize];
        match *span {
            [next] => {
                self.node = next;
                self.pair = (NO_NODE, NO_NODE);
                self.max_seen = self.max_seen.max(1);
            }
            [a, b] => {
                self.node = NO_NODE;
                self.pair = (a, b);
                self.max_seen = self.max_seen.max(2);
            }
            _ => {
                self.node = NO_NODE;
                self.pair = (NO_NODE, NO_NODE);
                self.max_seen = self.max_seen.max(span.len());
                self.mon.current.clear();
                self.mon.current.extend_from_slice(span);
            }
        }
    }

    /// Writes the register-resident candidate set (singleton or pair) back
    /// into `mon.current` and leaves the run in general mode. No-op when
    /// the set already lives there.
    fn materialize(&mut self) {
        if self.node != NO_NODE {
            self.mon.current.clear();
            self.mon.current.push(self.node);
            self.node = NO_NODE;
        } else if self.pair.0 != NO_NODE {
            self.mon.current.clear();
            self.mon.current.push(self.pair.0);
            self.mon.current.push(self.pair.1);
            self.pair = (NO_NODE, NO_NODE);
        }
    }

    /// Re-enters the cheapest mode for whatever set the materialized
    /// fallback left in `mon.current` (which stays a stale copy while a
    /// register mode is active).
    fn sync_mode(&mut self) {
        match *self.mon.current.as_slice() {
            [only] => {
                self.node = only;
                self.pair = (NO_NODE, NO_NODE);
            }
            [a, b] => {
                self.node = NO_NODE;
                self.pair = (a, b);
            }
            _ => {
                self.node = NO_NODE;
                self.pair = (NO_NODE, NO_NODE);
            }
        }
    }

    /// Pair-mode step: resolve both arms of a live branch with two table
    /// compares. The both-match case (a hash collision between the arms)
    /// takes the materialized reference-shaped fallback.
    fn observe_pair(&mut self, word: u32) -> Observation {
        let (pa, pb) = (self.pair.0 as usize, self.pair.1 as usize);
        let (ha, hb) = (self.mon.node_hashes[pa], self.mon.node_hashes[pb]);
        let observed = if self.mon.proven(pa, word) {
            ha
        } else if self.mon.proven(pb, word) {
            hb
        } else {
            let observed = self.hash(word);
            for (cand, h) in [(pa, ha), (pb, hb)] {
                if h == observed {
                    self.mon.verified[cand] = u64::from(word);
                }
            }
            observed
        };
        let (m0, m1) = (ha == observed, hb == observed);
        if m0 != m1 {
            self.advance_span(if m0 { pa } else { pb });
            return Observation::Continue;
        }
        if !m0 {
            self.mon.stats.violations += 1;
            return Observation::Violation;
        }
        self.materialize();
        self.advance_general(observed)
    }

    /// General-mode hash source: a memo hit on any candidate in
    /// `mon.current`, else the real hash, memoized for every candidate it
    /// matches.
    fn general_hash(&mut self, word: u32) -> u8 {
        let mon = &*self.mon;
        if let Some(&c) = mon.current.iter().find(|&&c| mon.proven(c as usize, word)) {
            return mon.node_hashes[c as usize];
        }
        let observed = self.hash(word);
        let mon = &mut *self.mon;
        for &c in &mon.current {
            if mon.node_hashes[c as usize] == observed {
                mon.verified[c as usize] = u64::from(word);
            }
        }
        observed
    }

    /// General-mode step: the reference advance over the materialized set
    /// in `mon.current`, then back to the cheapest mode for the result.
    fn advance_general(&mut self, observed: u8) -> Observation {
        let obs = self.mon.advance_candidates(observed);
        if obs == Observation::Continue {
            self.sync_mode();
        }
        obs
    }
}

impl<H: InstructionHash> ExecutionObserver for MemoRun<'_, H> {
    fn begin(&mut self, entry: u32) {
        self.mon.begin_impl(entry);
        self.sync_mode();
    }

    /// One NFA step. Must stay in lockstep with
    /// [`HardwareMonitor::advance_candidates`] — same matches, same
    /// resulting set, same statistics; only the hash source (memo hit or
    /// real hash) and the dispatch (register modes for singleton/pair
    /// sets, the reference-shaped fallback otherwise) differ. On a
    /// violation the candidate state is left untouched, exactly like the
    /// reference path.
    #[inline]
    fn observe(&mut self, _pc: u32, word: u32) -> Observation {
        // Observability hook for the hot loop: a no-op sink unless the
        // `obs-hot` feature opts into per-retired-instruction recording
        // (the default level settles instruction counts once per packet in
        // the NP instead — see `sdmmon-obs`).
        #[cfg(feature = "obs-hot")]
        sdmmon_obs::metrics().inc(sdmmon_obs::Counter::MonitorHotInstructions);
        let node = self.node;
        if node != NO_NODE {
            if !self.mon.proven(node as usize, word) {
                if self.mon.node_hashes[node as usize] != self.hash(word) {
                    self.mon.stats.violations += 1;
                    return Observation::Violation;
                }
                self.mon.verified[node as usize] = u64::from(word);
            }
            self.advance_span(node as usize);
            return Observation::Continue;
        }
        if self.pair.0 != NO_NODE {
            return self.observe_pair(word);
        }
        let observed = self.general_hash(word);
        self.advance_general(observed)
    }
}

impl<H: InstructionHash> ExecutionObserver for HardwareMonitor<H> {
    fn begin(&mut self, entry: u32) {
        self.begin_impl(entry);
    }

    fn observe(&mut self, _pc: u32, word: u32) -> Observation {
        self.stats.instructions_checked += 1;
        self.observe_general(word)
    }

    /// The fast per-packet path: the per-instruction NFA walk of
    /// [`MemoRun`], monomorphized into [`Core::process_packet`], taking
    /// each word's hash from the verified-word memo when a live candidate
    /// already proved that word. A hit yields exactly `hash(word)` (the
    /// hash is a pure function of the word), so outcomes and statistics
    /// are identical to the default per-instruction dispatch; a changed
    /// or injected word misses and is hashed for real.
    fn run_packet(&mut self, core: &mut Core, packet: &[u8]) -> PacketOutcome {
        let mut run = MemoRun::new(self);
        let out = core.process_packet(packet, &mut run);
        // The candidate set must survive the run (`candidate_count` is
        // public API and `begin` of the next packet reads nothing else),
        // so flush whatever register mode the run ended in.
        run.materialize();
        let (max_seen, hashed) = (run.max_seen, run.hashed);

        // The walk checks exactly one hash per retired instruction — the
        // count the core already returns — so the per-instruction counter
        // the reference path keeps can be settled once per packet.
        self.stats.instructions_checked += out.steps;
        self.stats.max_candidates = self.stats.max_candidates.max(max_seen);
        sdmmon_obs::metrics().add(sdmmon_obs::Counter::MonitorWordsHashed, hashed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::MerkleTreeHash;
    use sdmmon_npu::core::Core;
    use sdmmon_npu::programs::{self, testing};
    use sdmmon_npu::runtime::{HaltReason, Verdict};

    fn monitored_core(
        program: &sdmmon_isa::asm::Program,
        param: u32,
    ) -> (Core, HardwareMonitor<MerkleTreeHash>) {
        let hash = MerkleTreeHash::new(param);
        let graph = MonitoringGraph::extract(program, &hash).unwrap();
        let monitor = HardwareMonitor::new(graph, hash);
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        (core, monitor)
    }

    #[test]
    fn legitimate_traffic_passes_all_workloads() {
        for program in [
            programs::ipv4_forward().unwrap(),
            programs::ipv4_cm().unwrap(),
            programs::vulnerable_forward().unwrap(),
        ] {
            let (mut core, mut monitor) = monitored_core(&program, 0x1357_9bdf);
            for dst in 1u8..6 {
                let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], 64, b"data");
                let out = core.process_packet(&packet, &mut monitor);
                assert_eq!(out.halt, HaltReason::Completed);
                assert_eq!(out.verdict, Verdict::Forward(dst as u32));
            }
            assert_eq!(monitor.stats().violations, 0);
            assert!(monitor.stats().instructions_checked > 100);
        }
    }

    #[test]
    fn benign_options_pass_the_vulnerable_binary() {
        let program = programs::vulnerable_forward().unwrap();
        let (mut core, mut monitor) = monitored_core(&program, 0xABCD_EF01);
        let out = core.process_packet(&testing::benign_options_packet(3), &mut monitor);
        assert_eq!(out.halt, HaltReason::Completed);
        assert_eq!(out.verdict, Verdict::Forward(3));
    }

    #[test]
    fn stack_smash_hijack_is_detected() {
        // The same attack that silently succeeds without a monitor
        // (see sdmmon-npu tests) is caught here. We test several router
        // parameters; each escape needs a fresh hash collision per injected
        // instruction, so detection before clean completion is
        // overwhelmingly likely — and the verdict is forced to Drop.
        let program = programs::vulnerable_forward().unwrap();
        let attack = testing::hijack_packet(
            "li $t4, 0x0007fff0
             li $t5, 15
             sw $t5, 0($t4)
             li $t6, 0x1234
             li $t7, 0x5678
             break 0",
        )
        .unwrap();
        let mut detected = 0;
        for param in [1u32, 0xdead_beef, 0x0bad_f00d, 42, 0x8000_0001] {
            let (mut core, mut monitor) = monitored_core(&program, param);
            let out = core.process_packet(&attack, &mut monitor);
            assert_eq!(out.verdict, Verdict::Drop, "param {param:#x}");
            if out.halt == HaltReason::MonitorViolation {
                detected += 1;
            }
        }
        assert_eq!(detected, 5, "all parameters should detect this attack");
    }

    #[test]
    fn corrupted_instruction_detected() {
        // Flip one bit in the installed binary: the monitor flags the first
        // execution of the corrupted instruction (unless the 4-bit hash
        // collides; we pick a parameter where it does not).
        let program = programs::ipv4_forward().unwrap();
        let hash = MerkleTreeHash::new(7);
        // Corrupting word 3 changes its hash under the sum compression
        // whenever the flipped nibble sum differs; flipping bit 0 changes
        // nibble 0 by ±1, so the hash always differs.
        let (mut core, mut monitor) = monitored_core(&program, 7);
        let addr = program.base + 12;
        let word = core.memory().load_u32(addr).unwrap();
        core.memory_mut().store_u32(addr, word ^ 1).unwrap();
        let _ = hash; // parameter choice documented above
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
        let out = core.process_packet(&packet, &mut monitor);
        assert_eq!(out.halt, HaltReason::MonitorViolation);
        assert_eq!(monitor.stats().violations, 1);
    }

    #[test]
    fn graph_for_wrong_parameter_rejects_immediately() {
        // SR2: a monitoring graph built for router A's parameter is useless
        // (flags instantly) under router B's parameter. With the sum
        // compression, parameter 1 shifts every hash by 1, so the very
        // first instruction mismatches.
        let program = programs::ipv4_forward().unwrap();
        let graph_a = MonitoringGraph::extract(&program, &MerkleTreeHash::new(0)).unwrap();
        let mut monitor = HardwareMonitor::new(graph_a, MerkleTreeHash::new(1));
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
        let out = core.process_packet(&packet, &mut monitor);
        assert_eq!(out.halt, HaltReason::MonitorViolation);
        assert_eq!(out.steps, 1, "first comparison already fails");
    }

    #[test]
    fn monitor_resyncs_between_packets() {
        let program = programs::ipv4_forward().unwrap();
        let (mut core, mut monitor) = monitored_core(&program, 0x600D_CAFE);
        for _ in 0..5 {
            let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
            let out = core.process_packet(&packet, &mut monitor);
            assert_eq!(out.halt, HaltReason::Completed);
        }
        assert_eq!(monitor.stats().runs, 5);
    }

    #[test]
    fn candidate_set_stays_small_on_straightline_code() {
        let program = programs::ipv4_forward().unwrap();
        let (mut core, mut monitor) = monitored_core(&program, 3);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
        core.process_packet(&packet, &mut monitor);
        // Bounded by the return-site set plus hash-collision ambiguity;
        // must stay far below the program size for hardware viability.
        assert!(
            monitor.stats().max_candidates <= 8,
            "{}",
            monitor.stats().max_candidates
        );
    }

    #[test]
    fn compiled_tables_mirror_graph() {
        // The dense index tables built at construction must be a faithful
        // compilation of the address-keyed graph.
        let program = programs::ipv4_cm().unwrap();
        let hash = MerkleTreeHash::new(0x1234);
        let graph = MonitoringGraph::extract(&program, &hash).unwrap();
        let monitor = HardwareMonitor::new(graph.clone(), hash);
        for (i, (addr, node)) in graph.iter().enumerate() {
            assert_eq!(monitor.node_hashes[i], node.hash, "hash at {addr:#x}");
            let (start, end) = monitor.succ_spans[i];
            let succ_addrs: Vec<u32> = monitor.succ_edges[start as usize..end as usize]
                .iter()
                .map(|&idx| graph.base() + 4 * idx)
                .collect();
            assert_eq!(succ_addrs, node.successors, "successors at {addr:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "output width")]
    fn mismatched_widths_rejected() {
        let program = programs::ipv4_forward().unwrap();
        let graph = MonitoringGraph::extract(&program, &crate::hash::WidthHash::new(0, 8)).unwrap();
        let _ = HardwareMonitor::new(graph, MerkleTreeHash::new(0));
    }

    #[test]
    fn works_through_network_processor_recovery() {
        // Full loop: NP with monitored cores; attack packet detected,
        // dropped, core recovered, next packets fine.
        let program = programs::vulnerable_forward().unwrap();
        let image = program.to_bytes();
        let mut np = sdmmon_npu::np::NetworkProcessor::new(2);
        np.install_all(&image, program.base, |i| {
            let hash = MerkleTreeHash::new(0x5eed_0000 + i as u32);
            let graph = MonitoringGraph::extract(&program, &hash).unwrap();
            Box::new(HardwareMonitor::new(graph, hash))
        });
        let attack = testing::hijack_packet("li $t5, 15\nli $t6, 3\nli $t7, 9\nbreak 0").unwrap();
        let good = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
        np.process(&attack);
        let (_, out) = np.process(&good); // other core
        assert_eq!(out.verdict, Verdict::Forward(2));
        let (_, out) = np.process(&good); // recovered core
        assert_eq!(out.verdict, Verdict::Forward(2));
        let stats = np.stats();
        assert_eq!(stats.violations, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.forwarded, 2);
    }
}
