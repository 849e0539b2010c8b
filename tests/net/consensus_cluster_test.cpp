// Consensus-mode live clusters over the loopback transport: the wire-level
// ConsensusLedger must (a) match the in-process sim reference on P1-P9 in
// fault-free runs for every algorithm, (b) keep committing epochs with the
// round-0 proposer crashed — the f-tolerance the fixed sequencer lacks —
// under the PR-4 fault-injection plans with seeded replays, (c) reject
// malformed or mode-mismatched frames without poisoning a node, and (d)
// survive a fully Byzantine member — equivocating proposals, double votes,
// forged votes, junk sync, corrupted frames — by masking the equivocator
// and staying conformant on the honest majority. Two regressions ride
// along: a submit window cut mid-flight must heal by resubmission, not
// luck, under both ledger modes; and oversized txs must neither overfill
// nor wedge a block.
#include "net/consensus_ledger.hpp"

#include <gtest/gtest.h>

#include "api/quorum_client.hpp"
#include "net/loopback.hpp"
#include "net/remote_node.hpp"
#include "net_fixture.hpp"

namespace setchain::net {
namespace {

using namespace setchain::net::testing;

struct ConsensusCluster {
  NodeHostConfig cfg;
  sim::Simulation sim;
  LoopbackHub hub;
  std::vector<std::unique_ptr<NodeHost>> hosts;
  crypto::Pki pki;

  explicit ConsensusCluster(runner::Algorithm algo, std::uint64_t seed = 42,
                            std::uint32_t n = 4)
      : cfg(make_config(algo, seed, n)), hub(sim, n), pki(cfg.seed) {
    for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
      pki.register_process(p);
    }
  }

  static NodeHostConfig make_config(runner::Algorithm algo, std::uint64_t seed,
                                    std::uint32_t n) {
    NodeHostConfig cfg;
    cfg.n = n;
    cfg.f = (n - 1) / 3;
    cfg.algorithm = algo;
    cfg.seed = seed;
    cfg.collector_limit = 6;
    cfg.collector_timeout = sim::from_millis(200);
    cfg.block_interval = sim::from_millis(150);
    cfg.sync_interval = sim::from_millis(400);
    cfg.ledger_mode = runner::LedgerMode::kConsensus;
    // Rounds must skip past a dead proposer well inside the test budget.
    cfg.timeout_propose = sim::from_millis(600);
    cfg.retry_interval = sim::from_millis(200);
    return cfg;
  }

  static constexpr std::uint32_t kNoByz = ~0u;

  /// `byz_node` (if any) runs with every Byzantine consensus behaviour on:
  /// proposal equivocation, double voting, vote forgery, junk sync.
  void start(std::uint32_t byz_node = kNoByz) {
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      NodeHostConfig c = cfg;
      c.id = i;
      c.byz_consensus = (i == byz_node);
      hosts.push_back(std::make_unique<NodeHost>(c, sim, hub.transport(i)));
      hosts.back()->start();
    }
  }

  const ConsensusLedger* cons(std::uint32_t i) const {
    return dynamic_cast<const ConsensusLedger*>(&hosts[i]->ledger());
  }

  api::QuorumClient client(std::vector<std::unique_ptr<RemoteNode>>& stubs) {
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      stubs.push_back(std::make_unique<RemoteNode>(
          std::make_unique<LoopbackRpcChannel>(hub, i), i));
    }
    return api::make_quorum_client(stubs, pki, cfg.f, core::Fidelity::kFull,
                                   api::WritePolicy::kAll);
  }

  bool pump_until(const std::function<bool()>& pred, double budget_seconds = 120) {
    const sim::Time deadline = sim.now() + sim::from_seconds(budget_seconds);
    while (sim.now() < deadline) {
      if (pred()) return true;
      sim.run_until(sim.now() + sim::from_millis(250));
    }
    return pred();
  }

  void pump_seconds(double s) { sim.run_until(sim.now() + sim::from_seconds(s)); }

  /// Correct-server views, skipping crashed node indices.
  std::vector<const core::SetchainServer*> servers(
      const std::vector<std::uint32_t>& skip = {}) const {
    std::vector<const core::SetchainServer*> out;
    for (std::uint32_t i = 0; i < hosts.size(); ++i) {
      if (std::find(skip.begin(), skip.end(), i) != skip.end()) continue;
      out.push_back(&hosts[i]->server());
    }
    return out;
  }

  bool consolidated(std::size_t expect,
                    const std::vector<std::uint32_t>& skip = {}) const {
    for (std::uint32_t i = 0; i < hosts.size(); ++i) {
      if (std::find(skip.begin(), skip.end(), i) != skip.end()) continue;
      const auto snap = hosts[i]->server().get();
      std::size_t in_history = 0;
      for (const auto& rec : *snap.history) in_history += rec.ids.size();
      if (in_history < expect) return false;
    }
    return true;
  }

  bool liveness_green(const std::vector<core::ElementId>& accepted,
                      const std::vector<std::uint32_t>& skip = {}) const {
    return core::check_liveness_quiescent(servers(skip), accepted,
                                          hosts[0]->params(), hosts[0]->pki())
        .ok();
  }
};

std::vector<core::ElementId> drive(api::QuorumClient& client,
                                   const std::vector<core::Element>& elements) {
  std::vector<core::ElementId> accepted;
  for (const auto& e : elements) {
    const auto r = client.add(e);
    EXPECT_TRUE(r.ok) << "add refused everywhere, element " << e.id;
    if (r.ok) accepted.push_back(e.id);
  }
  return accepted;
}

class ConsensusClusterConformance
    : public ::testing::TestWithParam<runner::Algorithm> {};

// Fault-free consensus run: every algorithm over the voting ledger must
// produce the exact conformance verdicts (P1-P9 + set equality) of the
// in-process InstantLedger reference — ordering by consensus, not by a
// sequencer, must be invisible to the Setchain layer.
TEST_P(ConsensusClusterConformance, MatchesSimReferenceWithoutSequencer) {
  ConsensusCluster cl(GetParam());
  cl.start();

  const auto elements = make_workload(cl.cfg, 30, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);

  const auto accepted = drive(client, elements);
  ASSERT_EQ(accepted.size(), elements.size());

  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }))
      << "consensus cluster never consolidated the workload";
  ASSERT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted); }))
      << "epoch-proof traffic never reached quiescence";

  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, runner::algorithm_name(GetParam()));

  // Quorum client protocol unchanged on top of consensus ordering.
  const auto view = client.get();
  EXPECT_EQ(view.masked_nodes, 0u);
  for (const auto id : accepted) {
    EXPECT_TRUE(view.the_set.contains(id)) << "quorum view missing " << id;
  }
  const auto verdict = client.verify(accepted.front());
  EXPECT_TRUE(verdict.committed);
  EXPECT_GE(verdict.valid_proofs, cl.cfg.f + 1);

  // Blocks were actually sealed by consensus proposers.
  std::uint64_t sealed = 0;
  for (const auto& h : cl.hosts) sealed += h->ledger().blocks_broadcast();
  EXPECT_GT(sealed, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ConsensusClusterConformance,
                         ::testing::Values(runner::Algorithm::kVanilla,
                                           runner::Algorithm::kCompresschain,
                                           runner::Algorithm::kHashchain),
                         [](const auto& info) {
                           return std::string(runner::algorithm_name(info.param));
                         });

// THE bug this ledger exists to fix: crash the node that proposes height 1
// round 0 (proposer_for(1,0) = 1 % n = node 1) before any work lands, never
// restart it. The fixed sequencer would stall forever if it were node 1;
// consensus must round-skip past the corpse at every height it would have
// proposed and commit the full workload on the survivors.
TEST(ConsensusFailover, ClusterSurvivesRound0ProposerCrash) {
  ConsensusCluster cl(runner::Algorithm::kVanilla);
  sim::FaultPlan plan;
  plan.faults.push_back(
      sim::Fault::crash(/*node=*/1, sim::from_millis(10), sim::kNeverHeals));
  cl.hub.install_faults(plan, /*seed=*/3);
  cl.start();

  const std::vector<std::uint32_t> dead = {1};
  const auto elements = make_workload(cl.cfg, 24, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  // Client frames bypass the injector (kAll still reaches every server);
  // only the server<->server consensus traffic of node 1 is dead.
  const auto accepted = drive(client, elements);
  ASSERT_EQ(accepted.size(), elements.size());

  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size(), dead); }))
      << "survivors never consolidated past the crashed round-0 proposer";
  ASSERT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted, dead); }))
      << "survivor epoch-proof traffic never quiesced";
  ASSERT_NE(cl.hub.faults(), nullptr);
  EXPECT_GT(cl.hub.faults()->stats().dropped_crash, 0u);

  // Full conformance on the survivors, against the fault-free reference:
  // the committed set must be exactly the workload, crash or no crash.
  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(dead), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, "vanilla/proposer-crash");

  // The quorum client still reads an f+1-agreed view across the survivors.
  const auto view = client.get();
  for (const auto id : accepted) {
    EXPECT_TRUE(view.the_set.contains(id)) << "quorum view missing " << id;
  }
}

// Seeded replay oracle (the PR-4 fuzzing discipline on the wire): for each
// seed, the same crash+drop plan over loopback must land on the same P1-P9
// verdicts and the same consolidated set as the in-process reference run of
// that seed's workload.
TEST(ConsensusFailover, SeededCrashPlansReplayAgainstReference) {
  for (const std::uint64_t seed : {7ull, 1234ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ConsensusCluster cl(runner::Algorithm::kHashchain, seed);
    sim::FaultPlan plan;
    plan.faults.push_back(
        sim::Fault::crash(/*node=*/1, sim::from_millis(50), sim::kNeverHeals));
    plan.faults.push_back(sim::Fault::drop(/*from=*/0, /*to=*/2,
                                           /*probability=*/0.5,
                                           sim::from_millis(100),
                                           sim::from_seconds(3)));
    cl.hub.install_faults(plan, /*seed=*/seed);
    cl.start();

    const std::vector<std::uint32_t> dead = {1};
    const auto elements = make_workload(cl.cfg, 18, cl.pki);
    std::vector<std::unique_ptr<RemoteNode>> stubs;
    api::QuorumClient client = cl.client(stubs);
    const auto accepted = drive(client, elements);
    ASSERT_EQ(accepted.size(), elements.size());

    ASSERT_TRUE(
        cl.pump_until([&] { return cl.consolidated(accepted.size(), dead); }))
        << "survivors never consolidated (seed " << seed << ")";
    ASSERT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted, dead); }));

    const ReferenceRun reference = run_reference(cl.cfg, elements);
    std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
    assert_cluster_matches_reference(cl.servers(dead), accepted, created,
                                     cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                     reference, "hashchain/seeded-crash");
  }
}

// Malformed payloads under every consensus frame type (and a bare kBlock,
// which the consensus dialect does not speak) are counted and ignored.
TEST(ConsensusRobustness, MalformedConsensusFramesAreCountedAndIgnored) {
  ConsensusCluster cl(runner::Algorithm::kVanilla);
  cl.start();

  for (const auto type : {wire::MsgType::kProposal, wire::MsgType::kPrevote,
                          wire::MsgType::kPrecommit, wire::MsgType::kRoundSkip,
                          wire::MsgType::kBlock}) {
    cl.hub.transport(1).send(0, type, codec::to_bytes("junk payload"));
  }
  // Spoofed voter: well-formed vote whose voter field does not match the
  // sending endpoint must be rejected, not recorded for node 3.
  wire::VoteMsg spoof;
  spoof.height = 1;
  spoof.round = 0;
  spoof.voter = 3;
  cl.hub.transport(1).send(0, wire::MsgType::kPrevote, wire::encode_vote(spoof));
  cl.pump_seconds(1);
  EXPECT_EQ(cl.hosts[0]->bad_frames(), 6u);

  // The node still commits a normal workload afterwards.
  const auto elements = make_workload(cl.cfg, 8, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }));
}

// Mode mismatch: a sequencer-mode node receiving consensus frames counts
// them as bad (the ledger-mode byte in the cluster id makes this
// unreachable for correctly configured deployments — this is the backstop).
TEST(ConsensusRobustness, SequencerModeRejectsConsensusFrames) {
  sim::Simulation sim;
  LoopbackHub hub(sim, 2);
  NodeHostConfig cfg;
  cfg.n = 2;
  cfg.f = 0;
  cfg.id = 0;
  cfg.algorithm = runner::Algorithm::kVanilla;
  NodeHost host(cfg, sim, hub.transport(0));
  host.start();

  wire::VoteMsg vote;
  vote.height = 1;
  vote.round = 0;
  vote.voter = 1;
  hub.transport(1).send(0, wire::MsgType::kPrevote, wire::encode_vote(vote));
  hub.transport(1).send(0, wire::MsgType::kPrecommit, wire::encode_vote(vote));
  hub.transport(1).send(0, wire::MsgType::kRoundSkip,
                        wire::encode_round_skip({1, 0, 1}));
  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kOpaque;
  tx.wire_size = 4;
  tx.data = codec::Bytes{1, 2, 3, 4};
  hub.transport(1).send(0, wire::MsgType::kProposal, wire::encode_block(1, 1, {&tx}));
  sim.run_until(sim.now() + sim::from_seconds(1));
  EXPECT_EQ(host.bad_frames(), 4u);
}

// THE Byzantine scenario of this PR: node 1 — the round-0 proposer of
// height 1 — runs every adversarial behaviour at once (equivocating
// proposals, double votes, forged votes, junk sync), signing its conflicting
// messages with its REAL key. The honest majority must detect the
// equivocation, permanently mask the node, reject the forgeries, and still
// commit the full workload with exact P1-P9 conformance against the
// fault-free reference.
TEST(ConsensusByzantine, EquivocatingNodeIsMaskedAndSurvivorsStayConformant) {
  ConsensusCluster cl(runner::Algorithm::kVanilla);
  cl.start(/*byz_node=*/1);

  const std::vector<std::uint32_t> byz = {1};
  const auto elements = make_workload(cl.cfg, 24, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_EQ(accepted.size(), elements.size());

  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size(), byz); }))
      << "honest nodes never consolidated past the Byzantine proposer";
  ASSERT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted, byz); }))
      << "honest epoch-proof traffic never quiesced";

  std::uint64_t equivocations = 0;
  std::uint64_t sig_rejects = 0;
  std::uint64_t bad = 0;
  std::uint32_t masked_at = 0;
  for (const std::uint32_t i : {0u, 2u, 3u}) {
    const ConsensusLedger* c = cl.cons(i);
    ASSERT_NE(c, nullptr);
    equivocations += c->equivocations_detected();
    sig_rejects += c->vote_sig_rejects();
    bad += cl.hosts[i]->bad_frames();
    if (c->masked(1)) {
      ++masked_at;
      ASSERT_FALSE(c->evidence().empty());
      EXPECT_EQ(c->evidence().front().node, 1u);
    }
    EXPECT_FALSE(c->masked(i)) << "honest node " << i << " masked itself";
  }
  EXPECT_GE(equivocations, 1u);
  EXPECT_EQ(masked_at, 3u) << "an honest node never masked the equivocator";
  EXPECT_GT(sig_rejects, 0u) << "the garbage-signature forgery was never rejected";
  EXPECT_GT(bad, 0u) << "the impersonated vote passed the identity gate";

  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(byz), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, "vanilla/byzantine-proposer");

  const auto view = client.get();
  for (const auto id : accepted) {
    EXPECT_TRUE(view.the_set.contains(id)) << "quorum view missing " << id;
  }
}

// Vote-equivocation bookkeeping, driven by hand-signed frames (the shared
// test seed lets the harness sign as any node): the second conflicting vote
// masks exactly once with one evidence record, further conflicts are inert,
// round spam is clamped to a bounded number of tracked rounds, and the
// masked set survives a state-snapshot round trip (consensus state v2).
TEST(ConsensusByzantine, VoteEquivocationMasksOnceAndBoundsBookkeeping) {
  ConsensusCluster cl(runner::Algorithm::kVanilla);
  cl.start();

  const std::uint64_t cluster = cl.hosts[0]->cluster();
  const auto send_prevote = [&](std::uint32_t voter, std::uint64_t height,
                                std::uint32_t round, std::uint8_t fill) {
    wire::VoteMsg m;
    m.height = height;
    m.round = round;
    m.voter = voter;
    m.hash.fill(fill);
    m.sig = cl.pki.sign(voter, wire::vote_transcript(cluster, wire::MsgType::kPrevote,
                                                     height, round, m.hash));
    cl.hub.transport(voter).send(0, wire::MsgType::kPrevote, wire::encode_vote(m));
  };

  send_prevote(1, 1, 0, 0x11);
  send_prevote(1, 1, 0, 0x22);
  cl.pump_seconds(1);
  const ConsensusLedger* c0 = cl.cons(0);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->equivocations_detected(), 1u);
  EXPECT_TRUE(c0->masked(1));
  EXPECT_EQ(c0->masked_count(), 1u);
  ASSERT_EQ(c0->evidence().size(), 1u);
  EXPECT_EQ(c0->evidence()[0].node, 1u);
  EXPECT_EQ(c0->evidence()[0].kind, 0u);  // conflicting votes

  // Masking is permanent and idempotent: a third conflicting vote changes
  // nothing (it is dropped before it even reaches signature verification).
  send_prevote(1, 1, 0, 0x33);
  cl.pump_seconds(1);
  EXPECT_EQ(c0->equivocations_detected(), 1u);
  EXPECT_EQ(c0->evidence().size(), 1u);

  // Round spam: node 2 names rounds 0..63 of the active height. Before the
  // per-voter slot rework this grew a per-(round, hash) entry for every
  // named round; now at most current_round + 8 lookahead rounds are
  // tracked, one fixed-size slot vector each.
  for (std::uint32_t r = 0; r < 64; ++r) send_prevote(2, 1, r, 0x44);
  cl.pump_seconds(1);
  EXPECT_GE(c0->vote_rounds_tracked(), 1u);
  // The local round may have drifted a little (idle skip quorums), but 64
  // named rounds must never mean 64 tracked rounds.
  EXPECT_LE(c0->vote_rounds_tracked(), c0->current_round() + 9u);

  codec::Writer w;
  cl.hosts[0]->ledger().serialize_state(w);
  codec::Reader r{codec::ByteView(w.buffer())};
  ConsensusLedgerConfig lc;
  lc.n = cl.cfg.n;
  lc.f = cl.cfg.f;
  lc.self = 0;
  lc.pki = &cl.hosts[0]->pki();
  lc.cluster = cl.hosts[0]->cluster();
  ConsensusLedger restored(lc, cl.sim, cl.hub.transport(0));
  ASSERT_TRUE(restored.restore_state(r));
  EXPECT_TRUE(restored.masked(1));
  EXPECT_EQ(restored.equivocations_detected(), 1u);
  ASSERT_EQ(restored.evidence().size(), 1u);
  EXPECT_EQ(restored.evidence()[0].node, 1u);
}

// Future-height intake: exactly ONE height of lookahead is buffered, one
// slot per voter per frame type; anything further ahead is dropped and
// counted. The buffered claims replay through the full validation path on
// commit and must not wedge a later workload.
TEST(ConsensusByzantine, FutureHeightVotesBufferOneHeightOnly) {
  ConsensusCluster cl(runner::Algorithm::kVanilla);
  cl.start();
  const std::uint64_t cluster = cl.hosts[0]->cluster();

  const auto send_signed = [&](std::uint64_t height) {
    wire::VoteMsg m;
    m.height = height;
    m.round = 0;
    m.voter = 2;
    m.hash.fill(0x55);
    m.sig = cl.pki.sign(2, wire::vote_transcript(cluster, wire::MsgType::kPrevote,
                                                 height, 0, m.hash));
    cl.hub.transport(2).send(0, wire::MsgType::kPrevote, wire::encode_vote(m));
  };

  // Active height is 1: height-2 frames park in the buffer (the duplicate
  // prevote takes no second slot), the height-3 frame is dropped.
  send_signed(2);
  send_signed(2);
  send_signed(3);
  wire::RoundSkipMsg skip{2, 0, 2, {}};
  skip.sig = cl.pki.sign(2, wire::round_skip_transcript(cluster, 2, 0));
  cl.hub.transport(2).send(0, wire::MsgType::kRoundSkip,
                           wire::encode_round_skip(skip));
  cl.pump_seconds(1);

  const ConsensusLedger* c0 = cl.cons(0);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->votes_buffered(), 2u);  // one prevote slot + one skip slot
  EXPECT_EQ(c0->votes_dropped_ahead(), 1u);

  const auto elements = make_workload(cl.cfg, 8, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }));
}

// Random bit-flips on the server<->server links (the kCorrupt fault): every
// corrupted frame must die in a parser, a signature check, or the element
// validators — never in committed state. Conformance against the fault-free
// reference proves it.
TEST(ConsensusRobustness, CorruptedFramesDoNotBreakConformance) {
  ConsensusCluster cl(runner::Algorithm::kVanilla);
  sim::FaultPlan plan;
  plan.faults.push_back(sim::Fault::corrupt(sim::kAnyNode, sim::kAnyNode,
                                            /*probability=*/0.05,
                                            sim::from_millis(10),
                                            sim::from_seconds(30)));
  cl.hub.install_faults(plan, /*seed=*/11);
  cl.start();

  const auto elements = make_workload(cl.cfg, 16, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_EQ(accepted.size(), elements.size());

  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }))
      << "cluster never consolidated under frame corruption";
  ASSERT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted); }));
  EXPECT_GT(cl.hub.frames_corrupted(), 0u)
      << "the corruption window never touched a frame — the run is vacuous";

  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, "vanilla/corrupt-frames");
}

// A fabricated block-sync response — structurally a block list, but the
// entry is no valid certified block — must bump cert_rejects and commit
// nothing; the node keeps working afterwards.
TEST(ConsensusRobustness, JunkSyncResponsesAreRejectedAndCounted) {
  ConsensusCluster cl(runner::Algorithm::kVanilla);
  cl.start();

  const codec::Bytes junk = codec::to_bytes("not a certified block");
  std::vector<codec::ByteView> blocks{codec::ByteView(junk)};
  cl.hub.transport(2).send(0, wire::MsgType::kBlockSyncResponse,
                           wire::encode_block_sync_response(blocks));
  cl.pump_seconds(1);
  const ConsensusLedger* c0 = cl.cons(0);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->cert_rejects(), 1u);
  EXPECT_EQ(c0->height(), 0u);

  const auto elements = make_workload(cl.cfg, 8, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }));
}

// An opaque kTxSubmit of `bytes` data bytes claiming `claimed_size`, from
// node 3 to every other server: what a Byzantine member can inject.
void inject_opaque_tx(ConsensusCluster& cl, std::size_t bytes, std::uint32_t claimed_size,
                      std::uint8_t fill) {
  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kOpaque;
  tx.wire_size = claimed_size;
  tx.data.assign(bytes, fill);
  const codec::Bytes payload = wire::encode_tx_submit(tx);
  for (std::uint32_t to = 0; to < 3; ++to) {
    cl.hub.transport(3).send(to, wire::MsgType::kTxSubmit, payload);
  }
}

// Blocks are packed by encoded tx bytes, not by the sender-claimed
// wire_size: three 300 KB txs claiming one byte each must commit in three
// blocks, none of them over kMaxBlockBytes.
TEST(ConsensusRobustness, UnderclaimedTxSizesCannotOverfillABlock) {
  ConsensusCluster cl(runner::Algorithm::kVanilla);
  std::size_t largest_block = 0;
  cl.start();
  cl.hosts[0]->ledger().set_commit_hook([&](std::uint64_t, codec::ByteView payload) {
    const auto cert = wire::parse_certified_block(payload);
    ASSERT_TRUE(cert.has_value());
    const auto prop = wire::parse_proposal(cert->proposal);
    ASSERT_TRUE(prop.has_value());
    largest_block = std::max(largest_block, prop->block_bytes_len);
  });
  for (std::uint8_t i = 0; i < 3; ++i) inject_opaque_tx(cl, 300'000, 1, i);

  const auto big_committed = [&] {
    const ledger::TxTable& txs = cl.hosts[0]->ledger().txs();
    std::size_t big = 0;
    for (ledger::TxIdx i = 0; i < txs.size(); ++i) {
      if (txs.get(i).data.size() == 300'000) ++big;
    }
    return big;
  };
  ASSERT_TRUE(cl.pump_until([&] { return big_committed() == 3; }, 30))
      << "committed " << big_committed() << " of the 3 large txs";
  EXPECT_GE(cl.hosts[0]->ledger().height(), 3u);
  EXPECT_LE(largest_block, kMaxBlockBytes + 16) << "a block overran the block cap";
}

// A tx too large for any block is refused at the pool. Admitted, it would
// wedge the cluster: every honest proposer reaps it first and seals a
// proposal no frame can carry.
TEST(ConsensusRobustness, TxLargerThanABlockIsRefusedNotSealed) {
  ConsensusCluster cl(runner::Algorithm::kVanilla);
  cl.start();
  inject_opaque_tx(cl, wire::kMaxPayloadBytes - 16, 1, 0x7E);

  const auto elements = make_workload(cl.cfg, 5, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }, 30))
      << "honest elements stalled behind an unblockable tx (height "
      << cl.hosts[0]->ledger().height() << ")";
  const ledger::TxTable& txs = cl.hosts[0]->ledger().txs();
  for (ledger::TxIdx i = 0; i < txs.size(); ++i) {
    EXPECT_LT(txs.get(i).data.size(), kMaxBlockBytes);
  }
}

// A node's transport with its outbound kTxSubmit frames cut during
// [from, to): the submit path, and only it, goes dark for a window.
class TxSubmitCut final : public ITransport {
 public:
  TxSubmitCut(ITransport& inner, sim::Simulation& sim, sim::Time from, sim::Time to)
      : inner_(inner), sim_(sim), from_(from), to_(to) {}

  void set_handler(FrameHandler handler) override { inner_.set_handler(std::move(handler)); }
  bool send(EndpointId to, wire::MsgType type, codec::ByteView payload) override {
    if (type == wire::MsgType::kTxSubmit && sim_.now() >= from_ && sim_.now() < to_) {
      ++cut_;
      return true;  // lost in flight: the sender cannot tell
    }
    return inner_.send(to, type, payload);
  }
  std::size_t poll(std::chrono::milliseconds max_wait) override {
    return inner_.poll(max_wait);
  }
  std::uint32_t self() const override { return inner_.self(); }
  Counters counters() const override { return inner_.counters(); }
  std::uint64_t cut() const { return cut_; }

 private:
  ITransport& inner_;
  sim::Simulation& sim_;
  sim::Time from_;
  sim::Time to_;
  std::uint64_t cut_ = 0;
};

class OwnSubmitResubmission : public ::testing::TestWithParam<runner::LedgerMode> {};

// Own-submission retransmission, under both ordering policies: node 2's
// kTxSubmit stream is severed mid-flight for 2.4 s, and every element is
// added through node 2 alone, so its submits are the only way into a block
// (in consensus mode node 2 pools them too, but height 1 is node 1's to
// propose, and the round timeout outlasts the test, so no round skip hands
// node 2 a turn). Commits must come
// from capped-backoff retransmission — a lost submit was once silently gone
// and the element never committed.
TEST_P(OwnSubmitResubmission, LostSubmitWindowHealsByRetransmission) {
  sim::Simulation sim;
  LoopbackHub hub(sim, 4);
  NodeHostConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.algorithm = runner::Algorithm::kVanilla;
  cfg.collector_limit = 6;
  cfg.collector_timeout = sim::from_millis(200);
  cfg.block_interval = sim::from_millis(150);
  cfg.sync_interval = sim::from_millis(400);
  cfg.retry_interval = sim::from_millis(300);
  cfg.ledger_mode = GetParam();
  cfg.timeout_propose = sim::from_seconds(120);
  TxSubmitCut node2_transport(hub.transport(2), sim, sim::from_millis(100),
                              sim::from_millis(2500));

  std::vector<std::unique_ptr<NodeHost>> hosts;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    NodeHostConfig c = cfg;
    c.id = i;
    ITransport& t = (i == 2) ? static_cast<ITransport&>(node2_transport) : hub.transport(i);
    hosts.push_back(std::make_unique<NodeHost>(c, sim, t));
    hosts.back()->start();
  }
  crypto::Pki pki(cfg.seed);
  for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
    pki.register_process(p);
  }

  RemoteNode node2(std::make_unique<LoopbackRpcChannel>(hub, 2), 2);
  const auto elements = make_workload(cfg, 8, pki);
  sim.run_until(sim.now() + sim::from_millis(150));  // enter the cut window
  for (const auto& e : elements) EXPECT_TRUE(node2.add(e));

  const auto consolidated = [&] {
    for (const auto& h : hosts) {
      const auto snap = h->server().get();
      std::size_t in_history = 0;
      for (const auto& rec : *snap.history) in_history += rec.ids.size();
      if (in_history < elements.size()) return false;
    }
    return true;
  };
  const sim::Time deadline = sim.now() + sim::from_seconds(60);
  while (sim.now() < deadline && !consolidated()) {
    sim.run_until(sim.now() + sim::from_millis(250));
  }
  EXPECT_GT(node2_transport.cut(), 0u)
      << "the cut window never saw a submit — the regression is untested";
  EXPECT_TRUE(consolidated())
      << "elements submitted through the severed link never committed";
  const auto safety = core::check_safety(
      {&hosts[0]->server(), &hosts[1]->server(), &hosts[2]->server(),
       &hosts[3]->server()});
  EXPECT_TRUE(safety.ok()) << safety.to_string();
}

INSTANTIATE_TEST_SUITE_P(BothModes, OwnSubmitResubmission,
                         ::testing::Values(runner::LedgerMode::kFixedSequencer,
                                           runner::LedgerMode::kConsensus),
                         [](const auto& info) {
                           return std::string(runner::ledger_mode_name(info.param));
                         });

}  // namespace
}  // namespace setchain::net
