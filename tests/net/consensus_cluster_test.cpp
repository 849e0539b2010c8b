// Consensus live clusters over the loopback transport: the wire-level
// ConsensusLedger must (a) match the in-process sim reference on P1-P9 in
// fault-free runs for every algorithm, (b) keep committing epochs with the
// round-0 proposer crashed — the paper's f-tolerance — under the PR-4
// fault-injection plans with seeded replays, (c) reject malformed frames
// without poisoning a node, and (d)
// survive a fully Byzantine member — an honest ledger behind a
// ByzantineTransport: equivocating proposals, double votes, forged votes,
// junk sync — and corrupted frames, by masking the equivocator and staying
// conformant on the honest majority, whose own frames never equivocate.
// Two regressions ride along: a submit window cut mid-flight must heal by
// resubmission, not luck; and oversized txs must
// neither overfill nor wedge a block. A node one commit behind must hold the
// next height's proposal instead of dropping it (ConsensusLookahead).
#include "net/consensus_ledger.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "net_fixture.hpp"

namespace setchain::net {
namespace {

using namespace setchain::net::testing;

class ConsensusClusterConformance
    : public ::testing::TestWithParam<runner::Algorithm> {};

// Fault-free consensus run: every algorithm over the voting ledger must
// produce the exact conformance verdicts (P1-P9 + set equality) of the
// in-process InstantLedger reference — ordering by consensus, not by a
// sequencer, must be invisible to the Setchain layer.
TEST_P(ConsensusClusterConformance, MatchesSimReferenceWithoutSequencer) {
  LoopbackCluster cl(GetParam());
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
  EXPECT_TRUE(verdict.in_epoch);
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
// restart it. A single fixed orderer would stall forever if it were node 1;
// consensus must round-skip past the corpse at every height it would have
// proposed and commit the full workload on the survivors.
TEST(ConsensusFailover, ClusterSurvivesRound0ProposerCrash) {
  LoopbackCluster cl(runner::Algorithm::kVanilla);
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
    LoopbackCluster cl(runner::Algorithm::kHashchain, seed);
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

// Malformed payloads under every consensus frame type (and the retired
// kBlock tag, which no node speaks) are counted and ignored.
TEST(ConsensusRobustness, MalformedConsensusFramesAreCountedAndIgnored) {
  LoopbackCluster cl(runner::Algorithm::kVanilla);
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

// THE Byzantine scenario: node 1 — the round-0 proposer of height 1 — runs
// behind a ByzantineTransport, so every adversarial behaviour is on at once
// (equivocating proposals, double votes, forged votes, junk sync), signing
// its conflicting
// messages with its REAL key. The honest majority must detect the
// equivocation, permanently mask the node, reject the forgeries, and still
// commit the full workload with exact P1-P9 conformance against the
// fault-free reference.
TEST(ConsensusByzantine, EquivocatingNodeIsMaskedAndSurvivorsStayConformant) {
  LoopbackCluster cl(runner::Algorithm::kVanilla);
  cl.start(byzantine_node(1));

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
    const ConsensusLedger& c = cl.hosts[i]->ledger();
    equivocations += c.equivocations_detected();
    sig_rejects += c.vote_sig_rejects();
    bad += cl.hosts[i]->bad_frames();
    if (c.masked(1)) {
      ++masked_at;
      ASSERT_FALSE(c.evidence().empty());
      EXPECT_EQ(c.evidence().front().node, 1u);
    }
    EXPECT_FALSE(c.masked(i)) << "honest node " << i << " masked itself";
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

/// Records every proposal and vote its node sends.
class ConsensusFrameTap final : public ForwardingTransport {
 public:
  using ForwardingTransport::ForwardingTransport;

  bool send(EndpointId to, wire::MsgType type, codec::ByteView payload) override {
    if (type == wire::MsgType::kProposal || type == wire::MsgType::kPrevote ||
        type == wire::MsgType::kPrecommit) {
      sent.emplace_back(type, codec::Bytes(payload.begin(), payload.end()));
    }
    return inner_.send(to, type, payload);
  }

  std::vector<std::pair<wire::MsgType, codec::Bytes>> sent;
};

// The adversary is a transport decorator, so nothing in the ledger can make
// an honest node equivocate — pin that on the wire. In the Byzantine
// scenario above, every frame the honest nodes send is tapped: each signs at
// most one hash per (height, round, vote kind), and every proposal it
// authors for one height is byte-identical. (Relaying the lowest-hash
// proposal of ANOTHER proposer may change over a height; that is not
// equivocation and is not checked.)
TEST(ConsensusByzantine, HonestNodesNeverEquivocate) {
  LoopbackCluster cl(runner::Algorithm::kVanilla);
  std::map<std::uint32_t, const ConsensusFrameTap*> taps;
  cl.start([&](const NodeHostConfig& c, ITransport& t) -> std::unique_ptr<ITransport> {
    if (c.id == 1) return std::make_unique<ByzantineTransport>(t, c);
    auto tap = std::make_unique<ConsensusFrameTap>(t);
    taps[c.id] = tap.get();
    return tap;
  });

  const std::vector<std::uint32_t> byz = {1};
  const auto elements = make_workload(cl.cfg, 24, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_EQ(accepted.size(), elements.size());
  // Not fatal: an equivocating honest node stalls the cluster, and the
  // checks below then name the frames that did it.
  EXPECT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted, byz); }))
      << "honest epoch-proof traffic never quiesced";

  std::size_t authored_total = 0;
  for (const auto& [node, tap] : taps) {
    SCOPED_TRACE("honest node " + std::to_string(node));
    using VoteKey = std::tuple<std::uint64_t, std::uint32_t, wire::MsgType>;
    std::map<VoteKey, std::set<wire::ProposalHash>> vote_hashes;
    std::map<std::uint64_t, codec::Bytes> authored;  ///< height -> first payload
    for (const auto& [type, payload] : tap->sent) {
      if (type == wire::MsgType::kProposal) {
        const auto v = wire::parse_signed_proposal_view(payload);
        ASSERT_TRUE(v.has_value());
        if (v->block.proposer != node) continue;
        const auto [it, first] = authored.try_emplace(v->block.height, payload);
        EXPECT_TRUE(first || it->second == payload)
            << "two different payloads authored for height " << v->block.height;
        continue;
      }
      const auto m = wire::parse_vote(payload);
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->voter, node) << "an honest node sent a vote in another's name";
      vote_hashes[{m->height, m->round, type}].insert(m->hash);
    }
    EXPECT_FALSE(vote_hashes.empty()) << "the tap saw no votes — the check is vacuous";
    for (const auto& [key, hashes] : vote_hashes) {
      EXPECT_EQ(hashes.size(), 1u)
          << "height " << std::get<0>(key) << " round " << std::get<1>(key) << " "
          << wire::type_name(std::get<2>(key)) << ": " << hashes.size()
          << " hashes signed";
    }
    authored_total += authored.size();
  }
  EXPECT_GT(authored_total, 0u) << "no honest node ever proposed — the check is vacuous";
}

// Vote-equivocation bookkeeping, driven by hand-signed frames (the shared
// test seed lets the harness sign as any node): the second conflicting vote
// masks exactly once with one evidence record, further conflicts are inert,
// round spam is clamped to a bounded number of tracked rounds, and the
// masked set survives a state-snapshot round trip (consensus state v2).
TEST(ConsensusByzantine, VoteEquivocationMasksOnceAndBoundsBookkeeping) {
  LoopbackCluster cl(runner::Algorithm::kVanilla);
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
  const ConsensusLedger& c0 = cl.hosts[0]->ledger();
  EXPECT_EQ(c0.equivocations_detected(), 1u);
  EXPECT_TRUE(c0.masked(1));
  EXPECT_EQ(c0.masked_count(), 1u);
  ASSERT_EQ(c0.evidence().size(), 1u);
  EXPECT_EQ(c0.evidence()[0].node, 1u);
  EXPECT_EQ(c0.evidence()[0].kind, 0u);  // conflicting votes

  // Masking is permanent and idempotent: a third conflicting vote changes
  // nothing (it is dropped before it even reaches signature verification).
  send_prevote(1, 1, 0, 0x33);
  cl.pump_seconds(1);
  EXPECT_EQ(c0.equivocations_detected(), 1u);
  EXPECT_EQ(c0.evidence().size(), 1u);

  // Round spam: node 2 names rounds 0..63 of the active height. Before the
  // per-voter slot rework this grew a per-(round, hash) entry for every
  // named round; now at most current_round + 8 lookahead rounds are
  // tracked, one fixed-size slot vector each.
  for (std::uint32_t r = 0; r < 64; ++r) send_prevote(2, 1, r, 0x44);
  cl.pump_seconds(1);
  EXPECT_GE(c0.vote_rounds_tracked(), 1u);
  // The local round may have drifted a little (idle skip quorums), but 64
  // named rounds must never mean 64 tracked rounds.
  EXPECT_LE(c0.vote_rounds_tracked(), c0.current_round() + 9u);

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

// Future-height intake: exactly ONE height of lookahead is buffered — one
// slot per voter per vote frame type, one slot per proposer for proposals;
// anything further ahead is dropped and counted. A proposal's signature is
// checked before it takes a slot, so a forgery is refused (and blames its
// sender) instead of squatting. The buffered claims are held on commit and
// must not wedge a later workload.
TEST(ConsensusByzantine, FutureHeightIntakeBuffersOneHeightOnly) {
  LoopbackCluster cl(runner::Algorithm::kVanilla);
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
  // Proposer 3's block for `height` (one junk tx when `tagged`, so the two
  // payloads differ), signed with `signer`'s key and relayed by node 2.
  const auto send_proposal = [&](std::uint64_t height, bool tagged,
                                 std::uint32_t signer) {
    ledger::Transaction junk;
    junk.data = {0xEE};
    junk.wire_size = 1;
    std::vector<const ledger::Transaction*> txs;
    if (tagged) txs.push_back(&junk);
    const codec::Bytes block = wire::encode_block(height, 3, txs);
    const codec::Bytes raw = wire::encode_signed_proposal(
        block, cl.pki.sign(signer, wire::proposal_transcript(cluster, block)));
    cl.hub.transport(2).send(0, wire::MsgType::kProposal, raw);
  };

  // Active height is 1: height-2 frames park in the buffer (the duplicate
  // prevote takes no second slot), the height-3 frames are dropped.
  send_signed(2);
  send_signed(2);
  send_signed(3);
  wire::RoundSkipMsg skip{2, 0, 2, {}};
  skip.sig = cl.pki.sign(2, wire::round_skip_transcript(cluster, 2, 0));
  cl.hub.transport(2).send(0, wire::MsgType::kRoundSkip,
                           wire::encode_round_skip(skip));
  // The forgery goes first, while proposer 3's slot is still empty.
  send_proposal(2, /*tagged=*/false, /*signer=*/2);
  cl.pump_seconds(1);
  const std::uint64_t bad_after_forgery = cl.hosts[0]->bad_frames();
  send_proposal(2, /*tagged=*/false, /*signer=*/3);
  send_proposal(2, /*tagged=*/true, /*signer=*/3);
  send_proposal(3, /*tagged=*/false, /*signer=*/3);
  cl.pump_seconds(1);

  const ConsensusLedger& c0 = cl.hosts[0]->ledger();
  EXPECT_EQ(c0.votes_buffered(), 2u);  // one prevote slot + one skip slot
  EXPECT_EQ(c0.votes_dropped_ahead(), 1u);
  EXPECT_EQ(bad_after_forgery, 1u) << "the forged proposal was not refused at intake";
  EXPECT_EQ(cl.hosts[0]->bad_frames(), bad_after_forgery);
  EXPECT_EQ(c0.proposals_buffered(), 1u) << "proposer 3 took more than one slot";
  EXPECT_EQ(c0.proposals_dropped_ahead(), 1u);

  const auto elements = make_workload(cl.cfg, 8, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }));
}

/// Holds back its node's kPrecommit frames to node 0 by `delay` of virtual
/// time; every other frame goes out at once.
class PrecommitsToNode0Delayed final : public ForwardingTransport {
 public:
  PrecommitsToNode0Delayed(ITransport& inner, sim::Simulation& sim, sim::Time delay)
      : ForwardingTransport(inner), sim_(sim), delay_(delay) {}

  bool send(EndpointId to, wire::MsgType type, codec::ByteView payload) override {
    if (to != 0 || type != wire::MsgType::kPrecommit) return inner_.send(to, type, payload);
    sim_.schedule_in(delay_, [this, to, type, bytes = codec::Bytes(payload.begin(),
                                                                   payload.end())] {
      inner_.send(to, type, bytes);
    });
    return true;
  }

 private:
  sim::Simulation& sim_;
  sim::Time delay_;
};

/// Node 0's inbound tap: the heights whose proposal reached it while it had
/// not yet committed the height before (its active height was one behind).
class EarlyProposalTap final : public ForwardingTransport {
 public:
  EarlyProposalTap(ITransport& inner, const LoopbackCluster& cl)
      : ForwardingTransport(inner), cl_(cl) {}

  void set_handler(FrameHandler handler) override {
    inner_.set_handler([this, handler = std::move(handler)](EndpointId from,
                                                            wire::Frame&& f) {
      if (f.type == wire::MsgType::kProposal) {
        const auto v = wire::parse_signed_proposal_view(f.payload);
        if (v && v->block.height == cl_.hosts[0]->ledger().height() + 2) {
          early.insert(v->block.height);
        }
      }
      handler(from, std::move(f));
    });
  }
  bool send(EndpointId to, wire::MsgType type, codec::ByteView payload) override {
    return inner_.send(to, type, payload);
  }

  std::set<std::uint64_t> early;

 private:
  const LoopbackCluster& cl_;
};

// The next-height proposal lookahead. On 1 ms links, nodes 1-3 hold back
// their precommits to node 0 by 2 ms, so they commit each height first and
// H+1's proposer seals at once: H+1's proposal reaches node 0 before node 0
// has committed H, yet node 0 stays less than one height (three hops)
// behind. Node 0 must hold that proposal and commit H+1 right after H, not
// drop it and wait for a retransmit or a sync pull.
TEST(ConsensusLookahead, NextHeightProposalCommitsWithoutRetransmitWait) {
  LoopbackCluster cl(runner::Algorithm::kVanilla, /*seed=*/42, /*n=*/4,
                     /*link_latency=*/sim::from_millis(1));
  const EarlyProposalTap* tap = nullptr;
  cl.start([&](const NodeHostConfig& c, ITransport& t) -> std::unique_ptr<ITransport> {
    if (c.id == 0) {
      auto w = std::make_unique<EarlyProposalTap>(t, cl);
      tap = w.get();
      return w;
    }
    return std::make_unique<PrecommitsToNode0Delayed>(t, cl.sim, sim::from_millis(2));
  });
  std::map<std::uint64_t, sim::Time> committed_at;  ///< node 0: height -> time
  cl.hosts[0]->ledger().set_commit_hook(
      [&](std::uint64_t height, codec::ByteView) { committed_at[height] = cl.sim.now(); });

  // A steady trickle keeps the pool non-empty, so each commit lets the next
  // proposer seal at once.
  const auto elements = make_workload(cl.cfg, 40, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  std::vector<core::ElementId> accepted;
  for (const core::Element& e : elements) {
    const auto more = drive(client, {e});
    accepted.insert(accepted.end(), more.begin(), more.end());
    cl.pump_seconds(0.02);
  }
  ASSERT_EQ(accepted.size(), elements.size());
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }));
  ASSERT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted); }));

  ASSERT_NE(tap, nullptr);
  ASSERT_FALSE(tap->early.empty()) << "no proposal ever arrived a height early";
  const ConsensusLedger& c0 = cl.hosts[0]->ledger();
  EXPECT_GT(c0.proposals_buffered(), 0u);
  // A dropped proposal costs a retransmit or sync wait (hundreds of ms); a
  // held one commits one height, three 1 ms hops, after the one before.
  for (const std::uint64_t h : tap->early) {
    ASSERT_TRUE(committed_at.contains(h - 1) && committed_at.contains(h)) << h;
    const sim::Time gap = committed_at[h] - committed_at[h - 1];
    EXPECT_LT(gap, cl.cfg.retry_interval)
        << "height " << h << " waited " << sim::to_millis(gap) << " ms after height "
        << h - 1 << " although its proposal had arrived early";
  }

  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(), reference,
                                   "vanilla/proposal-lookahead");
}

// Random bit-flips on the server<->server links (the kCorrupt fault): every
// corrupted frame must die in a parser, a signature check, or the element
// validators — never in committed state. Conformance against the fault-free
// reference proves it.
TEST(ConsensusRobustness, CorruptedFramesDoNotBreakConformance) {
  LoopbackCluster cl(runner::Algorithm::kVanilla);
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
  LoopbackCluster cl(runner::Algorithm::kVanilla);
  cl.start();

  const codec::Bytes junk = codec::to_bytes("not a certified block");
  std::vector<codec::ByteView> blocks{codec::ByteView(junk)};
  cl.hub.transport(2).send(0, wire::MsgType::kBlockSyncResponse,
                           wire::encode_block_sync_response(blocks));
  cl.pump_seconds(1);
  const ConsensusLedger& c0 = cl.hosts[0]->ledger();
  EXPECT_EQ(c0.cert_rejects(), 1u);
  EXPECT_EQ(c0.height(), 0u);

  const auto elements = make_workload(cl.cfg, 8, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }));
}

// An opaque kTxSubmit of `bytes` data bytes claiming `claimed_size`, from
// node 3 to every other server: what a Byzantine member can inject.
void inject_opaque_tx(LoopbackCluster& cl, std::size_t bytes, std::uint32_t claimed_size,
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

// Node 0's committed txs, first commit of each content key, read off the
// certified payloads its commit hook sees (a live ledger keeps no tx table).
// `on_block` also gets each block's encoded size.
void record_committed_txs(LoopbackCluster& cl, std::vector<ledger::Transaction>& out,
                          std::function<void(std::size_t)> on_block = {}) {
  cl.hosts[0]->ledger().set_commit_hook(
      [&out, keys = std::set<std::string>{}, on_block = std::move(on_block)](
          std::uint64_t, codec::ByteView payload) mutable {
        const auto cert = wire::parse_certified_block(payload);
        ASSERT_TRUE(cert.has_value());
        auto prop = wire::parse_proposal(cert->proposal);
        ASSERT_TRUE(prop.has_value());
        if (on_block) on_block(prop->block_bytes_len);
        for (ledger::Transaction& tx : prop->block.txs) {
          if (keys.insert(tx_dedup_key(tx)).second) out.push_back(std::move(tx));
        }
      });
}

// Blocks are packed by encoded tx bytes, not by the sender-claimed
// wire_size: three 300 KB txs claiming one byte each must commit in three
// blocks, none of them over kMaxBlockBytes.
TEST(ConsensusRobustness, UnderclaimedTxSizesCannotOverfillABlock) {
  LoopbackCluster cl(runner::Algorithm::kVanilla);
  std::size_t largest_block = 0;
  std::vector<ledger::Transaction> txs;
  cl.start();
  record_committed_txs(cl, txs, [&](std::size_t block_bytes) {
    largest_block = std::max(largest_block, block_bytes);
  });
  for (std::uint8_t i = 0; i < 3; ++i) inject_opaque_tx(cl, 300'000, 1, i);

  const auto big_committed = [&] {
    std::size_t big = 0;
    for (const ledger::Transaction& tx : txs) {
      if (tx.data.size() == 300'000) ++big;
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
  LoopbackCluster cl(runner::Algorithm::kVanilla);
  std::vector<ledger::Transaction> txs;
  cl.start();
  record_committed_txs(cl, txs);
  inject_opaque_tx(cl, wire::kMaxPayloadBytes - 16, 1, 0x7E);

  const auto elements = make_workload(cl.cfg, 5, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }, 30))
      << "honest elements stalled behind an unblockable tx (height "
      << cl.hosts[0]->ledger().height() << ")";
  for (const ledger::Transaction& tx : txs) {
    EXPECT_LT(tx.data.size(), kMaxBlockBytes);
  }
}

// A node's transport with its outbound kTxSubmit frames cut during
// [from, to): the submit path, and only it, goes dark for a window.
class TxSubmitCut final : public ForwardingTransport {
 public:
  TxSubmitCut(ITransport& inner, sim::Simulation& sim, sim::Time from, sim::Time to)
      : ForwardingTransport(inner), sim_(sim), from_(from), to_(to) {}

  bool send(EndpointId to, wire::MsgType type, codec::ByteView payload) override {
    if (type == wire::MsgType::kTxSubmit && sim_.now() >= from_ && sim_.now() < to_) {
      ++cut_;
      return true;  // lost in flight: the sender cannot tell
    }
    return inner_.send(to, type, payload);
  }
  std::uint64_t cut() const { return cut_; }

 private:
  sim::Simulation& sim_;
  sim::Time from_;
  sim::Time to_;
  std::uint64_t cut_ = 0;
};

// Own-submission retransmission: node 2's kTxSubmit stream is severed
// mid-flight for 2.4 s, and every element is added through node 2 alone, so
// its submits are the only way into a block (node 2 pools them too, but
// height 1 is node 1's to propose, and the round timeout outlasts the test,
// so no round skip hands node 2 a turn). Commits must come from
// capped-backoff retransmission — a lost submit was once silently gone and
// the element never committed.
TEST(OwnSubmitResubmission, LostSubmitWindowHealsByRetransmission) {
  LoopbackCluster cl(runner::Algorithm::kVanilla);
  cl.cfg.retry_interval = sim::from_millis(300);
  cl.cfg.timeout_propose = sim::from_seconds(120);
  const TxSubmitCut* node2_transport = nullptr;
  cl.start([&](const NodeHostConfig& c, ITransport& t) -> std::unique_ptr<ITransport> {
    if (c.id != 2) return nullptr;
    auto cut = std::make_unique<TxSubmitCut>(t, cl.sim, sim::from_millis(100),
                                             sim::from_millis(2500));
    node2_transport = cut.get();
    return cut;
  });

  RemoteNode node2(std::make_unique<LoopbackRpcChannel>(cl.hub, 2), 2);
  const auto elements = make_workload(cl.cfg, 8, cl.pki);
  cl.sim.run_until(cl.sim.now() + sim::from_millis(150));  // enter the cut window
  for (const auto& e : elements) EXPECT_TRUE(node2.add(e));

  cl.pump_until([&] { return cl.consolidated(elements.size()); }, 60);
  EXPECT_GT(node2_transport->cut(), 0u)
      << "the cut window never saw a submit — the regression is untested";
  EXPECT_TRUE(cl.consolidated(elements.size()))
      << "elements submitted through the severed link never committed";
  const auto safety = core::check_safety(cl.servers());
  EXPECT_TRUE(safety.ok()) << safety.to_string();
}

}  // namespace
}  // namespace setchain::net
