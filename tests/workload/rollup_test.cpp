// Optimistic-rollup workload tier: artifact codecs round-trip and reject
// foreign tags, the pre-signed tx pool stripes nonce-ordered traffic, and —
// against a live 4-node TCP cluster — an honest operator's commitments all
// consolidate and verify, while a dishonest operator's corrupted commitment
// is proven fraudulent inside the epoch-barrier fraud window. After each
// live run the cluster is frozen and the Setchain P1–P9 properties are
// checked white-box over every node.
#include "workload/rollup.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <unordered_set>

#include "api/quorum_client.hpp"
#include "core/invariants.hpp"
#include "exec/token_tx.hpp"
#include "load/local_cluster.hpp"
#include "net/remote_node.hpp"

namespace setchain::workload::rollup {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------ codec tests

TEST(RollupCodec, CommitmentRoundTrips) {
  Commitment c;
  c.epoch = 7781;
  for (std::size_t i = 0; i < c.root.size(); ++i) {
    c.root[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  const auto bytes = encode_commitment(c);
  const auto back = parse_commitment(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, c.epoch);
  EXPECT_EQ(back->root, c.root);
}

TEST(RollupCodec, FraudProofRoundTrips) {
  FraudProof f;
  f.accused = (42ull << 40) | 7;
  f.epoch = 99;
  f.claimed.fill(0xAA);
  f.correct.fill(0xBB);
  const auto bytes = encode_fraud_proof(f);
  const auto back = parse_fraud_proof(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->accused, f.accused);
  EXPECT_EQ(back->epoch, f.epoch);
  EXPECT_EQ(back->claimed, f.claimed);
  EXPECT_EQ(back->correct, f.correct);
}

TEST(RollupCodec, TagsAreMutuallyExclusive) {
  Commitment c;
  c.epoch = 1;
  const auto commit_bytes = encode_commitment(c);
  EXPECT_FALSE(parse_fraud_proof(commit_bytes).has_value());
  FraudProof f;
  const auto fraud_bytes = encode_fraud_proof(f);
  EXPECT_FALSE(parse_commitment(fraud_bytes).has_value());
  // A token tx is neither.
  EXPECT_FALSE(parse_commitment(codec::Bytes{exec::kTokenTxTag}).has_value());
  EXPECT_FALSE(parse_fraud_proof(codec::Bytes{}).has_value());
}

// ------------------------------------------------------------- pool tests

TEST(TxPool, StripedNonceOrderPerSession) {
  crypto::Pki pki(42);
  for (crypto::ProcessId p = 0; p < 16; ++p) pki.register_process(p);

  TxPoolConfig cfg;
  cfg.sessions = 4;
  cfg.budget = 200;
  cfg.first_client = 4;
  cfg.client_span = 8;
  cfg.seed = 9;
  const TxPool pool = build_tx_pool(cfg, pki);

  ASSERT_EQ(pool.elements.size(), cfg.budget);
  ASSERT_EQ(pool.accounts.size(), cfg.sessions);
  ASSERT_EQ(pool.index.size(), cfg.budget);  // ids unique

  for (std::size_t i = 0; i < pool.elements.size(); ++i) {
    EXPECT_EQ(pool.index.at(pool.elements[i].id), i);
  }

  // Within a session's stripe the txs spend one account with increasing
  // nonces — the property that lets one TCP connection preserve exec order.
  for (std::uint32_t s = 0; s < cfg.sessions; ++s) {
    std::uint64_t expect_nonce = 0;
    for (std::size_t i = s; i < pool.elements.size(); i += cfg.sessions) {
      const auto tx = exec::parse_token_tx(pool.elements[i].payload);
      ASSERT_TRUE(tx.has_value()) << "pool element is not a token tx";
      EXPECT_EQ(tx->from, pool.accounts[s]);
      EXPECT_EQ(tx->nonce, expect_nonce++);
    }
  }
}

// --------------------------------------------------------- live-cluster tier

struct LiveRollup {
  net::NodeHostConfig cfg;
  load::LocalCluster cluster;
  crypto::Pki pki;
  TxPool pool;

  static net::NodeHostConfig make_config() {
    net::NodeHostConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.algorithm = runner::Algorithm::kHashchain;
    cfg.seed = 42;
    cfg.collector_limit = 64;
    cfg.collector_timeout = sim::from_millis(50);
    cfg.block_interval = sim::from_millis(50);
    cfg.sync_interval = sim::from_millis(400);
    return cfg;
  }

  LiveRollup() : cfg(make_config()), cluster(cfg), pki(cfg.seed) {
    for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
      pki.register_process(p);
    }
    TxPoolConfig pc;
    pc.sessions = 8;
    pc.budget = 240;
    pc.first_client = cfg.n;
    pc.client_span = cfg.client_slots - 2;
    pc.seed = cfg.seed;
    pool = build_tx_pool(pc, pki);
  }

  RollupConfig rollup_config() const {
    RollupConfig rc;
    rc.f = cfg.f;
    rc.operator_client = cfg.n + cfg.client_slots - 2;
    rc.verifier_client = cfg.n + cfg.client_slots - 1;
    return rc;
  }

  /// Drive the whole pool through the fleet while the harness runs, then
  /// settle and return the report (cluster left running).
  RollupReport run(const RollupConfig& rc) {
    cluster.start();
    std::this_thread::sleep_for(300ms);

    load::FleetConfig fc;
    fc.targets = cluster.targets();
    fc.cluster = cluster.cluster_id();
    fc.sessions = pool.cfg.sessions;
    fc.window = 32;
    load::LoadFleet fleet(fc);
    EXPECT_EQ(fleet.connect(), fc.sessions);

    RollupHarness harness(cluster.targets(), cluster.cluster_id(), pki, pool,
                          rc);
    harness.start();

    // Rate * duration comfortably exceeds the pool so every tx is offered;
    // surplus arrivals park against the exhausted source.
    load::PooledElementSource source(pool.elements, fc.sessions);
    load::ArrivalConfig arrival;
    arrival.kind = load::ArrivalKind::kPoisson;
    arrival.rate = 200.0;
    arrival.seed = 5;
    const load::PhaseStats st =
        fleet.run_phase(source, arrival, 2.0);
    fleet.close();

    EXPECT_EQ(st.sent, pool.elements.size()) << "pool not fully offered";
    EXPECT_EQ(st.accepted, pool.elements.size());
    EXPECT_EQ(st.decode_errors, 0u);

    return harness.finish();
  }

  /// Freeze the cluster and run the white-box P1–P9 checks: safety on every
  /// node, liveness at quiescence over the accepted population, and
  /// add-before-get over everything any client ever created.
  void check_properties(const RollupReport& report) {
    // Wait for epoch proofs to drain everywhere (the signal behind P8)
    // before freezing, exactly like the tcp_cluster conformance tests.
    std::vector<std::unique_ptr<net::RemoteNode>> stubs;
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      net::TcpRpcChannel::Config ch;
      ch.host = "127.0.0.1";
      ch.port = cluster.port(i);
      ch.client_id = cfg.n;
      ch.cluster = cluster.cluster_id();
      stubs.push_back(std::make_unique<net::RemoteNode>(
          std::make_unique<net::TcpRpcChannel>(ch), i, 3000ms));
    }
    api::QuorumClient client = api::make_quorum_client(
        stubs, pki, cfg.f, core::Fidelity::kFull, api::WritePolicy::kAll);

    std::vector<core::ElementId> accepted;
    for (const auto& e : pool.elements) accepted.push_back(e.id);
    std::unordered_set<core::ElementId> created(accepted.begin(),
                                                accepted.end());
    for (const auto& cs : report.commitments) {
      accepted.push_back(cs.element);
      created.insert(cs.element);
      if (cs.fraud_element != 0) {
        accepted.push_back(cs.fraud_element);
        created.insert(cs.fraud_element);
      }
    }

    const auto deadline = std::chrono::steady_clock::now() + 60s;
    const auto wait_for = [&](const std::function<bool()>& pred) {
      while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(100ms);
      }
      return pred();
    };
    ASSERT_TRUE(wait_for([&] {
      const auto view = client.get();
      for (const auto id : accepted) {
        if (!view.the_set.contains(id)) return false;
      }
      return view.epoch > 0;
    })) << "quorum view never covered the rollup workload";
    ASSERT_TRUE(wait_for([&] {
      const auto view = client.get();
      for (auto& stub : stubs) {
        for (std::uint64_t e = 1; e <= view.epoch; ++e) {
          if (stub->proofs_for_epoch(e).size() < cfg.f + 1) return false;
        }
      }
      return true;
    })) << "epoch proofs never drained to every node";

    cluster.shutdown();

    std::vector<const core::SetchainServer*> servers;
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      servers.push_back(&cluster.host(i).server());
    }
    const auto safety = core::check_safety(servers);
    EXPECT_TRUE(safety.ok()) << safety.to_string();
    const auto liveness = core::check_liveness_quiescent(
        servers, accepted, cluster.host(0).params(), cluster.host(0).pki());
    EXPECT_TRUE(liveness.ok()) << liveness.to_string();
    const auto provenance = core::check_add_before_get(servers, created);
    EXPECT_TRUE(provenance.ok()) << provenance.to_string();
  }
};

TEST(RollupWorkload, HonestOperatorCommitsEveryEpochAndSettles) {
  LiveRollup live;
  const RollupConfig rc = live.rollup_config();
  const RollupReport report = live.run(rc);

  EXPECT_TRUE(report.ok(rc)) << "honest rollup verdict failed";
  EXPECT_EQ(report.txs_executed, live.pool.elements.size());
  EXPECT_TRUE(report.roots_agree);
  EXPECT_FALSE(report.unknown_ids);
  // Every epoch that carried L2 traffic got a commitment, every commitment
  // consolidated and verified, none was contested.
  EXPECT_GT(report.commitments_posted, 0u);
  EXPECT_EQ(report.commitments_consolidated, report.commitments_posted);
  EXPECT_EQ(report.commitments_ok, report.commitments_posted);
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_EQ(report.fraud_proofs_posted, 0u);
  std::unordered_set<std::uint64_t> committed_epochs;
  for (const auto& cs : report.commitments) {
    EXPECT_TRUE(committed_epochs.insert(cs.epoch).second)
        << "duplicate commitment for epoch " << cs.epoch;
  }

  live.check_properties(report);
}

TEST(RollupWorkload, DishonestOperatorIsCaughtInsideTheWindow) {
  LiveRollup live;
  RollupConfig rc = live.rollup_config();
  rc.dishonest = true;
  rc.corrupt_commit_index = 1;
  const RollupReport report = live.run(rc);

  EXPECT_TRUE(report.ok(rc)) << "dishonest rollup verdict failed";
  // Exactly one commitment lied; the verifier posted exactly one fraud
  // proof, it consolidated, and it landed inside the epoch-barrier window.
  EXPECT_EQ(report.mismatches, 1u);
  EXPECT_EQ(report.fraud_proofs_posted, 1u);
  EXPECT_EQ(report.fraud_proofs_consolidated, 1u);
  EXPECT_EQ(report.frauds_caught_in_window, 1u);
  EXPECT_GT(report.max_fraud_detect_epochs, 0u);
  EXPECT_LE(report.max_fraud_detect_epochs, rc.fraud_window);
  // The lie never corrupted the honest replicas: both executors re-executed
  // identically from consolidated data.
  EXPECT_TRUE(report.roots_agree);
  EXPECT_EQ(report.commitments_ok, report.commitments_consolidated - 1);

  live.check_properties(report);
}

}  // namespace
}  // namespace setchain::workload::rollup
