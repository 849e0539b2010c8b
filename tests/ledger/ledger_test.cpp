#include <gtest/gtest.h>

#include "ledger/consensus.hpp"
#include "ledger/ledger_node.hpp"
#include "ledger/mempool.hpp"

namespace setchain::ledger {
namespace {

Transaction make_tx(std::uint32_t size, TxKind kind = TxKind::kElement) {
  Transaction tx;
  tx.kind = kind;
  tx.wire_size = size;
  tx.app = std::make_shared<int>(0);  // non-null marker
  return tx;
}

// ------------------------------------------------------------------- Mempool

TEST(Mempool, AddDedupsByIndex) {
  TxTable table;
  Mempool mp;
  const TxIdx idx = table.add(make_tx(100));
  EXPECT_TRUE(mp.add(idx, table.get(idx)));
  EXPECT_FALSE(mp.add(idx, table.get(idx)));
  EXPECT_EQ(mp.pending_count(), 1u);
  EXPECT_EQ(mp.pending_bytes(), 100u);
}

TEST(Mempool, CommittedTxNeverReenters) {
  TxTable table;
  Mempool mp;
  const TxIdx idx = table.add(make_tx(50));
  mp.mark_committed(idx, table.get(idx));  // committed before ever seen
  EXPECT_FALSE(mp.add(idx, table.get(idx)));
  EXPECT_EQ(mp.pending_count(), 0u);
}

TEST(Mempool, MarkCommittedRemovesPending) {
  TxTable table;
  Mempool mp;
  const TxIdx a = table.add(make_tx(10));
  const TxIdx b = table.add(make_tx(20));
  mp.add(a, table.get(a));
  mp.add(b, table.get(b));
  mp.mark_committed(a, table.get(a));
  EXPECT_EQ(mp.pending_count(), 1u);
  EXPECT_EQ(mp.pending_bytes(), 20u);
  const auto reaped = mp.reap(table, 1000);
  EXPECT_EQ(reaped, std::vector<TxIdx>{b});
}

TEST(Mempool, CapacityLimits) {
  TxTable table;
  MempoolConfig cfg;
  cfg.max_txs = 2;
  cfg.max_bytes = 1000;
  Mempool mp(cfg);
  const TxIdx a = table.add(make_tx(400));
  const TxIdx b = table.add(make_tx(400));
  const TxIdx c = table.add(make_tx(400));  // bytes overflow
  EXPECT_TRUE(mp.add(a, table.get(a)));
  EXPECT_TRUE(mp.add(b, table.get(b)));
  EXPECT_FALSE(mp.add(c, table.get(c)));
  EXPECT_EQ(mp.rejected_capacity(), 1u);

  MempoolConfig cfg2;
  cfg2.max_txs = 1;
  Mempool mp2(cfg2);
  const TxIdx d = table.add(make_tx(1));
  const TxIdx e = table.add(make_tx(1));
  EXPECT_TRUE(mp2.add(d, table.get(d)));
  EXPECT_FALSE(mp2.add(e, table.get(e)));  // count overflow
}

TEST(Mempool, ReapRespectsByteBudgetFifo) {
  TxTable table;
  Mempool mp;
  std::vector<TxIdx> idxs;
  for (int i = 0; i < 5; ++i) {
    const TxIdx idx = table.add(make_tx(100));
    idxs.push_back(idx);
    mp.add(idx, table.get(idx));
  }
  const auto reaped = mp.reap(table, 250);
  EXPECT_EQ(reaped, (std::vector<TxIdx>{idxs[0], idxs[1]}));
}

TEST(Mempool, ReapSkipsExcluded) {
  TxTable table;
  Mempool mp;
  const TxIdx a = table.add(make_tx(100));
  const TxIdx b = table.add(make_tx(100));
  mp.add(a, table.get(a));
  mp.add(b, table.get(b));
  std::vector<bool> exclude(2, false);
  exclude[a] = true;
  EXPECT_EQ(mp.reap(table, 1000, &exclude), std::vector<TxIdx>{b});
}

TEST(Mempool, OversizedSingleTxIsSkippedNotBlocking) {
  TxTable table;
  Mempool mp;
  const TxIdx big = table.add(make_tx(5000));
  const TxIdx small = table.add(make_tx(10));
  mp.add(big, table.get(big));
  mp.add(small, table.get(small));
  // A tx larger than the block must not wedge the queue forever.
  EXPECT_EQ(mp.reap(table, 1000), std::vector<TxIdx>{small});
}

// ------------------------------------------------------------- InstantLedger

TEST(InstantLedger, DeliversSameBlocksToAllNodes) {
  InstantLedger ledger(3);
  std::vector<std::vector<std::uint64_t>> seen(3);
  for (std::uint32_t node = 0; node < 3; ++node) {
    ledger.on_new_block(node, [&seen, node](const Block& b) {
      seen[node].push_back(b.height);
    });
  }
  ledger.append(0, make_tx(10));
  ledger.append(1, make_tx(10));
  ledger.seal_block();
  ledger.append(2, make_tx(10));
  ledger.seal_block();
  EXPECT_FALSE(ledger.seal_block());  // nothing pending
  for (const auto& s : seen) EXPECT_EQ(s, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(ledger.height(), 2u);
  EXPECT_EQ(ledger.block_at(1).txs.size(), 2u);
}

TEST(InstantLedger, RespectsBlockCapacity) {
  InstantLedger ledger(1, /*max_block_bytes=*/250);
  for (int i = 0; i < 5; ++i) ledger.append(0, make_tx(100));
  ledger.seal_all();
  EXPECT_EQ(ledger.height(), 3u);  // 2+2+1
  EXPECT_EQ(ledger.block_at(1).txs.size(), 2u);
  EXPECT_EQ(ledger.block_at(3).txs.size(), 1u);
}

// --------------------------------------------------------------- CometbftSim

struct Harness {
  sim::Simulation sim;
  sim::Network net;
  std::vector<sim::BusyResource> cpus;
  std::unique_ptr<CometbftSim> ledger;

  explicit Harness(std::uint32_t n, ConsensusConfig cfg = {}, LedgerHooks hooks = {},
                   sim::NetworkConfig ncfg = {})
      : net(sim, n, ncfg, 7), cpus(n) {
    cfg.n = n;
    ledger = std::make_unique<CometbftSim>(sim, net, cpus, cfg, std::move(hooks));
  }
};

TEST(CometbftSim, ProducesBlocksAtConfiguredRate) {
  std::vector<sim::Time> commit_times;
  ConsensusConfig cfg;
  cfg.block_interval = sim::from_seconds(1.25);
  LedgerHooks hk;
  hk.on_block_committed = [&commit_times](const Block&, sim::Time t) {
    commit_times.push_back(t);
  };
  Harness h2(4, cfg, std::move(hk));
  h2.ledger->start();
  // Feed a steady trickle so every interval has transactions.
  for (int i = 0; i < 40; ++i) {
    h2.sim.schedule_at(sim::from_seconds(0.2 * i), [&h2] {
      h2.ledger->append(0, make_tx(200));
    });
  }
  h2.sim.run_until(sim::from_seconds(12));
  // ~0.8 blocks/s over ~9 s of traffic: expect 6-9 blocks.
  EXPECT_GE(commit_times.size(), 5u);
  EXPECT_LE(commit_times.size(), 10u);
  for (std::size_t i = 1; i < commit_times.size(); ++i) {
    EXPECT_GE(commit_times[i] - commit_times[i - 1], sim::from_seconds(1.2));
  }
}

TEST(CometbftSim, AllNodesSeeSameBlocksInOrder) {
  ConsensusConfig cfg;
  Harness h(4, cfg);
  std::vector<std::vector<std::uint64_t>> heights(4);
  for (std::uint32_t node = 0; node < 4; ++node) {
    h.ledger->on_new_block(node, [&heights, node](const Block& b) {
      heights[node].push_back(b.height);
    });
  }
  h.ledger->start();
  for (int i = 0; i < 30; ++i) {
    h.sim.schedule_at(sim::from_seconds(0.3 * i), [&h, i] {
      h.ledger->append(static_cast<sim::NodeId>(i % 4), make_tx(150));
    });
  }
  h.sim.run_until(sim::from_seconds(60));
  ASSERT_FALSE(heights[0].empty());
  for (std::uint32_t node = 1; node < 4; ++node) {
    EXPECT_EQ(heights[node], heights[0]) << "node " << node;  // Property 10
  }
  for (std::size_t i = 0; i < heights[0].size(); ++i) {
    EXPECT_EQ(heights[0][i], i + 1);  // strictly sequential
  }
}

TEST(CometbftSim, EveryAppendedTxIsEventuallyInExactlyOneBlock) {
  Harness h(4);
  std::vector<int> seen_count;
  h.ledger->on_new_block(0, [&](const Block& b) {
    for (const Transaction* tx : b.txs) {
      if (tx->uid >= seen_count.size()) seen_count.resize(tx->uid + 1, 0);
      ++seen_count[tx->uid];
    }
  });
  h.ledger->start();
  const int kTxs = 100;
  for (int i = 0; i < kTxs; ++i) {
    h.sim.schedule_at(sim::from_seconds(0.05 * i), [&h, i] {
      h.ledger->append(static_cast<sim::NodeId>(i % 4), make_tx(300));
    });
  }
  h.sim.run_until(sim::from_seconds(120));
  ASSERT_EQ(seen_count.size(), static_cast<std::size_t>(kTxs));
  for (int i = 0; i < kTxs; ++i) {
    EXPECT_EQ(seen_count[static_cast<std::size_t>(i)], 1) << "tx " << i;  // P9 + uniqueness
  }
}

TEST(CometbftSim, BlockCapacityRespected) {
  ConsensusConfig cfg;
  cfg.max_block_bytes = 1000;
  Harness h(4, cfg);
  h.ledger->start();
  for (int i = 0; i < 20; ++i) h.ledger->append(0, make_tx(300));
  h.sim.run_until(sim::from_seconds(60));
  ASSERT_GT(h.ledger->height(), 1u);
  for (std::uint64_t ht = 1; ht <= h.ledger->height(); ++ht) {
    std::uint64_t bytes = 0;
    for (const Transaction* tx : h.ledger->block_at(ht).txs) bytes += tx->wire_size;
    EXPECT_LE(bytes, 1000u) << "height " << ht;
  }
}

TEST(CometbftSim, CheckTxFiltersInvalid) {
  LedgerHooks hooks;
  hooks.check_tx = [](const Transaction& tx) { return tx.kind != TxKind::kOpaque; };
  Harness h(4, {}, std::move(hooks));
  std::uint64_t committed_txs = 0;
  h.ledger->on_new_block(0, [&](const Block& b) { committed_txs += b.txs.size(); });
  h.ledger->start();
  h.ledger->append(0, make_tx(100, TxKind::kOpaque));   // rejected
  h.ledger->append(0, make_tx(100, TxKind::kElement));  // accepted
  h.sim.run_until(sim::from_seconds(30));
  EXPECT_EQ(committed_txs, 1u);
}

TEST(CometbftSim, MempoolArrivalHookFiresPerNode) {
  std::vector<std::pair<sim::NodeId, TxIdx>> arrivals;
  LedgerHooks hooks;
  hooks.on_mempool_add = [&](sim::NodeId node, TxIdx idx, sim::Time) {
    arrivals.emplace_back(node, idx);
  };
  Harness h(4, {}, std::move(hooks));
  h.ledger->start();
  h.ledger->append(2, make_tx(100));
  h.sim.run_until(sim::from_seconds(5));
  // One arrival per node (origin + 3 peers).
  EXPECT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(arrivals.front().first, 2u);  // origin first
}

TEST(CometbftSim, SilentProposerIsSkippedViaRoundChange) {
  ConsensusConfig cfg;
  cfg.timeout_propose = sim::from_seconds(2);
  Harness h(4, cfg);
  LedgerByzantineConfig byz;
  byz.silent_proposer = true;
  // Heights rotate proposers 1,2,3,0,...; make node 2 silent.
  h.ledger->set_byzantine(2, byz);
  std::vector<sim::NodeId> proposers;
  h.ledger->on_new_block(0, [&](const Block& b) { proposers.push_back(b.proposer); });
  h.ledger->start();
  for (int i = 0; i < 40; ++i) {
    h.sim.schedule_at(sim::from_seconds(0.5 * i), [&h] {
      h.ledger->append(0, make_tx(200));
    });
  }
  h.sim.run_until(sim::from_seconds(40));
  ASSERT_GE(proposers.size(), 5u);
  for (const auto p : proposers) EXPECT_NE(p, 2u);
  EXPECT_EQ(h.ledger->height(), proposers.size());  // chain still grows (liveness)
}

TEST(CometbftSim, ByzantineProposerInjectsGarbageThatAppsMustFilter) {
  ConsensusConfig cfg;
  Harness h(4, cfg);
  LedgerByzantineConfig byz;
  byz.garbage_txs_per_block = 2;
  byz.make_garbage = [] { return make_tx(66, TxKind::kOpaque); };
  h.ledger->set_byzantine(1, byz);
  std::uint64_t garbage_seen = 0, normal_seen = 0;
  h.ledger->on_new_block(3, [&](const Block& b) {
    for (const Transaction* tx : b.txs) {
      if (tx->kind == TxKind::kOpaque) {
        ++garbage_seen;
      } else {
        ++normal_seen;
      }
    }
  });
  h.ledger->start();
  for (int i = 0; i < 20; ++i) {
    h.sim.schedule_at(sim::from_seconds(0.5 * i), [&h] {
      h.ledger->append(0, make_tx(200));
    });
  }
  h.sim.run_until(sim::from_seconds(30));
  EXPECT_GT(garbage_seen, 0u);   // Byzantine proposer got junk in
  EXPECT_EQ(normal_seen, 20u);   // honest traffic unaffected
}

TEST(CometbftSim, NetworkDelaySlowsCommitButNotOrder) {
  sim::NetworkConfig ncfg;
  ncfg.extra_delay = sim::from_millis(100);
  ConsensusConfig cfg;
  std::vector<sim::Time> commit_times;
  LedgerHooks hooks;
  hooks.on_block_committed = [&](const Block& b, sim::Time t) {
    commit_times.push_back(t - b.proposed_at);
  };
  Harness h(4, cfg, std::move(hooks), ncfg);
  h.ledger->start();
  for (int i = 0; i < 10; ++i) {
    h.sim.schedule_at(sim::from_seconds(0.5 * i), [&h] {
      h.ledger->append(0, make_tx(100));
    });
  }
  h.sim.run_until(sim::from_seconds(30));
  ASSERT_FALSE(commit_times.empty());
  for (const auto dt : commit_times) {
    // Proposal + prevote + precommit legs each cross the network once:
    // ~3 * 100 ms of injected delay before commit (minus up to 5% jitter).
    EXPECT_GE(dt, sim::from_millis(250));
  }
}

TEST(CometbftSim, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Harness h(4);
    std::vector<std::pair<std::uint64_t, std::size_t>> trace;
    h.ledger->on_new_block(0, [&](const Block& b) {
      trace.emplace_back(b.height, b.txs.size());
    });
    h.ledger->start();
    for (int i = 0; i < 25; ++i) {
      h.sim.schedule_at(sim::from_seconds(0.17 * i), [&h, i] {
        h.ledger->append(static_cast<sim::NodeId>(i % 4), make_tx(100 + i));
      });
    }
    h.sim.run_until(sim::from_seconds(60));
    return std::make_pair(trace, h.sim.executed_events());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(CometbftSim, MempoolCapacityOverflowIsGracefullyDropped) {
  ConsensusConfig cfg;
  cfg.mempool.max_txs = 10;  // tiny pool
  Harness h(4, cfg);
  h.ledger->start();
  for (int i = 0; i < 50; ++i) h.ledger->append(0, make_tx(100));
  h.sim.run_until(sim::from_seconds(120));
  // Overflowing txs were rejected, the rest committed; no crash, no stall.
  EXPECT_GT(h.ledger->mempool(0).rejected_capacity(), 0u);
  EXPECT_GE(h.ledger->height(), 1u);
}

TEST(CometbftSim, QuiescesWhenNoTraffic) {
  Harness h(4);
  h.ledger->start();
  h.ledger->append(0, make_tx(100));
  h.sim.run_until(sim::from_seconds(600));
  // With create_empty_blocks=false the event queue drains after the last
  // block: the run ends long before the horizon.
  EXPECT_TRUE(h.ledger->idle());
  EXPECT_EQ(h.ledger->height(), 1u);
  EXPECT_TRUE(h.sim.empty());
}

}  // namespace
}  // namespace setchain::ledger
