#include "core/hashchain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "algo_fixture.hpp"

namespace setchain::core {
namespace {

using testing::AlgoHarness;

using HashHarness = AlgoHarness<HashchainServer>;

TEST(Hashchain, BatchAppendsFixedSizeHashBatch) {
  HashHarness h(4, 3);
  for (std::uint64_t i = 0; i < 3; ++i) h.servers[0]->add(h.make_element(0, i));
  ASSERT_EQ(h.ledger.pending(), 1u);
  const auto& tx = h.ledger.txs().get(0);
  EXPECT_EQ(tx.wire_size, kHashBatchWireSize);  // 139 bytes, not the batch
  EXPECT_EQ(h.servers[0]->hash_batches_appended(), 1u);
  EXPECT_EQ(h.servers[0]->store().size(), 1u);  // Register_batch happened
}

TEST(Hashchain, PeersFetchBatchAndCoSign) {
  HashHarness h(4, 2);
  h.servers[0]->add(h.make_element(0, 1));
  h.servers[0]->add(h.make_element(0, 2));
  h.ledger.seal_block();  // block 1: server0's hash-batch
  // Upon processing, the other three servers fetch the batch (sync in unit
  // tests) and append their own hash-batches.
  for (auto& s : h.servers) {
    EXPECT_EQ(s->store().size(), 1u) << "server " << s->id();
  }
  EXPECT_EQ(h.ledger.pending(), 3u);  // 3 co-signatures queued
  // Nobody consolidates yet: only 1 signer on the ledger, f+1 = 2 needed.
  for (auto& s : h.servers) EXPECT_EQ(s->epoch(), 0u);

  h.ledger.seal_block();  // block 2: the co-signatures land
  for (auto& s : h.servers) {
    EXPECT_EQ(s->epoch(), 1u) << "server " << s->id();
    EXPECT_EQ((*s->get().history)[0].count, 2u);
  }
}

TEST(Hashchain, FakeHashCausesFailedFetchesButNoBacklog) {
  // A hash announcement with no batch behind it sends every correct server
  // on a doomed fetch; the failure must be accounted (fetches_failed) and
  // must not leave anything in the consolidation queue.
  HashHarness h(4, 2);
  h.servers[3]->byz_announce_fake_hash();
  h.ledger.seal_block();
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_GE(h.servers[s]->fetches_started(), 1u) << "server " << s;
    EXPECT_GE(h.servers[s]->fetches_failed(), 1u) << "server " << s;
    EXPECT_EQ(h.servers[s]->consolidation_backlog(), 0u) << "server " << s;
    EXPECT_EQ(h.servers[s]->epoch(), 0u) << "server " << s;
  }
}

TEST(Hashchain, ConsolidationNeedsFPlusOneSigners) {
  HashHarness h(7, 2);  // f = 2 -> needs 3 signers
  h.servers[0]->add(h.make_element(0, 1));
  h.servers[0]->add(h.make_element(0, 2));
  h.ledger.seal_block();  // 1 signer
  for (auto& s : h.servers) EXPECT_EQ(s->epoch(), 0u);
  h.ledger.seal_block();  // 6 more signers land together -> consolidate
  for (auto& s : h.servers) EXPECT_EQ(s->epoch(), 1u);
}

TEST(Hashchain, AllPropertiesAtQuiescence) {
  HashHarness h(4, 4);
  std::vector<ElementId> accepted;
  std::unordered_set<ElementId> created;
  for (std::uint32_t c = 0; c < 4; ++c) {
    for (std::uint64_t i = 0; i < 6; ++i) {
      const Element e = h.make_element(c, i);
      created.insert(e.id);
      if (h.servers[c]->add(e)) accepted.push_back(e.id);
    }
  }
  h.seal_rounds(120);
  const auto servers = h.all_servers();
  EXPECT_TRUE(check_safety(servers).ok()) << check_safety(servers).to_string();
  const auto live = check_liveness_quiescent(servers, accepted, h.params, h.pki);
  EXPECT_TRUE(live.ok()) << live.to_string();
  EXPECT_TRUE(check_add_before_get(servers, created).ok());
}

TEST(Hashchain, EpochProofsTravelInsideBatches) {
  HashHarness h(4, 2);
  h.servers[0]->add(h.make_element(0, 1));
  h.servers[0]->add(h.make_element(0, 2));
  h.seal_rounds(120);
  for (auto& s : h.servers) {
    EXPECT_EQ(s->epoch(), 1u);
    EXPECT_TRUE(s->epoch_proven(1)) << "server " << s->id();
    EXPECT_EQ((*s->get().proofs)[0].size(), 4u);  // all correct servers proved
  }
}

TEST(Hashchain, IdenticalBatchesConsolidateOnce) {
  // Two servers happen to build byte-identical batches (same element via a
  // duplicate-submitting client): one hash, one epoch.
  HashHarness h(4, 1);
  const Element e = h.make_element(0, 1);
  h.servers[0]->add(e);
  h.servers[1]->add(e);
  h.seal_rounds(120);
  for (auto& s : h.servers) {
    EXPECT_EQ(s->epoch(), 1u);
    EXPECT_EQ((*s->get().history)[0].count, 1u);
  }
  EXPECT_TRUE(check_safety(h.all_servers()).ok());
}

TEST(Hashchain, UnknownSignerHashBatchIgnored) {
  HashHarness h(4, 2);
  // Forge a hash-batch claiming server id 77 (outside the system).
  EpochHash fake{};
  fake[0] = 1;
  HashBatchMsg hb = make_hash_batch(h.pki, 0, fake, Fidelity::kFull);
  hb.server = 77;
  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kHashBatch;
  codec::Writer w;
  serialize_hash_batch(w, hb);
  tx.data = w.take();
  tx.wire_size = static_cast<std::uint32_t>(tx.data.size());
  h.ledger.append(1, std::move(tx));
  h.servers[0]->add(h.make_element(0, 1));
  h.servers[0]->add(h.make_element(0, 2));
  h.seal_rounds(120);
  for (auto& s : h.servers) EXPECT_EQ(s->epoch(), 1u);  // forgery ignored
}

TEST(Hashchain, BadSignatureHashBatchIgnored) {
  HashHarness h(4, 2);
  EpochHash fake{};
  fake[7] = 9;
  HashBatchMsg hb = make_hash_batch(h.pki, 2, fake, Fidelity::kFull);
  hb.sig[0] ^= 0x55;  // break it
  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kHashBatch;
  codec::Writer w;
  serialize_hash_batch(w, hb);
  tx.data = w.take();
  tx.wire_size = static_cast<std::uint32_t>(tx.data.size());
  h.ledger.append(2, std::move(tx));
  h.servers[0]->add(h.make_element(0, 1));
  h.servers[0]->add(h.make_element(0, 2));
  h.seal_rounds(120);
  for (auto& s : h.servers) {
    EXPECT_EQ(s->epoch(), 1u);
    // Nothing was ever fetched for the fake hash: no server stores it.
    EXPECT_FALSE(s->store().contains(fake));
  }
}

TEST(Hashchain, LightModeConsolidatesWithoutFetching) {
  HashHarness h(4, 2);
  h.params.hash_reversal = false;  // Hashchain Light (Fig. 2 ablation)
  h.servers[0]->add(h.make_element(0, 1));
  h.servers[0]->add(h.make_element(0, 2));
  h.seal_rounds(120);
  for (auto& s : h.servers) {
    EXPECT_EQ(s->epoch(), 1u);
    EXPECT_EQ(s->fetches_started(), 0u);  // no reversal traffic at all
  }
  EXPECT_TRUE(check_safety(h.all_servers()).ok());
}

TEST(Hashchain, ConsolidationOrderIsDeterministicAcrossServers) {
  HashHarness h(4, 1);
  // Three different servers emit batches. Epoch numbering follows the
  // ledger position of each hash's (f+1)-th signature — not the order the
  // hashes were first announced — and that position is identical at every
  // correct server, so all histories agree (P6).
  const Element e0 = h.make_element(0, 1);
  const Element e1 = h.make_element(1, 1);
  const Element e2 = h.make_element(2, 1);
  h.servers[0]->add(e0);
  h.servers[1]->add(e1);
  h.servers[2]->add(e2);
  h.seal_rounds(120);
  const auto snap = h.servers[3]->get();
  ASSERT_EQ(snap.history->size(), 3u);
  std::set<ElementId> epoched;
  for (const auto& rec : *snap.history) {
    ASSERT_EQ(rec.ids.size(), 1u);
    epoched.insert(rec.ids[0]);
  }
  EXPECT_EQ(epoched, (std::set<ElementId>{e0.id, e1.id, e2.id}));
  for (std::uint32_t sidx = 0; sidx < 4; ++sidx) {
    const auto other = h.servers[sidx]->get();
    ASSERT_EQ(other.history->size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ((*other.history)[i].ids, (*snap.history)[i].ids)
          << "server " << sidx << " epoch " << i + 1;
    }
  }
  EXPECT_TRUE(check_safety(h.all_servers()).ok());
}

TEST(Hashchain, CommitteeModeConsolidatesWithFewerSignatures) {
  HashHarness h(7, 2);  // f = 2
  h.params.hashchain_committee = 2 * h.params.f + 1;  // 5 of 7 sign
  h.servers[0]->add(h.make_element(0, 1));
  h.servers[0]->add(h.make_element(0, 2));
  h.seal_rounds(150);
  std::uint64_t total_hash_batches = 0;
  for (auto& s : h.servers) {
    EXPECT_GE(s->epoch(), 1u) << "server " << s->id();
    EXPECT_TRUE(s->epoch_proven(1));
    total_hash_batches += s->hash_batches_appended();
  }
  // Non-committee members never co-signed: strictly fewer announcements
  // than the everyone-signs regime would produce for the same batches.
  HashHarness full(7, 2);
  full.servers[0]->add(full.make_element(0, 1));
  full.servers[0]->add(full.make_element(0, 2));
  full.seal_rounds(150);
  std::uint64_t full_hash_batches = 0;
  for (auto& s : full.servers) full_hash_batches += s->hash_batches_appended();
  EXPECT_LT(total_hash_batches, full_hash_batches);
  EXPECT_TRUE(check_safety(h.all_servers()).ok());
}

TEST(Hashchain, CommitteeSurvivesByzantineMember) {
  // With a 2f+1 committee and f Byzantine servers, at least f+1 correct
  // committee members remain: consolidation must still happen no matter
  // which servers the hash selects.
  HashHarness h(4, 2);  // f = 1, committee = 3 of 4
  h.params.hashchain_committee = 3;
  ServerByzantine byz;
  byz.refuse_batch_service = true;
  h.servers[2]->set_byzantine(byz);  // refuses to serve, may be in committee

  h.servers[0]->add(h.make_element(0, 1));
  h.servers[0]->add(h.make_element(0, 2));
  h.seal_rounds(150);
  for (const std::uint32_t s : {0u, 1u, 3u}) {
    EXPECT_GE(h.servers[s]->epoch(), 1u) << "server " << s;
  }
}

TEST(Hashchain, CommitteeBelowFPlus1IsClampedUp) {
  HashHarness h(4, 2);  // f = 1
  h.params.hashchain_committee = 1;  // below f+1: must clamp to 2
  h.servers[0]->add(h.make_element(0, 1));
  h.servers[0]->add(h.make_element(0, 2));
  h.seal_rounds(150);
  for (auto& s : h.servers) EXPECT_GE(s->epoch(), 1u);
}

TEST(Hashchain, StressManyBatchesStayConsistent) {
  HashHarness h(4, 5);
  std::uint64_t seq = 0;
  for (int round = 0; round < 6; ++round) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      for (int k = 0; k < 5; ++k) h.servers[c]->add(h.make_element(c, seq + k));
    }
    seq += 5;
    h.ledger.seal_block();
  }
  h.seal_rounds(200);
  const auto report = check_safety(h.all_servers());
  EXPECT_TRUE(report.ok()) << report.to_string();
  for (auto& s : h.servers) {
    EXPECT_EQ(s->the_set_size(), 4u * 6u * 5u);
    EXPECT_EQ(s->consolidation_backlog(), 0u);
  }
}

// A server that crashes with wipe while its simulated CPU is still working
// on a Request_batch must not answer it afterwards: the response belongs to
// the dead incarnation, and the wipe has freed the bytes it would carry.
TEST(Hashchain, CrashedServerSendsNoPendingBatchResponse) {
  constexpr std::uint32_t kN = 4;
  sim::Simulation sim;
  sim::Network net(sim, kN, sim::NetworkConfig{}, 7);
  std::vector<sim::BusyResource> cpus(kN);
  crypto::Pki pki(99);
  for (crypto::ProcessId p = 0; p < kN; ++p) pki.register_process(p);
  pki.register_process(100);
  ledger::InstantLedger ledger(kN);
  InProcessBatchExchange exchange(&net);
  SetchainParams params;
  params.n = kN;
  params.f = 1;
  params.fidelity = Fidelity::kFull;
  params.collector_limit = 2;
  params.collector_timeout = 0;

  ServerContext ctx;
  ctx.sim = &sim;
  ctx.batch_exchange = &exchange;
  ctx.ledger = &ledger;
  ctx.pki = &pki;
  ctx.cpus = &cpus;
  ctx.params = &params;
  std::vector<std::unique_ptr<HashchainServer>> servers;
  for (std::uint32_t i = 0; i < kN; ++i) {
    servers.push_back(std::make_unique<HashchainServer>(ctx, i));
    ledger.on_new_block(i, [p = servers.back().get()](const ledger::Block& b) {
      p->on_new_block(b);
    });
    exchange.attach(*servers.back());
  }

  // Server 0 alone holds the batch; its announcement sends every other
  // server to fetch it from server 0.
  workload::ArbitrumLikeGenerator gen(4);
  ElementFactory factory(gen, pki, Fidelity::kFull);
  ASSERT_TRUE(servers[0]->add(factory.make(100, 1)));
  ASSERT_TRUE(servers[0]->add(factory.make(100, 2)));
  ASSERT_EQ(servers[0]->store().size(), 1u);
  ASSERT_TRUE(ledger.seal_block(sim.now()));

  // Step until a request has reached server 0: serving charges its CPU the
  // request overhead on top of the block it already queued. Crash while
  // that work is still in progress.
  const sim::Time busy_with_block = cpus[0].total_busy();
  const sim::Time deadline = sim.now() + sim::from_seconds(1);
  sim::Time t = sim.now();
  while (cpus[0].total_busy() < busy_with_block + params.costs.request_batch_overhead) {
    ASSERT_LT(t, deadline) << "no request reached server 0";
    t += sim::from_micros(50);
    sim.run_until(t);
  }
  ASSERT_GT(cpus[0].busy_until(), t);
  servers[0]->crash(/*wipe=*/true);

  // An arriving response costs its receiver the request overhead before
  // anything else, so a receiver whose CPU stays idle received none (no
  // new blocks are sealed, and retries to the dead server 0 go unserved).
  std::vector<sim::Time> busy_at_crash;
  for (const auto& cpu : cpus) busy_at_crash.push_back(cpu.total_busy());
  sim.run_until(t + sim::from_seconds(2));
  for (std::uint32_t i = 1; i < kN; ++i) {
    EXPECT_GE(servers[i]->fetches_started(), 1u) << "server " << i;
    EXPECT_EQ(cpus[i].total_busy(), busy_at_crash[i])
        << "server " << i << " received a response from a dead incarnation";
    EXPECT_EQ(servers[i]->store().size(), 0u) << "server " << i;
  }
}

}  // namespace
}  // namespace setchain::core
