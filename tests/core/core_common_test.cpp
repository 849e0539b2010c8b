#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "core/batch.hpp"
#include "core/batch_exchange.hpp"
#include "core/collector.hpp"
#include "core/compresschain.hpp"
#include "core/element.hpp"
#include "core/hashchain.hpp"
#include "core/proofs.hpp"
#include "core/vanilla.hpp"
#include "ledger/ledger_node.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace setchain::core {
namespace {

struct CommonFixture : ::testing::Test {
  crypto::Pki pki{99};
  workload::ArbitrumLikeGenerator gen{4};
  ElementFactory factory{gen, pki, Fidelity::kFull};

  CommonFixture() {
    for (crypto::ProcessId p = 0; p < 4; ++p) pki.register_process(p);
    for (crypto::ProcessId p = 100; p < 104; ++p) pki.register_process(p);
  }
};

// ------------------------------------------------------------------- Element

TEST_F(CommonFixture, ElementIdPacksClientAndSeq) {
  const ElementId id = make_element_id(100, 77);
  EXPECT_EQ(element_client(id), 100u);
  EXPECT_EQ(id & ((1ULL << 40) - 1), 77u);
}

TEST_F(CommonFixture, ElementSerializationRoundtrip) {
  const Element e = factory.make(100, 1);
  codec::Writer w;
  serialize_element(w, e);
  EXPECT_EQ(w.size(), e.wire_size);

  codec::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), kElementTag);
  const auto back = parse_element(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, e.id);
  EXPECT_EQ(back->client, e.client);
  EXPECT_EQ(back->payload, e.payload);
  EXPECT_EQ(back->sig, e.sig);
  EXPECT_EQ(back->wire_size, e.wire_size);
}

TEST_F(CommonFixture, ValidElementAcceptsGenuine) {
  const Element e = factory.make(100, 1);
  EXPECT_TRUE(valid_element(e, pki, Fidelity::kFull));
}

TEST_F(CommonFixture, ValidElementRejectsTamperedPayload) {
  Element e = factory.make(100, 2);
  e.payload[0] ^= 1;
  EXPECT_FALSE(valid_element(e, pki, Fidelity::kFull));
}

TEST_F(CommonFixture, ValidElementRejectsBadSignature) {
  const Element e = factory.make_invalid(100, 3);
  EXPECT_FALSE(valid_element(e, pki, Fidelity::kFull));
}

TEST_F(CommonFixture, ValidElementRejectsClientIdSpoof) {
  // A Byzantine client cannot claim another client's id space: the id is
  // bound to the signer.
  Element e = factory.make(100, 4);
  e.client = 101;
  EXPECT_FALSE(valid_element(e, pki, Fidelity::kFull));
  Element e2 = factory.make(100, 5);
  e2.id = make_element_id(101, 5);
  EXPECT_FALSE(valid_element(e2, pki, Fidelity::kFull));
}

TEST_F(CommonFixture, CalibratedValidityUsesFlag) {
  workload::ArbitrumLikeGenerator g2(5);
  ElementFactory cal(g2, pki, Fidelity::kCalibrated);
  const Element good = cal.make(100, 1);
  const Element bad = cal.make_invalid(100, 2);
  EXPECT_TRUE(valid_element(good, pki, Fidelity::kCalibrated));
  EXPECT_FALSE(valid_element(bad, pki, Fidelity::kCalibrated));
  EXPECT_TRUE(good.payload.empty());  // no bytes materialized
}

TEST_F(CommonFixture, ElementWireSizeTracksTargetDistribution) {
  double sum = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) sum += factory.make(100, 100 + i).wire_size;
  EXPECT_NEAR(sum / n, 438.0, 80.0);
}

// --------------------------------------------------------------- EpochProofs

TEST_F(CommonFixture, EpochProofWireSizeIsExactly139) {
  const EpochHash h{};
  const EpochProof p = make_epoch_proof(pki, 2, 7, h, Fidelity::kFull);
  codec::Writer w;
  serialize_epoch_proof(w, p);
  EXPECT_EQ(w.size(), kEpochProofWireSize);  // the paper's measured length
}

TEST_F(CommonFixture, EpochProofRoundtripAndValidity) {
  std::vector<std::pair<ElementId, std::uint64_t>> ids{{1, 11}, {2, 22}};
  const EpochHash h = epoch_hash(3, ids, Fidelity::kFull);
  const EpochProof p = make_epoch_proof(pki, 1, 3, h, Fidelity::kFull);

  codec::Writer w;
  serialize_epoch_proof(w, p);
  codec::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), kEpochProofTag);
  const auto back = parse_epoch_proof(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, 3u);
  EXPECT_EQ(back->server, 1u);
  EXPECT_TRUE(valid_proof(*back, h, pki, Fidelity::kFull));
}

TEST_F(CommonFixture, ProofInvalidAgainstWrongEpochHash) {
  const EpochHash h1 = epoch_hash(1, {{1, 1}}, Fidelity::kFull);
  const EpochHash h2 = epoch_hash(1, {{2, 2}}, Fidelity::kFull);
  const EpochProof p = make_epoch_proof(pki, 0, 1, h1, Fidelity::kFull);
  EXPECT_TRUE(valid_proof(p, h1, pki, Fidelity::kFull));
  EXPECT_FALSE(valid_proof(p, h2, pki, Fidelity::kFull));
}

TEST_F(CommonFixture, ProofSignatureFromWrongServerRejected) {
  const EpochHash h = epoch_hash(1, {{1, 1}}, Fidelity::kFull);
  EpochProof p = make_epoch_proof(pki, 0, 1, h, Fidelity::kFull);
  p.server = 1;  // claims server 1 but signed by 0
  EXPECT_FALSE(valid_proof(p, h, pki, Fidelity::kFull));
}

TEST_F(CommonFixture, EpochHashIsOrderInvariantViaSortedInput) {
  // Callers sort (id, digest) pairs; same set -> same hash.
  std::vector<std::pair<ElementId, std::uint64_t>> a{{1, 11}, {2, 22}, {3, 33}};
  const EpochHash h1 = epoch_hash(5, a, Fidelity::kFull);
  const EpochHash h2 = epoch_hash(5, a, Fidelity::kFull);
  EXPECT_EQ(h1, h2);
  a[0].second = 99;
  EXPECT_NE(epoch_hash(5, a, Fidelity::kFull), h1);
  EXPECT_NE(epoch_hash(6, a, Fidelity::kFull), epoch_hash(5, a, Fidelity::kFull));
}

TEST_F(CommonFixture, EpochHashIsPureAcrossFidelities) {
  // The cross-algorithm conformance harness (P9) leans on epoch_hash being a
  // pure function of (number, contents): repeated evaluation agrees in both
  // fidelities, and calibrated stays self-consistent the same way full does.
  const std::vector<std::pair<ElementId, std::uint64_t>> pairs{
      {7, 70}, {8, 80}, {9, 90}};
  for (const auto fid : {Fidelity::kFull, Fidelity::kCalibrated}) {
    const EpochHash h1 = epoch_hash(3, pairs, fid);
    const EpochHash h2 = epoch_hash(3, pairs, fid);
    EXPECT_EQ(h1, h2);
    EXPECT_NE(epoch_hash(4, pairs, fid), h1);
    auto grown = pairs;
    grown.emplace_back(10, 100);
    EXPECT_NE(epoch_hash(3, grown, fid), h1);
  }
  // Empty input is well-defined and number-sensitive too.
  const std::vector<std::pair<ElementId, std::uint64_t>> none;
  EXPECT_NE(epoch_hash(1, none, Fidelity::kFull), epoch_hash(2, none, Fidelity::kFull));
}

// ---------------------------------------------------------------- HashBatch

TEST_F(CommonFixture, HashBatchWireSizeIsExactly139) {
  const EpochHash h{};
  const HashBatchMsg hb = make_hash_batch(pki, 0, h, Fidelity::kFull);
  codec::Writer w;
  serialize_hash_batch(w, hb);
  EXPECT_EQ(w.size(), kHashBatchWireSize);
}

TEST_F(CommonFixture, HashBatchRoundtripAndSignature) {
  EpochHash h{};
  h[0] = 0xAB;
  const HashBatchMsg hb = make_hash_batch(pki, 3, h, Fidelity::kFull);
  codec::Writer w;
  serialize_hash_batch(w, hb);
  codec::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), kHashBatchTag);
  const auto back = parse_hash_batch(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->server, 3u);
  EXPECT_TRUE(valid_hash_batch(*back, pki, Fidelity::kFull));
  auto forged = *back;
  forged.server = 2;
  EXPECT_FALSE(valid_hash_batch(forged, pki, Fidelity::kFull));
}

// --------------------------------------------------------------------- Batch

TEST_F(CommonFixture, BatchSerializationRoundtrip) {
  Batch b;
  for (int i = 0; i < 5; ++i) b.elements.push_back(factory.make(100, 10 + i));
  const EpochHash eh = epoch_hash(1, {{1, 1}}, Fidelity::kFull);
  b.proofs.push_back(make_epoch_proof(pki, 0, 1, eh, Fidelity::kFull));
  b.proofs.push_back(make_epoch_proof(pki, 1, 1, eh, Fidelity::kFull));

  const codec::Bytes bytes = serialize_batch(b);
  const auto back = parse_batch(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->elements.size(), 5u);
  ASSERT_EQ(back->proofs.size(), 2u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(back->elements[static_cast<std::size_t>(i)].id, b.elements[static_cast<std::size_t>(i)].id);
  }
  EXPECT_EQ(back->proofs[0].epoch, 1u);
}

TEST_F(CommonFixture, BatchHashStableAndContentSensitive) {
  Batch b1;
  b1.elements.push_back(factory.make(100, 1));
  Batch b2 = b1;
  EXPECT_EQ(batch_hash(b1, Fidelity::kFull), batch_hash(b2, Fidelity::kFull));
  b2.elements.push_back(factory.make(100, 2));
  EXPECT_NE(batch_hash(b1, Fidelity::kFull), batch_hash(b2, Fidelity::kFull));
  // Calibrated hashing: equally content-sensitive.
  EXPECT_NE(batch_hash(b1, Fidelity::kCalibrated), batch_hash(b2, Fidelity::kCalibrated));
}

TEST_F(CommonFixture, ParseBatchRejectsGarbage) {
  EXPECT_FALSE(parse_batch(codec::to_bytes("not a batch")).has_value());
  // Count bomb.
  codec::Writer w;
  w.varint(10'000'000);
  EXPECT_FALSE(parse_batch(w.buffer()).has_value());
  // Truncated entry.
  Batch b;
  b.elements.push_back(factory.make(100, 1));
  codec::Bytes bytes = serialize_batch(b);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(parse_batch(bytes).has_value());
  // Trailing garbage.
  codec::Bytes bytes2 = serialize_batch(b);
  bytes2.push_back(0xFF);
  EXPECT_FALSE(parse_batch(bytes2).has_value());
}

TEST_F(CommonFixture, ParseBatchFuzzNeverCrashes) {
  sim::Rng rng(606);
  for (int i = 0; i < 2000; ++i) {
    codec::Bytes junk(rng.next_u64() % 300);
    for (auto& x : junk) x = static_cast<std::uint8_t>(rng.next_u64());
    parse_batch(junk);
  }
  SUCCEED();
}

TEST_F(CommonFixture, CompressedSizeFullVsCalibratedAgree) {
  Batch b;
  for (int i = 0; i < 100; ++i) b.elements.push_back(factory.make(100, 1000 + i));
  const std::uint64_t full = compressed_size(b, Fidelity::kFull, 0.0);
  // Calibrate with the true ratio and compare the model's estimate.
  const double ratio =
      static_cast<double>(serialize_batch(b).size()) / static_cast<double>(full);
  const std::uint64_t cal = compressed_size(b, Fidelity::kCalibrated, ratio);
  EXPECT_NEAR(static_cast<double>(cal), static_cast<double>(full),
              static_cast<double>(full) * 0.05 + 64);
}

// ----------------------------------------------------------------- Collector

TEST(Collector, EmitsAtSizeLimit) {
  std::vector<Batch> out;
  Collector c(nullptr, 3, 0, [&](Batch&& b) { out.push_back(std::move(b)); });
  c.set_origin(2);
  Element e;
  for (int i = 0; i < 7; ++i) {
    e.id = static_cast<ElementId>(i);
    c.add_element(e);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].elements.size(), 3u);
  EXPECT_EQ(out[0].origin, 2u);
  EXPECT_EQ(c.size(), 1u);  // one leftover pending
  c.flush();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].elements.size(), 1u);
  c.flush();  // empty flush is a no-op
  EXPECT_EQ(out.size(), 3u);
}

TEST(Collector, ProofsCountTowardLimit) {
  std::vector<Batch> out;
  Collector c(nullptr, 2, 0, [&](Batch&& b) { out.push_back(std::move(b)); });
  Element e;
  e.id = 1;
  c.add_element(e);
  EpochProof p;
  p.epoch = 1;
  c.add_proof(p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].elements.size(), 1u);
  EXPECT_EQ(out[0].proofs.size(), 1u);
}

TEST(Collector, TimeoutFlushesPartialBatch) {
  sim::Simulation sim;
  std::vector<std::pair<sim::Time, std::size_t>> out;
  Collector c(&sim, 100, sim::from_seconds(1), [&](Batch&& b) {
    out.emplace_back(sim.now(), b.entry_count());
  });
  Element e;
  sim.schedule_at(sim::from_seconds(0.5), [&] {
    e.id = 1;
    c.add_element(e);
  });
  sim.schedule_at(sim::from_seconds(0.8), [&] {
    e.id = 2;
    c.add_element(e);
  });
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, sim::from_seconds(1.5));  // 1 s after first entry
  EXPECT_EQ(out[0].second, 2u);
}

TEST(Collector, SizeTriggerCancelsTimer) {
  sim::Simulation sim;
  int emissions = 0;
  Collector c(&sim, 2, sim::from_seconds(1), [&](Batch&&) { ++emissions; });
  Element e;
  sim.schedule_at(0, [&] {
    e.id = 1;
    c.add_element(e);
    e.id = 2;
    c.add_element(e);  // fills -> emit now
  });
  sim.run();
  EXPECT_EQ(emissions, 1);  // no spurious timeout emission later
}

TEST(Collector, BatchUidsAreUniquePerOrigin) {
  std::vector<Batch> out;
  Collector c(nullptr, 1, 0, [&](Batch&& b) { out.push_back(std::move(b)); });
  c.set_origin(3);
  Element e;
  for (int i = 0; i < 5; ++i) {
    e.id = static_cast<ElementId>(i);
    c.add_element(e);
  }
  std::set<std::uint64_t> uids;
  for (const auto& b : out) uids.insert(b.uid);
  EXPECT_EQ(uids.size(), 5u);
}

// ------------------------------------------------------------ Block delivery

// A server without a simulated CPU (a live node) applies a block before the
// ledger's new_block callback returns. A simulation clock in its context
// does not defer the work: only a CPU to charge does.
template <typename Server>
class InlineBlockApply : public ::testing::Test {};
using AllServers = ::testing::Types<VanillaServer, CompresschainServer, HashchainServer>;
TYPED_TEST_SUITE(InlineBlockApply, AllServers);

TYPED_TEST(InlineBlockApply, WithoutCpuTheBlockIsAppliedInsideTheCallback) {
  sim::Simulation sim;
  crypto::Pki pki(99);
  pki.register_process(0);
  pki.register_process(100);
  ledger::InstantLedger ledger(1);
  InProcessBatchExchange exchange;
  SetchainParams params;
  params.n = 1;
  params.f = 0;  // one signer consolidates a Hashchain batch
  params.fidelity = Fidelity::kFull;
  params.collector_limit = 1;  // every element leaves its collector at once
  params.collector_timeout = 0;

  ServerContext ctx;
  ctx.sim = &sim;  // a clock, but no ctx.cpus
  ctx.batch_exchange = &exchange;
  ctx.ledger = &ledger;
  ctx.pki = &pki;
  ctx.params = &params;
  TypeParam server(ctx, 0);
  ledger.on_new_block(0, [&server](const ledger::Block& b) { server.on_new_block(b); });
  if constexpr (std::is_same_v<TypeParam, HashchainServer>) exchange.attach(server);

  workload::ArbitrumLikeGenerator gen(4);
  ElementFactory factory(gen, pki, Fidelity::kFull);
  ASSERT_TRUE(server.add(factory.make(100, 1)));
  ASSERT_TRUE(ledger.seal_block());

  EXPECT_EQ(server.applied_height(), 1u);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(sim.executed_events(), 0u) << "the simulation never ran";
}

}  // namespace
}  // namespace setchain::core
