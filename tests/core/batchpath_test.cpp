// Regression + conformance tests for the batched-signature hot path and the
// hot-path bugfix sweep: element wire_size is recomputed from bytes actually
// consumed, valid_elements (batch) agrees with scalar valid_element, presig
// plumbing through valid_proof/valid_hash_batch, and the
// SetchainClient::verify proof-lookup underflow on zero-numbered epoch
// records.
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/element.hpp"
#include "core/proofs.hpp"
#include "core/setchain_base.hpp"

namespace setchain::core {
namespace {

struct BatchPathFixture : ::testing::Test {
  crypto::Pki pki{2718};
  workload::ArbitrumLikeGenerator gen{9};
  ElementFactory factory{gen, pki, Fidelity::kFull};

  BatchPathFixture() {
    for (crypto::ProcessId p = 0; p < 4; ++p) pki.register_process(p);
    for (crypto::ProcessId p = 100; p < 104; ++p) pki.register_process(p);
  }
};

// ------------------------------------------------- Element wire_size (bugfix)

TEST_F(BatchPathFixture, ParseElementWireSizeMatchesBytesConsumed) {
  // Payload sizes straddling the varint length-prefix boundaries (2^7,
  // 2^14): parse(serialize(e)).wire_size must equal serialize(e).size() —
  // recomputed from bytes consumed, not from a size formula that can drift.
  for (const std::size_t payload_size : {1u, 2u, 127u, 128u, 129u, 300u, 16383u, 16384u}) {
    Element e;
    e.client = 100;
    e.id = make_element_id(e.client, payload_size);
    e.payload.resize(payload_size);
    for (std::size_t i = 0; i < payload_size; ++i) {
      e.payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }

    codec::Writer w;
    serialize_element(w, e);
    codec::Reader r(w.buffer());
    ASSERT_EQ(r.u8(), kElementTag);
    const auto back = parse_element(r);
    ASSERT_TRUE(back.has_value()) << payload_size;
    EXPECT_EQ(back->wire_size, w.size()) << payload_size;
    EXPECT_TRUE(r.done()) << payload_size;
  }
}

// ------------------------------------------- valid_elements (batch) vs scalar

TEST_F(BatchPathFixture, ValidElementsBatchAgreesWithScalar) {
  std::vector<Element> es;
  for (std::uint64_t i = 0; i < 6; ++i) es.push_back(factory.make(100, i));
  es.push_back(factory.make_invalid(101, 50));        // broken signature
  es.push_back(factory.make(102, 60));
  es[7].payload[0] ^= 1;                              // tampered payload
  es.push_back(factory.make(103, 70));
  es[8].client = 102;                                 // client/id spoof
  es.push_back(factory.make(101, 80));                // valid again

  const auto batch = valid_elements(es, pki, Fidelity::kFull);
  ASSERT_EQ(batch.size(), es.size());
  for (std::size_t i = 0; i < es.size(); ++i) {
    EXPECT_EQ(batch[i], valid_element(es[i], pki, Fidelity::kFull)) << i;
  }
  EXPECT_TRUE(batch[0]);
  EXPECT_FALSE(batch[6]);
  EXPECT_FALSE(batch[7]);
  EXPECT_FALSE(batch[8]);
  EXPECT_TRUE(batch[9]);
}

TEST_F(BatchPathFixture, ValidElementsCalibratedUsesFlags) {
  workload::ArbitrumLikeGenerator g2{5};
  ElementFactory cal(g2, pki, Fidelity::kCalibrated);
  std::vector<Element> es = {cal.make(100, 1), cal.make_invalid(100, 2), cal.make(101, 3)};
  const auto v = valid_elements(es, pki, Fidelity::kCalibrated);
  EXPECT_EQ(v, (std::vector<bool>{true, false, true}));
}

// ------------------------------------------------------------ presig plumbing

TEST_F(BatchPathFixture, ValidProofHonorsPrecomputedSignatureVerdict) {
  EpochHash h{};
  h[0] = 0xAB;
  const EpochProof p = make_epoch_proof(pki, 1, 3, h, Fidelity::kFull);
  EXPECT_TRUE(valid_proof(p, h, pki, Fidelity::kFull));
  EXPECT_TRUE(valid_proof(p, h, pki, Fidelity::kFull, SigCheck::kValid));
  // A precomputed kInvalid verdict short-circuits the (otherwise valid) sig.
  EXPECT_FALSE(valid_proof(p, h, pki, Fidelity::kFull, SigCheck::kInvalid));
  // The hash check still runs before any signature shortcut.
  EpochHash wrong = h;
  wrong[1] ^= 0xFF;
  EXPECT_FALSE(valid_proof(p, wrong, pki, Fidelity::kFull, SigCheck::kValid));
}

TEST_F(BatchPathFixture, BatchCheckProofSigsFindsForgery) {
  EpochHash h{};
  std::vector<EpochProof> ps;
  for (crypto::ProcessId s = 0; s < 4; ++s) {
    ps.push_back(make_epoch_proof(pki, s, 1, h, Fidelity::kFull));
  }
  ps[2].sig[10] ^= 0x04;
  const auto checks = batch_check_proof_sigs(ps, pki, Fidelity::kFull);
  ASSERT_EQ(checks.size(), 4u);
  EXPECT_EQ(checks[0], SigCheck::kValid);
  EXPECT_EQ(checks[1], SigCheck::kValid);
  EXPECT_EQ(checks[2], SigCheck::kInvalid);
  EXPECT_EQ(checks[3], SigCheck::kValid);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(valid_proof(ps[i], h, pki, Fidelity::kFull, checks[i]),
              valid_proof(ps[i], h, pki, Fidelity::kFull)) << i;
  }
}

TEST_F(BatchPathFixture, BatchCheckHashBatchSigsAgreesWithScalar) {
  EpochHash h{};
  h[5] = 0x5A;
  std::vector<HashBatchMsg> hbs;
  for (crypto::ProcessId s = 0; s < 3; ++s) {
    hbs.push_back(make_hash_batch(pki, s, h, Fidelity::kFull));
  }
  hbs[1].hash[0] ^= 1;  // signature no longer covers this hash
  const auto checks = batch_check_hash_batch_sigs(hbs, pki, Fidelity::kFull);
  for (std::size_t i = 0; i < hbs.size(); ++i) {
    EXPECT_EQ(valid_hash_batch(hbs[i], pki, Fidelity::kFull, checks[i]),
              valid_hash_batch(hbs[i], pki, Fidelity::kFull)) << i;
  }
  EXPECT_EQ(checks[1], SigCheck::kInvalid);
}

TEST_F(BatchPathFixture, BatchCheckLeavesSmallAndCalibratedUnchecked) {
  EpochHash h{};
  std::vector<EpochProof> one = {make_epoch_proof(pki, 0, 1, h, Fidelity::kFull)};
  EXPECT_EQ(batch_check_proof_sigs(one, pki, Fidelity::kFull)[0], SigCheck::kUnchecked);
  std::vector<EpochProof> cal = {make_epoch_proof(pki, 0, 1, h, Fidelity::kCalibrated),
                                 make_epoch_proof(pki, 1, 1, h, Fidelity::kCalibrated)};
  for (const auto c : batch_check_proof_sigs(cal, pki, Fidelity::kCalibrated)) {
    EXPECT_EQ(c, SigCheck::kUnchecked);
  }
}

// ------------------------------- SetchainClient::verify zero-epoch regression

/// Test-only server exposing the protected history so a Byzantine snapshot
/// (zero-numbered epoch record) can be crafted directly.
class RawHistoryServer final : public SetchainServer {
 public:
  RawHistoryServer(ServerContext ctx, crypto::ProcessId id) : SetchainServer(ctx, id) {}
  bool add(Element) override { return false; }
  void push_raw_record(EpochRecord rec) { history_.push_back(std::move(rec)); }

 protected:
  sim::Time block_cost(const ledger::Block&) const override { return 0; }
  void process_block(const ledger::Block&) override {}
};

TEST_F(BatchPathFixture, ClientVerifyToleratesZeroNumberedEpochRecord) {
  SetchainParams params;
  params.n = 4;
  params.f = 1;
  ServerContext ctx;
  ctx.pki = &pki;
  ctx.params = &params;
  RawHistoryServer server(ctx, 0);

  // A Byzantine server hands back an epoch record with number == 0: the
  // old proof lookup computed proofs[number - 1] == proofs[SIZE_MAX].
  EpochRecord rec;
  rec.number = 0;
  rec.ids = {make_element_id(100, 7)};
  rec.count = 1;
  server.push_raw_record(rec);

  const auto out = SetchainClient::verify(server, make_element_id(100, 7), pki, params);
  EXPECT_TRUE(out.in_epoch);
  EXPECT_EQ(out.epoch, 0u);
  EXPECT_EQ(out.valid_proofs, 0u);  // no proofs counted, no underflow
  EXPECT_FALSE(out.committed);
}

TEST_F(BatchPathFixture, ClientVerifyStillCountsProofsForRealEpochs) {
  SetchainParams params;
  params.n = 4;
  params.f = 1;
  ServerContext ctx;
  ctx.pki = &pki;
  ctx.params = &params;
  RawHistoryServer server(ctx, 0);

  // Consolidate one real epoch through the protected interface by driving
  // absorb via crafted history + proofs the snapshot can see.
  EpochRecord rec;
  rec.number = 1;
  rec.ids = {make_element_id(100, 9)};
  rec.count = 1;
  rec.hash = epoch_hash(1, {{make_element_id(100, 9), 42}}, Fidelity::kFull);
  server.push_raw_record(rec);

  const auto out = SetchainClient::verify(server, make_element_id(100, 9), pki, params);
  EXPECT_TRUE(out.in_epoch);
  EXPECT_EQ(out.epoch, 1u);
  // No proofs appended for this crafted record (proofs_ is empty): the
  // guarded lookup must simply find none rather than read out of range.
  EXPECT_EQ(out.valid_proofs, 0u);
  EXPECT_FALSE(out.committed);
}

}  // namespace
}  // namespace setchain::core
