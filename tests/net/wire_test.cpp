// Wire-codec robustness: per-frame round-trip property tests plus
// malformed-input rejection (truncated at every byte, oversized length
// prefix, bad magic/version/type, trailing garbage) — the codec must be
// total over untrusted bytes, with no crashes under ASan/UBSan.
#include <gtest/gtest.h>

#include "core/batch.hpp"
#include "net/wire.hpp"
#include "sim/rng.hpp"

namespace setchain::net::wire {
namespace {

using codec::Bytes;
using codec::ByteView;

core::Element make_element(crypto::Pki& pki, crypto::ProcessId client,
                           std::uint64_t seq, std::size_t payload_bytes) {
  core::Element e;
  e.id = core::make_element_id(client, seq);
  e.client = client;
  e.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    e.payload[i] = static_cast<std::uint8_t>(i * 31 + seq);
  }
  codec::Writer w;
  w.u64le(e.id);
  w.bytes(e.payload);
  e.sig = pki.sign(client, w.buffer());
  e.wire_size = static_cast<std::uint32_t>(core::kElementOverhead + payload_bytes);
  return e;
}

core::EpochProof make_proof(crypto::Pki& pki, std::uint64_t epoch,
                            crypto::ProcessId server) {
  core::EpochHash h{};
  for (std::size_t i = 0; i < h.size(); ++i) {
    h[i] = static_cast<std::uint8_t>(epoch * 7 + i);
  }
  return core::make_epoch_proof(pki, server, epoch, h, core::Fidelity::kFull);
}

// ---------------------------------------------------------------- framing

TEST(WireFraming, RoundTripAndHeaderLayout) {
  const Bytes payload = {1, 2, 3, 4, 5};
  const Bytes frame = encode_frame(MsgType::kEpochRequest, payload);
  ASSERT_EQ(frame.size(), kHeaderSize + payload.size());
  // Pinned header bytes (docs/WIRE_FORMAT.md): magic, version, type, length.
  EXPECT_EQ(frame[0], 'S');
  EXPECT_EQ(frame[1], 'E');
  EXPECT_EQ(frame[2], 'T');
  EXPECT_EQ(frame[3], 'C');
  EXPECT_EQ(frame[4], kVersion);
  EXPECT_EQ(frame[5], static_cast<std::uint8_t>(MsgType::kEpochRequest));
  EXPECT_EQ(codec::read_u32le(ByteView(frame).subspan(6, 4)), payload.size());

  Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(frame, out, consumed), DecodeStatus::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.type, MsgType::kEpochRequest);
  EXPECT_EQ(out.payload, payload);
}

TEST(WireFraming, TruncatedAtEveryByteNeedsMore) {
  const Bytes frame = encode_frame(MsgType::kBlock, Bytes(37, 0xAB));
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    Frame out;
    std::size_t consumed = 99;
    const auto s = decode_frame(ByteView(frame).first(cut), out, consumed);
    EXPECT_EQ(s, DecodeStatus::kNeedMore) << "cut=" << cut;
    EXPECT_EQ(consumed, 0u) << "cut=" << cut;
  }
}

TEST(WireFraming, RejectsBadMagicVersionTypeAndOversizedLength) {
  const Bytes good = encode_frame(MsgType::kHello, Bytes{0, 1, 0, 0, 0, 0, 0, 0, 0, 0});
  Frame out;
  std::size_t consumed = 0;

  Bytes bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(decode_frame(bad_magic, out, consumed), DecodeStatus::kBadMagic);

  Bytes bad_version = good;
  bad_version[4] = 99;
  EXPECT_EQ(decode_frame(bad_version, out, consumed), DecodeStatus::kBadVersion);

  Bytes bad_type = good;
  bad_type[5] = 0xEE;
  EXPECT_EQ(decode_frame(bad_type, out, consumed), DecodeStatus::kBadType);

  // Oversized length prefix: rejected BEFORE any allocation/wait for bytes.
  Bytes oversized = good;
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayloadBytes) + 1;
  oversized[6] = static_cast<std::uint8_t>(huge);
  oversized[7] = static_cast<std::uint8_t>(huge >> 8);
  oversized[8] = static_cast<std::uint8_t>(huge >> 16);
  oversized[9] = static_cast<std::uint8_t>(huge >> 24);
  EXPECT_EQ(decode_frame(oversized, out, consumed), DecodeStatus::kOversized);

  // The encoder refuses to build an over-cap frame at all.
  EXPECT_TRUE(encode_frame(MsgType::kBlock, Bytes(kMaxPayloadBytes + 1, 0)).empty());
}

TEST(WireFraming, StreamReaderReassemblesSplitFramesAndSticksOnError) {
  const Bytes f1 = encode_frame(MsgType::kEpochRequest, encode_epoch_request({7}));
  const Bytes f2 = encode_frame(MsgType::kSnapshotRequest, encode_snapshot_request({8}));
  Bytes stream = f1;
  codec::append(stream, f2);

  // Feed one byte at a time: every frame must come out exactly once.
  FrameReader r;
  std::vector<Frame> got;
  for (const auto b : stream) {
    r.feed(ByteView(&b, 1));
    Frame f;
    while (r.next(f) == DecodeStatus::kOk) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, MsgType::kEpochRequest);
  EXPECT_EQ(got[1].type, MsgType::kSnapshotRequest);

  // Garbage mid-stream is fatal and sticky (TCP streams cannot resync).
  FrameReader bad;
  bad.feed(codec::to_bytes("not a setchain frame"));
  Frame f;
  EXPECT_EQ(bad.next(f), DecodeStatus::kBadMagic);
  bad.feed(f1);
  EXPECT_EQ(bad.next(f), DecodeStatus::kBadMagic);
  EXPECT_TRUE(bad.failed());
}

// ---------------------------------------------------------------- payloads

TEST(WirePayloads, HelloRoundTripAndBadRole) {
  const Hello h{kRoleClient, 12345, 0xDEADBEEFCAFEF00DULL};
  const auto parsed = parse_hello(encode_hello(h));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->role, h.role);
  EXPECT_EQ(parsed->sender, h.sender);
  EXPECT_EQ(parsed->cluster, h.cluster);

  Bytes bad = encode_hello(h);
  bad[0] = 7;  // role out of range
  EXPECT_FALSE(parse_hello(bad).has_value());
}

TEST(WirePayloads, AddRequestResponseRoundTrip) {
  crypto::Pki pki(7);
  pki.register_process(42);
  AddRequest req;
  req.req_id = 991;
  req.element = make_element(pki, 42, 5, 113);
  const auto parsed = parse_add_request(encode_add_request(req));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->req_id, req.req_id);
  EXPECT_EQ(parsed->element.id, req.element.id);
  EXPECT_EQ(parsed->element.payload, req.element.payload);
  EXPECT_EQ(parsed->element.sig, req.element.sig);
  // The parsed element must still verify: the signature survived the trip.
  EXPECT_TRUE(core::valid_element(parsed->element, pki, core::Fidelity::kFull));

  for (const bool accepted : {false, true}) {
    const auto r = parse_add_response(encode_add_response({17, accepted}));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->req_id, 17u);
    EXPECT_EQ(r->accepted, accepted);
  }
  EXPECT_FALSE(parse_add_response(Bytes{17, 2}).has_value());  // bool out of range
}

TEST(WirePayloads, SnapshotResponseRoundTripSortedDeltas) {
  SnapshotResponse m;
  m.req_id = 3;
  m.epoch = 2;
  for (std::uint64_t n = 1; n <= 2; ++n) {
    core::EpochRecord rec;
    rec.number = n;
    rec.ids = {n * 100, n * 100 + 1, n * 100 + 77};
    rec.count = rec.ids.size();
    rec.bytes = 4096 * n;
    for (std::size_t i = 0; i < rec.hash.size(); ++i) {
      rec.hash[i] = static_cast<std::uint8_t>(n + i);
    }
    m.history.push_back(rec);
  }
  m.the_set = {100, 101, 177, 200, 201, 277, 999};

  const auto parsed = parse_snapshot_response(encode_snapshot_response(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->req_id, m.req_id);
  EXPECT_EQ(parsed->epoch, m.epoch);
  ASSERT_EQ(parsed->history.size(), m.history.size());
  for (std::size_t i = 0; i < m.history.size(); ++i) {
    EXPECT_EQ(parsed->history[i].number, m.history[i].number);
    EXPECT_EQ(parsed->history[i].ids, m.history[i].ids);
    EXPECT_EQ(parsed->history[i].count, m.history[i].count);
    EXPECT_EQ(parsed->history[i].bytes, m.history[i].bytes);
    EXPECT_EQ(parsed->history[i].hash, m.history[i].hash);
  }
  EXPECT_EQ(parsed->the_set, m.the_set);
}

TEST(WirePayloads, SnapshotRejectsDuplicateIdsAndWraparound) {
  // Hand-build an id list with delta 0 (a duplicate id smuggled past set
  // logic) — the parser must refuse.
  codec::Writer w;
  w.varint(1).varint(0).varint(0);  // req, epoch, history count
  w.varint(2).varint(5).varint(0);  // the_set: 2 ids, first=5, delta=0
  EXPECT_FALSE(parse_snapshot_response(w.buffer()).has_value());

  // Wraparound via a huge delta must be rejected, not wrapped.
  codec::Writer w2;
  w2.varint(1).varint(0).varint(0);
  w2.varint(2).varint(5).varint(~0ULL);  // 5 + 2^64-1 wraps
  EXPECT_FALSE(parse_snapshot_response(w2.buffer()).has_value());
}

TEST(WirePayloads, ProofsRoundTripAndSignatureSurvives) {
  crypto::Pki pki(9);
  for (crypto::ProcessId p = 0; p < 4; ++p) pki.register_process(p);
  ProofsResponse m;
  m.req_id = 44;
  for (crypto::ProcessId s = 0; s < 3; ++s) m.proofs.push_back(make_proof(pki, 6, s));

  const auto parsed = parse_proofs_response(encode_proofs_response(m));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->proofs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed->proofs[i].epoch, m.proofs[i].epoch);
    EXPECT_EQ(parsed->proofs[i].server, m.proofs[i].server);
    EXPECT_TRUE(core::valid_proof(parsed->proofs[i], m.proofs[i].epoch_hash, pki,
                                  core::Fidelity::kFull));
  }

  const auto preq = parse_proofs_request(encode_proofs_request({5, 9}));
  ASSERT_TRUE(preq.has_value());
  EXPECT_EQ(preq->epoch, 9u);
}

TEST(WirePayloads, BlockAndTxSubmitRoundTrip) {
  ledger::Transaction tx1;
  tx1.kind = ledger::TxKind::kElement;
  tx1.wire_size = 321;
  tx1.data = Bytes{1, 9, 8, 7};
  ledger::Transaction tx2;
  tx2.kind = ledger::TxKind::kHashBatch;
  tx2.wire_size = 139;
  tx2.data = Bytes(139, 0x5A);

  const auto sub = parse_tx_submit(encode_tx_submit(tx1));
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->tx.kind, tx1.kind);
  EXPECT_EQ(sub->tx.wire_size, tx1.wire_size);
  EXPECT_EQ(sub->tx.data, tx1.data);

  const std::vector<const ledger::Transaction*> txs = {&tx1, &tx2};
  const Bytes payload = encode_block(12, 3, txs);
  const auto block = parse_block(payload);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->height, 12u);
  EXPECT_EQ(block->proposer, 3u);
  ASSERT_EQ(block->txs.size(), 2u);
  EXPECT_EQ(block->txs[1].data, tx2.data);

  EXPECT_FALSE(parse_block(Bytes{0}).has_value());  // height 0 illegal

  // Sync wraps whole block payloads; they must come back bit-identical.
  const auto sync = parse_block_sync_response(
      encode_block_sync_response({ByteView(payload)}));
  ASSERT_TRUE(sync.has_value());
  ASSERT_EQ(sync->blocks.size(), 1u);
  EXPECT_EQ(sync->blocks[0], payload);
  const auto sreq = parse_block_sync_request(encode_block_sync_request({42}));
  ASSERT_TRUE(sreq.has_value());
  EXPECT_EQ(sreq->from_height, 42u);
}

TEST(WirePayloads, BatchExchangeRoundTrip) {
  crypto::Pki pki(11);
  pki.register_process(0);
  pki.register_process(100);
  core::Batch b;
  b.origin = 0;
  b.elements.push_back(make_element(pki, 100, 1, 64));
  b.proofs.push_back(make_proof(pki, 1, 0));
  const Bytes serialized = core::serialize_batch(b);

  BatchRequest req;
  req.requester = 2;
  for (std::size_t i = 0; i < req.hash.size(); ++i) {
    req.hash[i] = static_cast<std::uint8_t>(i * 3);
  }
  const auto preq = parse_batch_request(encode_batch_request(req));
  ASSERT_TRUE(preq.has_value());
  EXPECT_EQ(preq->requester, req.requester);
  EXPECT_EQ(preq->hash, req.hash);

  const Bytes resp = encode_batch_response(req.hash, serialized);
  const auto presp = parse_batch_response_view(resp);
  ASSERT_TRUE(presp.has_value());
  EXPECT_EQ(presp->hash, req.hash);
  EXPECT_EQ(Bytes(presp->batch.begin(), presp->batch.end()), serialized);
  // The carried batch is still parseable — the nested codec survived.
  const auto inner = core::parse_batch(presp->batch);
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(inner->elements.size(), 1u);
  EXPECT_EQ(inner->proofs.size(), 1u);
}

TEST(WirePayloads, ConsensusFramesRoundTrip) {
  crypto::Pki pki(21);
  pki.register_process(2);

  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kElement;
  tx.wire_size = 99;
  tx.data = Bytes{4, 2, 4, 2};

  // A proposal is block bytes + the proposer's signature; the parser must
  // hand back the exact payload bytes (the vote-hash preimage), the signed
  // prefix length, and the signature alongside the decoded block.
  const Bytes block_bytes = encode_block(7, 2, {&tx});
  const auto sig = pki.sign(2, proposal_transcript(0xC0FFEE, block_bytes));
  const Bytes payload = encode_signed_proposal(block_bytes, sig);
  ASSERT_EQ(payload.size(), block_bytes.size() + crypto::Ed25519::kSignatureSize);
  const auto prop = parse_proposal(payload);
  ASSERT_TRUE(prop.has_value());
  EXPECT_EQ(prop->block.height, 7u);
  EXPECT_EQ(prop->block.proposer, 2u);
  ASSERT_EQ(prop->block.txs.size(), 1u);
  EXPECT_EQ(prop->block.txs[0].data, tx.data);
  EXPECT_EQ(prop->raw, payload);
  EXPECT_EQ(prop->block_bytes_len, block_bytes.size());
  EXPECT_EQ(prop->sig, sig);
  // The signature survived the trip: the transcript over the signed prefix
  // still verifies against the proposer's key.
  EXPECT_TRUE(pki.verify(
      2, proposal_transcript(0xC0FFEE, ByteView(prop->raw).first(prop->block_bytes_len)),
      prop->sig));
  EXPECT_FALSE(parse_proposal(Bytes{0}).has_value());  // height 0 illegal
  // A bare (unsigned) block payload is NOT a proposal any more.
  EXPECT_FALSE(parse_proposal(block_bytes).has_value());

  VoteMsg v;
  v.height = 12;
  v.round = 3;
  v.voter = 1;
  for (std::size_t i = 0; i < v.hash.size(); ++i) {
    v.hash[i] = static_cast<std::uint8_t>(i * 5 + 1);
  }
  for (std::size_t i = 0; i < v.sig.size(); ++i) {
    v.sig[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const auto pv = parse_vote(encode_vote(v));
  ASSERT_TRUE(pv.has_value());
  EXPECT_EQ(pv->height, v.height);
  EXPECT_EQ(pv->round, v.round);
  EXPECT_EQ(pv->voter, v.voter);
  EXPECT_EQ(pv->hash, v.hash);
  EXPECT_EQ(pv->sig, v.sig);
  VoteMsg zero = v;
  zero.height = 0;  // heights are 1-based; 0 would vote on nothing
  EXPECT_FALSE(parse_vote(encode_vote(zero)).has_value());

  RoundSkipMsg s{9, 4, 2};
  for (std::size_t i = 0; i < s.sig.size(); ++i) {
    s.sig[i] = static_cast<std::uint8_t>(i + 11);
  }
  const auto ps = parse_round_skip(encode_round_skip(s));
  ASSERT_TRUE(ps.has_value());
  EXPECT_EQ(ps->height, s.height);
  EXPECT_EQ(ps->round, s.round);
  EXPECT_EQ(ps->voter, s.voter);
  EXPECT_EQ(ps->sig, s.sig);
}

// The two proposal parsers (owning and zero-copy view) must accept and
// reject EXACTLY the same byte strings: an honest node relays only payloads
// the view parser validated, and a receiver must never blame that relayer
// because the owning parser disagreed about well-formedness.
TEST(WirePayloads, ProposalParsersAgreeOnEveryInput) {
  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kElement;
  tx.wire_size = 40;
  tx.data = Bytes{9, 9, 9};
  const Bytes block_bytes = encode_block(3, 1, {&tx});
  crypto::Ed25519::Signature sig{};
  sig.fill(0x5C);
  const Bytes payload = encode_signed_proposal(block_bytes, sig);

  const auto agree = [](ByteView v) {
    const auto owning = parse_proposal(v);
    const auto view = parse_signed_proposal_view(v);
    ASSERT_EQ(owning.has_value(), view.has_value());
    if (owning) {
      EXPECT_EQ(owning->block.height, view->block.height);
      EXPECT_EQ(owning->block.proposer, view->block.proposer);
      EXPECT_EQ(owning->block_bytes_len, view->block_bytes.size());
      EXPECT_EQ(owning->sig, view->sig);
    }
  };

  agree(payload);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    agree(ByteView(payload).first(cut));
  }
  // Single-byte mutations at every position: whatever each does to the
  // grammar, both parsers must rule identically.
  for (std::size_t i = 0; i < payload.size(); ++i) {
    Bytes mutated = payload;
    mutated[i] ^= 0xFF;
    agree(mutated);
  }
  sim::Rng rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes junk(rng.uniform_u64(96) + 1);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    agree(junk);
  }
}

TEST(WirePayloads, TranscriptsAreDomainSeparated) {
  ProposalHash h{};
  h.fill(0xAA);
  const Bytes block = {1, 2, 3};
  // Different clusters, types, heights and rounds must all change the
  // transcript bytes — equal transcripts would let a signature replay.
  EXPECT_NE(proposal_transcript(1, block), proposal_transcript(2, block));
  EXPECT_NE(vote_transcript(1, MsgType::kPrevote, 5, 0, h),
            vote_transcript(1, MsgType::kPrecommit, 5, 0, h));
  EXPECT_NE(vote_transcript(1, MsgType::kPrevote, 5, 0, h),
            vote_transcript(2, MsgType::kPrevote, 5, 0, h));
  EXPECT_NE(vote_transcript(1, MsgType::kPrevote, 5, 0, h),
            vote_transcript(1, MsgType::kPrevote, 6, 0, h));
  EXPECT_NE(vote_transcript(1, MsgType::kPrevote, 5, 0, h),
            vote_transcript(1, MsgType::kPrevote, 5, 1, h));
  EXPECT_NE(round_skip_transcript(1, 5, 0), round_skip_transcript(1, 5, 1));
  // Distinct message families never collide (distinct domain tags).
  EXPECT_NE(proposal_transcript(1, block),
            round_skip_transcript(1, 5, 0));
}

TEST(WirePayloads, CertifiedBlockRoundTripAndVoterOrdering) {
  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kElement;
  tx.wire_size = 10;
  tx.data = Bytes{1};
  const Bytes block_bytes = encode_block(5, 1, {&tx});
  crypto::Ed25519::Signature psig{};
  psig.fill(0x11);
  const Bytes proposal = encode_signed_proposal(block_bytes, psig);

  std::vector<CommitVote> votes;
  for (std::uint32_t v : {0u, 1u, 3u}) {
    CommitVote cv;
    cv.voter = v;
    cv.sig.fill(static_cast<std::uint8_t>(0x20 + v));
    votes.push_back(cv);
  }
  const Bytes cert = encode_certified_block(proposal, 2, votes);
  const auto parsed = parse_certified_block(cert);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->proposal, proposal);
  EXPECT_EQ(parsed->round, 2u);
  ASSERT_EQ(parsed->votes.size(), 3u);
  for (std::size_t i = 0; i < votes.size(); ++i) {
    EXPECT_EQ(parsed->votes[i].voter, votes[i].voter);
    EXPECT_EQ(parsed->votes[i].sig, votes[i].sig);
  }

  // Duplicate (or descending) voter ids would count one voter twice toward
  // a quorum: the parser must reject them outright.
  std::vector<CommitVote> dup = votes;
  dup.push_back(votes[1]);
  EXPECT_FALSE(parse_certified_block(encode_certified_block(proposal, 2, dup))
                   .has_value());
  std::vector<CommitVote> descending = {votes[2], votes[0]};
  EXPECT_FALSE(
      parse_certified_block(encode_certified_block(proposal, 2, descending))
          .has_value());
  // An empty proposal certifies nothing.
  EXPECT_FALSE(parse_certified_block(encode_certified_block({}, 2, votes))
                   .has_value());
}

TEST(WirePayloads, ClusterIdIsPinned) {
  // Literal consensus-cluster ids: a daemon or data dir minted by an older
  // binary must keep handshaking with, and recovering into, this one.
  EXPECT_EQ(cluster_id(42, 4, 1, 2), 0x6a9ced9e3a07b7daULL);     // hashchain
  EXPECT_EQ(cluster_id(7, 7, 2, 0), 0x1c01a429efc50043ULL);      // vanilla
  EXPECT_EQ(cluster_id(1234, 10, 3, 1), 0xe1a413eb2ac7a3aeULL);  // compresschain
}

// Property sweep: every payload parser must reject (a) any strict prefix
// and (b) one byte of trailing garbage — totality over truncation and the
// no-trailing-garbage rule, for every frame type the codec implements.
TEST(WirePayloads, EveryParserRejectsTruncationAndTrailingGarbage) {
  crypto::Pki pki(13);
  pki.register_process(0);
  pki.register_process(1);
  pki.register_process(100);

  SnapshotResponse snap;
  snap.req_id = 1;
  snap.epoch = 1;
  core::EpochRecord rec;
  rec.number = 1;
  rec.ids = {3, 9};
  rec.count = 2;
  rec.bytes = 128;
  snap.history.push_back(rec);
  snap.the_set = {3, 9};

  ProofsResponse proofs;
  proofs.req_id = 2;
  proofs.proofs.push_back(make_proof(pki, 1, 0));

  AddRequest add;
  add.req_id = 3;
  add.element = make_element(pki, 100, 0, 16);

  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kEpochProof;
  tx.wire_size = 139;
  tx.data = Bytes(139, 1);

  BatchRequest breq;
  breq.requester = 1;

  VoteMsg vote;
  vote.height = 4;
  vote.round = 1;
  vote.voter = 2;
  for (std::size_t i = 0; i < vote.hash.size(); ++i) {
    vote.hash[i] = static_cast<std::uint8_t>(i + 1);
  }
  for (std::size_t i = 0; i < vote.sig.size(); ++i) {
    vote.sig[i] = static_cast<std::uint8_t>(i + 2);
  }

  crypto::Ed25519::Signature prop_sig{};
  prop_sig.fill(0x3D);
  const Bytes signed_proposal =
      encode_signed_proposal(encode_block(2, 1, {&tx}), prop_sig);
  CommitVote cv0;
  cv0.voter = 0;
  cv0.sig.fill(0x44);
  CommitVote cv1;
  cv1.voter = 2;
  cv1.sig.fill(0x45);
  const Bytes certified =
      encode_certified_block(signed_proposal, 1, {cv0, cv1});

  struct Case {
    const char* name;
    Bytes payload;
    std::function<bool(ByteView)> parses;
  };
  const std::vector<Case> cases = {
      {"hello", encode_hello({kRoleServer, 1, 2}),
       [](ByteView v) { return parse_hello(v).has_value(); }},
      {"add_req", encode_add_request(add),
       [](ByteView v) { return parse_add_request(v).has_value(); }},
      {"add_resp", encode_add_response({3, true}),
       [](ByteView v) { return parse_add_response(v).has_value(); }},
      {"snap_req", encode_snapshot_request({4}),
       [](ByteView v) { return parse_snapshot_request(v).has_value(); }},
      {"snap_resp", encode_snapshot_response(snap),
       [](ByteView v) { return parse_snapshot_response(v).has_value(); }},
      {"proofs_req", encode_proofs_request({5, 1}),
       [](ByteView v) { return parse_proofs_request(v).has_value(); }},
      {"proofs_resp", encode_proofs_response(proofs),
       [](ByteView v) { return parse_proofs_response(v).has_value(); }},
      {"epoch_req", encode_epoch_request({6}),
       [](ByteView v) { return parse_epoch_request(v).has_value(); }},
      {"epoch_resp", encode_epoch_response({6, 7, 0}),
       [](ByteView v) { return parse_epoch_response(v).has_value(); }},
      {"tx_submit", encode_tx_submit(tx),
       [](ByteView v) { return parse_tx_submit(v).has_value(); }},
      {"block", encode_block(1, 0, {&tx}),
       [](ByteView v) { return parse_block(v).has_value(); }},
      {"sync_req", encode_block_sync_request({1}),
       [](ByteView v) { return parse_block_sync_request(v).has_value(); }},
      {"sync_resp", encode_block_sync_response({}),
       [](ByteView v) { return parse_block_sync_response(v).has_value(); }},
      {"batch_req", encode_batch_request(breq),
       [](ByteView v) { return parse_batch_request(v).has_value(); }},
      {"batch_resp", encode_batch_response({}, Bytes{1, 2, 3}),
       [](ByteView v) { return parse_batch_response_view(v).has_value(); }},
      {"proposal", signed_proposal,
       [](ByteView v) { return parse_proposal(v).has_value(); }},
      {"proposal_view", signed_proposal,
       [](ByteView v) { return parse_signed_proposal_view(v).has_value(); }},
      {"vote", encode_vote(vote),
       [](ByteView v) { return parse_vote(v).has_value(); }},
      {"round_skip", encode_round_skip({4, 1, 2}),
       [](ByteView v) { return parse_round_skip(v).has_value(); }},
      {"certified_block", certified,
       [](ByteView v) { return parse_certified_block(v).has_value(); }},
  };

  for (const auto& c : cases) {
    ASSERT_TRUE(c.parses(c.payload)) << c.name;
    for (std::size_t cut = 0; cut < c.payload.size(); ++cut) {
      EXPECT_FALSE(c.parses(ByteView(c.payload).first(cut)))
          << c.name << " accepted a prefix of " << cut << " bytes";
    }
    Bytes trailing = c.payload;
    trailing.push_back(0x00);
    EXPECT_FALSE(c.parses(trailing)) << c.name << " accepted trailing garbage";
  }
}

// Fuzz-ish sweep: random bytes through every parser and the frame decoder
// must never crash (run under ASan/UBSan in CI) and, for the frame decoder,
// never return kOk (the magic makes random success astronomically unlikely).
TEST(WirePayloads, RandomBytesNeverCrash) {
  sim::Rng rng(20260726);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes junk(rng.uniform_u64(64) + 1);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    Frame f;
    std::size_t consumed = 0;
    EXPECT_NE(decode_frame(junk, f, consumed), DecodeStatus::kOk);
    parse_hello(junk);
    parse_add_request(junk);
    parse_add_response(junk);
    parse_snapshot_response(junk);
    parse_proofs_response(junk);
    parse_epoch_response(junk);
    parse_tx_submit(junk);
    parse_block(junk);
    parse_block_sync_response(junk);
    parse_batch_request(junk);
    parse_batch_response_view(junk);
    parse_proposal(junk);
    parse_signed_proposal_view(junk);
    parse_vote(junk);
    parse_round_skip(junk);
    parse_certified_block(junk);
  }
}

}  // namespace
}  // namespace setchain::net::wire
