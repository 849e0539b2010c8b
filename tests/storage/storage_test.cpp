// Unit tests for the durable storage subsystem: CRC32C vectors, WAL
// append/replay roundtrips, segment rotation + compaction pruning, snapshot
// atomicity + fallback, and the Storage facade's recovery bookkeeping.
#include "storage/storage.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

namespace setchain::storage {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/setchain_storage_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    (void)std::system(cmd.c_str());
  }
};

codec::Bytes bytes_of(std::initializer_list<int> v) {
  codec::Bytes out;
  for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

struct Record {
  WalRecordKind kind;
  std::uint64_t height;
  codec::Bytes payload;
};

std::vector<Record> collect(const Wal& wal, bool* ok = nullptr,
                            std::string* diag = nullptr) {
  std::vector<Record> out;
  std::string local;
  const bool r = wal.replay(
      [&](WalRecordKind kind, std::uint64_t height, codec::ByteView payload) {
        out.push_back({kind, height, codec::Bytes(payload.begin(), payload.end())});
      },
      diag != nullptr ? diag : &local);
  if (ok != nullptr) *ok = r;
  return out;
}

TEST(Crc32c, KnownVectors) {
  const char* nine = "123456789";
  EXPECT_EQ(crc32c(codec::ByteView(reinterpret_cast<const std::uint8_t*>(nine), 9)),
            0xE3069283u);
  const codec::Bytes zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(crc32c(codec::ByteView()), 0u);
}

TEST(Crc32c, SeedChainsIncrementally) {
  const codec::Bytes data = bytes_of({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  const auto whole = crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const auto first = crc32c(codec::ByteView(data.data(), split));
    const auto chained =
        crc32c(codec::ByteView(data.data() + split, data.size() - split), first);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(FsyncModeNames, RoundtripAndReject) {
  for (const auto m : {FsyncMode::kAlways, FsyncMode::kInterval, FsyncMode::kOff}) {
    const auto parsed = parse_fsync_mode(fsync_mode_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_EQ(parse_fsync_mode("ALWAYS"), FsyncMode::kAlways);  // case-insensitive
  EXPECT_FALSE(parse_fsync_mode("sometimes").has_value());
  EXPECT_FALSE(parse_fsync_mode("").has_value());
}

TEST(Wal, AppendReplayRoundtrip) {
  TempDir dir;
  const std::vector<Record> want = {
      {WalRecordKind::kBlock, 1, bytes_of({0xAA, 0xBB})},
      {WalRecordKind::kBatch, 1, bytes_of({1, 2, 3, 4, 5})},
      {WalRecordKind::kBlock, 2, {}},  // empty payload is legal
      {WalRecordKind::kBlock, 3, codec::Bytes(1000, 0x5C)},
  };
  {
    Wal wal;
    std::string diag;
    ASSERT_TRUE(wal.open({dir.path, FsyncMode::kOff}, &diag));
    EXPECT_TRUE(diag.empty()) << diag;
    for (const auto& r : want) {
      ASSERT_TRUE(wal.append(r.kind, r.height, r.payload));
    }
    EXPECT_EQ(wal.counters().records_appended, want.size());
    EXPECT_EQ(wal.last_height(), 3u);
  }
  Wal wal;
  std::string diag;
  ASSERT_TRUE(wal.open({dir.path, FsyncMode::kOff}, &diag));
  EXPECT_TRUE(diag.empty()) << diag;
  EXPECT_EQ(wal.counters().records_scanned, want.size());
  EXPECT_EQ(wal.last_height(), 3u);

  bool ok = false;
  const auto got = collect(wal, &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].height, want[i].height) << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << i;
  }
}

TEST(Wal, RotatesSegmentsAndReplaysAcrossThem) {
  TempDir dir;
  WalOptions opts{dir.path, FsyncMode::kOff};
  opts.segment_bytes = 256;  // force frequent rotation
  std::string diag;
  {
    Wal wal;
    ASSERT_TRUE(wal.open(opts, &diag));
    const codec::Bytes payload(100, 0x7E);
    for (std::uint64_t h = 1; h <= 20; ++h) {
      ASSERT_TRUE(wal.append(WalRecordKind::kBlock, h, payload));
    }
    EXPECT_GT(wal.segment_count(), 3u);
  }

  Wal reopened;
  ASSERT_TRUE(reopened.open(opts, &diag));
  bool ok = false;
  const auto got = collect(reopened, &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(got.size(), 20u);
  for (std::uint64_t h = 1; h <= 20; ++h) {
    EXPECT_EQ(got[h - 1].height, h);
  }
}

TEST(Wal, PruneCoveredDropsOnlyFullyCoveredInactiveSegments) {
  TempDir dir;
  WalOptions opts{dir.path, FsyncMode::kOff};
  opts.segment_bytes = 256;
  Wal wal;
  std::string diag;
  ASSERT_TRUE(wal.open(opts, &diag));
  const codec::Bytes payload(100, 0x11);
  for (std::uint64_t h = 1; h <= 20; ++h) {
    ASSERT_TRUE(wal.append(WalRecordKind::kBlock, h, payload));
  }
  const std::size_t before = wal.segment_count();
  ASSERT_GT(before, 3u);

  wal.prune_covered(10);
  const std::size_t after = wal.segment_count();
  EXPECT_LT(after, before);
  EXPECT_GE(after, 1u);  // the active segment survives any prune
  EXPECT_GT(wal.counters().segments_deleted, 0u);

  // Everything above the prune height is still there, contiguous to 20.
  bool ok = false;
  const auto got = collect(wal, &ok);
  EXPECT_TRUE(ok);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back().height, 20u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[i].height, got[i - 1].height + 1);
  }
  EXPECT_LE(got.front().height, 11u);  // no record above the floor was lost

  // Pruning at the tip never deletes the active segment.
  wal.prune_covered(1000);
  EXPECT_GE(wal.segment_count(), 1u);
  ASSERT_TRUE(wal.append(WalRecordKind::kBlock, 21, payload));
}

TEST(Wal, FsyncPolicyCounters) {
  const codec::Bytes payload(10, 1);
  {
    TempDir dir;
    Wal wal;
    std::string diag;
    ASSERT_TRUE(wal.open({dir.path, FsyncMode::kAlways}, &diag));
    for (std::uint64_t h = 1; h <= 5; ++h) {
      ASSERT_TRUE(wal.append(WalRecordKind::kBlock, h, payload));
    }
    EXPECT_GE(wal.counters().fsyncs, 5u);  // one per record
  }
  {
    TempDir dir;
    Wal wal;
    std::string diag;
    ASSERT_TRUE(wal.open({dir.path, FsyncMode::kOff}, &diag));
    for (std::uint64_t h = 1; h <= 5; ++h) {
      ASSERT_TRUE(wal.append(WalRecordKind::kBlock, h, payload));
    }
    EXPECT_EQ(wal.counters().fsyncs, 0u);
    wal.sync();  // explicit barrier still works in kOff
    EXPECT_EQ(wal.counters().fsyncs, 1u);
  }
}

TEST(Wal, TornTailIsTruncatedOnOpen) {
  TempDir dir;
  std::string wal_file;
  const codec::Bytes payload(40, 0x3D);
  {
    Wal wal;
    std::string diag;
    ASSERT_TRUE(wal.open({dir.path, FsyncMode::kOff}, &diag));
    for (std::uint64_t h = 1; h <= 3; ++h) {
      ASSERT_TRUE(wal.append(WalRecordKind::kBlock, h, payload));
    }
  }
  // Simulate a crash mid-append: half a header of garbage at the tail.
  wal_file = dir.path + "/wal-0000000000000001.log";
  {
    std::ofstream f(wal_file, std::ios::binary | std::ios::app);
    ASSERT_TRUE(f.good());
    f.write("\x53\x57\x41\x4C\x01\xFF\xFF", 7);
  }

  Wal wal;
  std::string diag;
  ASSERT_TRUE(wal.open({dir.path, FsyncMode::kOff}, &diag));
  EXPECT_FALSE(diag.empty());  // the cut is reported
  EXPECT_GT(wal.counters().truncated_bytes, 0u);
  bool ok = false;
  const auto got = collect(wal, &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(got.size(), 3u);  // the valid prefix survives intact
  EXPECT_EQ(got.back().height, 3u);

  // Appends continue cleanly after the repair, and a further reopen is
  // clean (the repair was written back, not just tolerated in memory).
  ASSERT_TRUE(wal.append(WalRecordKind::kBlock, 4, payload));
  Wal again;
  ASSERT_TRUE(again.open({dir.path, FsyncMode::kOff}, &diag));
  EXPECT_TRUE(diag.empty()) << diag;
  EXPECT_EQ(again.counters().records_scanned, 4u);
}

TEST(Snapshot, WriteLoadListPrune) {
  TempDir dir;
  std::string diag;
  const codec::Bytes body1 = bytes_of({1, 2, 3});
  const codec::Bytes body2(4096, 0xA5);
  ASSERT_TRUE(write_snapshot_file(dir.path, 10, body1, &diag));
  ASSERT_TRUE(write_snapshot_file(dir.path, 25, body2, &diag));

  const auto listed = list_snapshots(dir.path);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].first, 25u);  // newest first
  EXPECT_EQ(listed[1].first, 10u);

  const auto loaded = load_latest_snapshot(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->height, 25u);
  EXPECT_EQ(loaded->body, body2);
  EXPECT_EQ(loaded->fallbacks, 0u);

  ASSERT_TRUE(write_snapshot_file(dir.path, 40, body1, &diag));
  EXPECT_EQ(prune_snapshots(dir.path, 2), 1u);
  const auto kept = list_snapshots(dir.path);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].first, 40u);
  EXPECT_EQ(kept[1].first, 25u);
}

TEST(Snapshot, StreamedBodyMatchesOneSegmentAndItsDeclaredLength) {
  // A body emitted in uneven chunks lands as the same file as the same body
  // written in one segment. A producer that emits other than the declared
  // length fails and leaves no file behind.
  TempDir one, chunked;
  std::string diag;
  codec::Bytes body(200'000);
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<std::uint8_t>(i * 31 + 7);
  const auto in_chunks = [&body](const std::function<void(codec::ByteView)>& emit) {
    for (std::size_t off = 0, step = 1; off < body.size(); off += step, step = step * 3 + 1) {
      emit(codec::ByteView(body).subspan(off, std::min(step, body.size() - off)));
    }
  };
  ASSERT_TRUE(write_snapshot_file(one.path, 7, body, &diag)) << diag;
  ASSERT_TRUE(write_snapshot_file(chunked.path, 7, body.size(), in_chunks, &diag)) << diag;
  const auto read = [](const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return codec::Bytes(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  };
  const std::string name = "/snap-0000000000000007.snap";
  EXPECT_EQ(read(chunked.path + name), read(one.path + name));

  for (const std::uint64_t declared : {body.size() - 1, body.size() + 1}) {
    diag.clear();
    EXPECT_FALSE(write_snapshot_file(chunked.path, 8, declared, in_chunks, &diag));
    EXPECT_NE(diag.find("header says"), std::string::npos) << diag;
    EXPECT_NE(::access((chunked.path + "/snap-0000000000000008.snap.tmp").c_str(), F_OK), 0);
    const auto listed = list_snapshots(chunked.path);
    ASSERT_EQ(listed.size(), 1u);
    EXPECT_EQ(listed[0].first, 7u);
  }
}

TEST(Snapshot, FallsBackPastDamagedNewest) {
  TempDir dir;
  std::string diag;
  const codec::Bytes body_old = bytes_of({10, 20, 30});
  ASSERT_TRUE(write_snapshot_file(dir.path, 5, body_old, &diag));
  ASSERT_TRUE(write_snapshot_file(dir.path, 9, bytes_of({40, 50}), &diag));

  // Flip one body byte of the newest: its CRC no longer matches.
  const std::string newest = dir.path + "/snap-0000000000000009.snap";
  {
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(kSnapshotHeaderBytes));
    f.put('\x7F');
  }
  std::uint64_t h = 0;
  codec::Bytes body;
  EXPECT_FALSE(load_snapshot_file(newest, &h, &body, &diag));
  EXPECT_FALSE(diag.empty());

  const auto loaded = load_latest_snapshot(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->height, 5u);
  EXPECT_EQ(loaded->body, body_old);
  EXPECT_EQ(loaded->fallbacks, 1u);
  EXPECT_FALSE(loaded->diagnostic.empty());
}

TEST(StorageFacade, SnapshotFloorSplitsReplay) {
  TempDir dir;
  StorageConfig cfg;
  cfg.dir = dir.path + "/data";  // exercises directory creation too
  cfg.fsync = FsyncMode::kOff;
  const codec::Bytes blockp(64, 0xB0);
  const codec::Bytes batchp(64, 0xBA);
  {
    std::string err;
    auto st = Storage::open(cfg, &err);
    ASSERT_NE(st, nullptr) << err;
    for (std::uint64_t h = 1; h <= 10; ++h) {
      ASSERT_TRUE(st->append_block(h, blockp));
      if (h % 2 == 0) {
        ASSERT_TRUE(st->append_batch(h, batchp));
      }
    }
    ASSERT_TRUE(st->write_snapshot(6, bytes_of({9, 9, 9})));
    EXPECT_EQ(st->snapshots_written(), 1u);
    EXPECT_EQ(st->last_snapshot_height(), 6u);
  }

  std::string err;
  auto st = Storage::open(cfg, &err);
  ASSERT_NE(st, nullptr) << err;
  const auto body = st->load_snapshot();
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, bytes_of({9, 9, 9}));
  EXPECT_TRUE(st->recovery().snapshot_loaded);
  EXPECT_EQ(st->recovery().snapshot_height, 6u);

  // Blocks replay strictly above the floor; a batch stamped AT the floor
  // replays too (it may postdate the snapshot; re-putting is idempotent).
  std::vector<std::pair<WalRecordKind, std::uint64_t>> got;
  EXPECT_TRUE(st->replay([&](WalRecordKind kind, std::uint64_t height,
                             codec::ByteView payload) {
    (void)payload;
    got.push_back({kind, height});
  }));
  for (const auto& [kind, height] : got) {
    if (kind == WalRecordKind::kBlock) {
      EXPECT_GT(height, 6u);
    } else {
      EXPECT_GE(height, 6u);
    }
  }
  std::uint64_t blocks = 0, batches = 0;
  for (const auto& [kind, height] : got) {
    (void)height;
    kind == WalRecordKind::kBlock ? ++blocks : ++batches;
  }
  EXPECT_EQ(blocks, 4u);   // heights 7..10
  EXPECT_EQ(batches, 3u);  // heights 6, 8, 10
  EXPECT_EQ(st->recovery().wal_blocks_replayed, 4u);
  EXPECT_EQ(st->recovery().wal_batches_replayed, 3u);
  EXPECT_GT(st->recovery().wal_records_skipped, 0u);
}

TEST(StorageFacade, RefusesEmptyDir) {
  StorageConfig cfg;
  std::string err;
  EXPECT_EQ(Storage::open(cfg, &err), nullptr);
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace setchain::storage
