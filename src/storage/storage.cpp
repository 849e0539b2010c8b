#include "storage/storage.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>

namespace setchain::storage {
namespace {

/// mkdir -p: create each path component, tolerating ones that exist.
bool make_dirs(const std::string& path, std::string* error) {
  std::string partial;
  partial.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      partial.push_back(path[i]);
      continue;
    }
    if (!partial.empty() && ::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      if (error != nullptr) {
        *error = "mkdir " + partial + " failed: " + std::strerror(errno);
      }
      return false;
    }
    if (i < path.size()) partial.push_back('/');
  }
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    if (error != nullptr) *error = path + " is not a directory";
    return false;
  }
  return true;
}

}  // namespace

std::unique_ptr<Storage> Storage::open(const StorageConfig& cfg, std::string* error) {
  if (cfg.dir.empty()) {
    if (error != nullptr) *error = "empty data directory";
    return nullptr;
  }
  if (!make_dirs(cfg.dir, error)) return nullptr;

  auto st = std::unique_ptr<Storage>(new Storage());
  st->cfg_ = cfg;
  WalOptions wopts;
  wopts.dir = cfg.dir;
  wopts.fsync = cfg.fsync;
  wopts.fsync_interval_ms = cfg.fsync_interval_ms;
  wopts.segment_bytes = cfg.segment_bytes;
  std::string diag;
  if (!st->wal_.open(std::move(wopts), &diag)) {
    if (error != nullptr) *error = diag;
    return nullptr;
  }
  st->recovery_.diagnostic = diag;  // torn-tail repairs, if any
  st->recovery_.wal_truncated_bytes = st->wal_.counters().truncated_bytes;
  return st;
}

std::optional<codec::Bytes> Storage::load_snapshot() {
  auto snap = load_latest_snapshot(cfg_.dir);
  if (!snap.has_value()) return std::nullopt;
  recovery_.snapshot_loaded = true;
  recovery_.snapshot_height = snap->height;
  recovery_.snapshot_fallbacks = snap->fallbacks;
  last_snapshot_height_ = snap->height;
  last_snapshot_bytes_ = kSnapshotHeaderBytes + snap->body.size();
  if (!snap->diagnostic.empty()) {
    if (!recovery_.diagnostic.empty()) recovery_.diagnostic += "; ";
    recovery_.diagnostic += snap->diagnostic;
  }
  return std::move(snap->body);
}

bool Storage::replay(const std::function<void(WalRecordKind, std::uint64_t,
                                              codec::ByteView)>& fn) {
  const std::uint64_t floor = recovery_.snapshot_height;
  std::string diag;
  bool clean = wal_.replay(
      [&](WalRecordKind kind, std::uint64_t height, codec::ByteView payload) {
        // Blocks at the snapshot height are inside the snapshot by
        // construction; a batch stamped with that height may have been put
        // just after the snapshot, so batches only skip strictly below it
        // (re-putting a snapshotted batch is idempotent).
        bool covered = kind == WalRecordKind::kBlock ? height <= floor : height < floor;
        if (covered && floor != 0) {
          ++recovery_.wal_records_skipped;
          return;
        }
        if (kind == WalRecordKind::kBlock) {
          ++recovery_.wal_blocks_replayed;
        } else {
          ++recovery_.wal_batches_replayed;
        }
        fn(kind, height, payload);
      },
      &diag);
  if (!diag.empty()) {
    if (!recovery_.diagnostic.empty()) recovery_.diagnostic += "; ";
    recovery_.diagnostic += diag;
  }
  return clean;
}

bool Storage::write_snapshot(std::uint64_t height, std::uint64_t body_len,
                             const SnapshotBodyFn& produce) {
  // The WAL must be on disk up to this height before the snapshot claims to
  // cover it — otherwise a crash right after the prune below could lose the
  // gap between the snapshot and an unsynced tail.
  wal_.sync();
  std::string diag;
  if (!write_snapshot_file(cfg_.dir, height, body_len, produce, &diag)) return false;
  ++snapshots_written_;
  last_snapshot_height_ = height;
  last_snapshot_bytes_ = kSnapshotHeaderBytes + body_len;
  snapshot_bytes_written_ += last_snapshot_bytes_;
  wal_bytes_at_snapshot_ = wal_.counters().bytes_appended;
  std::uint64_t oldest_kept = 0;
  prune_snapshots(cfg_.dir, cfg_.snapshots_kept, &oldest_kept);
  if (oldest_kept != 0) wal_.prune_covered(oldest_kept);
  return true;
}

bool Storage::write_snapshot(std::uint64_t height, codec::ByteView body) {
  return write_snapshot(
      height, body.size(),
      [body](const std::function<void(codec::ByteView)>& emit) { emit(body); });
}

}  // namespace setchain::storage
