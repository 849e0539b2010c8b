#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "codec/bytes.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace setchain::storage {

struct StorageConfig {
  std::string dir;  ///< data directory (created if missing)
  FsyncMode fsync = FsyncMode::kInterval;
  std::uint64_t fsync_interval_ms = 50;
  std::uint64_t segment_bytes = 8u << 20;
  /// Snapshots retained on disk. Two by default: the newest plus one
  /// fallback, so a damaged newest snapshot never strands recovery. The WAL
  /// is pruned against the OLDEST retained snapshot so fallback + WAL gap
  /// always coexist.
  std::uint32_t snapshots_kept = 2;
};

/// What recovery found and did — exposed through NodeHost, printed by
/// setchain_node's shutdown stats, and asserted by restart tests to prove
/// tail-only replay.
struct RecoveryStats {
  bool snapshot_loaded = false;
  std::uint64_t snapshot_height = 0;
  /// Newer-but-damaged snapshot files skipped before one validated.
  std::uint64_t snapshot_fallbacks = 0;
  std::uint64_t wal_blocks_replayed = 0;
  std::uint64_t wal_batches_replayed = 0;
  /// WAL records at or below the snapshot height (already covered).
  std::uint64_t wal_records_skipped = 0;
  std::uint64_t wal_truncated_bytes = 0;
  /// Human-readable account of anything abnormal (torn tail, fallbacks).
  std::string diagnostic;
};

/// Facade tying the WAL and snapshot store to one data directory. Owned by
/// the process hosting a node; NodeHost drives it: load_snapshot() +
/// replay() during recovery, append_block()/append_batch() from commit
/// hooks, write_snapshot() on the epoch cadence. Payloads are opaque bytes
/// here — framing/meaning belong to the callers (docs/STORAGE_FORMAT.md).
class Storage {
 public:
  /// Open (and create if needed) the data directory, scan + repair the WAL.
  /// nullptr + error on I/O failure.
  static std::unique_ptr<Storage> open(const StorageConfig& cfg, std::string* error);

  /// Newest valid snapshot body, or nullopt when none exists. Records
  /// height/fallback counters in recovery().
  std::optional<codec::Bytes> load_snapshot();

  /// Stream WAL records with height > the loaded snapshot's height (all of
  /// them when no snapshot was loaded) through `fn`; covered records are
  /// counted as skipped. Returns false if the scan hit damage (diagnostic
  /// recorded; the delivered prefix is still valid).
  bool replay(const std::function<void(WalRecordKind kind, std::uint64_t height,
                                       codec::ByteView payload)>& fn);

  bool append_block(std::uint64_t height, codec::ByteView payload) {
    return wal_.append(WalRecordKind::kBlock, height, payload);
  }
  bool append_batch(std::uint64_t height, codec::ByteView payload) {
    return wal_.append(WalRecordKind::kBatch, height, payload);
  }

  /// Durably write a snapshot at `height` whose `body_len`-byte body
  /// `produce` streams to the file (write_snapshot_file), prune old
  /// snapshots down to snapshots_kept, and drop WAL segments covered by the
  /// oldest retained snapshot. False + untouched WAL on failure.
  bool write_snapshot(std::uint64_t height, std::uint64_t body_len,
                      const SnapshotBodyFn& produce);
  /// The same for a body already in memory.
  bool write_snapshot(std::uint64_t height, codec::ByteView body);

  /// fdatasync the active WAL segment (shutdown barrier).
  void sync() { wal_.sync(); }

  const RecoveryStats& recovery() const { return recovery_; }
  const WalCounters& wal_counters() const { return wal_.counters(); }
  std::uint64_t wal_last_height() const { return wal_.last_height(); }
  std::size_t wal_segment_count() const { return wal_.segment_count(); }
  std::uint64_t snapshots_written() const { return snapshots_written_; }
  /// Snapshot file bytes (header + body) this Storage has written.
  std::uint64_t snapshot_bytes_written() const { return snapshot_bytes_written_; }
  std::uint64_t last_snapshot_height() const { return last_snapshot_height_; }
  /// File size of the newest snapshot written or loaded (0 when none).
  std::uint64_t last_snapshot_bytes() const { return last_snapshot_bytes_; }
  /// WAL bytes appended since that snapshot (since open when none was
  /// written in this process).
  std::uint64_t wal_bytes_since_snapshot() const {
    return wal_.counters().bytes_appended - wal_bytes_at_snapshot_;
  }
  const std::string& dir() const { return cfg_.dir; }

 private:
  Storage() = default;

  StorageConfig cfg_;
  Wal wal_;
  RecoveryStats recovery_;
  std::uint64_t snapshots_written_ = 0;
  std::uint64_t snapshot_bytes_written_ = 0;
  std::uint64_t last_snapshot_height_ = 0;
  std::uint64_t last_snapshot_bytes_ = 0;
  std::uint64_t wal_bytes_at_snapshot_ = 0;  ///< WAL bytes_appended at that cut
};

}  // namespace setchain::storage
