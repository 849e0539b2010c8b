#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codec/bytes.hpp"

namespace setchain::storage {

/// Epoch snapshot files: `snap-<height 16 hex>.snap`, written atomically
/// (tmp + fsync + rename + directory fsync). The header CRC covers the
/// version, height, and body length fields as well as the body, so a bit
/// flip anywhere in the file is detected. docs/STORAGE_FORMAT.md is
/// normative.

constexpr std::uint32_t kSnapshotMagic = 0x504E5353;  // "SSNP" LE
constexpr std::uint8_t kSnapshotVersion = 1;
/// magic(4) + version(1) + height(8) + body_len(8) + crc(4).
constexpr std::size_t kSnapshotHeaderBytes = 25;

/// Produces a snapshot body: hands its bytes, in order, to `emit`.
using SnapshotBodyFn = std::function<void(const std::function<void(codec::ByteView)>& emit)>;

/// Atomically write `snap-<height>.snap` in `dir`, streaming a body of
/// exactly `body_len` bytes from `produce` straight to the file: the header
/// goes out first, the CRC is chained over the bytes as they pass and
/// patched into the header before the fsync, so the writer holds no copy
/// of the body. False + diagnostic on I/O failure or when `produce` emits
/// other than `body_len` bytes (a stale tmp file may remain; it is ignored
/// by loaders and overwritten by the next attempt).
bool write_snapshot_file(const std::string& dir, std::uint64_t height,
                         std::uint64_t body_len, const SnapshotBodyFn& produce,
                         std::string* diagnostic);

/// The same for a body already in memory: one emitted segment.
bool write_snapshot_file(const std::string& dir, std::uint64_t height,
                         codec::ByteView body, std::string* diagnostic);

struct LoadedSnapshot {
  std::uint64_t height = 0;
  codec::Bytes body;
  /// Newer snapshot files that failed validation and were skipped.
  std::uint64_t fallbacks = 0;
  std::string diagnostic;  ///< why each fallback happened (empty when none)
};

/// Load the newest snapshot in `dir` that passes magic/version/CRC
/// validation, falling back to older ones when the newest is damaged.
/// nullopt when no valid snapshot exists (diagnostics are lost in that
/// case — use list_snapshots + load_snapshot_file to inspect).
std::optional<LoadedSnapshot> load_latest_snapshot(const std::string& dir);

/// Validate and read one snapshot file. False + diagnostic on any damage.
bool load_snapshot_file(const std::string& path, std::uint64_t* height,
                        codec::Bytes* body, std::string* diagnostic);

/// All well-named snapshot files in `dir` as (height, path), newest first.
std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(const std::string& dir);

/// Delete all but the newest `keep` snapshots, in one directory scan.
/// Returns how many were removed; `oldest_kept` (optional) receives the
/// height of the oldest one left on disk, a failed unlink included (0 when
/// none is left).
std::size_t prune_snapshots(const std::string& dir, std::size_t keep,
                            std::uint64_t* oldest_kept = nullptr);

}  // namespace setchain::storage
