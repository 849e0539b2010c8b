#include "storage/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <dirent.h>

#include "storage/wal.hpp"  // crc32c

namespace setchain::storage {
namespace {

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::string snapshot_path(const std::string& dir, std::uint64_t height) {
  char name[64];
  std::snprintf(name, sizeof(name), "snap-%016" PRIx64 ".snap", height);
  return dir + "/" + name;
}

std::optional<std::uint64_t> parse_snapshot_name(const char* name) {
  std::size_t len = std::strlen(name);
  if (len != 5 + 16 + 5) return std::nullopt;
  if (std::memcmp(name, "snap-", 5) != 0) return std::nullopt;
  if (std::memcmp(name + 21, ".snap", 5) != 0) return std::nullopt;
  std::uint64_t h = 0;
  for (std::size_t i = 5; i < 21; ++i) {
    char c = name[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a') + 10;
    else return std::nullopt;
    h = (h << 4) | digit;
  }
  return h;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Read up to `len` bytes, stopping early only at end of file. The count
/// read, or -1 on error.
ssize_t read_full(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    ssize_t n = ::read(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

void fsync_dir(const std::string& dir) {
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void set_diag(std::string* diagnostic, std::string msg) {
  if (diagnostic != nullptr) *diagnostic = std::move(msg);
}

}  // namespace

bool write_snapshot_file(const std::string& dir, std::uint64_t height,
                         std::uint64_t body_len, const SnapshotBodyFn& produce,
                         std::string* diagnostic) {
  std::uint8_t header[kSnapshotHeaderBytes];
  put_u32le(header, kSnapshotMagic);
  header[4] = kSnapshotVersion;
  put_u64le(header + 5, height);
  put_u64le(header + 13, body_len);
  put_u32le(header + 21, 0);  // patched below, once the body has gone out
  std::uint32_t crc = crc32c(codec::ByteView(header + 4, 17));

  std::string final_path = snapshot_path(dir, height);
  std::string tmp_path = final_path + ".tmp";
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    set_diag(diagnostic, "cannot create " + tmp_path + ": " + std::strerror(errno));
    return false;
  }
  bool ok = write_all(fd, header, kSnapshotHeaderBytes);
  int write_errno = ok ? 0 : errno;  // produce() may run on after a failure
  std::uint64_t streamed = 0;
  produce([&](codec::ByteView chunk) {
    streamed += chunk.size();
    if (!ok) return;
    crc = crc32c(chunk, crc);
    ok = write_all(fd, chunk.data(), chunk.size());
    if (!ok) write_errno = errno;
  });
  std::string why;
  if (!ok) {
    why = "write failed on " + tmp_path + ": " + std::strerror(write_errno);
  } else if (streamed != body_len) {
    ok = false;
    why = tmp_path + ": body was " + std::to_string(streamed) + " bytes, header says " +
          std::to_string(body_len);
  } else {
    put_u32le(header + 21, crc);
    ok = ::pwrite(fd, header + 21, 4, 21) == 4 && ::fsync(fd) == 0;
    if (!ok) why = "write failed on " + tmp_path + ": " + std::strerror(errno);
  }
  ::close(fd);
  if (!ok) {
    set_diag(diagnostic, std::move(why));
    ::unlink(tmp_path.c_str());
    return false;
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    set_diag(diagnostic, "rename to " + final_path + " failed: " + std::strerror(errno));
    ::unlink(tmp_path.c_str());
    return false;
  }
  fsync_dir(dir);
  return true;
}

bool write_snapshot_file(const std::string& dir, std::uint64_t height,
                         codec::ByteView body, std::string* diagnostic) {
  return write_snapshot_file(
      dir, height, body.size(),
      [body](const std::function<void(codec::ByteView)>& emit) { emit(body); }, diagnostic);
}

bool load_snapshot_file(const std::string& path, std::uint64_t* height,
                        codec::Bytes* body, std::string* diagnostic) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    set_diag(diagnostic, "cannot open " + path + ": " + std::strerror(errno));
    return false;
  }
  // The header first; its body length is checked against the file size
  // before the body buffer is sized, once, and read straight into.
  const auto fail = [&](std::string why) {
    ::close(fd);
    set_diag(diagnostic, std::move(why));
    return false;
  };
  std::uint8_t h[kSnapshotHeaderBytes];
  struct stat st{};
  const ssize_t got = read_full(fd, h, kSnapshotHeaderBytes);
  if (got < 0 || ::fstat(fd, &st) != 0) {
    return fail("read failed on " + path + ": " + std::strerror(errno));
  }
  if (static_cast<std::size_t>(got) < kSnapshotHeaderBytes) {
    return fail(path + ": shorter than a snapshot header");
  }
  if (codec::read_u32le(codec::ByteView(h, 4)) != kSnapshotMagic) {
    return fail(path + ": bad magic");
  }
  if (h[4] != kSnapshotVersion) {
    return fail(path + ": unsupported version " + std::to_string(h[4]));
  }
  std::uint64_t file_height = codec::read_u64le(codec::ByteView(h + 5, 8));
  std::uint64_t body_len = codec::read_u64le(codec::ByteView(h + 13, 8));
  std::uint32_t crc = codec::read_u32le(codec::ByteView(h + 21, 4));
  const std::uint64_t file_body = static_cast<std::uint64_t>(st.st_size) - kSnapshotHeaderBytes;
  if (file_body != body_len) {
    return fail(path + ": body length mismatch (header says " + std::to_string(body_len) +
                ", file has " + std::to_string(file_body) + ")");
  }
  codec::Bytes data(body_len);
  const ssize_t read_body = read_full(fd, data.data(), data.size());
  if (read_body < 0) return fail("read failed on " + path + ": " + std::strerror(errno));
  if (static_cast<std::uint64_t>(read_body) != body_len) {
    return fail(path + ": body length mismatch (header says " + std::to_string(body_len) +
                ", file has " + std::to_string(read_body) + ")");
  }
  ::close(fd);

  std::uint32_t want = crc32c(codec::ByteView(h + 4, 17));
  want = crc32c(data, want);
  if (want != crc) {
    set_diag(diagnostic, path + ": CRC mismatch");
    return false;
  }
  if (height != nullptr) *height = file_height;
  if (body != nullptr) *body = std::move(data);
  return true;
}

std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    if (auto h = parse_snapshot_name(e->d_name)) {
      out.emplace_back(*h, dir + "/" + e->d_name);
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

std::optional<LoadedSnapshot> load_latest_snapshot(const std::string& dir) {
  LoadedSnapshot snap;
  for (const auto& [height, path] : list_snapshots(dir)) {
    std::string why;
    if (load_snapshot_file(path, &snap.height, &snap.body, &why)) return snap;
    ++snap.fallbacks;
    if (!snap.diagnostic.empty()) snap.diagnostic += "; ";
    snap.diagnostic += why;
  }
  return std::nullopt;
}

std::size_t prune_snapshots(const std::string& dir, std::size_t keep,
                            std::uint64_t* oldest_kept) {
  auto snaps = list_snapshots(dir);
  std::size_t removed = 0;
  std::uint64_t oldest = 0;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    if (i >= keep && ::unlink(snaps[i].second.c_str()) == 0) {
      ++removed;
    } else {
      oldest = snaps[i].first;  // newest first: the last one left is the oldest
    }
  }
  if (removed > 0) fsync_dir(dir);
  if (oldest_kept != nullptr) *oldest_kept = oldest;
  return removed;
}

}  // namespace setchain::storage
