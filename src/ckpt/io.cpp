#include "ckpt/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <sstream>

#include <fstream>

#include "ckpt/train_state.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"

namespace zkg::ckpt {
namespace {

namespace fs = std::filesystem;

constexpr const char* kPrefix = "zkg-ckpt-";
constexpr const char* kSuffix = ".zkgc";

[[noreturn]] void io_fail(const std::string& what, const std::string& path) {
  throw SerializationError(what + " " + path + ": " + std::strerror(errno));
}

// RAII file descriptor so every error path closes the fd.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_fail("cannot write", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

void fsync_path(const std::string& path, int flags) {
  Fd fd(::open(path.c_str(), flags));
  if (fd.get() < 0) io_fail("cannot open for fsync", path);
  if (::fsync(fd.get()) != 0) io_fail("cannot fsync", path);
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& payload) {
  const fs::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      throw SerializationError("cannot create checkpoint directory " +
                               target.parent_path().string() + ": " +
                               ec.message());
    }
  }
  const std::string tmp = path + ".tmp";
  {
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.get() < 0) io_fail("cannot create", tmp);
    ZKG_FAILPOINT("ckpt.write");
    write_all(fd.get(), payload.data(), payload.size(), tmp);
    // Data must be durable BEFORE the rename publishes the name; otherwise
    // a crash could leave a fully-named, partially-persisted checkpoint.
    ZKG_FAILPOINT("ckpt.fsync");
    if (::fsync(fd.get()) != 0) io_fail("cannot fsync", tmp);
  }
  ZKG_FAILPOINT("ckpt.rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) io_fail("cannot rename", tmp);
  // Persist the directory entry so the rename itself survives power loss.
  fsync_path(target.has_parent_path() ? target.parent_path().string() : ".",
             O_RDONLY | O_DIRECTORY);
}

std::string checkpoint_path(const std::string& dir, std::int64_t epoch,
                            std::int64_t batch) {
  std::ostringstream name;
  name << kPrefix << "e" << std::setfill('0') << std::setw(6) << epoch << "-b"
       << std::setw(9) << batch << kSuffix;
  return (fs::path(dir) / name.str()).string();
}

std::vector<std::string> list_checkpoints(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(kPrefix, 0) == 0 && name.size() > std::strlen(kSuffix) &&
        name.compare(name.size() - std::strlen(kSuffix),
                     std::strlen(kSuffix), kSuffix) == 0) {
      paths.push_back(entry.path().string());
    }
  }
  // Zero-padded epoch/batch fields make name order == training order.
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string read_file(const std::string& path) {
  ZKG_FAILPOINT("ckpt.read");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SerializationError("cannot open " + path + " for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw SerializationError("cannot read " + path);
  }
  return buffer.str();
}

std::string latest_checkpoint(const std::string& dir) {
  const std::vector<std::string> paths = list_checkpoints(dir);
  // Newest first; a checkpoint that fails the envelope/CRC validation
  // (truncated by a torn write, bit-rotted, wrong format) is logged and
  // skipped so resume degrades to the next-older snapshot instead of
  // wedging on the broken one.
  for (auto it = paths.rbegin(); it != paths.rend(); ++it) {
    try {
      validate_train_state_bytes(read_file(*it));
      return *it;
    } catch (const std::exception& error) {
      log::warn() << "ckpt: skipping invalid checkpoint " << *it << ": "
                  << error.what();
    }
  }
  return std::string();
}

void rotate_checkpoints(const std::string& dir, std::int64_t keep_last) {
  std::vector<std::string> paths = list_checkpoints(dir);
  const auto total = static_cast<std::int64_t>(paths.size());
  std::error_code ec;
  for (std::int64_t i = 0; i + keep_last < total; ++i) {
    fs::remove(paths[static_cast<std::size_t>(i)], ec);
  }
  // Sweep partial writes from a previous crash.
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kPrefix, 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path(), ec);
    }
  }
}

}  // namespace zkg::ckpt
