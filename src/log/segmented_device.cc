#include "log/segmented_device.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>

namespace skeena {
namespace {

constexpr uint64_t kPageBytes = 4096;
constexpr char kSegmentPrefix[] = "wal.";
constexpr char kSegmentSuffix[] = ".seg";

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) & ~(a - 1); }

ssize_t PreadFully(int fd, uint8_t* buf, size_t count, off_t offset) {
  size_t done = 0;
  while (done < count) {
    ssize_t n = ::pread(fd, buf + done, count - done,
                        offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return n;
    }
    if (n == 0) break;  // past EOF: caller decides
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

/// Parses "wal.<8 digits>.seg" into its index; returns false otherwise.
bool ParseSegmentName(const char* name, size_t* index) {
  const size_t prefix_len = sizeof(kSegmentPrefix) - 1;
  const size_t suffix_len = sizeof(kSegmentSuffix) - 1;
  const size_t name_len = std::strlen(name);
  if (name_len != prefix_len + 8 + suffix_len) return false;
  if (std::strncmp(name, kSegmentPrefix, prefix_len) != 0) return false;
  if (std::strcmp(name + prefix_len + 8, kSegmentSuffix) != 0) return false;
  size_t value = 0;
  for (size_t i = 0; i < 8; ++i) {
    const char c = name[prefix_len + i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  *index = value;
  return true;
}

}  // namespace

SegmentedLogDevice::SegmentedLogDevice(std::string dir, Options options)
    : dir_(std::move(dir)),
      options_(options),
      segment_bytes_(AlignUp(std::max<uint64_t>(options.segment_bytes,
                                                2 * kPageBytes),
                             kPageBytes)) {}

Result<std::unique_ptr<SegmentedLogDevice>> SegmentedLogDevice::Open(
    const std::string& dir) {
  return Open(dir, Options());
}

Result<std::unique_ptr<SegmentedLogDevice>> SegmentedLogDevice::Open(
    const std::string& dir, Options options) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir failed: " + dir);
  }
  auto device = std::unique_ptr<SegmentedLogDevice>(
      new SegmentedLogDevice(dir, options));
  device->dir_fd_ = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (device->dir_fd_ < 0) {
    return Status::IOError("open dir failed: " + dir);
  }

  // Collect existing segment indices; the set in use is the contiguous run
  // from 0. Anything past a gap is an orphan of an interrupted truncate —
  // its bytes are already logically discarded, so remove it.
  std::set<size_t> present;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("opendir failed: " + dir);
  }
  while (dirent* entry = ::readdir(d)) {
    size_t index = 0;
    if (ParseSegmentName(entry->d_name, &index)) present.insert(index);
  }
  ::closedir(d);
  size_t count = 0;
  while (present.count(count) != 0) ++count;
  // A surviving orphan would be reopened with its old bytes once the log
  // grows back to its index, so a failed unlink fails the open.
  for (auto it = present.lower_bound(count); it != present.end(); ++it) {
    const std::string path = device->SegmentPath(*it);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError("unlink failed: " + path);
    }
  }

  {
    MutexLock guard(device->mu_);
    // Opening re-preallocates each segment to its full size, so a crash
    // mid-rotation (segment file created but not fully sized) heals here.
    SKEENA_RETURN_NOT_OK(
        device->EnsureSegmentsLocked(std::max<size_t>(count, 1)));
    // Physical upper bound; the log's tail scan + Truncate refines it.
    device->logical_size_ =
        static_cast<uint64_t>(count) * device->segment_bytes_;
  }
  return device;
}

SegmentedLogDevice::~SegmentedLogDevice() {
  for (Segment& seg : segments_) {
    if (seg.write_fd >= 0) ::close(seg.write_fd);
    if (seg.read_fd >= 0 && seg.read_fd != seg.write_fd) ::close(seg.read_fd);
  }
  if (dir_fd_ >= 0) ::close(dir_fd_);
}

std::string SegmentedLogDevice::SegmentPath(size_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%08zu%s", kSegmentPrefix, index,
                kSegmentSuffix);
  return dir_ + "/" + name;
}

Status SegmentedLogDevice::OpenSegmentLocked(size_t index, bool create) {
  const std::string path = SegmentPath(index);
  int write_fd = ::open(path.c_str(), O_RDWR | (create ? O_CREAT : 0), 0644);
  if (write_fd < 0) {
    return Status::IOError("open failed: " + path);
  }
  // Preallocate to the fixed size (idempotent; also heals a segment whose
  // creating process crashed before sizing it). The extended range reads
  // as zeros == end-of-log for the frame format.
  if (::ftruncate(write_fd, static_cast<off_t>(segment_bytes_)) != 0) {
    ::close(write_fd);
    return Status::IOError("ftruncate failed: " + path);
  }
  int read_fd = ::open(path.c_str(), O_RDONLY);
  if (read_fd < 0) {
    ::close(write_fd);
    return Status::IOError("open (read) failed: " + path);
  }
  if (create && dir_fd_ >= 0 && ::fsync(dir_fd_) != 0) {
    // The new dirent must survive a crash for the segment to be found on
    // reopen, or bytes acked into it would vanish with it. The segment
    // stays unopened, so a retry syncs the directory again.
    ::close(read_fd);
    ::close(write_fd);
    return Status::IOError("directory fsync failed: " + dir_);
  }
  if (index >= segments_.size()) segments_.resize(index + 1);
  segments_[index].write_fd = write_fd;
  segments_[index].read_fd = read_fd;
  segments_[index].dirty = true;  // preallocation metadata wants a sync
  return Status::OK();
}

Status SegmentedLogDevice::EnsureSegmentsLocked(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (i < segments_.size() && segments_[i].write_fd >= 0) continue;
    SKEENA_RETURN_NOT_OK(OpenSegmentLocked(i, /*create=*/true));
  }
  return Status::OK();
}

Status SegmentedLogDevice::PwritePieceLocked(Segment& seg, uint64_t file_off,
                                             std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t remaining = data.size();
  off_t at = static_cast<off_t>(file_off);
  while (remaining > 0) {
    ssize_t n = ::pwrite(seg.write_fd, p, remaining, at);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite failed: " + dir_);
    }
    if (n == 0) return Status::IOError("pwrite wrote nothing: " + dir_);
    p += n;
    at += n;
    remaining -= static_cast<size_t>(n);
  }
  seg.dirty = true;
  return Status::OK();
}

Status SegmentedLogDevice::WritePiecesLocked(uint64_t offset,
                                             std::span<const uint8_t> data) {
  const uint64_t end = offset + data.size();
  const size_t last_seg = static_cast<size_t>((end - 1) / segment_bytes_);
  SKEENA_RETURN_NOT_OK(EnsureSegmentsLocked(last_seg + 1));

  uint64_t at = offset;
  const uint8_t* src = data.data();
  while (at < end) {
    const size_t seg = static_cast<size_t>(at / segment_bytes_);
    const uint64_t file_off = at % segment_bytes_;
    const uint64_t len =
        std::min<uint64_t>(segment_bytes_ - file_off, end - at);
    SKEENA_RETURN_NOT_OK(PwritePieceLocked(
        segments_[seg], file_off, std::span(src, static_cast<size_t>(len))));
    at += len;
    src += len;
  }
  if (end > logical_size_) logical_size_ = end;
  return Status::OK();
}

Status SegmentedLogDevice::WriteAt(uint64_t offset,
                                   std::span<const uint8_t> data) {
  if (data.empty()) return Status::OK();
  {
    MutexLock guard(mu_);
    SKEENA_RETURN_NOT_OK(WritePiecesLocked(offset, data));
  }
  SpinWaitNs(options_.latency.write_ns);
  return Status::OK();
}

Status SegmentedLogDevice::ReadAt(uint64_t offset,
                                  std::span<uint8_t> out) const {
  {
    MutexLock guard(mu_);
    uint64_t at = offset;
    uint8_t* dst = out.data();
    const uint64_t end = offset + out.size();
    if (end > segments_.size() * segment_bytes_) {
      return Status::IOError("read past end of device");
    }
    while (at < end) {
      const size_t seg = static_cast<size_t>(at / segment_bytes_);
      const uint64_t file_off = at % segment_bytes_;
      const uint64_t len =
          std::min<uint64_t>(segment_bytes_ - file_off, end - at);
      if (PreadFully(segments_[seg].read_fd, dst, static_cast<size_t>(len),
                     static_cast<off_t>(file_off)) !=
          static_cast<ssize_t>(len)) {
        return Status::IOError("pread failed: " + dir_);
      }
      at += len;
      dst += len;
    }
  }
  SpinWaitNs(options_.latency.read_ns);
  return Status::OK();
}

Status SegmentedLogDevice::Sync() {
  {
    MutexLock guard(mu_);
    for (Segment& seg : segments_) {
      if (!seg.dirty) continue;
      if (::fdatasync(seg.write_fd) != 0) {
        return Status::IOError("fdatasync failed: " + dir_);
      }
      seg.dirty = false;
    }
  }
  SpinWaitNs(options_.latency.sync_ns);
  return Status::OK();
}

Status SegmentedLogDevice::Truncate(uint64_t size) {
  MutexLock guard(mu_);
  const size_t keep =
      std::max<size_t>(1, static_cast<size_t>((size + segment_bytes_ - 1) /
                                              segment_bytes_));
  // A later segment that stays on disk would rejoin the log on reopen, so
  // a failed unlink or directory sync is an error, not a degraded success.
  Status dropped = Status::OK();
  for (size_t i = keep; i < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    if (seg.write_fd >= 0) ::close(seg.write_fd);
    if (seg.read_fd >= 0) ::close(seg.read_fd);
    const std::string path = SegmentPath(i);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT && dropped.ok()) {
      dropped = Status::IOError("unlink failed: " + path);
    }
  }
  if (keep < segments_.size()) {
    segments_.resize(keep);
    if (dir_fd_ >= 0 && ::fsync(dir_fd_) != 0 && dropped.ok()) {
      dropped = Status::IOError("directory fsync failed: " + dir_);
    }
  }
  SKEENA_RETURN_NOT_OK(dropped);
  // Re-zero the tail segment beyond `size`: shrink to the logical tail,
  // then re-extend to the fixed segment size. Without this, stale frames
  // beyond the new tail could read as valid after the log reuses the space.
  const uint64_t tail_valid =
      size == 0 ? 0
                : (size % segment_bytes_ == 0 ? segment_bytes_
                                              : size % segment_bytes_);
  Segment& tail = segments_[keep - 1];
  if (tail_valid < segment_bytes_) {
    const std::string path = SegmentPath(keep - 1);
    if (::ftruncate(tail.write_fd, static_cast<off_t>(tail_valid)) != 0 ||
        ::ftruncate(tail.write_fd, static_cast<off_t>(segment_bytes_)) != 0) {
      return Status::IOError("ftruncate failed: " + path);
    }
    tail.dirty = true;
  }
  logical_size_ = size;
  return Status::OK();
}

uint64_t SegmentedLogDevice::Size() const {
  MutexLock guard(mu_);
  return logical_size_;
}

uint64_t SegmentedLogDevice::segment_count() const {
  MutexLock guard(mu_);
  return segments_.size();
}

}  // namespace skeena
