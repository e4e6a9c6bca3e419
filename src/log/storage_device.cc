#include "log/storage_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace skeena {

void SpinWaitNs(uint64_t ns) {
  if (ns == 0) return;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) {
    // Busy wait: models a synchronous I/O completion.
  }
}

// ---------------------------------------------------------------- MemDevice

MemDevice::MemDevice(DeviceLatency latency) : latency_(latency) {}

void MemDevice::WriteLocked(uint64_t offset, std::span<const uint8_t> data) {
  while (chunks_.size() * kChunkBytes < offset + data.size()) {
    chunks_.push_back(std::make_unique<uint8_t[]>(kChunkBytes));  // zeroed
  }
  size_ = std::max(size_, offset + data.size());
  for (uint64_t done = 0; done < data.size();) {
    const uint64_t pos = offset + done;
    const uint64_t in_chunk = pos % kChunkBytes;
    const uint64_t n = std::min(data.size() - done, kChunkBytes - in_chunk);
    std::memcpy(chunks_[pos / kChunkBytes].get() + in_chunk,
                data.data() + done, n);
    done += n;
  }
}

Status MemDevice::WriteAt(uint64_t offset, std::span<const uint8_t> data) {
  {
    MutexLock guard(mu_);
    WriteLocked(offset, data);
  }
  SpinWaitNs(latency_.write_ns);
  return Status::OK();
}

Status MemDevice::ReadAt(uint64_t offset, std::span<uint8_t> out) const {
  {
    MutexLock guard(mu_);
    if (offset + out.size() > size_) {
      return Status::IOError("read past end of device");
    }
    for (uint64_t done = 0; done < out.size();) {
      const uint64_t pos = offset + done;
      const uint64_t in_chunk = pos % kChunkBytes;
      const uint64_t n = std::min(out.size() - done, kChunkBytes - in_chunk);
      std::memcpy(out.data() + done,
                  chunks_[pos / kChunkBytes].get() + in_chunk, n);
      done += n;
    }
  }
  SpinWaitNs(latency_.read_ns);
  return Status::OK();
}

Status MemDevice::Sync() {
  SpinWaitNs(latency_.sync_ns);
  return Status::OK();
}

Status MemDevice::Truncate(uint64_t size) {
  MutexLock guard(mu_);
  if (size >= size_) return Status::OK();
  // Zero the cut-off bytes of the last kept chunk, so a later extension
  // reads zeros there, then free the chunks wholly past the new end.
  const uint64_t keep = (size + kChunkBytes - 1) / kChunkBytes;
  if (size % kChunkBytes != 0) {
    const uint64_t cut_end = std::min(size_, keep * kChunkBytes);
    std::memset(chunks_[keep - 1].get() + size % kChunkBytes, 0,
                cut_end - size);
  }
  chunks_.resize(keep);
  size_ = size;
  return Status::OK();
}

uint64_t MemDevice::Size() const {
  MutexLock guard(mu_);
  return size_;
}

// --------------------------------------------------------------- FileDevice

Result<std::unique_ptr<FileDevice>> FileDevice::Open(const std::string& path,
                                                     DeviceLatency latency) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open failed: " + path);
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IOError("lseek failed: " + path);
  }
  return std::unique_ptr<FileDevice>(
      new FileDevice(fd, path, static_cast<uint64_t>(size), latency));
}

FileDevice::FileDevice(int fd, std::string path, uint64_t size,
                       DeviceLatency latency)
    : fd_(fd), path_(std::move(path)), size_(size), latency_(latency) {}

FileDevice::~FileDevice() { ::close(fd_); }

Status FileDevice::PwriteFully(uint64_t offset, std::span<const uint8_t> data) {
  // pwrite may write fewer bytes than asked (signal, rlimit/quota boundary,
  // >2 GiB chunk): a short count is progress, not an error — advance and
  // retry until the span is on the file or a real error surfaces.
  const uint8_t* p = data.data();
  size_t remaining = data.size();
  off_t at = static_cast<off_t>(offset);
  while (remaining > 0) {
    ssize_t n = pwrite_hook_ != nullptr
                    ? pwrite_hook_(fd_, p, remaining, at)
                    : ::pwrite(fd_, p, remaining, at);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite failed: " + path_);
    }
    if (n == 0) {
      return Status::IOError("pwrite wrote nothing: " + path_);
    }
    p += n;
    at += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FileDevice::WriteAt(uint64_t offset, std::span<const uint8_t> data) {
  {
    MutexLock guard(mu_);
    SKEENA_RETURN_NOT_OK(PwriteFully(offset, data));
    if (offset + data.size() > size_) size_ = offset + data.size();
  }
  SpinWaitNs(latency_.write_ns);
  return Status::OK();
}

Status FileDevice::ReadAt(uint64_t offset, std::span<uint8_t> out) const {
  {
    MutexLock guard(mu_);
    ssize_t n = ::pread(fd_, out.data(), out.size(),
                        static_cast<off_t>(offset));
    if (n < 0 || static_cast<size_t>(n) != out.size()) {
      return Status::IOError("pread failed: " + path_);
    }
  }
  SpinWaitNs(latency_.read_ns);
  return Status::OK();
}

Status FileDevice::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed: " + path_);
  }
  SpinWaitNs(latency_.sync_ns);
  return Status::OK();
}

Status FileDevice::Truncate(uint64_t size) {
  MutexLock guard(mu_);
  if (size >= size_) return Status::OK();
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError("ftruncate failed: " + path_);
  }
  size_ = size;
  return Status::OK();
}

uint64_t FileDevice::Size() const {
  MutexLock guard(mu_);
  return size_;
}

}  // namespace skeena
