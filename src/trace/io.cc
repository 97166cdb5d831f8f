#include "trace/io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define STBPU_HAS_MMAP 1
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace stbpu::trace {

namespace {

/// On-disk record layout (packed, little-endian host assumed for this
/// research tool; 24 bytes per record).
struct PackedRecord {
  std::uint64_t ip;
  std::uint64_t target;
  std::uint8_t type;
  std::uint8_t taken;
  std::uint16_t pid;
  std::uint8_t hart;
  std::uint8_t kernel;
  std::uint16_t pad;
};
static_assert(sizeof(PackedRecord) == 24);

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Decode record `index` of `path`. A type byte outside bpu::BranchType
/// (a corrupt or foreign file) is rejected here, before it can reach a
/// predictor's switch over branch types.
bpu::BranchRecord unpack(const PackedRecord& p, std::uint64_t index, const std::string& path) {
  constexpr unsigned kBranchTypes = static_cast<unsigned>(bpu::BranchType::kReturn) + 1;
  if (p.type >= kBranchTypes) {
    throw std::runtime_error("invalid branch type " + std::to_string(p.type) +
                             " in trace record " + std::to_string(index) + ": " + path);
  }
  bpu::BranchRecord r;
  r.ip = p.ip;
  r.target = p.target;
  r.type = static_cast<bpu::BranchType>(p.type);
  r.taken = p.taken != 0;
  r.ctx = {.pid = p.pid, .hart = p.hart, .kernel = p.kernel != 0};
  return r;
}

/// Open a trace, validate the header, and return the record count.
FilePtr open_trace(const std::string& path, std::uint64_t& count) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("cannot open trace: " + path);
  std::uint32_t header[4];
  if (std::fread(header, sizeof(header), 1, f.get()) != 1 || header[0] != kTraceMagic) {
    throw std::runtime_error("bad trace header: " + path);
  }
  if (header[1] != kTraceVersion) {
    throw std::runtime_error("unsupported trace version in " + path);
  }
  count =
      static_cast<std::uint64_t>(header[2]) | (static_cast<std::uint64_t>(header[3]) << 32);
  return f;
}

}  // namespace

bool write_trace(const std::string& path, const std::vector<bpu::BranchRecord>& records) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  const std::uint32_t header[4] = {kTraceMagic, kTraceVersion,
                                   static_cast<std::uint32_t>(records.size() & 0xFFFFFFFF),
                                   static_cast<std::uint32_t>(records.size() >> 32)};
  if (std::fwrite(header, sizeof(header), 1, f.get()) != 1) return false;
  for (const auto& r : records) {
    const PackedRecord p{.ip = r.ip,
                         .target = r.target,
                         .type = static_cast<std::uint8_t>(r.type),
                         .taken = r.taken ? std::uint8_t{1} : std::uint8_t{0},
                         .pid = r.ctx.pid,
                         .hart = r.ctx.hart,
                         .kernel = r.ctx.kernel ? std::uint8_t{1} : std::uint8_t{0},
                         .pad = 0};
    if (std::fwrite(&p, sizeof(p), 1, f.get()) != 1) return false;
  }
  return true;
}

std::vector<bpu::BranchRecord> read_trace(const std::string& path) {
  std::uint64_t count = 0;
  FilePtr f = open_trace(path, count);
  std::vector<bpu::BranchRecord> out;
  out.reserve(count);
  PackedRecord block[256];
  std::uint64_t remaining = count;
  while (remaining > 0) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, sizeof(block) / sizeof(block[0])));
    if (std::fread(block, sizeof(PackedRecord), want, f.get()) != want) {
      throw std::runtime_error("truncated trace: " + path);
    }
    for (std::size_t i = 0; i < want; ++i) out.push_back(unpack(block[i], out.size(), path));
    remaining -= want;
  }
  return out;
}

FileStream::FileStream(std::string path, FileStreamMode mode)
    : path_(std::move(path)), mode_(mode) {
  open_and_map();
  buffer_.reserve(kDefaultBatch);
}

FileStream::~FileStream() { unmap(); }

void FileStream::open_and_map() {
  file_.reset(open_trace(path_, count_).release());
#if STBPU_HAS_MMAP
  if (mode_ != FileStreamMode::kBuffered) {
    // Map the whole file read-only; refills then unpack straight from the
    // mapping with no syscalls, and the kernel pages cold regions out
    // under memory pressure — the property that makes very large on-disk
    // traces replayable without a resident copy.
    struct stat st{};
    if (fstat(fileno(file_.get()), &st) != 0) {
      if (mode_ == FileStreamMode::kMmap) {
        throw std::runtime_error("cannot stat trace: " + path_);
      }
      return;  // kAuto: fall back to buffered reads
    }
    // The header over-promises: fail now instead of faulting mid-replay
    // (the fread path reports the same file as truncated read-by-read).
    // Division form — `16 + count * 24` could wrap for a hostile 64-bit
    // count and slip past a `size < need` comparison.
    constexpr std::uint64_t kHeaderBytes = sizeof(std::uint32_t) * 4;
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (size < kHeaderBytes ||
        count_ > (size - kHeaderBytes) / sizeof(PackedRecord)) {
      throw std::runtime_error("truncated trace: " + path_);
    }
    void* base = mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                      MAP_PRIVATE, fileno(file_.get()), 0);
    if (base == MAP_FAILED) {
      if (mode_ == FileStreamMode::kMmap) {
        throw std::runtime_error("cannot mmap trace: " + path_);
      }
      return;  // kAuto fallback
    }
    map_base_ = base;
    map_len_ = static_cast<std::size_t>(st.st_size);
  }
#else
  if (mode_ == FileStreamMode::kMmap) {
    throw std::runtime_error("mmap unavailable on this platform: " + path_);
  }
#endif
}

void FileStream::unmap() {
#if STBPU_HAS_MMAP
  if (map_base_ != nullptr) munmap(map_base_, map_len_);
#endif
  map_base_ = nullptr;
  map_len_ = 0;
}

std::size_t FileStream::refill() {
  if (buffer_pos_ < buffer_.size()) return buffer_.size() - buffer_pos_;
  buffer_.clear();
  buffer_pos_ = 0;
  // Everything buffered so far has been consumed, so the read cursor is at
  // record `consumed_`.
  const std::uint64_t remaining = count_ - consumed_;
  const std::size_t target =
      static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kDefaultBatch));
  if (map_base_ != nullptr) {
    // mmap path: unpack records straight out of the mapping. memcpy per
    // record keeps the access well-defined regardless of mapping alignment
    // guarantees; compilers lower it to plain loads.
    const unsigned char* src = static_cast<const unsigned char*>(map_base_) +
                               sizeof(std::uint32_t) * 4 +
                               consumed_ * sizeof(PackedRecord);
    for (std::size_t i = 0; i < target; ++i) {
      PackedRecord p;
      std::memcpy(&p, src + i * sizeof(PackedRecord), sizeof(PackedRecord));
      buffer_.push_back(unpack(p, consumed_ + i, path_));
    }
    return target;
  }
  PackedRecord block[512];
  std::size_t filled = 0;
  while (filled < target) {
    const std::size_t want =
        std::min(target - filled, sizeof(block) / sizeof(block[0]));
    if (std::fread(block, sizeof(PackedRecord), want, file_.get()) != want) {
      throw std::runtime_error("truncated trace: " + path_);
    }
    for (std::size_t i = 0; i < want; ++i) {
      buffer_.push_back(unpack(block[i], consumed_ + filled + i, path_));
    }
    filled += want;
  }
  return filled;
}

bool FileStream::next(bpu::BranchRecord& out) {
  if (refill() == 0) return false;
  out = buffer_[buffer_pos_++];
  ++consumed_;
  return true;
}

void FileStream::reset() {
  // Re-validate the header on rewind (the file may have been replaced);
  // the mapping is rebuilt against the fresh file in mmap mode.
  unmap();
  open_and_map();
  consumed_ = 0;
  buffer_.clear();
  buffer_pos_ = 0;
}

std::size_t FileStream::next_batch(BranchBatch& out, std::size_t limit) {
  out.clear();
  while (out.size() < limit) {
    const std::size_t available = refill();
    if (available == 0) break;
    const std::size_t take = std::min(limit - out.size(), available);
    for (std::size_t i = 0; i < take; ++i) out.push_back(buffer_[buffer_pos_ + i]);
    buffer_pos_ += take;
    consumed_ += take;
  }
  return out.size();
}

const bpu::BranchRecord* FileStream::borrow_run(std::size_t limit, std::size_t& n) {
  const std::size_t available = refill();
  if (available == 0 || limit == 0) {
    n = 0;
    return nullptr;
  }
  n = std::min(limit, available);
  const bpu::BranchRecord* run = buffer_.data() + buffer_pos_;
  buffer_pos_ += n;
  consumed_ += n;
  return run;
}

}  // namespace stbpu::trace
