#ifndef NATIX_BENCH_DECORATORS_H_
#define NATIX_BENCH_DECORATORS_H_

// Bench-side decorators over the library's two virtual I/O seams. They
// exist only in the traced run: each call is wrapped in a span, so page
// reads and file-backend calls made deep inside the library (by the
// buffer pool, the WAL flusher, checkpoints and recovery) are timed
// without touching the library.

#include <memory>
#include <utility>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/file_backend.h"
#include "trace.h"

namespace natix_bench {

/// Times every PageProvider::ReadPage (the buffer pool's miss path).
class TracingPageProvider : public natix::PageProvider {
 public:
  explicit TracingPageProvider(const natix::PageProvider* inner)
      : inner_(inner) {}

  natix::Result<std::vector<uint8_t>> ReadPage(
      uint32_t page_id) const override {
    Span span("storage.pagesource.read");
    return inner_->ReadPage(page_id);
  }

 private:
  const natix::PageProvider* inner_;
};

/// Times every FileBackend call. Owns the wrapped backend, so it can be
/// handed to NatixStore::EnableDurability/Recover in its place.
class TracingFileBackend : public natix::FileBackend {
 public:
  explicit TracingFileBackend(std::unique_ptr<natix::FileBackend> inner)
      : inner_(std::move(inner)) {}

  natix::Result<uint64_t> Size() override {
    Span span("storage.backend.size");
    return inner_->Size();
  }
  natix::Status Append(const void* data, size_t size) override {
    Span span("storage.backend.append");
    return inner_->Append(data, size);
  }
  natix::Status ReadAt(uint64_t offset, void* out, size_t size) override {
    Span span("storage.backend.read");
    return inner_->ReadAt(offset, out, size);
  }
  natix::Status WriteAt(uint64_t offset, const void* data,
                        size_t size) override {
    Span span("storage.backend.write");
    return inner_->WriteAt(offset, data, size);
  }
  natix::Status Truncate(uint64_t size) override {
    Span span("storage.backend.truncate");
    return inner_->Truncate(size);
  }
  natix::Status Sync() override {
    Span span("storage.backend.sync");
    return inner_->Sync();
  }

 private:
  std::unique_ptr<natix::FileBackend> inner_;
};

}  // namespace natix_bench

#endif  // NATIX_BENCH_DECORATORS_H_
