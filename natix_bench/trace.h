#ifndef NATIX_BENCH_TRACE_H_
#define NATIX_BENCH_TRACE_H_

// Span recording for natix_bench's traced run. A span wraps one call the
// benchmark makes into a library module; spans are kept in per-thread
// memory and written out once the benchmark ends, so the recording cost on
// the hot path is a clock read and a vector append. When tracing is off
// (the untraced run that produces the end-to-end numbers) a Span is a
// single predictable branch.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace natix_bench {

/// One closed span. Times are nanoseconds on the steady clock relative to
/// the tracer's origin. `parent` and `request` are 0 when absent.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t thread = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide span store. Enable() must be called before any thread that
/// records spans starts; Collect() after every such thread has joined.
class Tracer {
 public:
  static void Enable();
  static bool enabled() { return enabled_; }
  /// Nanoseconds since the tracer's origin (valid whether or not enabled).
  static int64_t NowNs();
  /// Every span recorded so far, from all threads, ordered by start time.
  static std::vector<SpanRecord> Collect();

 private:
  static bool enabled_;
};

/// RAII span around one call. The parent defaults to the innermost open
/// span of the calling thread and the request id to that span's request;
/// both can be given explicitly, which is how work on another thread is
/// attributed to the span that caused it.
class Span {
 public:
  static constexpr uint64_t kInherit = ~uint64_t{0};

  explicit Span(const char* name, uint64_t request = kInherit,
                uint64_t parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (0 when tracing is off).
  uint64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
  uint64_t saved_request_ = 0;
  bool active_ = false;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Children are matched
/// by parent id, so children recorded on other threads -- possibly
/// overlapping each other -- are counted once. Keyed by span id.
std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi);

/// A span file read back from disk. Names point into `names`, so the file
/// moves but does not copy.
struct SpanFile {
  SpanFile() = default;
  SpanFile(SpanFile&&) = default;
  SpanFile& operator=(SpanFile&&) = default;
  SpanFile(const SpanFile&) = delete;
  SpanFile& operator=(const SpanFile&) = delete;

  std::vector<SpanRecord> spans;
  std::set<std::string, std::less<>> names;
};

/// Writes spans as one JSON object: {"spans":[{...}, ...]}.
natix::Status WriteSpanFile(const std::string& path,
                            const std::vector<SpanRecord>& spans);
std::string SpansToJson(const std::vector<SpanRecord>& spans);

/// Parses the output of SpansToJson.
natix::Result<SpanFile> ParseSpanJson(std::string_view json);

}  // namespace natix_bench

#endif  // NATIX_BENCH_TRACE_H_
