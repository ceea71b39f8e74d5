#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

namespace natix_bench {

namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  /// Ids of the spans currently open on this thread, innermost last.
  std::vector<uint64_t> open;
  uint64_t request = 0;
};

const std::chrono::steady_clock::time_point g_origin =
    std::chrono::steady_clock::now();
std::atomic<uint64_t> g_next_id{1};

std::mutex g_buffers_mu;
/// Outlive their threads, so Collect() can read them after the join.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded

thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer* LocalBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->thread = static_cast<uint32_t>(g_buffers.size());
    buf->spans.reserve(1 << 14);
    t_buffer = buf.get();
    g_buffers.push_back(std::move(buf));
  }
  return t_buffer;
}

}  // namespace

bool Tracer::enabled_ = false;

void Tracer::Enable() { enabled_ = true; }

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_origin)
      .count();
}

std::vector<SpanRecord> Tracer::Collect() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buf : g_buffers) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

Span::Span(const char* name, uint64_t request, uint64_t parent) {
  if (!Tracer::enabled()) return;
  ThreadBuffer* buf = LocalBuffer();
  active_ = true;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = parent != kInherit ? parent
                : buf->open.empty() ? 0
                                    : buf->open.back();
  rec_.request = request != kInherit ? request : buf->request;
  rec_.thread = buf->thread;
  rec_.name = name;
  saved_request_ = buf->request;
  buf->request = rec_.request;
  buf->open.push_back(rec_.id);
  rec_.start_ns = Tracer::NowNs();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = Tracer::NowNs();
  ThreadBuffer* buf = t_buffer;
  buf->open.pop_back();
  buf->request = saved_request_;
  buf->spans.push_back(rec_);
}

int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  for (auto& [s, e] : intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_s = 0;
  int64_t cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<uint64_t, int64_t> self;
  for (const SpanRecord& s : spans) {
    const auto it = children.find(s.id);
    const int64_t covered =
        it == children.end()
            ? 0
            : UnionLengthNs(it->second, s.start_ns, s.end_ns);
    self[s.id] = s.duration_ns() - covered;
  }
  return self;
}

std::string SpansToJson(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"spans\":[";
  char buf[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                  "\"thread\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld}",
                  i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.thread, s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

natix::Status WriteSpanFile(const std::string& path,
                            const std::vector<SpanRecord>& spans) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return natix::Status::Internal("cannot open " + path);
  f << SpansToJson(spans);
  f.close();
  if (!f) return natix::Status::Internal("cannot write " + path);
  return natix::Status::OK();
}

namespace {

/// Cursor over the span-file grammar: one object holding an array of flat
/// objects whose values are unsigned integers, signed integers or strings
/// without escapes.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view s) : s_(s) {}

  void SkipSpace() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool String(std::string* out) {
    if (!Consume('"')) return false;
    const size_t end = s_.find('"', pos_);
    if (end == std::string_view::npos) return false;
    *out = std::string(s_.substr(pos_, end - pos_));
    if (out->find('\\') != std::string::npos) return false;
    pos_ = end + 1;
    return true;
  }
  bool Integer(int64_t* out) {
    SkipSpace();
    const size_t begin = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    if (pos_ == begin) return false;
    *out = std::strtoll(std::string(s_.substr(begin, pos_ - begin)).c_str(),
                        nullptr, 10);
    return true;
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

natix::Result<SpanFile> ParseSpanJson(std::string_view json) {
  const auto bad = [](const char* what) {
    return natix::Status::ParseError(std::string("span file: ") + what);
  };
  JsonCursor in(json);
  std::string key;
  if (!in.Consume('{') || !in.String(&key) || key != "spans" ||
      !in.Consume(':') || !in.Consume('[')) {
    return bad("expected {\"spans\":[");
  }
  SpanFile file;
  if (!in.Consume(']')) {
    do {
      if (!in.Consume('{')) return bad("expected a span object");
      SpanRecord rec;
      do {
        if (!in.String(&key) || !in.Consume(':')) return bad("expected a key");
        if (key == "name") {
          std::string name;
          if (!in.String(&name)) return bad("name is not a string");
          rec.name = file.names.insert(std::move(name)).first->c_str();
          continue;
        }
        int64_t v = 0;
        if (!in.Integer(&v)) return bad("value is not an integer");
        if (key == "id") {
          rec.id = static_cast<uint64_t>(v);
        } else if (key == "parent") {
          rec.parent = static_cast<uint64_t>(v);
        } else if (key == "request") {
          rec.request = static_cast<uint64_t>(v);
        } else if (key == "thread") {
          rec.thread = static_cast<uint32_t>(v);
        } else if (key == "start_ns") {
          rec.start_ns = v;
        } else if (key == "end_ns") {
          rec.end_ns = v;
        } else {
          return bad("unknown key");
        }
      } while (in.Consume(','));
      if (!in.Consume('}')) return bad("unterminated span object");
      file.spans.push_back(rec);
    } while (in.Consume(','));
    if (!in.Consume(']')) return bad("unterminated span array");
  }
  if (!in.Consume('}') || !in.AtEnd()) return bad("trailing bytes");
  return file;
}

}  // namespace natix_bench
