// natix_bench: the repository's end-to-end benchmark. One process runs one
// workload for a fixed time from a seed and prints its metrics; the last
// line of stdout is one JSON object.
//
//   natix_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--workdir <dir>] [--smoke]
//
// Workloads (K = 256, record format v3, 8 KB pages); README.md says why
// each was chosen:
//   bulkload_dhw  op = one pass over the six-document corpus, each
//                 document ImportXml -> PartitionWith("DHW") -> Build ->
//                 FlushPagesTo(PosixFileBackend), which ends in fdatasync.
//   query_warm    op = one XPathMark Q1-Q7 sweep over a resident XMark
//                 store with no buffer pool.
//   query_cold    op = the same sweep over a released store whose pages are
//                 read through an LRU pool 8x smaller than the data from a
//                 flushed page file.
//   update_serve  op = one reader sweep over a fresh snapshot while an
//                 open-loop durable writer (40/30/20/10 insert/delete/move/
//                 rename, group commit, periodic checkpoints) runs beside
//                 the reader; then the store is dropped and rebuilt with
//                 Recover() from its log.
//
// With --trace 0 the end-to-end metrics are printed; with --trace 1 the
// per-layer metrics, computed from spans recorded around every call the
// benchmark makes into a library module (trace.h, decorators.h). Every
// failed op or correctness check counts in "failed" and makes the exit
// code 1. --smoke shrinks every input for a quick self-test.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/algorithm.h"
#include "datagen/generator.h"
#include "decorators.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/reference_evaluator.h"
#include "query/xpathmark.h"
#include "storage/buffer_manager.h"
#include "storage/file_backend.h"
#include "storage/page_integrity.h"
#include "storage/store.h"
#include "trace.h"
#include "xml/importer.h"

namespace natix_bench {
namespace {

using natix::NatixStore;
using natix::NodeId;
using natix::Status;

constexpr natix::TotalWeight kLimit = 256;

// ---------------------------------------------------------------------------
// Metric tables. BENCHMARK.json lists the same names and units; run.py
// --smoke checks that the two agree.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"op_p50_ref", "ref"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"harness.op_p50_ref", "ref"},
    {"harness.op_ms_p50", "ms"},
    {"harness.op_ms_p90", "ms"},
    {"harness.op_samples", "count"},
    {"harness.ref_ms_p50", "ms"},
    {"harness.unattributed_ms", "ms"},
    {"harness.coverage_pct", "%"},
    {"xml.import_ms", "ms"},
    {"core.partition_ms", "ms"},
    {"core.partition_ms.sigmod", "ms"},
    {"core.partition_ms.mondial", "ms"},
    {"core.partition_ms.partsupp", "ms"},
    {"core.partition_ms.uwm", "ms"},
    {"core.partition_ms.orders", "ms"},
    {"core.partition_ms.xmark", "ms"},
    {"core.partitions", "count"},
    {"storage.build_ms", "ms"},
    {"storage.flush_ms", "ms"},
    {"storage.disk_bytes_per_xml_byte", "ratio"},
    {"bulkload.load_mb_per_s", "MB/s"},
    {"query.parse_us", "us"},
    {"query.eval_ms.q1", "ms"},
    {"query.eval_ms.q2", "ms"},
    {"query.eval_ms.q3", "ms"},
    {"query.eval_ms.q4", "ms"},
    {"query.eval_ms.q5", "ms"},
    {"query.eval_ms.q6", "ms"},
    {"query.eval_ms.q7", "ms"},
    {"query.crossings", "count"},
    {"query.intra_moves", "count"},
    {"query.page_switches", "count"},
    {"query.result_nodes", "count"},
    {"query.eval_setup_ms", "ms"},
    {"query.eval_self_ms", "ms"},
    {"storage.snapshot_open_ms", "ms"},
    {"storage.pool.accesses", "count"},
    {"storage.pool.misses", "count"},
    {"storage.pool.hit_rate", "ratio"},
    {"storage.pool.evictions", "count"},
    {"storage.pool.bytes_read", "bytes"},
    {"storage.pagesource.reads", "count"},
    {"storage.pagesource.read_ms", "ms"},
    {"storage.pagesource.read_us_p50", "us"},
    {"storage.backend.read_calls", "count"},
    {"storage.backend.read_ms", "ms"},
    {"storage.backend.append_calls", "count"},
    {"storage.backend.append_bytes", "bytes"},
    {"storage.backend.append_ms", "ms"},
    {"storage.backend.sync_calls", "count"},
    {"storage.backend.sync_ms_p50", "ms"},
    {"storage.backend.sync_ms_p99", "ms"},
    {"storage.mvcc.retired_frames", "count"},
    {"storage.mvcc.reclaimed_frames", "count"},
    {"storage.mvcc.held_bytes_max", "bytes"},
    {"storage.mutation_us.insert", "us"},
    {"storage.mutation_us.delete", "us"},
    {"storage.mutation_us.move", "us"},
    {"storage.mutation_us.rename", "us"},
    {"storage.wal.sync_ms_p50", "ms"},
    {"storage.wal.sync_ms_p99", "ms"},
    {"storage.wal.fsyncs", "count"},
    {"storage.wal.mean_batch_ops", "count"},
    {"storage.checkpoint_ms_p50", "ms"},
    {"storage.checkpoint.bytes", "bytes"},
    {"storage.checkpoint.io_ms", "ms"},
    {"storage.recovery_s", "s"},
    {"storage.recovery.replayed_ops", "count"},
    {"storage.recovery.io_ms", "ms"},
    {"updates.splits", "count"},
    {"updates.merges", "count"},
    {"updates.records_rewritten", "count"},
    {"updates.relocations", "count"},
    {"updates.compactions", "count"},
    {"serve.reader_sweeps_per_s", "1/s"},
    {"serve.commit_ms_p50", "ms"},
    {"serve.commit_ms_p99", "ms"},
    {"serve.writer_lag_ms_max", "ms"},
    {"serve.wal_bytes_per_op_byte", "ratio"},
};

constexpr const char* kCorpus[] = {"sigmod", "mondial", "partsupp",
                                   "uwm",    "orders",  "xmark"};
constexpr const char* kPartitionSpan[] = {
    "core.partition.sigmod",   "core.partition.mondial",
    "core.partition.partsupp", "core.partition.uwm",
    "core.partition.orders",   "core.partition.xmark"};
constexpr const char* kEvalSpan[] = {"query.eval.q1", "query.eval.q2",
                                     "query.eval.q3", "query.eval.q4",
                                     "query.eval.q5", "query.eval.q6",
                                     "query.eval.q7"};

// ---------------------------------------------------------------------------
// Configuration and results.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".";
};

/// Input sizes and rates. Fixed per mode; only --seconds and --seed vary.
struct Config {
  /// Corpus scale for bulkload_dhw (1.0 = the paper's document sizes).
  double corpus_scale = 0.05;
  /// XMark scale for the query and serving workloads.
  double xmark_scale = 0.25;
  /// Set-up repetitions; setup_s is their median.
  int setups = 5;
  /// update_serve: the writer's offered load and checkpoint cadence (in
  /// ops, a multiple of kCommitOps).
  double writer_ops_per_s = 500;
  int checkpoint_every = 3000;
  /// Fresh evaluators timed for query.eval_setup_ms.
  int eval_setup_samples = 5;
};

Config MakeConfig(bool smoke) {
  Config c;
  if (smoke) {
    c.corpus_scale = 0.005;
    c.xmark_scale = 0.01;
    c.setups = 2;
    c.writer_ops_per_s = 800;
    c.checkpoint_every = 96;
    c.eval_setup_samples = 2;
  }
  return c;
}

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  std::optional<double> Get(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Records a failed op or check; the reason goes to stderr.
  void Fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "natix_bench: FAILED: %s\n", why.c_str());
  }
  /// Attempts one check and fails it unless `ok`.
  bool Check(bool ok, const std::string& what) {
    Attempt();
    if (!ok) Fail(what);
    return ok;
  }
  bool CheckOk(const Status& st, const std::string& what) {
    return Check(st.ok(), what + ": " + st.ToString());
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Linearly interpolated percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double SafeDiv(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// Peak resident set of this process in MB (Linux reports ru_maxrss in
/// KB).
double PeakRssMb() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// DHW worker threads: one per core, at most four.
unsigned DhwThreads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// The run's scratch directory for WAL and page files: created with
/// mkdtemp under the workdir and removed, with its contents, at exit.
class TempDir {
 public:
  static natix::Result<std::unique_ptr<TempDir>> Create(
      const std::string& parent) {
    std::string tmpl = parent + "/natix_bench.XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      return Status::Internal("mkdtemp under " + parent + ": " +
                              std::strerror(errno));
    }
    return std::unique_ptr<TempDir>(new TempDir(std::move(tmpl)));
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  explicit TempDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

/// Opens a POSIX file backend (emptied first when `fresh`), wrapped in the
/// tracing decorator in the traced run.
natix::Result<std::unique_ptr<natix::FileBackend>> OpenBackend(
    const std::string& path, bool fresh) {
  if (fresh) std::remove(path.c_str());
  auto posix = natix::PosixFileBackend::Open(path);
  if (!posix.ok()) return posix.status();
  std::unique_ptr<natix::FileBackend> backend = std::move(posix).value();
  if (Tracer::enabled()) {
    backend = std::make_unique<TracingFileBackend>(std::move(backend));
  }
  return backend;
}

/// A fixed bench-side kernel timed beside the ops: a first-child /
/// next-sibling / parent walk over a 100k-node random tree held in plain
/// arrays (1.3 MB), counting one label -- the access pattern of Navigator,
/// without any library code. The host this benchmark was sized on is
/// shared, and its speed drifts by up to 2x over minutes as other tenants
/// load it. The kernel slows with the host but never changes with the
/// library, so op latency over kernel time keeps the program's cost and
/// cancels most of the drift (README.md, "Why the op latency is
/// normalized").
class HostReference {
 public:
  HostReference()
      : first_child_(kNodes, kNone), next_sibling_(kNodes, kNone),
        parent_(kNodes, kNone), label_(kNodes, 0) {
    natix::Rng rng(9);
    std::vector<uint32_t> last_child(kNodes, kNone);
    for (uint32_t v = 1; v < kNodes; ++v) {
      const auto p = static_cast<uint32_t>(rng.NextBounded(v));
      if (last_child[p] == kNone) {
        first_child_[p] = v;
      } else {
        next_sibling_[last_child[p]] = v;
      }
      last_child[p] = v;
      parent_[v] = p;
      label_[v] = static_cast<uint8_t>(rng.NextBounded(16));
    }
  }

  /// Walks the whole tree once and returns the wall time in ms.
  /// Thread-safe.
  double RunMs() const {
    natix::Timer timer;
    uint64_t hits = 0;
    uint32_t v = 0;
    while (true) {
      hits += label_[v] == 3;
      if (first_child_[v] != kNone) {
        v = first_child_[v];
        continue;
      }
      while (v != 0 && next_sibling_[v] == kNone) v = parent_[v];
      if (v == 0) break;
      v = next_sibling_[v];
    }
    sink_.fetch_add(hits, std::memory_order_relaxed);
    return timer.ElapsedMillis();
  }

 private:
  static constexpr uint32_t kNodes = 100000;
  static constexpr uint32_t kNone = ~0u;
  std::vector<uint32_t> first_child_;
  std::vector<uint32_t> next_sibling_;
  std::vector<uint32_t> parent_;
  std::vector<uint8_t> label_;
  /// Keeps the walk from being optimized away.
  mutable std::atomic<uint64_t> sink_{0};
};

std::atomic<uint64_t> g_next_request{1};
uint64_t NextRequest() { return g_next_request.fetch_add(1); }

// ---------------------------------------------------------------------------
// Span analysis for the traced run.

class SpanIndex {
 public:
  /// Spans whose start lies in [w0, w1) are "in the window".
  SpanIndex(std::vector<SpanRecord> spans, int64_t w0, int64_t w1)
      : spans_(std::move(spans)), self_(SelfTimesNs(spans_)), w0_(w0),
        w1_(w1) {}

  /// Durations (ms) of in-window spans named `name`.
  std::vector<double> DurationsMs(std::string_view name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (InWindow(s) && name == s.name) out.push_back(Ms(s.duration_ns()));
    }
    return out;
  }
  double SumMs(std::string_view name) const { return Sum(DurationsMs(name)); }
  double Count(std::string_view name) const {
    return static_cast<double>(DurationsMs(name).size());
  }
  /// Summed self time (ms) of in-window spans named `name`.
  double SelfMs(std::string_view name) const {
    double total = 0;
    for (const SpanRecord& s : spans_) {
      if (InWindow(s) && name == s.name) total += Ms(self_.at(s.id));
    }
    return total;
  }
  /// For each span named `parent` (in or out of the window), the time
  /// covered by its children whose names start with `child_prefix`.
  std::vector<double> ChildCoverMs(std::string_view parent,
                                   std::string_view child_prefix) const {
    std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
    for (const SpanRecord& s : spans_) {
      if (std::string_view(s.name).starts_with(child_prefix)) {
        kids[s.parent].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (parent != s.name) continue;
      const auto it = kids.find(s.id);
      out.push_back(it == kids.end() ? 0.0
                                     : Ms(UnionLengthNs(it->second,
                                                        s.start_ns, s.end_ns)));
    }
    return out;
  }

 private:
  static double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
  bool InWindow(const SpanRecord& s) const {
    return s.start_ns >= w0_ && s.start_ns < w1_;
  }

  std::vector<SpanRecord> spans_;
  std::map<uint64_t, int64_t> self_;
  int64_t w0_;
  int64_t w1_;
};

/// The workload's op latency. The end-to-end metric is its median in
/// units of the host reference kernel's median, timed in the same window;
/// the wall-clock median and 90th percentile are reported beside it (and
/// in the traced run's per-layer metrics), but they are not end-to-end
/// metrics: on a shared host they move with other tenants' load more than
/// with the program.
void SetOpMetrics(const std::vector<double>& op_ms,
                  const std::vector<double>& ref_ms, Report* rep) {
  const double p50 = Percentile(op_ms, 50);
  const double p90 = Percentile(op_ms, 90);
  const double ref = Percentile(ref_ms, 50);
  rep->Set("op_p50_ref", SafeDiv(p50, ref));
  rep->Set("harness.op_p50_ref", SafeDiv(p50, ref));
  rep->Set("harness.op_ms_p50", p50);
  rep->Set("harness.op_ms_p90", p90);
  rep->Set("harness.op_samples", static_cast<double>(op_ms.size()));
  rep->Set("harness.ref_ms_p50", ref);
  std::printf("op latency: p50 %.3f ms, p90 %.3f ms over %zu ops; reference "
              "kernel p50 %.3f ms over %zu runs\n",
              p50, p90, op_ms.size(), ref, ref_ms.size());
}

/// How much of the ops' wall time the layer spans explain: the self time
/// of the harness op spans is time no library call accounts for.
void SetCoverageMetrics(const SpanIndex& idx,
                        const std::vector<const char*>& op_spans,
                        Report* rep) {
  double dur = 0;
  double self = 0;
  double n = 0;
  for (const char* name : op_spans) {
    dur += idx.SumMs(name);
    self += idx.SelfMs(name);
    n += idx.Count(name);
  }
  rep->Set("harness.unattributed_ms", SafeDiv(self, n));
  rep->Set("harness.coverage_pct", 100.0 * (1.0 - SafeDiv(self, dur)));
}

/// File-backend metrics over the timed window, per op.
void SetBackendMetrics(const SpanIndex& idx, double ops, Report* rep) {
  rep->Set("storage.backend.read_calls",
           SafeDiv(idx.Count("storage.backend.read"), ops));
  rep->Set("storage.backend.read_ms",
           SafeDiv(idx.SumMs("storage.backend.read"), ops));
  rep->Set("storage.backend.append_calls",
           SafeDiv(idx.Count("storage.backend.append"), ops));
  rep->Set("storage.backend.append_ms",
           SafeDiv(idx.SumMs("storage.backend.append"), ops));
  const std::vector<double> syncs = idx.DurationsMs("storage.backend.sync");
  rep->Set("storage.backend.sync_calls",
           SafeDiv(static_cast<double>(syncs.size()), ops));
  rep->Set("storage.backend.sync_ms_p50", Percentile(syncs, 50));
  rep->Set("storage.backend.sync_ms_p99", Percentile(syncs, 99));
}

// ---------------------------------------------------------------------------
// Inputs and oracles.

natix::WeightModel Model() {
  natix::WeightModel model;
  model.max_node_slots = static_cast<uint32_t>(kLimit);
  return model;
}

using Answers = std::vector<std::vector<NodeId>>;

/// XPathMark answers from the reference evaluator over an in-memory tree.
natix::Result<Answers> OracleAnswers(const natix::Tree& tree) {
  Answers out;
  for (const natix::XPathMarkQuery& q : natix::XPathMarkQueries()) {
    const auto path = natix::ParseXPath(q.text);
    if (!path.ok()) return path.status();
    auto r = natix::EvaluateOnTree(tree, *path);
    if (!r.ok()) return r.status();
    out.push_back(std::move(r).value());
  }
  return out;
}

/// Generates, imports, partitions (EKM) and builds the XMark store the
/// query and serving workloads share.
natix::Result<NatixStore> BuildXmarkStore(uint64_t seed, double scale) {
  const std::string xml = natix::GenerateXmark(seed, scale);
  auto doc = natix::ImportXml(xml, Model());
  if (!doc.ok()) return doc.status();
  auto ekm = natix::PartitionWith("EKM", doc->tree, kLimit);
  if (!ekm.ok()) return ekm.status();
  return NatixStore::Build(std::move(doc).value(), *ekm, kLimit);
}

// ---------------------------------------------------------------------------
// XPathMark sweeps: one explicit snapshot and one pinned evaluator shared
// by Q1-Q7.

struct Sweep {
  Status status;
  Answers answers;  // filled only when asked for
  uint64_t result_nodes = 0;
  natix::AccessStats stats;
  double ms = 0;
};

/// Runs Q1-Q7 against a fresh snapshot of `store`. When `keep` is given,
/// the snapshot is handed back open (for an oracle of the same version)
/// and the answers are kept.
Sweep RunSweep(const NatixStore& store, natix::LruBufferPool* pool,
               const natix::PageProvider* provider, const char* span_name,
               std::optional<natix::StoreSnapshot>* keep = nullptr) {
  Sweep out;
  natix::Timer timer;
  std::optional<natix::StoreSnapshot> snap;
  {
    Span sweep(span_name, NextRequest());
    {
      Span s("storage.snapshot_open");
      snap.emplace(store.OpenSnapshot());
    }
    natix::StoreQueryEvaluator eval(&*snap, &out.stats, pool, provider);
    const auto& queries = natix::XPathMarkQueries();
    for (size_t i = 0; i < queries.size() && out.status.ok(); ++i) {
      natix::Result<natix::PathExpr> path = Status::Internal("not parsed");
      {
        Span s("query.parse");
        path = natix::ParseXPath(queries[i].text);
      }
      if (!path.ok()) {
        out.status = path.status();
        break;
      }
      natix::Result<std::vector<NodeId>> r = Status::Internal("not run");
      {
        Span s(kEvalSpan[i]);
        r = eval.Evaluate(*path);
      }
      if (!r.ok()) {
        out.status = r.status();
        break;
      }
      out.result_nodes += r->size();
      if (keep != nullptr) out.answers.push_back(std::move(r).value());
    }
    if (keep == nullptr) snap.reset();
  }
  out.ms = timer.ElapsedMillis();
  if (keep != nullptr) *keep = std::move(snap);
  return out;
}

/// Query-layer metrics shared by the workloads that sweep.
void SetQueryMetrics(const SpanIndex& idx, double sweeps,
                     const natix::AccessStats& per_sweep,
                     double result_nodes, Report* rep) {
  rep->Set("query.parse_us",
           Percentile(idx.DurationsMs("query.parse"), 50) * 1e3);
  double eval_self = 0;
  for (size_t i = 0; i < std::size(kEvalSpan); ++i) {
    rep->Set("query.eval_ms.q" + std::to_string(i + 1),
             Percentile(idx.DurationsMs(kEvalSpan[i]), 50));
    eval_self += idx.SelfMs(kEvalSpan[i]);
  }
  rep->Set("query.eval_self_ms", SafeDiv(eval_self, sweeps));
  rep->Set("query.crossings", static_cast<double>(per_sweep.record_crossings));
  rep->Set("query.intra_moves", static_cast<double>(per_sweep.intra_moves));
  rep->Set("query.page_switches",
           static_cast<double>(per_sweep.page_switches));
  rep->Set("query.result_nodes", result_nodes);
  rep->Set("storage.snapshot_open_ms",
           Percentile(idx.DurationsMs("storage.snapshot_open"), 50));
  const std::vector<double> reads =
      idx.DurationsMs("storage.pagesource.read");
  rep->Set("storage.pagesource.reads",
           SafeDiv(static_cast<double>(reads.size()), sweeps));
  rep->Set("storage.pagesource.read_ms", SafeDiv(Sum(reads), sweeps));
  rep->Set("storage.pagesource.read_us_p50", Percentile(reads, 50) * 1e3);
}

/// Times Evaluate("/site") on fresh evaluators: the set-up each sweep's
/// evaluator pays (document-order ranks, walked from records on a
/// released store).
void MeasureEvalSetup(const NatixStore& store, natix::LruBufferPool* pool,
                      const natix::PageProvider* provider, int samples,
                      Report* rep) {
  const natix::PathExpr site = natix::ParseXPath("/site").ValueOrDie();
  std::vector<double> ms;
  for (int i = 0; i < samples; ++i) {
    const natix::StoreSnapshot snap = store.OpenSnapshot();
    natix::AccessStats stats;
    natix::StoreQueryEvaluator eval(&snap, &stats, pool, provider);
    natix::Timer timer;
    const auto r = eval.Evaluate(site);
    ms.push_back(timer.ElapsedMillis());
    rep->CheckOk(r.status(), "Evaluate(/site) on a fresh evaluator");
  }
  rep->Set("query.eval_setup_ms", Percentile(ms, 50));
}

// ---------------------------------------------------------------------------
// bulkload_dhw

void RunBulkload(const Config& cfg, const Args& args, const TempDir& tmp,
                 const HostReference& host, Report* rep) {
  // Set-up: generate the corpus and open one page file per document.
  std::vector<std::string> xml;
  std::vector<std::unique_ptr<natix::FileBackend>> pagefiles;
  std::vector<double> setup_s;
  for (int i = 0; i < cfg.setups; ++i) {
    natix::Timer timer;
    xml.clear();
    pagefiles.clear();
    for (const char* name : kCorpus) {
      auto text = natix::GenerateDocument(name, args.seed, cfg.corpus_scale);
      if (!rep->CheckOk(text.status(), std::string("generate ") + name)) {
        return;
      }
      xml.push_back(std::move(text).value());
      auto backend =
          OpenBackend(tmp.File(std::string(name) + ".pages"), /*fresh=*/true);
      if (!rep->CheckOk(backend.status(), "open page file")) return;
      pagefiles.push_back(std::move(backend).value());
    }
    setup_s.push_back(timer.ElapsedSeconds());
  }
  rep->Set("setup_s", Percentile(setup_s, 50));
  double xml_bytes = 0;  // per pass
  for (const std::string& x : xml) xml_bytes += static_cast<double>(x.size());

  natix::PartitionOptions popts;
  popts.num_threads = DhwThreads();
  std::vector<double> op_ms;
  std::vector<double> ref_ms;
  std::vector<size_t> partitions(std::size(kCorpus), 0);
  double disk_bytes = 0;  // per pass
  double file_bytes = 0;  // per pass
  int passes = 0;
  const int64_t w0 = Tracer::NowNs();
  natix::Timer window;
  // Whole passes only, so every run loads the same mix of documents. A
  // pass keeps its stores until it ends, as a database holding the corpus
  // would.
  while (passes == 0 || window.ElapsedSeconds() < args.seconds) {
    double pass_ms = 0;
    bool pass_ok = true;
    std::vector<std::optional<NatixStore>> stores(std::size(kCorpus));
    for (size_t d = 0; d < std::size(kCorpus); ++d) {
      std::optional<NatixStore>& store = stores[d];
      natix::Result<natix::Partitioning> part = Status::Internal("not run");
      Status st;
      natix::Timer timer;
      {
        Span op("bench.load", NextRequest());
        natix::Result<natix::ImportedDocument> doc = Status::Internal("");
        {
          Span s("xml.import");
          doc = natix::ImportXml(xml[d], Model());
        }
        if (doc.ok()) {
          Span s(kPartitionSpan[d]);
          part = natix::PartitionWith("DHW", doc->tree, kLimit, popts);
        }
        if (!doc.ok() || !part.ok()) {
          st = doc.ok() ? part.status() : doc.status();
        } else {
          Span s("storage.build");
          auto built =
              NatixStore::Build(std::move(doc).value(), *part, kLimit);
          if (built.ok()) {
            store.emplace(std::move(built).value());
          } else {
            st = built.status();
          }
        }
        if (store) {
          Span s("storage.flush");
          st = store->FlushPagesTo(pagefiles[d].get());
        }
      }
      pass_ms += timer.ElapsedMillis();
      ref_ms.push_back(host.RunMs());
      if (!rep->CheckOk(st, std::string("load ") + kCorpus[d])) {
        pass_ok = false;
        continue;
      }
      rep->CheckOk(natix::CheckFeasible(store->tree(), *part, kLimit),
                   std::string("DHW partitioning of ") + kCorpus[d]);
      if (passes == 0) {
        partitions[d] = part->size();
        disk_bytes += static_cast<double>(store->TotalDiskBytes());
        file_bytes += static_cast<double>(store->regular_page_count() *
                                          (store->page_size() +
                                           natix::kPageCellOverhead));
      } else {
        rep->Check(part->size() == partitions[d],
                   std::string("DHW partition count of ") + kCorpus[d] +
                       " differs between passes");
      }
    }
    if (pass_ok) op_ms.push_back(pass_ms);
    ++passes;
  }
  const int64_t w1 = Tracer::NowNs();

  SetOpMetrics(op_ms, ref_ms, rep);
  std::printf("bulkload_dhw: %zu timed passes over the corpus; %.0f KB XML "
              "per pass; DHW threads %u\n",
              op_ms.size(), xml_bytes / 1024.0, DhwThreads());
  if (!Tracer::enabled()) return;

  const SpanIndex idx(Tracer::Collect(), w0, w1);
  const double p = passes;
  SetCoverageMetrics(idx, {"bench.load"}, rep);
  rep->Set("xml.import_ms", idx.SumMs("xml.import") / p);
  double partition_ms = 0;
  double partition_count = 0;
  for (size_t d = 0; d < std::size(kCorpus); ++d) {
    const std::vector<double> ms = idx.DurationsMs(kPartitionSpan[d]);
    partition_ms += Sum(ms);
    partition_count += static_cast<double>(partitions[d]);
    rep->Set(std::string("core.partition_ms.") + kCorpus[d],
             Percentile(ms, 50));
  }
  rep->Set("core.partition_ms", partition_ms / p);
  rep->Set("core.partitions", partition_count);
  rep->Set("storage.build_ms", idx.SumMs("storage.build") / p);
  rep->Set("storage.flush_ms", idx.SumMs("storage.flush") / p);
  rep->Set("storage.disk_bytes_per_xml_byte", SafeDiv(disk_bytes, xml_bytes));
  rep->Set("bulkload.load_mb_per_s",
           SafeDiv(xml_bytes * p / (1 << 20), Sum(op_ms) * 1e-3));
  SetBackendMetrics(idx, p, rep);
  rep->Set("storage.backend.append_bytes", file_bytes);
}

// ---------------------------------------------------------------------------
// query_warm and query_cold

void RunQuery(const Config& cfg, const Args& args, const TempDir& tmp,
              const HostReference& host, bool cold, Report* rep) {
  std::optional<NatixStore> store;
  Answers oracle;
  std::unique_ptr<natix::FileBackend> pagefile;
  std::optional<natix::LruBufferPool> pool;
  std::optional<natix::FilePageSource> file_source;
  std::optional<TracingPageProvider> traced_source;
  const natix::PageProvider* provider = nullptr;
  std::vector<double> setup_s;
  for (int i = 0; i < cfg.setups; ++i) {
    traced_source.reset();
    file_source.reset();
    pool.reset();
    pagefile.reset();
    store.reset();
    natix::Timer timer;
    auto built = BuildXmarkStore(args.seed, cfg.xmark_scale);
    if (!rep->CheckOk(built.status(), "build XMark store")) return;
    store.emplace(std::move(built).value());
    double seconds = timer.ElapsedSeconds();
    // The oracle runs on the kept store's source tree, before a cold store
    // releases it; it is a check, not set-up, so it is not timed.
    if (i + 1 == cfg.setups) {
      auto answers = OracleAnswers(store->tree());
      if (!rep->CheckOk(answers.status(), "reference evaluator")) return;
      oracle = std::move(answers).value();
    }
    timer.Reset();
    if (cold) {
      if (!rep->CheckOk(store->ReleaseDocument(), "release document")) return;
      auto backend = OpenBackend(tmp.File("pages.dat"), /*fresh=*/true);
      if (!rep->CheckOk(backend.status(), "open page file")) return;
      pagefile = std::move(backend).value();
      if (!rep->CheckOk(store->FlushPagesTo(pagefile.get()), "flush pages")) {
        return;
      }
      // The pool holds an eighth of the data: the working set of a sweep
      // does not fit, so page reads stay on the sweep's path.
      auto created = natix::LruBufferPool::Create(
          std::max<size_t>(4, store->regular_page_count() / 8));
      if (!rep->CheckOk(created.status(), "create pool")) return;
      pool.emplace(std::move(created).value());
      file_source.emplace(pagefile.get(), store->page_size(),
                          store->page_provider());
      provider = &*file_source;
      if (Tracer::enabled()) {
        traced_source.emplace(&*file_source);
        provider = &*traced_source;
      }
    }
    setup_s.push_back(seconds + timer.ElapsedSeconds());
  }
  rep->Set("setup_s", Percentile(setup_s, 50));
  natix::LruBufferPool* pool_ptr = pool ? &*pool : nullptr;

  // One untimed sweep warms the pool and is checked against the oracle.
  std::optional<natix::StoreSnapshot> first_snap;
  const Sweep first =
      RunSweep(*store, pool_ptr, provider, "bench.warmup", &first_snap);
  first_snap.reset();
  rep->CheckOk(first.status, "warm-up sweep");
  rep->Check(first.status.ok() && first.answers == oracle,
             "first sweep differs from the reference evaluator");

  std::vector<double> sweep_ms;
  std::vector<double> ref_ms;
  natix::AccessStats per_sweep;
  const natix::BufferStats pool0 = pool ? pool->stats() : natix::BufferStats{};
  const int64_t w0 = Tracer::NowNs();
  natix::Timer window;
  while (sweep_ms.empty() || window.ElapsedSeconds() < args.seconds) {
    const Sweep s = RunSweep(*store, pool_ptr, provider, "bench.sweep");
    if (!rep->CheckOk(s.status, "sweep")) break;
    sweep_ms.push_back(s.ms);
    ref_ms.push_back(host.RunMs());
    per_sweep = s.stats;
    rep->Check(s.result_nodes == first.result_nodes,
               "sweep result count differs from the first sweep");
  }
  const int64_t w1 = Tracer::NowNs();
  const natix::BufferStats pool1 = pool ? pool->stats() : natix::BufferStats{};

  SetOpMetrics(sweep_ms, ref_ms, rep);
  std::printf("%s: %zu timed sweeps of Q1-Q7 over %zu nodes on %zu pages "
              "(%zu result nodes per sweep)\n",
              args.workload.c_str(), sweep_ms.size(), store->node_count(),
              store->regular_page_count(),
              static_cast<size_t>(first.result_nodes));
  if (!Tracer::enabled()) return;

  MeasureEvalSetup(*store, pool_ptr, provider, cfg.eval_setup_samples, rep);
  const SpanIndex idx(Tracer::Collect(), w0, w1);
  const double n = static_cast<double>(sweep_ms.size());
  SetCoverageMetrics(idx, {"bench.sweep"}, rep);
  SetQueryMetrics(idx, n, per_sweep, static_cast<double>(first.result_nodes),
                  rep);
  SetBackendMetrics(idx, n, rep);
  rep->Set("storage.pool.accesses",
           static_cast<double>(pool1.accesses - pool0.accesses) / n);
  rep->Set("storage.pool.misses",
           static_cast<double>(pool1.misses - pool0.misses) / n);
  rep->Set("storage.pool.hit_rate",
           SafeDiv(static_cast<double>(pool1.hits - pool0.hits),
                   static_cast<double>(pool1.accesses - pool0.accesses)));
  rep->Set("storage.pool.evictions",
           static_cast<double>(pool1.evictions - pool0.evictions) / n);
  rep->Set("storage.pool.bytes_read",
           static_cast<double>(pool1.bytes_read - pool0.bytes_read) / n);
}

// ---------------------------------------------------------------------------
// update_serve

/// Ops the update_serve writer acknowledges with one SyncWal().
constexpr int kCommitOps = 8;

enum OpKind { kInsert = 0, kDelete = 1, kMove = 2, kRename = 3 };
constexpr const char* kMutationSpan[] = {
    "storage.mutation.insert", "storage.mutation.delete",
    "storage.mutation.move", "storage.mutation.rename"};

/// One op of the mixed update stream bench_updates also drives: ~40%
/// insert / 30% delete-subtree / 20% move-subtree / 10% rename. Deletes
/// turn into inserts while the live node count is below `size_floor`, so
/// the document keeps roughly its size; deletes of subtrees over 16 nodes
/// and moves into the moved subtree are skipped. `call(kind, fn)` runs the
/// library call `fn`, which is how the caller times each op kind. Returns
/// the kind applied, or nullopt for a skipped op.
template <typename Call>
natix::Result<std::optional<OpKind>> ApplyRandomOp(NatixStore* store,
                                                   size_t size_floor,
                                                   natix::Rng* rng, int i,
                                                   Call&& call) {
  static constexpr const char* kLabels[] = {"item", "note", "entry", "x"};
  const natix::Tree& t = store->tree();
  const auto pick_live = [&]() -> NodeId {
    for (int tries = 0; tries < 256; ++tries) {
      const auto v = static_cast<NodeId>(rng->NextBounded(t.size()));
      if (store->IsLiveNode(v)) return v;
    }
    return 0;
  };
  const auto subtree_capped = [&](NodeId v, size_t cap) {
    std::vector<NodeId> stack = {v};
    size_t n = 0;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      if (++n > cap) return false;
      for (NodeId c = t.FirstChild(u); c != natix::kInvalidNode;
           c = t.NextSibling(c)) {
        stack.push_back(c);
      }
    }
    return true;
  };
  uint64_t roll = rng->NextBounded(100);
  if (roll >= 40 && roll < 70 && store->live_node_count() < size_floor) {
    roll = 0;
  }
  if (roll < 40) {
    const NodeId parent = pick_live();
    NodeId before = natix::kInvalidNode;
    if (t.ChildCount(parent) > 0 && rng->NextBool(0.4)) {
      const std::vector<NodeId> kids = t.Children(parent);
      before = kids[rng->NextBounded(kids.size())];
    }
    const bool text = rng->NextBool(0.5);
    std::string content;
    if (text) content.assign(1 + rng->NextBounded(40), 'a' + i % 26);
    const char* label = text ? "" : kLabels[rng->NextBounded(4)];
    const natix::NodeKind kind =
        text ? natix::NodeKind::kText : natix::NodeKind::kElement;
    NATIX_RETURN_NOT_OK(call(kInsert, [&] {
      return store->InsertBefore(parent, before, label, kind, content)
          .status();
    }));
    return std::optional<OpKind>(kInsert);
  }
  if (roll < 70) {
    const NodeId v = pick_live();
    if (v == 0 || !subtree_capped(v, 16)) return std::optional<OpKind>();
    NATIX_RETURN_NOT_OK(
        call(kDelete, [&] { return store->DeleteSubtree(v).status(); }));
    return std::optional<OpKind>(kDelete);
  }
  if (roll < 90) {
    const NodeId v = pick_live();
    const NodeId parent = pick_live();
    if (v == 0) return std::optional<OpKind>();
    for (NodeId a = parent; a != natix::kInvalidNode; a = t.Parent(a)) {
      if (a == v) return std::optional<OpKind>();
    }
    NodeId before = natix::kInvalidNode;
    if (t.ChildCount(parent) > 0 && rng->NextBool(0.5)) {
      const std::vector<NodeId> kids = t.Children(parent);
      before = kids[rng->NextBounded(kids.size())];
      if (before == v) before = natix::kInvalidNode;
    }
    NATIX_RETURN_NOT_OK(
        call(kMove, [&] { return store->MoveSubtree(v, parent, before); }));
    return std::optional<OpKind>(kMove);
  }
  const NodeId v = pick_live();
  const char* label = kLabels[rng->NextBounded(4)];
  NATIX_RETURN_NOT_OK(
      call(kRename, [&] { return store->Rename(v, label); }));
  return std::optional<OpKind>(kRename);
}

/// What the reader thread saw.
struct ReaderLog {
  std::vector<double> sweep_ms;
  std::vector<double> ref_ms;
  natix::AccessStats last_stats;
  uint64_t checks = 0;
  std::vector<std::string> failures;
};

/// Closed-loop reader: sweeps fresh snapshots until asked to stop. The
/// first sweep is checked against the reference evaluator over the same
/// snapshot's materialized document.
void ReaderLoop(const NatixStore& store, const HostReference& host,
                const std::stop_token& stop, ReaderLog* log) {
  bool checked = false;
  while (!stop.stop_requested()) {
    std::optional<natix::StoreSnapshot> snap;
    const Sweep s = RunSweep(store, nullptr, nullptr, "bench.reader_sweep",
                             checked ? nullptr : &snap);
    if (!s.status.ok()) {
      log->failures.push_back("reader sweep: " + s.status.ToString());
      return;
    }
    log->sweep_ms.push_back(s.ms);
    log->ref_ms.push_back(host.RunMs());
    log->last_stats = s.stats;
    if (checked) continue;
    checked = true;
    ++log->checks;
    auto doc = snap->MaterializeDocument();
    auto want = doc.ok() ? OracleAnswers(doc->tree)
                         : natix::Result<Answers>(doc.status());
    if (!want.ok() || *want != s.answers) {
      log->failures.push_back(
          "reader's first sweep differs from the oracle of its snapshot");
    }
  }
}

void RunServe(const Config& cfg, const Args& args, const TempDir& tmp,
              const HostReference& host, Report* rep) {
  const std::string wal_path = tmp.File("wal.log");
  std::optional<NatixStore> store;
  std::vector<double> setup_s;
  for (int i = 0; i < cfg.setups; ++i) {
    store.reset();
    natix::Timer timer;
    auto built = BuildXmarkStore(args.seed, cfg.xmark_scale);
    if (!rep->CheckOk(built.status(), "build XMark store")) return;
    store.emplace(std::move(built).value());
    auto wal = OpenBackend(wal_path, /*fresh=*/true);
    if (!rep->CheckOk(wal.status(), "open WAL")) return;
    if (!rep->CheckOk(store->EnableDurability(std::move(wal).value()),
                      "enable durability")) {
      return;
    }
    setup_s.push_back(timer.ElapsedSeconds());
  }
  rep->Set("setup_s", Percentile(setup_s, 50));

  const size_t size_floor = store->live_node_count();
  // Fixed work: the writer offers writer_ops_per_s for --seconds.
  const int commits = std::max(
      1, static_cast<int>(args.seconds * cfg.writer_ops_per_s / kCommitOps));
  const natix::WalStats wal0 = store->wal_stats();
  const natix::UpdateStats upd0 = store->update_stats();
  const natix::MvccStats mvcc0 = store->mvcc_stats();
  natix::Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 1);

  // One reader: with two, reader and writer contend for the four cores
  // and the op metric of one seed ranged over 21% from run to run.
  ReaderLog log;
  const int64_t w0 = Tracer::NowNs();
  natix::Timer window;
  std::jthread reader([&store, &host, &log](const std::stop_token& stop) {
    ReaderLoop(*store, host, stop, &log);
  });

  std::vector<double> commit_ms;
  std::vector<double> checkpoint_ms;
  double lag_max_ms = 0;
  double held_bytes_max = 0;
  int applied = 0;
  int skipped = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const std::chrono::duration<double> period(kCommitOps /
                                             cfg.writer_ops_per_s);
  const auto timed_call = [](OpKind kind, auto&& fn) {
    Span s(kMutationSpan[kind]);
    return fn();
  };
  for (int c = 0; c < commits; ++c) {
    const auto due =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 period * c);
    std::this_thread::sleep_until(due);
    const auto start = std::chrono::steady_clock::now();
    lag_max_ms = std::max(
        lag_max_ms,
        std::chrono::duration<double, std::milli>(start - due).count());
    Status st;
    {
      Span op("bench.commit", NextRequest());
      for (int k = 0; k < kCommitOps && st.ok(); ++k) {
        const auto done = ApplyRandomOp(&*store, size_floor, &rng,
                                        c * kCommitOps + k, timed_call);
        if (!done.ok()) {
          st = done.status();
        } else if (done->has_value()) {
          ++applied;
        } else {
          ++skipped;
        }
      }
      if (st.ok()) {
        Span s("storage.wal.sync");
        st = store->SyncWal();
      }
    }
    const auto acked = std::chrono::steady_clock::now();
    if (!rep->CheckOk(st, "commit")) break;
    commit_ms.push_back(
        std::chrono::duration<double, std::milli>(acked - due).count());
    held_bytes_max = std::max(
        held_bytes_max, static_cast<double>(store->mvcc_stats().held_bytes));
    const int ops_done = (c + 1) * kCommitOps;
    if (ops_done % cfg.checkpoint_every == 0) {
      natix::Timer timer;
      Status cp;
      {
        Span s("storage.checkpoint");
        cp = store->Checkpoint();
      }
      if (!rep->CheckOk(cp, "checkpoint")) break;
      checkpoint_ms.push_back(timer.ElapsedMillis());
    }
  }
  reader.request_stop();
  reader.join();
  const double window_s = window.ElapsedSeconds();
  const int64_t w1 = Tracer::NowNs();

  const std::vector<double>& sweep_ms = log.sweep_ms;
  rep->Attempt(sweep_ms.size() + log.checks);
  for (const std::string& f : log.failures) rep->Fail(f);
  const natix::WalStats wal1 = store->wal_stats();
  const natix::UpdateStats upd1 = store->update_stats();
  const natix::MvccStats mvcc1 = store->mvcc_stats();
  rep->Check(store->open_snapshot_count() == 0,
             "snapshots left open after the reader joined");
  rep->CheckOk(store->partitioner()->Validate(), "incremental partitioner");

  // Crash and recover: every op was acknowledged, so the recovered store
  // must hold the same live nodes and answer XPathMark identically.
  std::optional<natix::StoreSnapshot> before_snap;
  const Sweep before = RunSweep(*store, nullptr, nullptr, "bench.verify",
                                &before_snap);
  before_snap.reset();
  rep->CheckOk(before.status, "sweep before the crash");
  const size_t live_before = store->live_node_count();
  store.reset();
  natix::Timer recover_timer;
  natix::RecoveryInfo info;
  natix::Result<NatixStore> recovered = Status::Internal("not run");
  {
    Span s("storage.recovery");
    auto wal = OpenBackend(wal_path, /*fresh=*/false);
    recovered = wal.ok() ? NatixStore::Recover(std::move(wal).value(), &info)
                         : natix::Result<NatixStore>(wal.status());
  }
  const double recovery_s = recover_timer.ElapsedSeconds();
  if (rep->CheckOk(recovered.status(), "recover")) {
    rep->Check(recovered->live_node_count() == live_before,
               "recovered store has a different live node count");
    std::optional<natix::StoreSnapshot> after_snap;
    const Sweep after = RunSweep(*recovered, nullptr, nullptr, "bench.verify",
                                 &after_snap);
    after_snap.reset();
    rep->Check(after.status.ok() && after.answers == before.answers,
               "recovered store answers XPathMark differently");
  }

  SetOpMetrics(sweep_ms, log.ref_ms, rep);
  std::printf("update_serve: %zu commits (%d ops applied, %d skipped) at "
              "%.0f ops/s offered, %zu checkpoints; %zu reader sweeps\n",
              commit_ms.size(), applied, skipped, cfg.writer_ops_per_s,
              checkpoint_ms.size(), sweep_ms.size());
  if (!Tracer::enabled()) return;

  if (recovered.ok()) {
    MeasureEvalSetup(*recovered, nullptr, nullptr, cfg.eval_setup_samples,
                     rep);
  }
  const SpanIndex idx(Tracer::Collect(), w0, w1);
  const double kilo_ops = applied / 1000.0;
  const double n_commits = static_cast<double>(commit_ms.size());
  SetCoverageMetrics(idx, {"bench.commit", "bench.reader_sweep"}, rep);
  SetQueryMetrics(idx, static_cast<double>(sweep_ms.size()), log.last_stats,
                  static_cast<double>(before.result_nodes), rep);
  SetBackendMetrics(idx, n_commits, rep);
  rep->Set("storage.backend.append_bytes",
           SafeDiv(static_cast<double>(wal1.wal_bytes - wal0.wal_bytes),
                   n_commits));
  rep->Set("storage.mvcc.retired_frames",
           SafeDiv(mvcc1.retired_frames - mvcc0.retired_frames, kilo_ops));
  rep->Set("storage.mvcc.reclaimed_frames",
           SafeDiv(mvcc1.reclaimed_frames - mvcc0.reclaimed_frames, kilo_ops));
  rep->Set("storage.mvcc.held_bytes_max", held_bytes_max);
  const char* kMutationMetric[] = {
      "storage.mutation_us.insert", "storage.mutation_us.delete",
      "storage.mutation_us.move", "storage.mutation_us.rename"};
  for (int k = 0; k < 4; ++k) {
    rep->Set(kMutationMetric[k],
             Percentile(idx.DurationsMs(kMutationSpan[k]), 50) * 1e3);
  }
  const std::vector<double> wal_sync = idx.DurationsMs("storage.wal.sync");
  rep->Set("storage.wal.sync_ms_p50", Percentile(wal_sync, 50));
  rep->Set("storage.wal.sync_ms_p99", Percentile(wal_sync, 99));
  rep->Set("storage.wal.fsyncs",
           SafeDiv(wal1.fsyncs - wal0.fsyncs, kilo_ops));
  rep->Set("storage.wal.mean_batch_ops",
           SafeDiv(wal1.synced_entries - wal0.synced_entries,
                   wal1.sync_batches - wal0.sync_batches));
  rep->Set("storage.checkpoint_ms_p50", Percentile(checkpoint_ms, 50));
  rep->Set("storage.checkpoint.bytes",
           SafeDiv(wal1.checkpoint_bytes - wal0.checkpoint_bytes,
                   wal1.checkpoints - wal0.checkpoints));
  rep->Set("storage.checkpoint.io_ms",
           Percentile(idx.ChildCoverMs("storage.checkpoint",
                                       "storage.backend."),
                      50));
  rep->Set("storage.recovery_s", recovery_s);
  rep->Set("storage.recovery.replayed_ops",
           static_cast<double>(info.replayed_ops));
  rep->Set("storage.recovery.io_ms",
           Sum(idx.ChildCoverMs("storage.recovery", "storage.backend.")));
  rep->Set("updates.splits", SafeDiv(upd1.splits - upd0.splits, kilo_ops));
  rep->Set("updates.merges", SafeDiv(upd1.merges - upd0.merges, kilo_ops));
  rep->Set("updates.records_rewritten",
           SafeDiv(upd1.records_rewritten - upd0.records_rewritten,
                   kilo_ops));
  rep->Set("updates.relocations",
           SafeDiv(upd1.relocations - upd0.relocations, kilo_ops));
  rep->Set("updates.compactions",
           SafeDiv(upd1.compactions - upd0.compactions, kilo_ops));
  rep->Set("serve.reader_sweeps_per_s",
           SafeDiv(static_cast<double>(sweep_ms.size()), window_s));
  rep->Set("serve.commit_ms_p50", Percentile(commit_ms, 50));
  rep->Set("serve.commit_ms_p99", Percentile(commit_ms, 99));
  rep->Set("serve.writer_lag_ms_max", lag_max_ms);
  rep->Set("serve.wal_bytes_per_op_byte",
           SafeDiv(wal1.wal_bytes - wal0.wal_bytes,
                   wal1.op_bytes - wal0.op_bytes));
}

// ---------------------------------------------------------------------------
// Command line and output.

int Usage() {
  std::fprintf(stderr,
               "usage: natix_bench --workload "
               "<bulkload_dhw|query_warm|query_cold|update_serve> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>] [--smoke]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0 &&
                     std::isfinite(args->seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return have_seed && have_seconds && !args->workload.empty();
}

/// Prints every metric of `table` by name with its unit, then the result
/// JSON as the last line. A metric the workload did not measure, or a
/// non-finite value, is a failure. Returns the exit code.
int Emit(const MetricDef* table, size_t count, bool zero_if_absent,
         Report* rep) {
  std::string metrics;
  char buf[256];
  for (size_t i = 0; i < count; ++i) {
    const MetricDef& m = table[i];
    std::optional<double> v = rep->Get(m.name);
    if (!v && zero_if_absent) v = 0.0;
    if (!v || !std::isfinite(*v)) {
      rep->Fail(std::string("metric ") + m.name + " not measured");
      v = 0.0;
    }
    std::printf("  %-36s %16.6f %s\n", m.name, *v, m.unit);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, *v, m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              rep->failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  1, rep->attempted())),
              static_cast<unsigned long long>(rep->failed()),
              metrics.c_str());
  std::fflush(stdout);
  return rep->failed() == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const bool known = args.workload == "bulkload_dhw" ||
                     args.workload == "query_warm" ||
                     args.workload == "query_cold" ||
                     args.workload == "update_serve";
  if (!known) return Usage();
  if (args.trace) Tracer::Enable();
  const Config cfg = MakeConfig(args.smoke);
  auto tmp = TempDir::Create(args.workdir);
  if (!tmp.ok()) {
    std::fprintf(stderr, "natix_bench: %s\n", tmp.status().ToString().c_str());
    return 1;
  }
  std::printf("natix_bench: workload %s, seed %llu, %g s, trace %d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? ", smoke" : "");

  Report rep;
  const HostReference host;
  if (args.workload == "bulkload_dhw") {
    RunBulkload(cfg, args, **tmp, host, &rep);
  } else if (args.workload == "query_warm") {
    RunQuery(cfg, args, **tmp, host, /*cold=*/false, &rep);
  } else if (args.workload == "query_cold") {
    RunQuery(cfg, args, **tmp, host, /*cold=*/true, &rep);
  } else {
    RunServe(cfg, args, **tmp, host, &rep);
  }
  rep.Set("peak_rss_mb", PeakRssMb());

  if (!args.trace) {
    return Emit(kEndToEnd, std::size(kEndToEnd), false, &rep);
  }
  // One file per workload, replaced by each traced run: a cold run records
  // about a million spans (~100 MB), so runs must not accumulate.
  const std::string span_file =
      args.workdir + "/spans-" + args.workload + ".json";
  rep.CheckOk(WriteSpanFile(span_file, Tracer::Collect()),
              "write " + span_file);
  std::printf("spans written to %s\n", span_file.c_str());
  return Emit(kPerLayer, std::size(kPerLayer), true, &rep);
}

}  // namespace
}  // namespace natix_bench

int main(int argc, char** argv) { return natix_bench::Main(argc, argv); }
