#include "trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace natix_bench {
namespace {

SpanRecord Rec(uint64_t id, uint64_t parent, uint32_t thread,
               const char* name, int64_t start, int64_t end) {
  SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.request = 7;
  r.thread = thread;
  r.name = name;
  r.start_ns = start;
  r.end_ns = end;
  return r;
}

TEST(TraceTest, UnionMergesOverlapsAndClips) {
  EXPECT_EQ(UnionLengthNs({}, 0, 100), 0);
  EXPECT_EQ(UnionLengthNs({{10, 20}, {15, 30}, {40, 50}}, 0, 100), 30);
  // Touching intervals merge; the clip drops what lies outside [lo, hi).
  EXPECT_EQ(UnionLengthNs({{10, 20}, {20, 30}}, 0, 100), 20);
  EXPECT_EQ(UnionLengthNs({{-5, 5}, {95, 120}}, 0, 100), 10);
  EXPECT_EQ(UnionLengthNs({{200, 300}}, 0, 100), 0);
}

TEST(TraceTest, SelfTimeSubtractsUnionOfChildrenAcrossThreads) {
  // Parent [0, 100) on thread 0. Two children on threads 1 and 2 overlap
  // each other ([10, 40) and [30, 60)); a grandchild inside the first
  // child must not count against the parent; one child on thread 1 sticks
  // out past the parent's end.
  const std::vector<SpanRecord> spans = {
      Rec(1, 0, 0, "parent", 0, 100),
      Rec(2, 1, 1, "child", 10, 40),
      Rec(3, 1, 2, "child", 30, 60),
      Rec(4, 2, 1, "grandchild", 15, 25),
      Rec(5, 1, 1, "late", 90, 130),
  };
  const auto self = SelfTimesNs(spans);
  // Covered: [10, 60) and [90, 100) = 60 of 100.
  EXPECT_EQ(self.at(1), 40);
  EXPECT_EQ(self.at(2), 20);
  EXPECT_EQ(self.at(3), 30);
  EXPECT_EQ(self.at(4), 10);
  EXPECT_EQ(self.at(5), 40);
}

TEST(TraceTest, RecordedSpansNestAndAttributeOtherThreads) {
  Tracer::Enable();
  uint64_t parent_id = 0;
  {
    Span parent("test.parent", 42);
    parent_id = parent.id();
    {
      Span nested("test.nested");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::thread a([&] {
      Span child("test.remote", Span::kInherit, parent_id);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    });
    std::thread b([&] {
      Span child("test.remote", 42, parent_id);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    });
    a.join();
    b.join();
  }
  const std::vector<SpanRecord> spans = Tracer::Collect();
  const SpanRecord* parent = nullptr;
  std::vector<const SpanRecord*> remote;
  const SpanRecord* nested = nullptr;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name == "test.parent") parent = &s;
    if (name == "test.nested") nested = &s;
    if (name == "test.remote") remote.push_back(&s);
  }
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(nested, nullptr);
  ASSERT_EQ(remote.size(), 2u);
  EXPECT_EQ(nested->parent, parent->id);
  EXPECT_EQ(nested->request, 42u);
  EXPECT_EQ(nested->thread, parent->thread);
  for (const SpanRecord* r : remote) {
    EXPECT_EQ(r->parent, parent->id);
    EXPECT_NE(r->thread, parent->thread);
    EXPECT_GE(r->start_ns, parent->start_ns);
    EXPECT_LE(r->end_ns, parent->end_ns);
  }
  EXPECT_NE(remote[0]->thread, remote[1]->thread);

  const auto self = SelfTimesNs(spans);
  const int64_t covered = UnionLengthNs(
      {{nested->start_ns, nested->end_ns},
       {remote[0]->start_ns, remote[0]->end_ns},
       {remote[1]->start_ns, remote[1]->end_ns}},
      parent->start_ns, parent->end_ns);
  EXPECT_EQ(self.at(parent->id), parent->duration_ns() - covered);
  // The two remote children overlap, so the union is less than their sum.
  EXPECT_LT(covered, nested->duration_ns() + remote[0]->duration_ns() +
                         remote[1]->duration_ns());
}

TEST(TraceTest, JsonRoundTrip) {
  const std::vector<SpanRecord> spans = {
      Rec(1, 0, 0, "storage.checkpoint", 5, 900000000000),
      Rec(2, 1, 3, "storage.backend.append", -4, 17),
  };
  const auto parsed = ParseSpanJson(SpansToJson(spans));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->spans.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& a = spans[i];
    const SpanRecord& b = parsed->spans[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.request, b.request);
    EXPECT_EQ(a.thread, b.thread);
    EXPECT_STREQ(a.name, b.name);
    EXPECT_EQ(a.start_ns, b.start_ns);
    EXPECT_EQ(a.end_ns, b.end_ns);
  }
  EXPECT_TRUE(ParseSpanJson("{\"spans\":[]}").ok());
  EXPECT_FALSE(ParseSpanJson("{\"spans\":[{\"id\":1}").ok());
  EXPECT_FALSE(ParseSpanJson("{\"spans\":[{\"bogus\":1}]}").ok());
  EXPECT_FALSE(ParseSpanJson("{\"spans\":[]} trailing").ok());
}

}  // namespace
}  // namespace natix_bench
