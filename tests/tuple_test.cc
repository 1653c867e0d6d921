#include "stream/tuple.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "concurrent/ring_queue.h"

namespace {

// Counts global operator new calls made by the current thread while a
// CountAllocations scope is open.
thread_local bool counting = false;
thread_local long allocations = 0;

}  // namespace

// Out of line, so the compiler cannot pair an inlined malloc in one with
// a free in another and warn about a new/free mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (counting) ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rtrec::stream {
namespace {

class CountAllocations {
 public:
  CountAllocations() {
    allocations = 0;
    counting = true;
  }
  ~CountAllocations() { counting = false; }
  long count() const { return allocations; }
};

const Schema& TestSchema() {
  static const auto& schema = *new Schema{"user", "score", "vec"};
  return schema;
}

Tuple MakeTuple() {
  return Tuple(TestSchema(), std::int64_t{7}, 2.5,
               std::vector<float>{1.0f, 2.0f});
}

TEST(SchemaTest, IndexOfFindsFields) {
  Schema schema{"a", "b", "c"};
  EXPECT_EQ(schema.IndexOf("a"), 0);
  EXPECT_EQ(schema.IndexOf("c"), 2);
  EXPECT_EQ(schema.IndexOf("nope"), -1);
  EXPECT_EQ(schema.size(), 3u);
}

TEST(TupleTest, PositionalAccess) {
  Tuple t = MakeTuple();
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(std::get<std::int64_t>(t.Get(0)), 7);
  EXPECT_DOUBLE_EQ(std::get<double>(t.Get(1)), 2.5);
}

TEST(TupleTest, GetIfChecksTypeAndBounds) {
  Tuple t = MakeTuple();
  ASSERT_NE(t.GetIf<std::int64_t>(0), nullptr);
  EXPECT_EQ(*t.GetIf<std::int64_t>(0), 7);
  EXPECT_EQ(t.GetIf<double>(0), nullptr);
  EXPECT_EQ(t.GetIf<std::vector<float>>(2)->size(), 2u);
  // Past the end: slot 3 is one of the unused inline slots.
  EXPECT_EQ(t.GetIf<std::int64_t>(3), nullptr);
}

TEST(TupleTest, NameAccessorsSucceed) {
  Tuple t = MakeTuple();
  EXPECT_EQ(*t.GetInt("user"), 7);
  EXPECT_DOUBLE_EQ(std::get<double>(*t.GetByName("score")), 2.5);
  EXPECT_EQ(std::get<std::vector<float>>(*t.GetByName("vec")).size(), 2u);
}

TEST(TupleTest, MissingFieldIsNotFound) {
  Tuple t = MakeTuple();
  EXPECT_TRUE(t.GetInt("missing").status().IsNotFound());
  EXPECT_EQ(t.GetByName("missing"), nullptr);
}

TEST(TupleTest, WrongTypeIsInvalidArgument) {
  Tuple t = MakeTuple();
  EXPECT_TRUE(t.GetInt("vec").status().IsInvalidArgument());
  EXPECT_TRUE(t.GetInt("score").status().IsInvalidArgument());
}

TEST(TupleTest, DefaultTupleIsEmpty) {
  Tuple t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.schema(), nullptr);
  EXPECT_EQ(t.GetByName("x"), nullptr);
}

TEST(TupleTest, ToStringNamesFields) {
  Tuple t = MakeTuple();
  const std::string s = t.ToString();
  EXPECT_NE(s.find("user=7"), std::string::npos);
  EXPECT_NE(s.find("score=2.5"), std::string::npos);
  EXPECT_NE(s.find("float[2]"), std::string::npos);
}

TEST(TupleTest, CopyIsIndependent) {
  Tuple a = MakeTuple();
  Tuple b = a;
  EXPECT_EQ(*b.GetInt("user"), 7);
  EXPECT_EQ(a.schema(), b.schema());  // Schema shared by address.
  EXPECT_EQ(a.schema(), &TestSchema());
  EXPECT_NE(a.GetIf<std::vector<float>>(2), b.GetIf<std::vector<float>>(2));
}

TEST(TupleAllocationTest, ScalarTupleHopsAllocateNothing) {
  // Six fields: the widest schema in the pipelines (the demographic
  // spout's). Build, fan out by copy, move, and pass through the ring a
  // topology queue uses; none of it may touch the heap.
  static const auto& wide =
      *new Schema{"group", "user", "video", "action", "value", "time"};
  concurrent::RingQueue<Tuple> queue(8);
  std::vector<Tuple> drained;
  drained.reserve(4);
  long count = 0;
  {
    CountAllocations scope;
    Tuple built(wide, std::int64_t{1}, std::int64_t{2}, std::int64_t{3},
                std::int64_t{4}, 0.75, std::int64_t{5});
    Tuple copy = built;
    Tuple moved = std::move(copy);
    ASSERT_TRUE(queue.Push(built));
    ASSERT_TRUE(queue.Push(std::move(moved)));
    ASSERT_EQ(queue.PopBatch(drained, 4), 2u);
    count = scope.count();
  }
  EXPECT_EQ(count, 0);
  {
    // Control: the counter does see a copied float vector's buffer.
    const Tuple with_vec = MakeTuple();
    CountAllocations scope;
    const Tuple copy = with_vec;
    EXPECT_EQ(scope.count(), 1);
  }
  ASSERT_EQ(drained.size(), 2u);
  for (const Tuple& t : drained) {
    EXPECT_EQ(t.schema(), &wide);
    EXPECT_EQ(*t.GetIf<std::int64_t>(0), 1);
    EXPECT_DOUBLE_EQ(*t.GetIf<double>(4), 0.75);
    EXPECT_EQ(*t.GetIf<std::int64_t>(5), 5);
  }
}

TEST(HashValueTest, EqualValuesHashEqual) {
  EXPECT_EQ(HashValue(Value{std::int64_t{5}}),
            HashValue(Value{std::int64_t{5}}));
  EXPECT_EQ(HashValue(Value{2.5}), HashValue(Value{2.5}));
  EXPECT_EQ(HashValue(Value{std::vector<float>{1, 2}}),
            HashValue(Value{std::vector<float>{1, 2}}));
}

TEST(HashValueTest, DistinctValuesMostlyDiffer) {
  EXPECT_NE(HashValue(Value{std::int64_t{5}}),
            HashValue(Value{std::int64_t{6}}));
  EXPECT_NE(HashValue(Value{std::vector<float>{1}}),
            HashValue(Value{std::vector<float>{2}}));
  // Same number as int vs double hashes independently (type matters for
  // routing only if emitters are consistent, which schemas enforce).
  EXPECT_NE(HashValue(Value{}), HashValue(Value{std::int64_t{0}}));
}

TEST(ValueToStringTest, AllAlternatives) {
  EXPECT_EQ(ValueToString(Value{}), "null");
  EXPECT_EQ(ValueToString(Value{std::int64_t{42}}), "42");
  EXPECT_EQ(ValueToString(Value{2.5}), "2.5");
  EXPECT_EQ(ValueToString(Value{std::vector<float>{1, 2, 3}}), "float[3]");
}

}  // namespace
}  // namespace rtrec::stream
