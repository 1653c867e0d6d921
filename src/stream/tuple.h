#ifndef RTREC_STREAM_TUPLE_H_
#define RTREC_STREAM_TUPLE_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace rtrec::stream {

/// A single field value flowing through the topology. The variant covers
/// everything the recommendation pipeline carries: ids, action codes and
/// pair keys (int64), weights and similarities (double), and latent
/// vectors shipped from ComputeMF to MFStorage (vector<float>).
using Value =
    std::variant<std::monostate, std::int64_t, double, std::vector<float>>;

/// Stable hash of a Value, used by fields grouping to route tuples with
/// equal keys to the same task.
std::uint64_t HashValue(const Value& v);

/// Render a Value for logs and tests.
std::string ValueToString(const Value& v);

/// The field layout of a stream, shared by every tuple on it (Storm's
/// declareOutputFields). Immutable and not copyable: a schema's address
/// is its identity, which bolts compare to reject foreign tuples and
/// routers use to cache resolved field indices.
class Schema {
 public:
  Schema(std::initializer_list<const char*> field_names);
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;

  /// Index of `name`, or -1 if the schema has no such field.
  int IndexOf(std::string_view name) const;

  std::size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
};

/// One data tuple: a schema pointer plus positional values held inline,
/// so building, copying and moving a tuple of scalars allocates nothing.
/// Values are value-semantic, so a tuple can be fanned out to several
/// consumers safely.
class Tuple {
 public:
  /// Widest schema in the pipelines: the demographic spout's six fields.
  static constexpr std::size_t kMaxFields = 6;

  Tuple() = default;

  /// Builds a tuple over `schema` with one value per field. The tuple
  /// keeps only the schema's address, so the schema must outlive every
  /// tuple built over it: in practice an immortal function-local static
  /// (see pipeline_schema). Temporaries are rejected at compile time.
  template <typename... Vs>
  Tuple(const Schema& schema, Vs&&... values)
      : schema_(&schema),
        size_(sizeof...(Vs)),
        values_{Value(std::forward<Vs>(values))...} {
    static_assert(sizeof...(Vs) <= kMaxFields, "tuple wider than kMaxFields");
    assert(schema.size() == sizeof...(Vs));
  }
  template <typename... Vs>
  Tuple(const Schema&& schema, Vs&&... values) = delete;

  /// Value by position. Requires index < size().
  const Value& Get(std::size_t index) const {
    assert(index < size_);
    return values_[index];
  }

  /// The value at `index` if it holds a T, else nullptr (also when
  /// `index` is past the end). The bolts' positional read path.
  template <typename T>
  const T* GetIf(std::size_t index) const {
    return index < size_ ? std::get_if<T>(&values_[index]) : nullptr;
  }

  /// Value by field name; returns nullptr if the field is absent. Name
  /// lookups scan the schema: for tests and diagnostics, not hot paths.
  const Value* GetByName(std::string_view name) const;

  /// Int field by name: NotFound if absent, InvalidArgument if another
  /// type.
  StatusOr<std::int64_t> GetInt(std::string_view name) const;

  std::size_t size() const { return size_; }
  const Schema* schema() const { return schema_; }

  /// "(a=1, b=2.5)" rendering for diagnostics.
  std::string ToString() const;

 private:
  const Schema* schema_ = nullptr;
  std::size_t size_ = 0;
  std::array<Value, kMaxFields> values_;
};

}  // namespace rtrec::stream

#endif  // RTREC_STREAM_TUPLE_H_
