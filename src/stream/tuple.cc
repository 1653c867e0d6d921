#include "stream/tuple.h"

#include <cstring>

#include "common/string_util.h"
#include "common/types.h"

namespace rtrec::stream {

std::uint64_t HashValue(const Value& v) {
  struct Hasher {
    std::uint64_t operator()(std::monostate) const { return 0x9E3779B9ull; }
    std::uint64_t operator()(std::int64_t x) const {
      return MixHash64(static_cast<std::uint64_t>(x));
    }
    std::uint64_t operator()(double x) const {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(x));
      std::memcpy(&bits, &x, sizeof(bits));
      return MixHash64(bits);
    }
    std::uint64_t operator()(const std::vector<float>& v) const {
      // FNV-1a over the bit patterns, mixed.
      std::uint64_t h = 0xCBF29CE484222325ull;
      for (float f : v) {
        std::uint32_t bits;
        std::memcpy(&bits, &f, sizeof(bits));
        h ^= bits;
        h *= 0x100000001B3ull;
      }
      return MixHash64(h);
    }
  };
  return std::visit(Hasher{}, v);
}

std::string ValueToString(const Value& v) {
  struct Printer {
    std::string operator()(std::monostate) const { return "null"; }
    std::string operator()(std::int64_t x) const { return std::to_string(x); }
    std::string operator()(double x) const {
      return StringPrintf("%.6g", x);
    }
    std::string operator()(const std::vector<float>& v) const {
      return StringPrintf("float[%zu]", v.size());
    }
  };
  return std::visit(Printer{}, v);
}

Schema::Schema(std::initializer_list<const char*> field_names) {
  names_.reserve(field_names.size());
  for (const char* name : field_names) names_.emplace_back(name);
}

int Schema::IndexOf(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

const Value* Tuple::GetByName(std::string_view name) const {
  if (schema_ == nullptr) return nullptr;
  const int index = schema_->IndexOf(name);
  if (index < 0) return nullptr;
  return &values_[static_cast<std::size_t>(index)];
}

StatusOr<std::int64_t> Tuple::GetInt(std::string_view name) const {
  const Value* v = GetByName(name);
  if (v == nullptr) return Status::NotFound("field " + std::string(name));
  if (const auto* x = std::get_if<std::int64_t>(v)) return *x;
  return Status::InvalidArgument("field " + std::string(name) +
                                 " is not int64");
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (std::size_t i = 0; i < size_; ++i) {
    if (i > 0) out += ", ";
    if (schema_ != nullptr && i < schema_->size()) {
      out += schema_->names()[i];
      out += "=";
    }
    out += ValueToString(values_[i]);
  }
  out += ")";
  return out;
}

}  // namespace rtrec::stream
