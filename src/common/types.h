#ifndef RTREC_COMMON_TYPES_H_
#define RTREC_COMMON_TYPES_H_

#include <cstdint>
#include <functional>

namespace rtrec {

/// Identifier of a (possibly unregistered) user. Unregistered users get
/// transient ids derived from device/session cookies, exactly like the
/// production system the paper describes; the model does not distinguish.
using UserId = std::uint64_t;

/// Identifier of a video in the catalog.
using VideoId = std::uint64_t;

/// Identifier of a demographic user group (see demographic/grouper.h).
/// `kGlobalGroup` denotes the whole population.
using GroupId = std::uint32_t;
inline constexpr GroupId kGlobalGroup = 0xFFFFFFFFu;

/// Identifier of a fine-grained video type/category (Eq. 10 of the paper).
using VideoType = std::uint32_t;

/// Milliseconds since the Unix epoch. All stream elements are stamped.
using Timestamp = std::int64_t;

inline constexpr Timestamp kMillisPerSecond = 1000;
inline constexpr Timestamp kMillisPerMinute = 60 * kMillisPerSecond;
inline constexpr Timestamp kMillisPerHour = 60 * kMillisPerMinute;
inline constexpr Timestamp kMillisPerDay = 24 * kMillisPerHour;

/// An unordered pair of videos, normalized so `first <= second`. Keys the
/// similar-video pair state (Eq. 11-12 update-time bookkeeping).
struct VideoPair {
  VideoId first = 0;
  VideoId second = 0;

  VideoPair() = default;
  VideoPair(VideoId a, VideoId b) : first(a < b ? a : b),
                                    second(a < b ? b : a) {}

  friend bool operator==(const VideoPair&, const VideoPair&) = default;
};

/// The pair packed into one int64 (the topology's "pair_key" field):
/// exact for ids below 2^32. Larger ids may collide, which only sends two
/// pairs to the same task.
inline std::int64_t PairKey(const VideoPair& p) {
  return static_cast<std::int64_t>((p.first << 32) ^ p.second);
}

/// 64-bit mix used for hashing ids and pairs (SplitMix64 finalizer).
inline std::uint64_t MixHash64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct VideoPairHash {
  std::size_t operator()(const VideoPair& p) const {
    return static_cast<std::size_t>(
        MixHash64(MixHash64(p.first) ^ (p.second + 0x9E3779B97F4A7C15ull)));
  }
};

}  // namespace rtrec

#endif  // RTREC_COMMON_TYPES_H_
