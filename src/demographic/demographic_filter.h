#ifndef RTREC_DEMOGRAPHIC_DEMOGRAPHIC_FILTER_H_
#define RTREC_DEMOGRAPHIC_DEMOGRAPHIC_FILTER_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "demographic/grouper.h"
#include "demographic/hot_videos.h"

namespace rtrec {

/// Demographic filtering (Section 5.2.1): selectively merges the hot
/// videos of the user's demographic group into the MF-based results,
/// broadening the span of recommendations (diversity/novelty) and solving
/// the cold-start problem — users with too little history get the group's
/// hot videos, and brand-new unregistered users get the *global* hot
/// videos.
class DemographicFilter : public Recommender {
 public:
  struct Options {
    /// Fraction of the final list reserved for demographic hot videos
    /// when the primary model produced enough results.
    double blend_ratio = 0.2;
    /// If the primary model returns fewer results than this, the list is
    /// completed entirely from the demographic hot videos (cold start).
    std::size_t min_primary_results = 3;
    /// Final list length when the request does not specify one.
    std::size_t top_n = 10;
  };

  /// `primary`, `tracker`, `grouper` are shared, not owned.
  DemographicFilter(Recommender* primary, HotVideoTracker* tracker,
                    const DemographicGrouper* grouper, Options options);

  StatusOr<std::vector<ScoredVideo>> Recommend(
      const RecRequest& request) override;

  /// Forwards to the primary model and records the action in the hot
  /// trackers (user's group + global).
  void Observe(const UserAction& action) override;

  std::string name() const override { return "rMF+DB"; }

  /// Pure merge used by Recommend and exposed for tests: keeps primary
  /// order, reserves ~blend_ratio of the `n` slots for hot videos not
  /// already present, and fills any shortfall from either side. Videos
  /// in `exclude` (the request's seeds) never enter the list.
  static std::vector<ScoredVideo> Merge(
      const std::vector<ScoredVideo>& primary,
      const std::vector<ScoredVideo>& hot, std::size_t n,
      double blend_ratio, std::span<const VideoId> exclude = {});

 private:
  Recommender* primary_;
  HotVideoTracker* tracker_;
  const DemographicGrouper* grouper_;
  Options options_;
};

}  // namespace rtrec

#endif  // RTREC_DEMOGRAPHIC_DEMOGRAPHIC_FILTER_H_
