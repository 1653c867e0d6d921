// Model-quality evaluation shared by the workloads: held-out next-day
// engagements, recall@10 of served pages and AUC from stored vectors.
#ifndef PERFBENCH_EVALUATE_H_
#define PERFBENCH_EVALUATE_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "core/implicit_feedback.h"
#include "core/recommender.h"
#include "kvstore/factor_store.h"

namespace perfbench {

/// A held-out engagement counts as liked from this confidence on, the
/// definition of the project's OfflineEvaluator (like_threshold).
inline constexpr double kLikeThreshold = 2.0;

/// Held-out AUC must clear 0.5 by this much.
inline constexpr double kAucMargin = 0.02;

struct HeldOutUser {
  rtrec::UserId user = 0;
  std::vector<rtrec::VideoId> engaged;  // Distinct, next day.
};

struct HeldOut {
  std::vector<HeldOutUser> users;
  /// Start of the held-out day: the `now` of every evaluation request.
  rtrec::Timestamp now = 0;
};

/// A fixed sample of 20000 users that engaged with something on the
/// training day (so the model has seeds for them) and liked something on
/// the held-out day. The sample does not depend on --seed: recall is a
/// property of the model, and a seed-drawn sample adds ±5% of sampling
/// noise to it.
HeldOut MakeHeldOut(const std::vector<rtrec::UserAction>& train,
                    const std::vector<rtrec::UserAction>& test,
                    const rtrec::FeedbackConfig& feedback);

/// Up to `count` distinct users with an engaged action in `actions`,
/// chosen by `seed`.
std::vector<rtrec::UserId> SampleEngagedUsers(
    const std::vector<rtrec::UserAction>& actions,
    const rtrec::FeedbackConfig& feedback, std::uint64_t seed,
    std::size_t count);

/// Mean over users of |top-10 ∩ engaged| / |engaged|, from "guess you
/// like" requests. Every page is checked with CheckPage; the latency of
/// each request (µs) is appended to `latencies_us`.
double RecallAt10(rtrec::Recommender& recommender, const HeldOut& held_out,
                  std::size_t num_videos, std::size_t max_segments,
                  Result* result, std::vector<double>* latencies_us);

/// Recall@10 of one list for everyone: the 10 videos most engaged with
/// in `train`. A yardstick printed beside rMF's recall, not a metric.
double MostPopularRecallAt10(const std::vector<rtrec::UserAction>& train,
                             const HeldOut& held_out,
                             const rtrec::FeedbackConfig& feedback);

/// AUC of engaged over impressed actions of `test`, scored with Eq. 2
/// on the stored vectors.
double HeldOutAuc(const rtrec::FactorStore& factors, double global_mean,
                  const std::vector<rtrec::UserAction>& test,
                  std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_EVALUATE_H_
