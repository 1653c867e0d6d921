#include "evaluate.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "checks.h"
#include "common/random.h"

namespace perfbench {
namespace {

constexpr std::size_t kAucUsers = 20000;
constexpr std::size_t kHeldOutUsers = 20000;
constexpr std::uint64_t kHeldOutSampleSeed = 0x4e1d;

/// Deterministic shuffle-and-truncate.
template <typename T>
void SampleInPlace(std::vector<T>* items, std::uint64_t seed,
                   std::size_t count) {
  rtrec::Rng rng(seed);
  for (std::size_t i = 0; i < items->size() && i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.NextUint64(items->size() - i));
    std::swap((*items)[i], (*items)[j]);
  }
  if (items->size() > count) items->resize(count);
}

}  // namespace

std::vector<rtrec::UserId> SampleEngagedUsers(
    const std::vector<rtrec::UserAction>& actions,
    const rtrec::FeedbackConfig& feedback, std::uint64_t seed,
    std::size_t count) {
  std::unordered_set<rtrec::UserId> seen;
  std::vector<rtrec::UserId> users;
  for (const rtrec::UserAction& a : actions) {
    if (rtrec::ActionConfidence(a, feedback) > 0.0 && seen.insert(a.user).second) {
      users.push_back(a.user);
    }
  }
  std::sort(users.begin(), users.end());
  SampleInPlace(&users, seed ^ 0x5eedu, count);
  return users;
}

HeldOut MakeHeldOut(const std::vector<rtrec::UserAction>& train,
                    const std::vector<rtrec::UserAction>& test,
                    const rtrec::FeedbackConfig& feedback) {
  std::unordered_set<rtrec::UserId> trained;
  for (const rtrec::UserAction& a : train) {
    if (rtrec::ActionConfidence(a, feedback) > 0.0) trained.insert(a.user);
  }
  std::unordered_map<rtrec::UserId, std::vector<rtrec::VideoId>> engaged;
  HeldOut held_out;
  held_out.now = test.empty() ? 0 : test.front().time;
  for (const rtrec::UserAction& a : test) {
    held_out.now = std::min(held_out.now, a.time);
    if (rtrec::ActionConfidence(a, feedback) < kLikeThreshold) continue;
    if (!trained.contains(a.user)) continue;
    std::vector<rtrec::VideoId>& videos = engaged[a.user];
    if (std::find(videos.begin(), videos.end(), a.video) == videos.end()) {
      videos.push_back(a.video);
    }
  }
  for (auto& [user, videos] : engaged) {
    held_out.users.push_back({user, std::move(videos)});
  }
  std::sort(held_out.users.begin(), held_out.users.end(),
            [](const HeldOutUser& a, const HeldOutUser& b) {
              return a.user < b.user;
            });
  SampleInPlace(&held_out.users, kHeldOutSampleSeed, kHeldOutUsers);
  return held_out;
}

double RecallAt10(rtrec::Recommender& recommender, const HeldOut& held_out,
                  std::size_t num_videos, std::size_t max_segments,
                  Result* result, std::vector<double>* latencies_us) {
  constexpr std::size_t kTopN = 10;
  double total = 0.0;
  for (const HeldOutUser& u : held_out.users) {
    rtrec::RecRequest request;
    request.user = u.user;
    request.top_n = kTopN;
    request.now = held_out.now;
    const Clock::time_point t0 = Clock::now();
    rtrec::StatusOr<std::vector<rtrec::ScoredVideo>> page =
        recommender.Recommend(request);
    latencies_us->push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    ++result->attempted;
    if (!page.ok()) {
      ++result->failed;
      result->Check("recommend for recall failed: " + page.status().ToString());
      continue;
    }
    result->Check(CheckPage(*page, kTopN, num_videos, {}, max_segments));
    std::size_t hits = 0;
    for (const rtrec::ScoredVideo& v : *page) {
      if (std::find(u.engaged.begin(), u.engaged.end(), v.video) !=
          u.engaged.end()) {
        ++hits;
      }
    }
    total += static_cast<double>(hits) / static_cast<double>(u.engaged.size());
  }
  return held_out.users.empty()
             ? 0.0
             : total / static_cast<double>(held_out.users.size());
}

double MostPopularRecallAt10(const std::vector<rtrec::UserAction>& train,
                             const HeldOut& held_out,
                             const rtrec::FeedbackConfig& feedback) {
  std::unordered_map<rtrec::VideoId, std::int64_t> counts;
  for (const rtrec::UserAction& a : train) {
    if (rtrec::ActionConfidence(a, feedback) > 0.0) ++counts[a.video];
  }
  std::vector<std::pair<std::int64_t, rtrec::VideoId>> ranked;
  for (const auto& [video, count] : counts) ranked.emplace_back(-count, video);
  std::sort(ranked.begin(), ranked.end());
  if (ranked.size() > 10) ranked.resize(10);
  double total = 0.0;
  for (const HeldOutUser& u : held_out.users) {
    std::size_t hits = 0;
    for (const auto& [count, video] : ranked) {
      if (std::find(u.engaged.begin(), u.engaged.end(), video) !=
          u.engaged.end()) {
        ++hits;
      }
    }
    total += static_cast<double>(hits) / static_cast<double>(u.engaged.size());
  }
  return held_out.users.empty()
             ? 0.0
             : total / static_cast<double>(held_out.users.size());
}

double HeldOutAuc(const rtrec::FactorStore& factors, double global_mean,
                  const std::vector<rtrec::UserAction>& test,
                  std::uint64_t seed) {
  const rtrec::FeedbackConfig feedback;
  // Pairs within one user: the user's engaged videos against the ones
  // shown to the same user and not engaged with, so per-user offsets
  // (b_u, activity) cancel and only the ranking of videos is judged.
  // Only users the model has trained on count: an untrained user's
  // vector is its random initial entry, which ranks nothing.
  std::unordered_map<rtrec::UserId, std::pair<std::vector<rtrec::VideoId>,
                                               std::vector<rtrec::VideoId>>>
      by_user;
  // Weakly engaged videos are neither liked nor negatives.
  std::unordered_map<rtrec::UserId, std::vector<rtrec::VideoId>> engaged;
  for (const rtrec::UserAction& a : test) {
    auto& [pos, neg] = by_user[a.user];
    const double confidence = rtrec::ActionConfidence(a, feedback);
    if (a.type == rtrec::ActionType::kImpress) {
      neg.push_back(a.video);
    } else if (confidence >= kLikeThreshold) {
      pos.push_back(a.video);
    } else {
      engaged[a.user].push_back(a.video);
    }
  }
  std::vector<rtrec::UserId> users;
  for (auto& [user, lists] : by_user) {
    auto& [pos, neg] = lists;
    std::sort(pos.begin(), pos.end());
    pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
    std::sort(neg.begin(), neg.end());
    neg.erase(std::unique(neg.begin(), neg.end()), neg.end());
    std::vector<rtrec::VideoId>& weak = engaged[user];
    std::sort(weak.begin(), weak.end());
    std::erase_if(neg, [&pos, &weak](rtrec::VideoId v) {
      return std::binary_search(pos.begin(), pos.end(), v) ||
             std::binary_search(weak.begin(), weak.end(), v);
    });
    if (!pos.empty() && !neg.empty() && factors.GetUser(user).ok()) {
      users.push_back(user);
    }
  }
  std::sort(users.begin(), users.end());
  SampleInPlace(&users, seed ^ 0xa0cu, kAucUsers);
  double wins = 0.0, pairs = 0.0;
  for (rtrec::UserId user : users) {
    const rtrec::FactorEntry user_entry = *factors.GetUser(user);
    auto score = [&](rtrec::VideoId video) {
      rtrec::StatusOr<rtrec::FactorEntry> v = factors.GetVideo(video);
      return Eq2(user_entry,
                 v.ok() ? *v : factors.MakeInitialEntry(video, false),
                 global_mean);
    };
    const auto& [pos, neg] = by_user[user];
    std::vector<double> p, n;
    for (rtrec::VideoId v : pos) p.push_back(score(v));
    for (rtrec::VideoId v : neg) n.push_back(score(v));
    const double count = static_cast<double>(p.size() * n.size());
    wins += Auc(std::move(p), std::move(n)) * count;
    pairs += count;
  }
  const double auc = pairs > 0 ? wins / pairs : 0.5;
  std::fprintf(stderr, "held-out AUC %.4f over %zu users\n", auc,
               users.size());
  return auc;
}

}  // namespace perfbench
