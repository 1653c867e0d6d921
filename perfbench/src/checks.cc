#include "checks.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_set>

namespace perfbench {

std::string CheckPage(const std::vector<rtrec::ScoredVideo>& page,
                      std::size_t top_n, std::size_t num_videos,
                      const std::vector<rtrec::VideoId>& seeds,
                      std::size_t max_segments) {
  if (page.size() > top_n) {
    return "page has " + std::to_string(page.size()) + " items, top_n " +
           std::to_string(top_n);
  }
  std::unordered_set<rtrec::VideoId> seen;
  std::size_t segments = page.empty() ? 0 : 1;
  for (std::size_t i = 0; i < page.size(); ++i) {
    const rtrec::VideoId v = page[i].video;
    if (v < 1 || v > num_videos) {
      return "video " + std::to_string(v) + " outside the catalog";
    }
    if (!seen.insert(v).second) {
      return "duplicate video " + std::to_string(v);
    }
    if (std::find(seeds.begin(), seeds.end(), v) != seeds.end()) {
      return "seed video " + std::to_string(v) + " returned";
    }
    if (!std::isfinite(page[i].score)) {
      return "non-finite score for video " + std::to_string(v);
    }
    if (i > 0 && page[i].score > page[i - 1].score) ++segments;
  }
  if (segments > max_segments) {
    return "scores increase: " + std::to_string(segments) +
           " ranked segments, at most " + std::to_string(max_segments);
  }
  return "";
}

double Eq2(const rtrec::FactorEntry& user, const rtrec::FactorEntry& video,
           double global_mean) {
  double dot = 0.0;
  const std::size_t n = std::min(user.vec.size(), video.vec.size());
  for (std::size_t k = 0; k < n; ++k) {
    dot += static_cast<double>(user.vec[k]) * static_cast<double>(video.vec[k]);
  }
  return global_mean + static_cast<double>(user.bias) +
         static_cast<double>(video.bias) + dot;
}

std::string CheckEq2Page(const std::vector<rtrec::ScoredVideo>& page,
                         rtrec::UserId user, const rtrec::FactorStore& store,
                         double global_mean) {
  rtrec::StatusOr<rtrec::FactorEntry> u = store.GetUser(user);
  const rtrec::FactorEntry user_entry =
      u.ok() ? *u : store.MakeInitialEntry(user, /*is_user=*/true);
  for (const rtrec::ScoredVideo& item : page) {
    rtrec::StatusOr<rtrec::FactorEntry> v = store.GetVideo(item.video);
    const rtrec::FactorEntry video_entry =
        v.ok() ? *v : store.MakeInitialEntry(item.video, /*is_user=*/false);
    const double expected = Eq2(user_entry, video_entry, global_mean);
    // Products of floats are exact in double; only the summation order
    // differs from the program's, so the tolerance is a few ulps.
    if (std::fabs(expected - item.score) > 1e-9 * (1.0 + std::fabs(expected))) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "Eq. 2 mismatch user %llu video %llu: served %.12g, "
                    "recomputed %.12g",
                    static_cast<unsigned long long>(user),
                    static_cast<unsigned long long>(item.video), item.score,
                    expected);
      return buf;
    }
  }
  return "";
}

std::vector<rtrec::VideoId> ExpectedHistory(
    const std::vector<rtrec::UserAction>& actions,
    const rtrec::FeedbackConfig& feedback, std::size_t capacity) {
  std::deque<rtrec::VideoId> history;
  for (const rtrec::UserAction& action : actions) {
    if (rtrec::ActionConfidence(action, feedback) <= 0.0) continue;
    auto it = std::find(history.begin(), history.end(), action.video);
    if (it != history.end()) history.erase(it);
    history.push_back(action.video);
    while (history.size() > capacity) history.pop_front();
  }
  return {history.rbegin(), history.rend()};
}

std::string CheckHistory(rtrec::UserId user,
                         const std::vector<rtrec::VideoId>& expected,
                         const std::vector<rtrec::HistoryEntry>& actual) {
  bool same = expected.size() == actual.size();
  for (std::size_t i = 0; same && i < expected.size(); ++i) {
    same = expected[i] == actual[i].video;
  }
  if (same) return "";
  return "history of user " + std::to_string(user) + " has " +
         std::to_string(actual.size()) + " entries, input stream gives " +
         std::to_string(expected.size()) + " (or they differ)";
}

std::string CheckCount(const std::string& what, std::int64_t expected,
                       std::int64_t actual) {
  if (expected == actual) return "";
  return what + ": program counts " + std::to_string(actual) +
         ", benchmark counts " + std::to_string(expected);
}

std::string CheckAckedWrites(
    const std::map<rtrec::UserId, std::vector<rtrec::VideoId>>& acked,
    const std::map<rtrec::UserId, std::vector<rtrec::HistoryEntry>>& history,
    std::size_t capacity) {
  for (const auto& [user, videos] : acked) {
    auto it = history.find(user);
    const std::vector<rtrec::HistoryEntry> empty;
    const std::vector<rtrec::HistoryEntry>& entries =
        it == history.end() ? empty : it->second;
    std::unordered_set<rtrec::VideoId> distinct(videos.begin(), videos.end());
    if (distinct.size() > capacity) {
      if (entries.size() != capacity) {
        return "user " + std::to_string(user) + " has " +
               std::to_string(entries.size()) +
               " history entries after more acknowledged writes than fit";
      }
      continue;
    }
    for (rtrec::VideoId v : distinct) {
      const bool found =
          std::any_of(entries.begin(), entries.end(),
                      [v](const rtrec::HistoryEntry& e) { return e.video == v; });
      if (!found) {
        return "acknowledged write of video " + std::to_string(v) +
               " missing from history of user " + std::to_string(user);
      }
    }
  }
  return "";
}

double Auc(std::vector<double> positives, std::vector<double> negatives) {
  if (positives.empty() || negatives.empty()) return 0.5;
  std::sort(negatives.begin(), negatives.end());
  double wins = 0.0;
  for (double p : positives) {
    const auto lo = std::lower_bound(negatives.begin(), negatives.end(), p);
    const auto hi = std::upper_bound(lo, negatives.end(), p);
    wins += static_cast<double>(lo - negatives.begin()) +
            0.5 * static_cast<double>(hi - lo);
  }
  return wins / (static_cast<double>(positives.size()) *
                 static_cast<double>(negatives.size()));
}

std::string CheckAuc(double auc, double margin) {
  if (auc > 0.5 + margin) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "held-out AUC %.4f not above 0.5 + %.3f",
                auc, margin);
  return buf;
}

}  // namespace perfbench
