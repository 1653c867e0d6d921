// Correctness checks of the benchmark. Each one recomputes what the
// program should have produced with the benchmark's own arithmetic, or
// tests a property the method must have; none compares against a stored
// copy of earlier output. Every check returns an empty string on success
// and a one-line description of the first violation otherwise.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/action.h"
#include "core/implicit_feedback.h"
#include "core/recommender.h"
#include "kvstore/factor_store.h"
#include "kvstore/history_store.h"

namespace perfbench {

/// A page must hold at most `top_n` unique videos with ids in
/// [1, num_videos], none of them one of `seeds`. Its scores must be
/// non-increasing within each ranked segment, with at most
/// `max_segments` segments: 1 for a pure MF page; a demographic page
/// concatenates the MF ranking, the hot-video ranking and, when the hot
/// list runs short, the rest of the MF ranking, so it may have 3.
std::string CheckPage(const std::vector<rtrec::ScoredVideo>& page,
                      std::size_t top_n, std::size_t num_videos,
                      const std::vector<rtrec::VideoId>& seeds,
                      std::size_t max_segments);

/// Eq. 2 recomputed independently: μ + b_u + b_i + x_uᵀy_i.
double Eq2(const rtrec::FactorEntry& user, const rtrec::FactorEntry& video,
           double global_mean);

/// Every score of an MF page must equal Eq. 2 on the stored vectors of
/// `user` and of the page's videos (ids without an entry score with the
/// store's deterministic initial entry, as the serving path does).
std::string CheckEq2Page(const std::vector<rtrec::ScoredVideo>& page,
                         rtrec::UserId user, const rtrec::FactorStore& store,
                         double global_mean);

/// The history a user must have after `actions` (that user's, in stream
/// order): engaged actions only, distinct videos with a repeat moved to
/// the back, the oldest dropped beyond `capacity`. Returns video ids
/// newest first, the order HistoryStore::Get reads them in.
std::vector<rtrec::VideoId> ExpectedHistory(
    const std::vector<rtrec::UserAction>& actions,
    const rtrec::FeedbackConfig& feedback, std::size_t capacity);

std::string CheckHistory(rtrec::UserId user,
                         const std::vector<rtrec::VideoId>& expected,
                         const std::vector<rtrec::HistoryEntry>& actual);

/// A counter delta read from the program's registry must equal the count
/// the benchmark made itself.
std::string CheckCount(const std::string& what, std::int64_t expected,
                       std::int64_t actual);

/// Each acknowledged write (user → videos observed, in send order) must
/// be in the user's history afterwards. A user with more acknowledged
/// writes than the history holds is checked for a full history only.
std::string CheckAckedWrites(
    const std::map<rtrec::UserId, std::vector<rtrec::VideoId>>& acked,
    const std::map<rtrec::UserId, std::vector<rtrec::HistoryEntry>>& history,
    std::size_t capacity);

/// Area under the ROC curve of positives over negatives (Mann-Whitney,
/// ties count one half).
double Auc(std::vector<double> positives, std::vector<double> negatives);

/// Held-out AUC must exceed 0.5 by at least `margin`.
std::string CheckAuc(double auc, double margin);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
