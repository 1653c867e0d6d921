// Tests of the benchmark's own checks: each must pass on a correct input
// and fail on a deliberately corrupted copy of it. Exit code 0 = all pass.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "core/model_config.h"
#include "core/online_mf.h"
#include "kvstore/factor_store.h"
#include "kvstore/history_store.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void ExpectPass(const std::string& error, const std::string& what) {
  Expect(error.empty(), what + (error.empty() ? "" : ": " + error));
}

void ExpectFail(const std::string& error, const std::string& what) {
  Expect(!error.empty(), what + " is caught");
}

using Page = std::vector<rtrec::ScoredVideo>;

void TestPage() {
  const Page good = {{7, 3.0}, {3, 2.5}, {9, 2.5}, {1, 0.1}};
  ExpectPass(perfbench::CheckPage(good, 10, 100, {5}, 1), "valid page");
  ExpectFail(perfbench::CheckPage(good, 3, 100, {}, 1), "page over top_n");

  Page duplicate = good;
  duplicate[2].video = 7;
  ExpectFail(perfbench::CheckPage(duplicate, 10, 100, {}, 1), "duplicate id");

  Page outside = good;
  outside[1].video = 101;
  ExpectFail(perfbench::CheckPage(outside, 10, 100, {}, 1),
             "id outside the catalog");
  outside[1].video = 0;
  ExpectFail(perfbench::CheckPage(outside, 10, 100, {}, 1), "id 0");

  ExpectFail(perfbench::CheckPage(good, 10, 100, {9}, 1), "returned seed");

  Page rising = good;
  rising[3].score = 4.0;
  ExpectFail(perfbench::CheckPage(rising, 10, 100, {}, 1),
             "non-increasing score on an MF page");
  // A demographic page: MF ranking, hot ranking, rest of the MF ranking.
  const Page blended = {{1, 3.0}, {2, 2.0}, {3, 40.0}, {4, 1.0}, {5, 1.5}};
  ExpectPass(perfbench::CheckPage(blended, 10, 100, {}, 3),
             "three ranked segments on a demographic page");
  Page zigzag = blended;
  zigzag.push_back({6, 9.0});
  ExpectFail(perfbench::CheckPage(zigzag, 10, 100, {}, 3),
             "a fourth ranked segment");
}

void TestEq2() {
  rtrec::FactorStore::Options options;
  options.num_factors = 4;
  rtrec::FactorStore store(options);
  store.PutUser(11, rtrec::FactorEntry{{0.5f, -0.25f, 1.0f, 0.125f}, 0.2f});
  store.PutVideo(21, rtrec::FactorEntry{{1.0f, 2.0f, -0.5f, 4.0f}, -0.1f});
  store.PutVideo(22, rtrec::FactorEntry{{0.3f, 0.1f, 0.7f, -1.0f}, 0.4f});
  store.ObserveRating(1.0);
  store.ObserveRating(2.0);
  rtrec::MfModelConfig config;
  config.num_factors = 4;
  rtrec::OnlineMf model(&store, config);
  const double mean = config.use_global_mean ? store.GlobalMean() : 0.0;
  // Scores as the program computes them, with a video that has no entry.
  Page served;
  for (rtrec::VideoId v : {21, 22, 23}) {
    served.push_back({v, model.Predict(11, v)});
  }
  ExpectPass(perfbench::CheckEq2Page(served, 11, store, mean),
             "Eq. 2 scores of the model");
  Page wrong = served;
  wrong[1].score += 1e-6;
  ExpectFail(perfbench::CheckEq2Page(wrong, 11, store, mean),
             "wrong Eq. 2 score");
  ExpectFail(perfbench::CheckEq2Page(served, 11, store, mean + 0.5),
             "Eq. 2 score without the global mean");
}

void TestHistory() {
  const rtrec::FeedbackConfig feedback;
  std::vector<rtrec::UserAction> actions;
  rtrec::Timestamp t = 1000;
  for (rtrec::VideoId v : {4, 5, 4, 6, 7, 5, 8}) {
    rtrec::UserAction a;
    a.user = 3;
    a.video = v;
    a.type = rtrec::ActionType::kLike;
    a.time = t += 1000;
    actions.push_back(a);
  }
  rtrec::UserAction impression = actions.front();
  impression.video = 99;
  impression.type = rtrec::ActionType::kImpress;
  actions.insert(actions.begin() + 2, impression);

  rtrec::HistoryStore::Options options;
  options.max_entries_per_user = 4;
  rtrec::HistoryStore store(options);
  for (const rtrec::UserAction& a : actions) {
    const double confidence = rtrec::ActionConfidence(a, feedback);
    if (confidence > 0.0) {
      store.Append(a.user, rtrec::HistoryEntry{a.video, confidence, a.time});
    }
  }
  const std::vector<rtrec::VideoId> expected =
      perfbench::ExpectedHistory(actions, feedback, 4);
  Expect(expected == std::vector<rtrec::VideoId>{8, 5, 7, 6},
         "expected history is newest first, distinct, capped");
  ExpectPass(perfbench::CheckHistory(3, expected, store.Get(3)),
             "history matches the stream");
  std::vector<rtrec::HistoryEntry> dropped = store.Get(3);
  dropped.erase(dropped.begin() + 1);
  ExpectFail(perfbench::CheckHistory(3, expected, dropped),
             "dropped history entry");
  std::vector<rtrec::HistoryEntry> reordered = store.Get(3);
  std::swap(reordered[0], reordered[1]);
  ExpectFail(perfbench::CheckHistory(3, expected, reordered),
             "reordered history");

  std::map<rtrec::UserId, std::vector<rtrec::VideoId>> acked = {{3, {5, 8}}};
  std::map<rtrec::UserId, std::vector<rtrec::HistoryEntry>> history = {
      {3, store.Get(3)}};
  ExpectPass(perfbench::CheckAckedWrites(acked, history, 4),
             "acknowledged writes in history");
  history[3] = dropped;  // Video 5 is gone.
  ExpectFail(perfbench::CheckAckedWrites(acked, history, 4),
             "acknowledged write missing from history");
}

void TestCounts() {
  ExpectPass(perfbench::CheckCount("requests", 1234, 1234),
             "matching counter total");
  ExpectFail(perfbench::CheckCount("requests", 1234, 1233),
             "counter total that does not match");
}

void TestAuc() {
  Expect(perfbench::Auc({3, 4}, {1, 2}) == 1.0, "separable AUC is 1");
  Expect(perfbench::Auc({1}, {1}) == 0.5, "tied AUC is 1/2");
  ExpectPass(perfbench::CheckAuc(0.6, 0.02), "AUC above the margin");
  ExpectFail(perfbench::CheckAuc(0.515, 0.02), "AUC within the margin");
}

}  // namespace

int main() {
  TestPage();
  TestEq2();
  TestHistory();
  TestCounts();
  TestAuc();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
