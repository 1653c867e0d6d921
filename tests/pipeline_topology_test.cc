#include "core/topology_factory.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <thread>

#include "core/recommender.h"
#include "core/sim_table.h"
#include "stream/topology.h"

namespace rtrec {
namespace {

UserAction Play(UserId u, VideoId v, Timestamp t) {
  UserAction a;
  a.user = u;
  a.video = v;
  a.type = ActionType::kPlayTime;
  a.view_fraction = 1.0;
  a.time = t;
  return a;
}

UserAction Impress(UserId u, VideoId v, Timestamp t) {
  UserAction a;
  a.user = u;
  a.video = v;
  a.type = ActionType::kImpress;
  a.time = t;
  return a;
}

class PipelineTopologyTest : public ::testing::Test {
 protected:
  PipelineTopologyTest() {
    FactorStore::Options factor_options;
    factor_options.num_factors = 8;
    factors_ = std::make_unique<FactorStore>(factor_options);
    history_ = std::make_unique<HistoryStore>();
    table_ = std::make_unique<SimTableStore>();
  }

  PipelineDeps Deps() {
    PipelineDeps deps;
    deps.factors = factors_.get();
    deps.history = history_.get();
    deps.sim_table = table_.get();
    deps.type_resolver = [](VideoId) -> VideoType { return 0; };
    deps.model_config.num_factors = 8;
    return deps;
  }

  /// Runs the Fig. 2 topology over `actions` to completion.
  void RunPipeline(std::vector<UserAction> actions,
                   PipelineParallelism parallelism = {}) {
    auto source =
        std::make_shared<VectorActionSource>(std::move(actions));
    auto spec = BuildRecommendationTopology(source, Deps(), parallelism);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto topo = stream::Topology::Create(std::move(spec).value());
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    ASSERT_TRUE((*topo)->Start().ok());
    ASSERT_TRUE((*topo)->Join().ok());
    metrics_report_ = (*topo)->metrics().Report();
  }

  std::unique_ptr<FactorStore> factors_;
  std::unique_ptr<HistoryStore> history_;
  std::unique_ptr<SimTableStore> table_;
  std::string metrics_report_;
};

TEST(VectorActionSourceTest, HandsOutEachActionExactlyOnce) {
  std::vector<UserAction> actions;
  for (int i = 0; i < 5000; ++i) {
    actions.push_back(Play(static_cast<UserId>(i), 1, i));
  }
  VectorActionSource source(actions);
  EXPECT_EQ(source.size(), 5000u);

  std::atomic<std::size_t> total{0};
  std::atomic<std::uint64_t> user_sum{0};
  std::vector<std::thread> pullers;
  for (int t = 0; t < 4; ++t) {
    pullers.emplace_back([&source, &total, &user_sum] {
      while (auto action = source.Next()) {
        total.fetch_add(1);
        user_sum.fetch_add(action->user);
      }
    });
  }
  for (auto& th : pullers) th.join();
  EXPECT_EQ(total.load(), 5000u);
  EXPECT_EQ(user_sum.load(), 4999ull * 5000 / 2);
  EXPECT_FALSE(source.Next().has_value());
}

TEST(ActionTupleTest, RoundTrip) {
  const UserAction original = Play(7, 9, 1234);
  auto decoded = TupleToAction(ActionToTuple(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(ActionTupleTest, RejectsBadActionCode) {
  stream::Tuple bad(pipeline_schema::Action(), std::int64_t{1},
                    std::int64_t{2}, std::int64_t{99}, 0.0, std::int64_t{0});
  EXPECT_FALSE(TupleToAction(bad).ok());
}

TEST(ActionTupleTest, RejectsForeignSchemaAndMistypedFields) {
  // Same field names, another schema: identity, not names, qualifies.
  static const auto& lookalike =
      *new stream::Schema{"user", "video", "action", "value", "time"};
  EXPECT_FALSE(TupleToAction(stream::Tuple(lookalike, std::int64_t{1},
                                           std::int64_t{2}, std::int64_t{1},
                                           0.5, std::int64_t{0}))
                   .ok());
  // "value" must be a double.
  EXPECT_FALSE(TupleToAction(stream::Tuple(pipeline_schema::Action(),
                                           std::int64_t{1}, std::int64_t{2},
                                           std::int64_t{1}, std::int64_t{1},
                                           std::int64_t{0}))
                   .ok());
  EXPECT_FALSE(TupleToAction(stream::Tuple()).ok());
}

/// Records every emission of a bolt driven directly by a test.
class RecordingCollector : public stream::OutputCollector {
 public:
  std::uint64_t EmitTo(std::string_view stream, stream::Tuple tuple) override {
    emitted.emplace_back(std::string(stream), std::move(tuple));
    return 0;
  }
  std::vector<std::pair<std::string, stream::Tuple>> emitted;
};

/// A prepared task instance of the spec's component `name`.
std::unique_ptr<stream::Bolt> MakeBolt(const stream::TopologySpec& spec,
                                       const std::string& name) {
  const int index = spec.IndexOf(name);
  EXPECT_GE(index, 0) << name;
  std::unique_ptr<stream::Bolt> bolt =
      spec.components[static_cast<std::size_t>(index)].bolt_factory();
  stream::TaskContext context;
  context.component = name;
  bolt->Prepare(context);
  return bolt;
}

TEST_F(PipelineTopologyTest, RejectsNullDeps) {
  auto source = std::make_shared<VectorActionSource>(
      std::vector<UserAction>{});
  PipelineDeps deps = Deps();
  deps.factors = nullptr;
  EXPECT_FALSE(BuildRecommendationTopology(source, deps).ok());
  EXPECT_FALSE(BuildRecommendationTopology(nullptr, Deps()).ok());
}

TEST_F(PipelineTopologyTest, TrainsModelFromStream) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 30; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      actions.push_back(Play(u, 10, round * 1000));
      actions.push_back(Play(u, 11, round * 1000 + 500));
    }
  }
  RunPipeline(std::move(actions));

  // MF vectors were created and written through MFStorage.
  EXPECT_EQ(factors_->NumUsers(), 5u);
  EXPECT_EQ(factors_->NumVideos(), 2u);
  EXPECT_GT(factors_->RatingCount(), 0u);

  // Histories recorded.
  EXPECT_EQ(history_->Get(1).size(), 2u);

  // Similar-video tables populated via UserHistory -> ItemPairSim ->
  // ResultStorage.
  EXPECT_GT(table_->GetDecayedSimilarity(10, 11, 30000), 0.0);
}

TEST_F(PipelineTopologyTest, BoltsDropForeignAndMistypedTuples) {
  auto spec = BuildRecommendationTopology(
      std::make_shared<VectorActionSource>(std::vector<UserAction>{}),
      Deps());
  ASSERT_TRUE(spec.ok());
  // Look-alike schemas: the same field names as the pipeline's own, but
  // other objects, so every bolt must reject them by identity.
  static const auto& action_like =
      *new stream::Schema{"user", "video", "action", "value", "time"};
  static const auto& vec_like = *new stream::Schema{"user", "vec", "bias"};
  static const auto& pair_like =
      *new stream::Schema{"pair_key", "video1", "video2", "time"};
  static const auto& sim_like =
      *new stream::Schema{"video1", "video2", "sim", "time"};
  const std::int64_t play = static_cast<std::int64_t>(ActionType::kPlayTime);
  const std::int64_t u = 1, v = 10, t = 0;
  const std::vector<float> vec(8, 0.5f);
  const std::vector<stream::Tuple> bad_actions = {
      stream::Tuple(action_like, u, v, play, 1.0, t),
      // "value" mistyped as int64.
      stream::Tuple(pipeline_schema::Action(), u, v, play, std::int64_t{1},
                    t)};
  const std::map<std::string, std::vector<stream::Tuple>> bad_inputs = {
      {"compute_mf", bad_actions},
      {"user_history", bad_actions},
      {"mf_storage",
       {stream::Tuple(vec_like, u, vec, 0.1),
        // "vec" mistyped; "bias" mistyped.
        stream::Tuple(pipeline_schema::UserVec(), u, u, 0.1),
        stream::Tuple(pipeline_schema::VideoVec(), v, vec, std::int64_t{0})}},
      {"item_pair_sim",
       {stream::Tuple(pair_like, std::int64_t{7}, v, std::int64_t{11}, t),
        // "video1" mistyped.
        stream::Tuple(pipeline_schema::Pair(), std::int64_t{7}, 10.0,
                      std::int64_t{11}, t)}},
      {"result_storage",
       {stream::Tuple(sim_like, v, std::int64_t{11}, 0.9, t),
        // "sim" mistyped.
        stream::Tuple(pipeline_schema::PairSim(), v, std::int64_t{11},
                      std::int64_t{1}, t)}},
  };
  RecordingCollector collector;
  for (const auto& [name, inputs] : bad_inputs) {
    std::unique_ptr<stream::Bolt> bolt = MakeBolt(*spec, name);
    for (const stream::Tuple& tuple : inputs) bolt->Process(tuple, collector);
  }
  EXPECT_TRUE(collector.emitted.empty());
  EXPECT_EQ(factors_->NumUsers(), 0u);
  EXPECT_EQ(factors_->NumVideos(), 0u);
  EXPECT_TRUE(history_->Get(u).empty());
  EXPECT_EQ(table_->NumVideos(), 0u);

  // Control: well-formed tuples walk the whole chain, so the drops above
  // are the bolts' filtering and not inert bolts.
  MakeBolt(*spec, "user_history")->Process(ActionToTuple(Play(1, 11, 0)),
                                           collector);
  ASSERT_EQ(history_->Get(u).size(), 1u);
  MakeBolt(*spec, "compute_mf")->Process(ActionToTuple(Play(1, 10, 100)),
                                         collector);
  ASSERT_EQ(collector.emitted.size(), 2u);
  auto mf_storage = MakeBolt(*spec, "mf_storage");
  for (const auto& [stream, tuple] : collector.emitted) {
    mf_storage->Process(tuple, collector);
  }
  EXPECT_EQ(factors_->NumUsers(), 1u);
  collector.emitted.clear();
  MakeBolt(*spec, "user_history")->Process(ActionToTuple(Play(1, 10, 100)),
                                           collector);
  ASSERT_EQ(collector.emitted.size(), 1u);
  const stream::Tuple pair = collector.emitted[0].second;
  MakeBolt(*spec, "item_pair_sim")->Process(pair, collector);
  ASSERT_EQ(collector.emitted.size(), 2u);
  MakeBolt(*spec, "result_storage")
      ->Process(collector.emitted[1].second, collector);
  EXPECT_EQ(table_->NumVideos(), 2u);
}

TEST_F(PipelineTopologyTest, SymmetricPairsRouteToOneItemPairSimTask) {
  // UserHistory keys each pair by the packed normalized pair, so a
  // co-watch of (a then b) and one of (b then a) must reach the same
  // ItemPairSim task, the one whose LRU caches the pair.
  PipelineParallelism parallelism;
  parallelism.item_pair_sim = 4;
  auto spec = BuildRecommendationTopology(
      std::make_shared<VectorActionSource>(std::vector<UserAction>{}),
      Deps(), parallelism);
  ASSERT_TRUE(spec.ok());
  const stream::ComponentSpec& sim =
      spec->components[static_cast<std::size_t>(
          spec->IndexOf("item_pair_sim"))];
  ASSERT_EQ(sim.inputs.size(), 1u);
  stream::GroupingRouter router(sim.inputs[0].grouping, sim.parallelism);
  auto user_history = MakeBolt(*spec, "user_history");

  std::set<std::size_t> tasks_used;
  for (VideoId i = 0; i < 32; ++i) {
    const VideoId a = 100 + i;
    const VideoId b = 5000 + 7 * i;
    std::vector<std::size_t> routes[2];
    std::int64_t keys[2] = {0, 0};
    // User 2i+1 watches a then b; user 2i+2 watches b then a.
    for (int order = 0; order < 2; ++order) {
      const UserId user = 2 * i + 1 + static_cast<UserId>(order);
      const VideoId first = order == 0 ? a : b;
      const VideoId second = order == 0 ? b : a;
      history_->Append(user, HistoryEntry{first, 1.0, 0});
      RecordingCollector collector;
      user_history->Process(ActionToTuple(Play(user, second, 100)),
                            collector);
      ASSERT_EQ(collector.emitted.size(), 1u);
      EXPECT_EQ(collector.emitted[0].first, "pairs");
      const stream::Tuple& tuple = collector.emitted[0].second;
      keys[order] = *tuple.GetInt("pair_key");
      router.Route(tuple, routes[order]);
    }
    EXPECT_EQ(keys[0], keys[1]);
    EXPECT_EQ(keys[0], PairKey(VideoPair(a, b)));
    ASSERT_EQ(routes[0].size(), 1u);
    EXPECT_EQ(routes[0], routes[1]) << "pair " << a << "," << b;
    tasks_used.insert(routes[0][0]);
  }
  EXPECT_GT(tasks_used.size(), 1u);  // Keys still spread over tasks.
}

TEST_F(PipelineTopologyTest, UserHistoryPairsWithEarlierActionsOnly) {
  auto spec = BuildRecommendationTopology(
      std::make_shared<VectorActionSource>(std::vector<UserAction>{}),
      Deps());
  ASSERT_TRUE(spec.ok());
  auto user_history = MakeBolt(*spec, "user_history");
  const std::size_t max_pairs = SimilarityConfig{}.max_pairs_per_action;
  RecordingCollector collector;
  for (VideoId v = 1; v <= max_pairs + 4; ++v) {
    user_history->Process(
        ActionToTuple(Play(1, v, static_cast<Timestamp>(v))), collector);
  }
  collector.emitted.clear();
  // A full window: exactly max_pairs partners, the most recent earlier
  // actions, and never the action itself.
  user_history->Process(ActionToTuple(Play(1, 1000, 100)), collector);
  ASSERT_EQ(collector.emitted.size(), max_pairs);
  std::set<std::int64_t> partners;
  for (const auto& [stream, tuple] : collector.emitted) {
    EXPECT_EQ(stream, "pairs");
    EXPECT_EQ(*tuple.GetInt("video1"), 1000);
    partners.insert(*tuple.GetInt("video2"));
  }
  EXPECT_EQ(partners.size(), max_pairs);
  EXPECT_EQ(*partners.begin(), 5);  // The 4 oldest entries are left out.
  EXPECT_EQ(*partners.rbegin(), static_cast<std::int64_t>(max_pairs + 4));
  EXPECT_EQ(history_->Get(1).size(), max_pairs + 5);
}

TEST_F(PipelineTopologyTest, FormsExactlyTheSerialPairs) {
  // Every action must pair with the same partners as the serial
  // SimTableUpdater::OnAction: its user's earlier actions, read before its
  // own append, however the bolts' threads are scheduled.
  std::vector<UserAction> actions;
  for (int round = 0; round < 40; ++round) {
    for (UserId u = 1; u <= 12; ++u) {
      actions.push_back(Play(u, static_cast<VideoId>((u * round) % 23 + 1),
                             round * 1000 + static_cast<Timestamp>(u)));
    }
  }
  std::size_t serial_pairs = 0;
  {
    FactorStore::Options factor_options;
    factor_options.num_factors = 8;
    FactorStore factors(factor_options);
    HistoryStore history;
    SimTableStore table;
    const PipelineDeps deps = Deps();
    SimTableUpdater updater(&factors, &history, &table, deps.type_resolver,
                            deps.sim_config, deps.model_config.feedback);
    for (const UserAction& action : actions) {
      serial_pairs += updater.OnAction(action);
    }
  }
  ASSERT_GT(serial_pairs, actions.size());  // Windows fill up.

  PipelineParallelism wide;
  wide.user_history = 3;
  wide.item_pair_sim = 3;
  auto source = std::make_shared<VectorActionSource>(std::move(actions));
  auto spec = BuildRecommendationTopology(source, Deps(), wide);
  ASSERT_TRUE(spec.ok());
  auto topo = stream::Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  MetricsRegistry& metrics = (*topo)->metrics();
  EXPECT_EQ(metrics.GetCounter("item_pair_sim.cache_hits")->value() +
                metrics.GetCounter("item_pair_sim.cache_misses")->value(),
            static_cast<std::int64_t>(serial_pairs));
}

TEST_F(PipelineTopologyTest, ImpressionsFlowThroughWithoutStateChanges) {
  std::vector<UserAction> actions;
  for (int i = 0; i < 50; ++i) {
    actions.push_back(Impress(1, static_cast<VideoId>(i + 1), i * 100));
  }
  RunPipeline(std::move(actions));
  EXPECT_EQ(factors_->NumUsers(), 0u);
  EXPECT_TRUE(history_->Get(1).empty());
  EXPECT_EQ(table_->NumVideos(), 0u);
}

TEST_F(PipelineTopologyTest, HighParallelismMatchesLowParallelismCounts) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 50; ++round) {
    for (UserId u = 1; u <= 20; ++u) {
      actions.push_back(
          Play(u, static_cast<VideoId>(u % 7 + 1), round * 1000 + u));
    }
  }
  PipelineParallelism wide;
  wide.spout = 2;
  wide.compute_mf = 4;
  wide.mf_storage = 4;
  wide.user_history = 3;
  wide.item_pair_sim = 4;
  wide.result_storage = 3;
  RunPipeline(actions, wide);

  // Every engaged action trained the model exactly once.
  EXPECT_EQ(factors_->RatingCount(), actions.size());
  EXPECT_EQ(factors_->NumUsers(), 20u);
  EXPECT_EQ(factors_->NumVideos(), 7u);
}

TEST_F(PipelineTopologyTest, PairCacheHitsOnRepeatedCoWatches) {
  // Section 5.1's cache technique: the same pair recomputed within the
  // TTL is served from the ItemPairSim task-local LRU. Repeated
  // co-watches of one pair in a tight window must produce cache hits.
  std::vector<UserAction> actions;
  for (int round = 0; round < 40; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      actions.push_back(Play(u, 10, round * 100));
      actions.push_back(Play(u, 11, round * 100 + 50));
    }
  }
  auto source = std::make_shared<VectorActionSource>(std::move(actions));
  PipelineDeps deps = Deps();
  deps.sim_config.pair_cache_size = 1024;
  deps.sim_config.pair_cache_ttl_millis = 10'000.0;
  auto spec = BuildRecommendationTopology(source, deps);
  ASSERT_TRUE(spec.ok());
  auto topo = stream::Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_GT((*topo)->metrics().GetCounter("item_pair_sim.cache_hits")
                ->value(),
            0);
  // The table still holds the pair.
  EXPECT_GT(table_->GetDecayedSimilarity(10, 11, 4000), 0.0);
}

TEST_F(PipelineTopologyTest, PairCacheDisabledComputesEveryPair) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 20; ++round) {
    actions.push_back(Play(1, 10, round * 100));
    actions.push_back(Play(1, 11, round * 100 + 50));
  }
  auto source = std::make_shared<VectorActionSource>(std::move(actions));
  PipelineDeps deps = Deps();
  deps.sim_config.pair_cache_size = 0;
  auto spec = BuildRecommendationTopology(source, deps);
  ASSERT_TRUE(spec.ok());
  auto topo = stream::Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_EQ(
      (*topo)->metrics().GetCounter("item_pair_sim.cache_hits")->value(), 0);
}

TEST_F(PipelineTopologyTest, ReliableSpoutDeliversEveryActionWithAcking) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 40; ++round) {
    for (UserId u = 1; u <= 10; ++u) {
      actions.push_back(
          Play(u, static_cast<VideoId>(u % 5 + 1), round * 1000 + u));
    }
  }
  const std::size_t total = actions.size();
  auto source = std::make_shared<VectorActionSource>(std::move(actions));
  PipelineDeps deps = Deps();
  deps.reliable_spout = true;
  auto spec = BuildRecommendationTopology(source, deps);
  ASSERT_TRUE(spec.ok());
  stream::TopologyOptions options;
  options.enable_acking = true;
  auto topo = stream::Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  // Every action trained the model (no losses, no duplicates on the
  // healthy path).
  EXPECT_EQ(factors_->RatingCount(), total);
}

TEST_F(PipelineTopologyTest, ServingPathWorksOverPipelineOutput) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 40; ++round) {
    for (UserId u = 1; u <= 8; ++u) {
      actions.push_back(Play(u, 10, round * 1000));
      actions.push_back(Play(u, 11, round * 1000 + 500));
      actions.push_back(Play(u, 12, round * 1000 + 700));
    }
  }
  RunPipeline(std::move(actions));

  MfModelConfig model_config;
  model_config.num_factors = 8;
  OnlineMf model(factors_.get(), model_config);
  RecommendConfig rec_config;
  MfRecommender recommender(&model, history_.get(), table_.get(), nullptr,
                            rec_config);
  RecRequest request;
  request.user = 999;
  request.seed_videos = {10};
  request.now = 40000;
  auto recs = recommender.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  for (const auto& r : *recs) {
    EXPECT_TRUE(r.video == 11 || r.video == 12) << r.video;
  }
}

}  // namespace
}  // namespace rtrec
