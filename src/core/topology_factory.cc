#include "core/topology_factory.h"

#include <string>
#include <utility>

#include "common/lru_cache.h"
#include "core/implicit_feedback.h"
#include "core/online_mf.h"
#include "core/sim_table.h"
#include "stream/reliable_spout.h"

namespace rtrec {

namespace pipeline_schema {

const stream::Schema& Action() {
  static const auto& schema =
      *new stream::Schema{"user", "video", "action", "value", "time"};
  return schema;
}

const stream::Schema& UserVec() {
  static const auto& schema = *new stream::Schema{"user", "vec", "bias"};
  return schema;
}

const stream::Schema& VideoVec() {
  static const auto& schema = *new stream::Schema{"video", "vec", "bias"};
  return schema;
}

const stream::Schema& Pair() {
  static const auto& schema =
      *new stream::Schema{"pair_key", "video1", "video2", "time"};
  return schema;
}

const stream::Schema& PairSim() {
  static const auto& schema =
      *new stream::Schema{"video1", "video2", "sim", "time"};
  return schema;
}

}  // namespace pipeline_schema

stream::Tuple ActionToTuple(const UserAction& action) {
  return stream::Tuple(pipeline_schema::Action(),
                       static_cast<std::int64_t>(action.user),
                       static_cast<std::int64_t>(action.video),
                       static_cast<std::int64_t>(action.type),
                       action.view_fraction, action.time);
}

StatusOr<UserAction> ActionFieldsAt(const stream::Tuple& tuple,
                                    std::size_t first) {
  const auto* user = tuple.GetIf<std::int64_t>(first);
  const auto* video = tuple.GetIf<std::int64_t>(first + 1);
  const auto* action = tuple.GetIf<std::int64_t>(first + 2);
  const auto* value = tuple.GetIf<double>(first + 3);
  const auto* time = tuple.GetIf<std::int64_t>(first + 4);
  if (user == nullptr || video == nullptr || action == nullptr ||
      value == nullptr || time == nullptr) {
    return Status::InvalidArgument("mistyped action field");
  }
  if (*action < 0 || *action >= kNumActionTypes) {
    return Status::InvalidArgument("action code out of range");
  }
  UserAction out;
  out.user = static_cast<UserId>(*user);
  out.video = static_cast<VideoId>(*video);
  out.type = static_cast<ActionType>(*action);
  out.view_fraction = *value;
  out.time = *time;
  return out;
}

StatusOr<UserAction> TupleToAction(const stream::Tuple& tuple) {
  if (tuple.schema() != &pipeline_schema::Action()) {
    return Status::InvalidArgument("not an action tuple");
  }
  return ActionFieldsAt(tuple, 0);
}

namespace {

/// Parses the raw message, filters unqualified tuples, forwards — the
/// spout of Fig. 2. Pulls from a shared ActionSource.
class ActionSpout : public stream::Spout {
 public:
  explicit ActionSpout(std::shared_ptr<ActionSource> source)
      : source_(std::move(source)) {}

  bool Next(stream::OutputCollector& collector) override {
    std::optional<UserAction> action = source_->Next();
    if (!action.has_value()) return false;
    collector.Emit(ActionToTuple(*action));
    return true;
  }

 private:
  std::shared_ptr<ActionSource> source_;
};

/// ComputeMF bolt: reads the current vectors, performs the Algorithm 1
/// step, and ships the *new* vectors to MFStorage keyed by id. It never
/// writes the store itself — the fields-grouped MFStorage tasks are the
/// single writers per key.
class ComputeMfBolt : public stream::Bolt {
 public:
  ComputeMfBolt(FactorStore* factors, MfModelConfig config)
      : factors_(factors), model_(factors, std::move(config)) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    StatusOr<UserAction> action = TupleToAction(tuple);
    if (!action.ok()) return;  // Unqualified tuple; spout-level filtering.
    const double confidence =
        ActionConfidence(*action, model_.config().feedback);
    double rating = 0.0;
    double eta = 0.0;
    model_.ResolveStep(confidence, &rating, &eta);
    if (rating <= 0.0) return;  // Impressions do not update the model.

    FactorEntry user = factors_->GetOrInitUser(action->user);
    FactorEntry video = factors_->GetOrInitVideo(action->video);
    const double mean =
        model_.config().use_global_mean ? factors_->GlobalMean() : 0.0;
    OnlineMf::ApplySgdStep(user, video, rating, eta,
                           model_.config().lambda, mean);
    factors_->ObserveRating(rating);

    collector.EmitTo(
        "user_vec",
        stream::Tuple(pipeline_schema::UserVec(),
                      static_cast<std::int64_t>(action->user),
                      std::move(user.vec), static_cast<double>(user.bias)));
    collector.EmitTo(
        "video_vec",
        stream::Tuple(pipeline_schema::VideoVec(),
                      static_cast<std::int64_t>(action->video),
                      std::move(video.vec), static_cast<double>(video.bias)));
  }

 private:
  FactorStore* factors_;
  OnlineMf model_;
};

/// MFStorage bolt: writes new vectors to the KV store. Fields grouping by
/// key guarantees a single writer per user/video, so writes are atomic
/// without locking coordination across tasks (Section 5.1). The shipped
/// vector is written straight into the stored entry.
class MfStorageBolt : public stream::Bolt {
 public:
  explicit MfStorageBolt(FactorStore* factors) : factors_(factors) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    (void)collector;
    const bool is_user = tuple.schema() == &pipeline_schema::UserVec();
    if (!is_user && tuple.schema() != &pipeline_schema::VideoVec()) return;
    const auto* id = tuple.GetIf<std::int64_t>(0);
    const auto* vec = tuple.GetIf<std::vector<float>>(1);
    const auto* bias = tuple.GetIf<double>(2);
    if (id == nullptr || vec == nullptr || bias == nullptr) return;
    if (is_user) {
      factors_->PutUser(static_cast<UserId>(*id), *vec,
                        static_cast<float>(*bias));
    } else {
      factors_->PutVideo(static_cast<VideoId>(*id), *vec,
                         static_cast<float>(*bias));
    }
  }

 private:
  FactorStore* factors_;
};

/// UserHistory bolt, which also does Fig. 2's GetItemPairs: records
/// behaviour histories, fields-grouped by user, and joins a confident
/// action with the user's recent history, emitting one tuple per
/// (video1, video2) pair keyed by the normalized pair key so equal pairs
/// co-locate downstream (enabling the combiner/cache optimizations of
/// Section 5.1). As in SimTableUpdater::OnAction, the partners are read
/// before the append, so an action pairs with exactly the user's earlier
/// actions, never with itself or a later one.
class UserHistoryBolt : public stream::Bolt {
 public:
  UserHistoryBolt(HistoryStore* history, SimilarityConfig config,
                  FeedbackConfig feedback)
      : history_(history), config_(std::move(config)), feedback_(feedback) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    StatusOr<UserAction> action = TupleToAction(tuple);
    if (!action.ok()) return;
    const double confidence = ActionConfidence(*action, feedback_);
    if (confidence >= config_.min_confidence) {
      for (const HistoryEntry& partner : history_->GetRecent(
               action->user, config_.max_pairs_per_action)) {
        if (partner.video == action->video) continue;
        collector.EmitTo(
            "pairs",
            stream::Tuple(pipeline_schema::Pair(),
                          PairKey(VideoPair(action->video, partner.video)),
                          static_cast<std::int64_t>(action->video),
                          static_cast<std::int64_t>(partner.video),
                          action->time));
      }
    }
    if (confidence <= 0.0) return;  // Impressions are not history.
    history_->Append(action->user,
                     HistoryEntry{action->video, confidence, action->time});
  }

 private:
  HistoryStore* history_;
  SimilarityConfig config_;
  FeedbackConfig feedback_;
};

/// ItemPairSim bolt: computes the fused similarity of a pair from the
/// current latent vectors and the type system (Eq. 9, 10, 12).
///
/// Section 5.1's "cache technique": because tuples are fields-grouped by
/// pair key, every occurrence of a pair reaches the same task, so a
/// task-local LRU of recent results skips the KV-store vector fetches
/// and the similarity recomputation for hot pairs.
class ItemPairSimBolt : public stream::Bolt {
 public:
  ItemPairSimBolt(FactorStore* factors, VideoTypeResolver type_resolver,
                  SimilarityConfig config)
      : factors_(factors),
        type_resolver_(std::move(type_resolver)),
        config_(std::move(config)),
        cache_(config_.pair_cache_size == 0 ? 1 : config_.pair_cache_size) {}

  void Prepare(const stream::TaskContext& context) override {
    if (context.metrics != nullptr) {
      cache_hits_ =
          context.metrics->GetCounter(context.component + ".cache_hits");
      cache_misses_ =
          context.metrics->GetCounter(context.component + ".cache_misses");
    }
  }

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    if (tuple.schema() != &pipeline_schema::Pair()) return;
    const auto* v1 = tuple.GetIf<std::int64_t>(1);
    const auto* v2 = tuple.GetIf<std::int64_t>(2);
    const auto* time = tuple.GetIf<std::int64_t>(3);
    if (v1 == nullptr || v2 == nullptr || time == nullptr) return;
    const VideoId a = static_cast<VideoId>(*v1);
    const VideoId b = static_cast<VideoId>(*v2);

    double fused = 0.0;
    bool cached = false;
    const VideoPair pair(a, b);
    if (config_.pair_cache_size > 0) {
      if (CachedSim* entry = cache_.Get(pair); entry != nullptr) {
        const double age = static_cast<double>(*time - entry->computed_at);
        if (age >= 0.0 && age <= config_.pair_cache_ttl_millis) {
          fused = entry->sim;
          cached = true;
        }
      }
    }
    if (!cached) {
      const FactorEntry ya = factors_->GetOrInitVideo(a);
      const FactorEntry yb = factors_->GetOrInitVideo(b);
      const double s1 = CfSimilarity(ya.vec, yb.vec);
      const double s2 = TypeSimilarity(type_resolver_(a), type_resolver_(b));
      fused = FuseSimilarity(s1, s2, config_.beta);
      if (config_.pair_cache_size > 0) {
        cache_.Put(pair, CachedSim{fused, *time});
      }
    }
    if (cached && cache_hits_ != nullptr) cache_hits_->Increment();
    if (!cached && cache_misses_ != nullptr) cache_misses_->Increment();

    collector.EmitTo("pair_sim",
                     stream::Tuple(pipeline_schema::PairSim(),
                                   static_cast<std::int64_t>(a),
                                   static_cast<std::int64_t>(b), fused, *time));
  }

 private:
  struct CachedSim {
    double sim = 0.0;
    Timestamp computed_at = 0;
  };

  FactorStore* factors_;
  VideoTypeResolver type_resolver_;
  SimilarityConfig config_;
  LruCache<VideoPair, CachedSim, VideoPairHash> cache_;
  Counter* cache_hits_ = nullptr;
  Counter* cache_misses_ = nullptr;
};

/// ResultStorage bolt: persists the top-N similar-video lists.
class ResultStorageBolt : public stream::Bolt {
 public:
  explicit ResultStorageBolt(SimTableStore* table) : table_(table) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    (void)collector;
    if (tuple.schema() != &pipeline_schema::PairSim()) return;
    const auto* v1 = tuple.GetIf<std::int64_t>(0);
    const auto* v2 = tuple.GetIf<std::int64_t>(1);
    const auto* sim = tuple.GetIf<double>(2);
    const auto* time = tuple.GetIf<std::int64_t>(3);
    if (v1 == nullptr || v2 == nullptr || sim == nullptr || time == nullptr) {
      return;
    }
    table_->Update(static_cast<VideoId>(*v1), static_cast<VideoId>(*v2),
                   *sim, *time);
  }

 private:
  SimTableStore* table_;
};

}  // namespace

StatusOr<stream::TopologySpec> BuildRecommendationTopology(
    std::shared_ptr<ActionSource> source, const PipelineDeps& deps,
    const PipelineParallelism& parallelism) {
  if (source == nullptr) return Status::InvalidArgument("null action source");
  if (deps.factors == nullptr || deps.history == nullptr ||
      deps.sim_table == nullptr || deps.type_resolver == nullptr) {
    return Status::InvalidArgument("incomplete pipeline deps");
  }
  RTREC_RETURN_IF_ERROR(deps.model_config.Validate());
  RTREC_RETURN_IF_ERROR(deps.sim_config.Validate());

  // Copy dependencies into the factories (executed once per task).
  FactorStore* factors = deps.factors;
  HistoryStore* history = deps.history;
  SimTableStore* sim_table = deps.sim_table;
  VideoTypeResolver type_resolver = deps.type_resolver;
  MfModelConfig model_config = deps.model_config;
  SimilarityConfig sim_config = deps.sim_config;
  FeedbackConfig feedback = model_config.feedback;

  stream::TopologyBuilder builder;
  if (deps.reliable_spout) {
    builder.AddSpout(
        "spout",
        [source] {
          return std::make_unique<stream::ReliableReplaySpout>(
              [source]() -> std::optional<stream::Tuple> {
                std::optional<UserAction> action = source->Next();
                if (!action.has_value()) return std::nullopt;
                return ActionToTuple(*action);
              });
        },
        parallelism.spout);
  } else {
    builder.AddSpout(
        "spout",
        [source] { return std::make_unique<ActionSpout>(source); },
        parallelism.spout);
  }

  builder
      .AddBolt(
          "compute_mf",
          [factors, model_config] {
            return std::make_unique<ComputeMfBolt>(factors, model_config);
          },
          parallelism.compute_mf)
      .ShuffleGrouping("spout");

  builder
      .AddBolt(
          "mf_storage",
          [factors] { return std::make_unique<MfStorageBolt>(factors); },
          parallelism.mf_storage)
      .FieldsGrouping("compute_mf", "user_vec", {"user"})
      .FieldsGrouping("compute_mf", "video_vec", {"video"});

  builder
      .AddBolt(
          "user_history",
          [history, sim_config, feedback] {
            return std::make_unique<UserHistoryBolt>(history, sim_config,
                                                     feedback);
          },
          parallelism.user_history)
      .FieldsGrouping("spout", {"user"});

  builder
      .AddBolt(
          "item_pair_sim",
          [factors, type_resolver, sim_config] {
            return std::make_unique<ItemPairSimBolt>(factors, type_resolver,
                                                     sim_config);
          },
          parallelism.item_pair_sim)
      .FieldsGrouping("user_history", "pairs", {"pair_key"});

  builder
      .AddBolt(
          "result_storage",
          [sim_table] { return std::make_unique<ResultStorageBolt>(sim_table); },
          parallelism.result_storage)
      .FieldsGrouping("item_pair_sim", "pair_sim", {"video1"});

  return builder.Build();
}

}  // namespace rtrec
