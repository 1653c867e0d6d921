#include "demographic/demographic_topology.h"

#include <string>
#include <utility>

#include "common/lru_cache.h"
#include "core/implicit_feedback.h"
#include "core/online_mf.h"

namespace rtrec {

namespace demographic_schema {

const stream::Schema& GroupedAction() {
  static const auto& schema = *new stream::Schema{
      "group", "user", "video", "action", "value", "time"};
  return schema;
}

const stream::Schema& GroupedUserVec() {
  static const auto& schema =
      *new stream::Schema{"group", "user", "vec", "bias"};
  return schema;
}

const stream::Schema& GroupedVideoVec() {
  static const auto& schema =
      *new stream::Schema{"group", "video", "vec", "bias"};
  return schema;
}

const stream::Schema& GroupedPair() {
  static const auto& schema =
      *new stream::Schema{"group", "pair_key", "video1", "video2", "time"};
  return schema;
}

const stream::Schema& GroupedPairSim() {
  static const auto& schema =
      *new stream::Schema{"group", "video1", "video2", "sim", "time"};
  return schema;
}

}  // namespace demographic_schema

namespace {

std::int64_t GroupField(GroupId group) {
  return static_cast<std::int64_t>(group);
}

/// The group of a tuple on `schema` (field 0), or null when the tuple is
/// on another schema or its group is not an int64.
const std::int64_t* GroupOf(const stream::Tuple& tuple,
                            const stream::Schema& schema) {
  if (tuple.schema() != &schema) return nullptr;
  return tuple.GetIf<std::int64_t>(0);
}

/// The action and group of a spout tuple, or an error for an unqualified
/// tuple.
StatusOr<UserAction> GroupedTupleToAction(const stream::Tuple& tuple,
                                          GroupId* group) {
  const std::int64_t* g = GroupOf(tuple, demographic_schema::GroupedAction());
  if (g == nullptr) {
    return Status::InvalidArgument("not a grouped action tuple");
  }
  *group = static_cast<GroupId>(*g);
  return ActionFieldsAt(tuple, 1);
}

/// Spout: pulls actions and stamps the user's demographic group.
class GroupingActionSpout : public stream::Spout {
 public:
  GroupingActionSpout(std::shared_ptr<ActionSource> source,
                      const DemographicGrouper* grouper)
      : source_(std::move(source)), grouper_(grouper) {}

  bool Next(stream::OutputCollector& collector) override {
    std::optional<UserAction> action = source_->Next();
    if (!action.has_value()) return false;
    const GroupId group = grouper_->GroupOf(action->user);
    collector.Emit(stream::Tuple(
        demographic_schema::GroupedAction(), GroupField(group),
        static_cast<std::int64_t>(action->user),
        static_cast<std::int64_t>(action->video),
        static_cast<std::int64_t>(action->type), action->view_fraction,
        action->time));
    return true;
  }

 private:
  std::shared_ptr<ActionSource> source_;
  const DemographicGrouper* grouper_;
};

/// ComputeMF within the action's group: reads/initializes vectors in the
/// group's FactorStore and ships the new vectors keyed by (group, id).
class GroupComputeMfBolt : public stream::Bolt {
 public:
  GroupComputeMfBolt(GroupStoreRegistry* stores, MfModelConfig config)
      : stores_(stores), config_(std::move(config)) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    GroupId group = kGlobalGroup;
    StatusOr<UserAction> action = GroupedTupleToAction(tuple, &group);
    if (!action.ok()) return;
    const double confidence = ActionConfidence(*action, config_.feedback);

    GroupStores& stores = stores_->GetOrCreate(group);
    double rating = 0.0, eta = 0.0;
    ResolveUpdateStep(config_, confidence, &rating, &eta);
    if (rating <= 0.0) return;

    FactorEntry user = stores.factors->GetOrInitUser(action->user);
    FactorEntry video = stores.factors->GetOrInitVideo(action->video);
    const double mean =
        config_.use_global_mean ? stores.factors->GlobalMean() : 0.0;
    OnlineMf::ApplySgdStep(user, video, rating, eta, config_.lambda, mean);
    stores.factors->ObserveRating(rating);

    collector.EmitTo(
        "user_vec",
        stream::Tuple(demographic_schema::GroupedUserVec(), GroupField(group),
                      static_cast<std::int64_t>(action->user),
                      std::move(user.vec), static_cast<double>(user.bias)));
    collector.EmitTo(
        "video_vec",
        stream::Tuple(demographic_schema::GroupedVideoVec(), GroupField(group),
                      static_cast<std::int64_t>(action->video),
                      std::move(video.vec), static_cast<double>(video.bias)));
  }

 private:
  GroupStoreRegistry* stores_;
  MfModelConfig config_;
};

class GroupMfStorageBolt : public stream::Bolt {
 public:
  explicit GroupMfStorageBolt(GroupStoreRegistry* stores) : stores_(stores) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    (void)collector;
    const bool is_user =
        tuple.schema() == &demographic_schema::GroupedUserVec();
    const std::int64_t* group = GroupOf(
        tuple, is_user ? demographic_schema::GroupedUserVec()
                       : demographic_schema::GroupedVideoVec());
    const auto* id = tuple.GetIf<std::int64_t>(1);
    const auto* vec = tuple.GetIf<std::vector<float>>(2);
    const auto* bias = tuple.GetIf<double>(3);
    if (group == nullptr || id == nullptr || vec == nullptr ||
        bias == nullptr) {
      return;
    }
    FactorStore& factors =
        *stores_->GetOrCreate(static_cast<GroupId>(*group)).factors;
    if (is_user) {
      factors.PutUser(static_cast<UserId>(*id), *vec,
                      static_cast<float>(*bias));
    } else {
      factors.PutVideo(static_cast<VideoId>(*id), *vec,
                       static_cast<float>(*bias));
    }
  }

 private:
  GroupStoreRegistry* stores_;
};

/// Records the group's histories and forms its co-watch pairs, partners
/// read before the append (see UserHistoryBolt in topology_factory.cc).
class GroupUserHistoryBolt : public stream::Bolt {
 public:
  GroupUserHistoryBolt(GroupStoreRegistry* stores, SimilarityConfig config,
                       FeedbackConfig feedback)
      : stores_(stores), config_(std::move(config)), feedback_(feedback) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    GroupId group = kGlobalGroup;
    StatusOr<UserAction> action = GroupedTupleToAction(tuple, &group);
    if (!action.ok()) return;
    const double confidence = ActionConfidence(*action, feedback_);
    const bool pairs = confidence >= config_.min_confidence;
    if (!pairs && confidence <= 0.0) return;  // Nothing to pair or record.
    GroupStores& stores = stores_->GetOrCreate(group);
    if (pairs) {
      for (const HistoryEntry& partner : stores.history->GetRecent(
               action->user, config_.max_pairs_per_action)) {
        if (partner.video == action->video) continue;
        collector.EmitTo(
            "pairs",
            stream::Tuple(demographic_schema::GroupedPair(), GroupField(group),
                          PairKey(VideoPair(action->video, partner.video)),
                          static_cast<std::int64_t>(action->video),
                          static_cast<std::int64_t>(partner.video),
                          action->time));
      }
    }
    if (confidence <= 0.0) return;
    stores.history->Append(
        action->user, HistoryEntry{action->video, confidence, action->time});
  }

 private:
  GroupStoreRegistry* stores_;
  SimilarityConfig config_;
  FeedbackConfig feedback_;
};

class GroupItemPairSimBolt : public stream::Bolt {
 public:
  GroupItemPairSimBolt(GroupStoreRegistry* stores,
                       VideoTypeResolver type_resolver,
                       SimilarityConfig config)
      : stores_(stores),
        type_resolver_(std::move(type_resolver)),
        config_(std::move(config)) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    const std::int64_t* group =
        GroupOf(tuple, demographic_schema::GroupedPair());
    const auto* v1 = tuple.GetIf<std::int64_t>(2);
    const auto* v2 = tuple.GetIf<std::int64_t>(3);
    const auto* time = tuple.GetIf<std::int64_t>(4);
    if (group == nullptr || v1 == nullptr || v2 == nullptr ||
        time == nullptr) {
      return;
    }
    const VideoId a = static_cast<VideoId>(*v1);
    const VideoId b = static_cast<VideoId>(*v2);
    GroupStores& stores = stores_->GetOrCreate(static_cast<GroupId>(*group));
    // Within-group similarity: the group's own y_i vectors (Eq. 9).
    const FactorEntry ya = stores.factors->GetOrInitVideo(a);
    const FactorEntry yb = stores.factors->GetOrInitVideo(b);
    const double s1 = CfSimilarity(ya.vec, yb.vec);
    const double s2 = TypeSimilarity(type_resolver_(a), type_resolver_(b));
    const double fused = FuseSimilarity(s1, s2, config_.beta);
    collector.EmitTo(
        "pair_sim",
        stream::Tuple(demographic_schema::GroupedPairSim(), *group,
                      static_cast<std::int64_t>(a),
                      static_cast<std::int64_t>(b), fused, *time));
  }

 private:
  GroupStoreRegistry* stores_;
  VideoTypeResolver type_resolver_;
  SimilarityConfig config_;
};

class GroupResultStorageBolt : public stream::Bolt {
 public:
  explicit GroupResultStorageBolt(GroupStoreRegistry* stores)
      : stores_(stores) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    (void)collector;
    const std::int64_t* group =
        GroupOf(tuple, demographic_schema::GroupedPairSim());
    const auto* v1 = tuple.GetIf<std::int64_t>(1);
    const auto* v2 = tuple.GetIf<std::int64_t>(2);
    const auto* sim = tuple.GetIf<double>(3);
    const auto* time = tuple.GetIf<std::int64_t>(4);
    if (group == nullptr || v1 == nullptr || v2 == nullptr ||
        sim == nullptr || time == nullptr) {
      return;
    }
    stores_->GetOrCreate(static_cast<GroupId>(*group)).sim_table->Update(
        static_cast<VideoId>(*v1), static_cast<VideoId>(*v2), *sim, *time);
  }

 private:
  GroupStoreRegistry* stores_;
};

}  // namespace

StatusOr<stream::TopologySpec> BuildDemographicTopology(
    std::shared_ptr<ActionSource> source,
    const DemographicPipelineDeps& deps,
    const PipelineParallelism& parallelism) {
  if (source == nullptr) return Status::InvalidArgument("null action source");
  if (deps.stores == nullptr || deps.grouper == nullptr ||
      deps.type_resolver == nullptr) {
    return Status::InvalidArgument("incomplete demographic pipeline deps");
  }
  RTREC_RETURN_IF_ERROR(deps.model_config.Validate());
  RTREC_RETURN_IF_ERROR(deps.sim_config.Validate());
  if (deps.stores->options().num_factors != deps.model_config.num_factors) {
    return Status::InvalidArgument(
        "registry dimensionality does not match the model config");
  }

  GroupStoreRegistry* stores = deps.stores;
  const DemographicGrouper* grouper = deps.grouper;
  VideoTypeResolver type_resolver = deps.type_resolver;
  MfModelConfig model_config = deps.model_config;
  SimilarityConfig sim_config = deps.sim_config;
  FeedbackConfig feedback = model_config.feedback;

  stream::TopologyBuilder builder;
  builder.AddSpout(
      "spout",
      [source, grouper] {
        return std::make_unique<GroupingActionSpout>(source, grouper);
      },
      parallelism.spout);

  builder
      .AddBolt(
          "compute_mf",
          [stores, model_config] {
            return std::make_unique<GroupComputeMfBolt>(stores, model_config);
          },
          parallelism.compute_mf)
      // Keyed by (group, user): a user belongs to one group, so the
      // read-compute step for a user is serialized per group model.
      .FieldsGrouping("spout", {"group", "user"});

  builder
      .AddBolt(
          "mf_storage",
          [stores] { return std::make_unique<GroupMfStorageBolt>(stores); },
          parallelism.mf_storage)
      .FieldsGrouping("compute_mf", "user_vec", {"group", "user"})
      .FieldsGrouping("compute_mf", "video_vec", {"group", "video"});

  builder
      .AddBolt(
          "user_history",
          [stores, sim_config, feedback] {
            return std::make_unique<GroupUserHistoryBolt>(stores, sim_config,
                                                          feedback);
          },
          parallelism.user_history)
      .FieldsGrouping("spout", {"group", "user"});

  builder
      .AddBolt(
          "item_pair_sim",
          [stores, type_resolver, sim_config] {
            return std::make_unique<GroupItemPairSimBolt>(
                stores, type_resolver, sim_config);
          },
          parallelism.item_pair_sim)
      .FieldsGrouping("user_history", "pairs", {"group", "pair_key"});

  builder
      .AddBolt(
          "result_storage",
          [stores] {
            return std::make_unique<GroupResultStorageBolt>(stores);
          },
          parallelism.result_storage)
      .FieldsGrouping("item_pair_sim", "pair_sim", {"group", "video1"});

  return builder.Build();
}

}  // namespace rtrec
