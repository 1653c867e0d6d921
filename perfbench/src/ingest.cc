// The `ingest` workload and the ingest-side per-layer probes.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "checks.h"
#include "common/metrics.h"
#include "core/engine.h"
#include "core/online_mf.h"
#include "core/sim_table.h"
#include "core/topology_factory.h"
#include "evaluate.h"
#include "kvstore/history_store.h"
#include "stream/topology.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kHistoryUsersChecked = 2000;
constexpr double kTopologyPollSeconds = 0.2;

/// The KVStore boxes of Fig. 2, fresh for every round.
struct Stores {
  rtrec::FactorStore factors;
  rtrec::HistoryStore history;
  rtrec::SimTableStore sim_table;

  explicit Stores(const rtrec::SimilarityConfig& sim)
      : sim_table(SimOptions(sim)) {}

  static rtrec::SimTableStore::Options SimOptions(
      const rtrec::SimilarityConfig& sim) {
    rtrec::SimTableStore::Options options;
    options.top_k = sim.top_k;
    options.xi_millis = sim.xi_millis;
    return options;
  }
};

struct RoundStats {
  double actions_per_s = 0.0;  // First emit → last terminal bolt.
  double cpu_s = 0.0;
  double emit_s = 0.0;
  double drain_tail_s = 0.0;
  std::int64_t voluntary_switches = 0;
  std::int64_t involuntary_switches = 0;
  std::int64_t batch_drains = 0;
  std::int64_t push_retries = 0;
  std::int64_t parked_wakeups = 0;
  /// Actions per second over each poll interval while the spout emitted.
  std::vector<double> interval_rates;
};

/// One pass of `stream` through the topology at the shipped default
/// parallelism. Returns false (with `error` set) when it cannot run.
bool RunTopologyRound(const std::vector<rtrec::UserAction>& stream,
                      const rtrec::VideoTypeResolver& resolver,
                      Stores* stores, RoundStats* stats, std::string* error) {
  rtrec::PipelineDeps deps;
  deps.factors = &stores->factors;
  deps.history = &stores->history;
  deps.sim_table = &stores->sim_table;
  deps.type_resolver = resolver;
  auto source = std::make_shared<rtrec::VectorActionSource>(stream);
  auto spec = rtrec::BuildRecommendationTopology(source, deps);
  if (!spec.ok()) {
    *error = "topology spec: " + spec.status().ToString();
    return false;
  }
  rtrec::MetricsRegistry metrics;
  rtrec::stream::TopologyOptions options;
  options.metrics = &metrics;
  auto topo = rtrec::stream::Topology::Create(std::move(spec).value(), options);
  if (!topo.ok()) {
    *error = "topology create: " + topo.status().ToString();
    return false;
  }
  rtrec::stream::Topology& topology = **topo;
  rtrec::Counter* emitted = metrics.GetCounter("spout.emitted");

  std::int64_t vol0 = 0, invol0 = 0;
  ContextSwitches(&vol0, &invol0);
  const double cpu0 = ProcessCpuSeconds();
  rtrec::Status run = topology.Start();
  if (!run.ok()) {
    *error = "topology start: " + run.ToString();
    return false;
  }
  std::atomic<bool> joined{false};
  rtrec::Status join_status;
  std::thread joiner([&] {
    join_status = topology.Join();
    joined.store(true, std::memory_order_release);
  });
  // Per-interval emit counts; converted to actions once the total emitted
  // per action is known.
  std::vector<std::pair<double, std::int64_t>> samples;
  const Clock::time_point t0 = Clock::now();
  while (!joined.load(std::memory_order_acquire)) {
    samples.emplace_back(Seconds(t0, Clock::now()), emitted->value());
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kTopologyPollSeconds));
  }
  joiner.join();
  stats->cpu_s = ProcessCpuSeconds() - cpu0;
  std::int64_t vol1 = 0, invol1 = 0;
  ContextSwitches(&vol1, &invol1);
  if (!join_status.ok()) {
    *error = "topology join: " + join_status.ToString();
    return false;
  }
  stats->voluntary_switches = vol1 - vol0;
  stats->involuntary_switches = invol1 - invol0;

  const double first = static_cast<double>(
      metrics.GetGauge("topology.first_emit_us")->value());
  const double spout_done = static_cast<double>(
      metrics.GetGauge("topology.spout_done_us")->value());
  const double final_done = static_cast<double>(
      metrics.GetGauge("topology.final_done_us")->value());
  stats->emit_s = (spout_done - first) * 1e-6;
  stats->drain_tail_s = (final_done - spout_done) * 1e-6;
  stats->actions_per_s =
      static_cast<double>(stream.size()) / ((final_done - first) * 1e-6);
  stats->batch_drains =
      metrics.GetCounter("stream.queue.batch_drains")->value();
  stats->push_retries =
      metrics.GetCounter("stream.queue.push_retries")->value();
  stats->parked_wakeups =
      metrics.GetCounter("stream.queue.parked_wakeups")->value();

  const std::int64_t total = emitted->value();
  const double per_action =
      static_cast<double>(total) / static_cast<double>(stream.size());
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const auto& [ta, ca] = samples[i - 1];
    const auto& [tb, cb] = samples[i];
    // Whole intervals of steady emission only: not before the first
    // emit, not the partial one that reaches the end of the stream.
    if (ca == 0 || cb >= total || tb <= ta) continue;
    stats->interval_rates.push_back(static_cast<double>(cb - ca) /
                                    per_action / (tb - ta));
  }
  return true;
}

/// Users and videos the model must hold an entry for: those of actions
/// whose update step carries a positive rating.
void CountEntries(const std::vector<rtrec::UserAction>& stream,
                  const rtrec::MfModelConfig& config, std::size_t* users,
                  std::size_t* videos) {
  std::unordered_set<rtrec::UserId> u;
  std::unordered_set<rtrec::VideoId> v;
  for (const rtrec::UserAction& action : stream) {
    double rating = 0.0, eta = 0.0;
    rtrec::ResolveUpdateStep(
        config, rtrec::ActionConfidence(action, config.feedback), &rating,
        &eta);
    if (rating <= 0.0) continue;
    u.insert(action.user);
    v.insert(action.video);
  }
  *users = u.size();
  *videos = v.size();
}

void CheckHistories(const std::vector<rtrec::UserAction>& stream,
                    const rtrec::HistoryStore& history,
                    const rtrec::FeedbackConfig& feedback,
                    std::uint64_t seed, Result* result) {
  const std::vector<rtrec::UserId> users =
      SampleEngagedUsers(stream, feedback, seed, kHistoryUsersChecked);
  std::unordered_map<rtrec::UserId, std::vector<rtrec::UserAction>> per_user;
  for (rtrec::UserId u : users) per_user[u];
  for (const rtrec::UserAction& action : stream) {
    auto it = per_user.find(action.user);
    if (it != per_user.end()) it->second.push_back(action);
  }
  const std::size_t capacity = rtrec::HistoryStore::Options{}.max_entries_per_user;
  for (rtrec::UserId u : users) {
    result->Check(CheckHistory(
        u, ExpectedHistory(per_user[u], feedback, capacity), history.Get(u)));
  }
}

}  // namespace

Result RunIngest(const Args& args) {
  Result result;
  const rtrec::SyntheticWorld world(BenchWorld());
  const std::vector<rtrec::UserAction> train = world.GenerateDay(0);
  const std::vector<rtrec::UserAction> test = world.GenerateDay(1);
  const rtrec::MfModelConfig model_config;
  const rtrec::SimilarityConfig sim_config;
  const HeldOut held_out =
      MakeHeldOut(train, test, model_config.feedback);
  result.Add("setup_s", SinceProcessStart(), "s");

  // Each round: the day through the topology into fresh stores, then
  // the held-out "guess you like" requests on those stores. Spreading the
  // latency samples over every round keeps a short burst on the host
  // from deciding the latency figures.
  std::vector<double> interval_rates, cpu_per_action, recalls, latencies_us;
  double rss_one_round_mb = 0.0;
  std::unique_ptr<Stores> stores;
  const Clock::time_point start = Clock::now();
  int rounds = 0;
  while (rounds == 0 || Seconds(start, Clock::now()) < args.seconds) {
    stores.reset();  // Free the previous round's stores before the next.
    stores = std::make_unique<Stores>(sim_config);
    RoundStats stats;
    std::string error;
    ++rounds;
    result.attempted += static_cast<std::int64_t>(train.size());
    if (!RunTopologyRound(train, world.TypeResolver(), stores.get(), &stats,
                          &error)) {
      result.failed += static_cast<std::int64_t>(train.size());
      result.Check(error);
      break;
    }
    // Peak memory of set-up plus one ingested day; later rounds only
    // add allocator reuse, which varies with the round count.
    if (rounds == 1) rss_one_round_mb = PeakRssMb();
    interval_rates.insert(interval_rates.end(), stats.interval_rates.begin(),
                          stats.interval_rates.end());
    cpu_per_action.push_back(stats.cpu_s * 1e6 /
                             static_cast<double>(train.size()));
    rtrec::OnlineMf model(&stores->factors, model_config);
    rtrec::SimTableUpdater updater(&stores->factors, &stores->history,
                                   &stores->sim_table, world.TypeResolver(),
                                   sim_config, model_config.feedback);
    rtrec::MfRecommender recommender(&model, &stores->history,
                                     &stores->sim_table, &updater,
                                     rtrec::RecommendConfig{});
    recalls.push_back(RecallAt10(recommender, held_out,
                                 world.catalog().size(), /*max_segments=*/1,
                                 &result, &latencies_us));
  }

  // Checks on the last round's stores.
  CheckHistories(train, stores->history, model_config.feedback, args.seed,
                 &result);
  std::size_t users = 0, videos = 0;
  CountEntries(train, model_config, &users, &videos);
  result.Check(CheckCount("user factor entries",
                          static_cast<std::int64_t>(users),
                          static_cast<std::int64_t>(stores->factors.NumUsers())));
  result.Check(CheckCount(
      "video factor entries", static_cast<std::int64_t>(videos),
      static_cast<std::int64_t>(stores->factors.NumVideos())));
  const double recall = Median(recalls);
  std::fprintf(stderr, "yardstick: most-popular recall@10 %.4f, rMF %.4f\n",
               MostPopularRecallAt10(train, held_out, model_config.feedback),
               recall);
  const double mean =
      model_config.use_global_mean ? stores->factors.GlobalMean() : 0.0;
  result.Check(CheckAuc(HeldOutAuc(stores->factors, mean, test, args.seed),
                        kAucMargin));

  result.Add("rss_peak_mb", rss_one_round_mb, "MB");
  result.Add("throughput_per_s", Median(interval_rates), "1/s");
  result.Add("cpu_us_per_op", Median(cpu_per_action), "us");
  result.Add("recommend_p50_us", Quantile(latencies_us, 0.5), "us");
  result.Add("recommend_p99_us", Quantile(latencies_us, 0.99), "us");
  result.Add("recall_at_10", recall, "ratio");
  std::fprintf(stderr, "ingest: %d rounds of %zu actions, %zu intervals\n",
               rounds, train.size(), interval_rates.size());
  return result;
}

void IngestLayers(Result* result) {
  const rtrec::SyntheticWorld world(BenchWorld());
  const std::vector<rtrec::UserAction> stream = world.GenerateDay(0);
  const double actions = static_cast<double>(stream.size());
  const rtrec::MfModelConfig model_config;
  const rtrec::SimilarityConfig sim_config;

  // The topology, one round.
  RoundStats stats;
  result->attempted += static_cast<std::int64_t>(stream.size());
  {
    Stores stores(sim_config);
    std::string error;
    if (!RunTopologyRound(stream, world.TypeResolver(), &stores, &stats,
                          &error)) {
      result->failed += static_cast<std::int64_t>(stream.size());
      result->Check(error);
      return;
    }
  }
  result->Add("stream.vol_ctx_switches_per_kaction",
              static_cast<double>(stats.voluntary_switches) * 1e3 / actions,
              "count");
  result->Add("stream.invol_ctx_switches_per_kaction",
              static_cast<double>(stats.involuntary_switches) * 1e3 / actions,
              "count");
  result->Add("stream.queue.batch_drains",
              static_cast<double>(stats.batch_drains), "count");
  result->Add("stream.queue.push_retries",
              static_cast<double>(stats.push_retries), "count");
  result->Add("stream.queue.parked_wakeups",
              static_cast<double>(stats.parked_wakeups), "count");
  result->Add("stream.emit_s", stats.emit_s, "s");
  result->Add("stream.drain_tail_s", stats.drain_tail_s, "s");
  result->Add("stream.topology_actions_per_s", stats.actions_per_s, "1/s");

  // The same stream through one thread calling RecEngine::Observe (the
  // serial baseline), and a replay of the calls RecEngine::Observe makes,
  // OnlineMf::Update then SimTableUpdater::OnAction, timed call by call.
  // Each has stores of its own. They take the stream in turns, a chunk
  // at a time, so both run under the same host conditions and their
  // difference, the unattributed row, is not a drift of the host. Each
  // timed call also pays for its own clock reads; that cost is measured
  // and taken back out.
  constexpr std::size_t kChunk = 10000;
  const double clock_ns = TimedIntervalOverheadNs();
  double serial_s = 0.0, serial_cpu_s = 0.0, mf_ns = 0.0, sim_ns = 0.0;
  std::int64_t pairs = 0;
  {
    rtrec::RecEngine engine(world.TypeResolver());
    Stores stores(sim_config);
    rtrec::OnlineMf model(&stores.factors, model_config);
    rtrec::SimTableUpdater updater(&stores.factors, &stores.history,
                                   &stores.sim_table, world.TypeResolver(),
                                   sim_config, model_config.feedback);
    for (std::size_t begin = 0; begin < stream.size(); begin += kChunk) {
      const std::size_t end = std::min(stream.size(), begin + kChunk);
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = begin; i < end; ++i) engine.Observe(stream[i]);
      serial_s += Seconds(t0, Clock::now());
      serial_cpu_s += ProcessCpuSeconds() - cpu0;
      for (std::size_t i = begin; i < end; ++i) {
        const Clock::time_point a = Clock::now();
        model.Update(stream[i]);
        const Clock::time_point b = Clock::now();
        pairs += static_cast<std::int64_t>(updater.OnAction(stream[i]));
        const Clock::time_point c = Clock::now();
        mf_ns += std::chrono::duration<double, std::nano>(b - a).count();
        sim_ns += std::chrono::duration<double, std::nano>(c - b).count();
      }
    }
  }
  result->Add("stream.serial_actions_per_s", actions / serial_s, "1/s");
  result->Add("stream.cpu_overhead_ratio", stats.cpu_s / serial_cpu_s,
              "ratio");

  // SimTableUpdater::OnAction includes its own history append; the append
  // is timed again, alone, on a store of its own.
  double append_ns = 0.0;
  std::int64_t appended = 0;
  {
    rtrec::HistoryStore appends;
    for (const rtrec::UserAction& action : stream) {
      const double confidence =
          rtrec::ActionConfidence(action, model_config.feedback);
      if (confidence <= 0.0) continue;
      const Clock::time_point d = Clock::now();
      appends.Append(action.user,
                     rtrec::HistoryEntry{action.video, confidence, action.time});
      append_ns +=
          std::chrono::duration<double, std::nano>(Clock::now() - d).count();
      ++appended;
    }
  }
  const double mf_per_action = mf_ns / actions - clock_ns;
  const double sim_per_action = sim_ns / actions - clock_ns;
  result->Add("core.mf_update_ns", mf_per_action, "ns");
  result->Add("core.sim_on_action_ns", sim_per_action, "ns");
  result->Add("core.pairs_per_action", static_cast<double>(pairs) / actions,
              "count");
  result->Add("kvstore.history_append_ns",
              append_ns / static_cast<double>(std::max<std::int64_t>(appended, 1)) -
                  clock_ns,
              "ns");
  result->Add("ingest.unattributed_ns_per_action",
              serial_s * 1e9 / actions - (mf_per_action + sim_per_action),
              "ns");
  std::fprintf(stderr, "ingest layers: timed-interval overhead %.1f ns\n",
               clock_ns);
}

}  // namespace perfbench
