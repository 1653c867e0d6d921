// The `serve_read` and `serve_mixed` workloads and the serve-side
// per-layer probes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <unordered_set>

#include "checks.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "evaluate.h"
#include "net/rec_client.h"
#include "net/rec_server.h"
#include "net/wire.h"
#include "obs/span_collector.h"
#include "service/recommendation_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kConnections = 2;
constexpr int kServerWorkers = 2;
constexpr int kWarmThreads = 4;
/// examples/serve's default: one request in 64 is a sampled trace.
constexpr std::uint32_t kTraceSampleEveryN = 64;
constexpr std::size_t kTopN = 10;
/// Requests per round of one connection; a run stops at a round boundary.
constexpr int kRound = 32;
constexpr std::size_t kEq2Sample = 200;
constexpr std::size_t kProbeRequests = 2000;
constexpr const char* kServerRecommendHistogram =
    "net.server.rpc.recommend.latency_us";
constexpr const char* kAlertCounters[] = {
    "quality.alerts.logloss",     "quality.alerts.calibration",
    "quality.alerts.embedding_norm", "quality.alerts.bias_drift",
    "quality.alerts.label_shift", "quality.alerts.staleness",
    "quality.alerts.coverage"};

/// The service of examples/serve (demographic training, quality monitor
/// on) behind a 2-worker RecServer with examples/serve's default tracing
/// (a Tracer sampling 1 in 64 and a SpanCollector), warmed on day 0 of
/// the world, plus the day-1 engaged actions requests are drawn from.
class ServeStack {
 public:
  ServeStack() : world_(BenchWorld()) {
    const std::vector<rtrec::UserAction> warm = world_.GenerateDay(0);
    test_ = world_.GenerateDay(1);
    const rtrec::FeedbackConfig feedback;
    for (const rtrec::UserAction& a : test_) {
      if (rtrec::ActionConfidence(a, feedback) > 0.0) pool_.push_back(a);
    }
    held_out_ = MakeHeldOut(warm, test_, feedback);

    rtrec::RecommendationService::Options options;
    options.metrics = &registry_;
    options.quality.holdout_every_n = 100;
    options.quality.num_arms = 2;
    service_ = std::make_unique<rtrec::RecommendationService>(
        world_.TypeResolver(), options);
    world_.RegisterProfiles(service_->grouper());
    // Warm-up keeps each user's actions in order on one thread.
    std::vector<std::thread> threads;
    for (int t = 0; t < kWarmThreads; ++t) {
      threads.emplace_back([this, t, &warm] {
        for (const rtrec::UserAction& a : warm) {
          if (static_cast<int>(a.user % kWarmThreads) == t) {
            service_->Observe(a);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    rtrec::Tracer::Options tracer_options;
    tracer_options.sample_every_n = kTraceSampleEveryN;
    tracer_options.metrics = &registry_;
    tracer_ = std::make_unique<rtrec::Tracer>(tracer_options);
    rtrec::obs::SpanCollector::Options span_options;
    span_options.metrics = &registry_;
    spans_ = std::make_unique<rtrec::obs::SpanCollector>(span_options);

    rtrec::RecServer::Options server_options;
    server_options.port = 0;
    server_options.num_workers = kServerWorkers;
    server_options.metrics = &registry_;
    server_options.tracer = tracer_.get();
    server_options.spans = spans_.get();
    server_ = std::make_unique<rtrec::RecServer>(service_.get(),
                                                 server_options);
    start_status_ = server_->Start();
  }

  ~ServeStack() {
    if (server_ != nullptr) server_->Stop();
  }

  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  const rtrec::Status& start_status() const { return start_status_; }
  const rtrec::SyntheticWorld& world() const { return world_; }
  const std::vector<rtrec::UserAction>& pool() const { return pool_; }
  const std::vector<rtrec::UserAction>& test() const { return test_; }
  const HeldOut& held_out() const { return held_out_; }
  rtrec::MetricsRegistry& registry() { return registry_; }
  rtrec::RecommendationService& service() { return *service_; }
  rtrec::RecEngine& global_engine() {
    return *service_->trainer()->GetEngine(rtrec::kGlobalGroup);
  }
  std::uint16_t port() const { return server_->port(); }

  /// A "guess you like" request of the user of `action`, a uniformly
  /// drawn engaged action, so users are drawn in proportion to their
  /// activity. "Related videos" requests are left out: the served page
  /// can hold the seed video itself (CHANGES.md, FOUND).
  static rtrec::RecRequest Request(const rtrec::UserAction& action) {
    rtrec::RecRequest request;
    request.user = action.user;
    request.top_n = kTopN;
    request.now = action.time;
    return request;
  }

 private:
  rtrec::SyntheticWorld world_;
  std::vector<rtrec::UserAction> test_;
  std::vector<rtrec::UserAction> pool_;
  HeldOut held_out_;
  rtrec::MetricsRegistry registry_;
  std::unique_ptr<rtrec::RecommendationService> service_;
  std::unique_ptr<rtrec::Tracer> tracer_;
  std::unique_ptr<rtrec::obs::SpanCollector> spans_;
  std::unique_ptr<rtrec::RecServer> server_;
  rtrec::Status start_status_;
};

/// What one client connection saw in the closed loop.
struct ConnectionLog {
  std::vector<std::pair<double, double>> recommends;  // (done_s, µs)
  std::vector<double> observe_done_s;
  std::vector<double> observe_us;
  std::map<rtrec::UserId, std::vector<rtrec::VideoId>> acked;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
};

struct LoopStats {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t observes_acked = 0;
  double cpu_s = 0.0;
  double throughput_per_s = 0.0;  // Median over 1-s intervals.
  std::vector<double> recommend_us;
  double recommend_p99_us = 0.0;  // Median over 1-s intervals.
  std::vector<double> observe_us;
  std::map<rtrec::UserId, std::vector<rtrec::VideoId>> acked;
};

void RunConnection(ServeStack* stack, int index, std::uint64_t seed,
                   bool mixed, double seconds, Clock::time_point start,
                   ConnectionLog* log) {
  rtrec::RecClient::Options options;
  options.port = stack->port();
  options.max_retries = 0;
  rtrec::RecClient client(options);
  rtrec::Status connected = client.Connect();
  if (!connected.ok()) {
    log->errors.push_back("connect: " + connected.ToString());
    return;
  }
  const std::vector<rtrec::UserAction>& pool = stack->pool();
  const std::size_t num_videos = stack->world().catalog().size();
  rtrec::Rng rng(seed * 1000003u + static_cast<std::uint64_t>(index));
  do {
    for (int r = 0; r < kRound; ++r) {
      const rtrec::UserAction& action = pool[rng.NextUint64(pool.size())];
      const rtrec::RecRequest request = stack->Request(action);
      const Clock::time_point t0 = Clock::now();
      rtrec::StatusOr<rtrec::RecommendReply> reply =
          client.RecommendDetailed(request);
      const Clock::time_point t1 = Clock::now();
      ++log->attempted;
      if (!reply.ok() || reply->degraded()) {
        ++log->failed;
        if (log->errors.size() < 5) {
          log->errors.push_back(reply.ok() ? "degraded reply"
                                           : reply.status().ToString());
        }
      } else {
        log->recommends.emplace_back(
            Seconds(start, t1),
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        const std::string error = CheckPage(reply->videos, kTopN, num_videos,
                                            request.seed_videos, 3);
        if (!error.empty() && log->errors.size() < 5) {
          log->errors.push_back(error);
        }
      }
      if (!mixed) continue;
      const Clock::time_point t2 = Clock::now();
      rtrec::Status observed = client.Observe(action);
      const Clock::time_point t3 = Clock::now();
      ++log->attempted;
      if (!observed.ok()) {
        ++log->failed;
        if (log->errors.size() < 5) log->errors.push_back(observed.ToString());
        continue;
      }
      log->observe_done_s.push_back(Seconds(start, t3));
      log->observe_us.push_back(
          std::chrono::duration<double, std::micro>(t3 - t2).count());
      log->acked[action.user].push_back(action.video);
    }
  } while (Seconds(start, Clock::now()) < seconds);
  client.Disconnect();
}

/// The closed loop of kConnections clients; checks every reply and the
/// server's request count.
LoopStats RunLoop(ServeStack* stack, std::uint64_t seed, bool mixed,
                  double seconds, Result* result) {
  rtrec::Counter* server_requests =
      stack->registry().GetCounter("net.server.requests");
  const std::int64_t requests0 = server_requests->value();
  std::vector<ConnectionLog> logs(kConnections);
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(RunConnection, stack, c, seed, mixed, seconds, start,
                         &logs[c]);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = Seconds(start, Clock::now());
  LoopStats stats;
  stats.cpu_s = ProcessCpuSeconds() - cpu0;

  // Completions per whole 1-s interval; those after the last whole
  // second fall in a partial interval and are left out of the
  // per-interval figures (a loop shorter than 1 s counts as one).
  const std::size_t intervals =
      std::max<std::size_t>(1, static_cast<std::size_t>(elapsed));
  std::vector<double> per_interval(intervals, 0.0);
  std::vector<std::vector<double>> interval_latency(intervals);
  for (ConnectionLog& log : logs) {
    stats.attempted += log.attempted;
    stats.failed += log.failed;
    for (const std::string& e : log.errors) result->Check(e);
    for (const auto& [done_s, us] : log.recommends) {
      stats.recommend_us.push_back(us);
      const auto i = static_cast<std::size_t>(done_s);
      if (i >= intervals) continue;
      per_interval[i] += 1.0;
      interval_latency[i].push_back(us);
    }
    for (double done_s : log.observe_done_s) {
      const auto i = static_cast<std::size_t>(done_s);
      if (i < intervals) per_interval[i] += 1.0;
    }
    stats.observe_us.insert(stats.observe_us.end(), log.observe_us.begin(),
                            log.observe_us.end());
    stats.observes_acked += static_cast<std::int64_t>(log.observe_us.size());
    for (auto& [user, videos] : log.acked) {
      std::vector<rtrec::VideoId>& all = stats.acked[user];
      all.insert(all.end(), videos.begin(), videos.end());
    }
  }
  std::vector<double> p99s;
  for (const std::vector<double>& l : interval_latency) {
    if (!l.empty()) p99s.push_back(Quantile(l, 0.99));
  }
  stats.throughput_per_s = Median(per_interval);
  stats.recommend_p99_us = Median(p99s);
  result->Check(CheckCount("net.server.requests delta", stats.attempted,
                           server_requests->value() - requests0));
  return stats;
}

/// The page the primary model (group engine, else the global one) gives
/// for `request`, and the engine that gave it.
rtrec::RecEngine* PrimaryPage(ServeStack* stack,
                              const rtrec::RecRequest& request,
                              std::vector<rtrec::ScoredVideo>* page,
                              Result* result) {
  rtrec::DemographicTrainer* trainer = stack->service().trainer();
  const rtrec::GroupId group = stack->service().grouper().GroupOf(request.user);
  rtrec::RecEngine* engine =
      group == rtrec::kGlobalGroup ? nullptr : trainer->GetEngine(group);
  if (engine != nullptr) {
    auto mf = engine->Recommend(request);
    if (!mf.ok()) {
      result->Check("group engine: " + mf.status().ToString());
      return nullptr;
    }
    if (!mf->empty()) {
      *page = std::move(mf).value();
      return engine;
    }
  }
  engine = &stack->global_engine();
  auto mf = engine->Recommend(request);
  if (!mf.ok()) {
    result->Check("global engine: " + mf.status().ToString());
    return nullptr;
  }
  *page = std::move(mf).value();
  return engine;
}

/// On a quiescent server: every MF score equals Eq. 2 recomputed from the
/// answering engine's FactorStore, and the served page starts with the
/// MF ranking the demographic blend keeps.
void CheckEq2Sample(ServeStack* stack, std::uint64_t seed, Result* result) {
  rtrec::RecClient::Options options;
  options.port = stack->port();
  options.max_retries = 0;
  rtrec::RecClient client(options);
  rtrec::Status connected = client.Connect();
  if (!connected.ok()) {
    result->Check("eq2 sample connect: " + connected.ToString());
    return;
  }
  const rtrec::DemographicFilter::Options filter;
  const std::size_t mf_slots =
      kTopN - static_cast<std::size_t>(
                  std::llround(filter.blend_ratio * static_cast<double>(kTopN)));
  rtrec::Rng rng(seed ^ 0xe92u);
  const std::size_t num_videos = stack->world().catalog().size();
  for (std::size_t i = 0; i < kEq2Sample; ++i) {
    const rtrec::UserAction& action =
        stack->pool()[rng.NextUint64(stack->pool().size())];
    const rtrec::RecRequest request =
        stack->Request(action);
    rtrec::StatusOr<std::vector<rtrec::ScoredVideo>> served =
        client.Recommend(request);
    ++result->attempted;
    if (!served.ok()) {
      ++result->failed;
      result->Check("eq2 sample: " + served.status().ToString());
      continue;
    }
    std::vector<rtrec::ScoredVideo> mf;
    rtrec::RecEngine* engine = PrimaryPage(stack, request, &mf, result);
    if (engine == nullptr) continue;
    result->Check(CheckPage(mf, kTopN, num_videos, request.seed_videos, 1));
    const double mean = engine->options().model.use_global_mean
                            ? engine->factors().GlobalMean()
                            : 0.0;
    result->Check(CheckEq2Page(mf, request.user, engine->factors(), mean));
    if (mf.size() < filter.min_primary_results) continue;
    const std::size_t prefix = std::min(mf.size(), mf_slots);
    bool same = served->size() >= prefix;
    for (std::size_t k = 0; same && k < prefix; ++k) {
      same = (*served)[k] == mf[k];
    }
    if (!same) {
      result->Check("served page of user " + std::to_string(request.user) +
                    " does not start with the MF ranking");
    }
  }
  client.Disconnect();
}

std::int64_t AlertTotal(rtrec::MetricsRegistry& registry) {
  std::int64_t total = 0;
  for (const char* name : kAlertCounters) {
    total += registry.GetCounter(name)->value();
  }
  return total;
}

}  // namespace

Result RunServe(const Args& args, bool mixed) {
  Result result;
  ServeStack stack;
  if (!stack.start_status().ok()) {
    result.Check("server start: " + stack.start_status().ToString());
    return result;
  }
  result.Add("setup_s", SinceProcessStart(), "s");

  std::vector<double> unused_latencies;
  const double recall =
      RecallAt10(stack.service(), stack.held_out(),
                 stack.world().catalog().size(), 3, &result, &unused_latencies);
  const double mean =
      stack.global_engine().options().model.use_global_mean
          ? stack.global_engine().factors().GlobalMean()
          : 0.0;
  result.Check(CheckAuc(HeldOutAuc(stack.global_engine().factors(), mean,
                                   stack.test(), args.seed),
                        kAucMargin));

  rtrec::Counter* actions = stack.registry().GetCounter("service.actions");
  const std::int64_t actions0 = actions->value();
  LoopStats loop = RunLoop(&stack, args.seed, mixed, args.seconds, &result);
  result.attempted += loop.attempted;
  result.failed += loop.failed;
  result.Check(CheckCount("service.actions delta (acknowledged observes)",
                          loop.observes_acked, actions->value() - actions0));
  if (mixed) {
    std::map<rtrec::UserId, std::vector<rtrec::HistoryEntry>> history;
    for (const auto& [user, videos] : loop.acked) {
      history[user] = stack.global_engine().history().Get(user);
    }
    result.Check(CheckAckedWrites(
        loop.acked, history, stack.global_engine().options().history_per_user));
  }
  CheckEq2Sample(&stack, args.seed, &result);

  const double completed =
      static_cast<double>(loop.recommend_us.size() + loop.observe_us.size());
  result.Add("rss_peak_mb", PeakRssMb(), "MB");
  result.Add("throughput_per_s", loop.throughput_per_s, "1/s");
  result.Add("cpu_us_per_op", loop.cpu_s * 1e6 / completed, "us");
  result.Add("recommend_p50_us", Quantile(loop.recommend_us, 0.5), "us");
  result.Add("recommend_p99_us", loop.recommend_p99_us, "us");
  result.Add("recall_at_10", recall, "ratio");
  return result;
}

void ReadPathProbes(rtrec::RecEngine& engine,
                    const std::vector<rtrec::RecRequest>& requests,
                    Result* result) {
  const rtrec::RecommendConfig& config = engine.recommender().config();
  std::vector<double> recommend_us;
  double predict_ns = 0.0, query_ns = 0.0, multiget_ns = 0.0;
  std::int64_t predicts = 0, queries = 0, multigets = 0, keys = 0;
  for (const rtrec::RecRequest& request : requests) {
    const Clock::time_point t0 = Clock::now();
    auto page = engine.Recommend(request);
    recommend_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (!page.ok()) result->Check("probe recommend: " + page.status().ToString());

    std::vector<rtrec::VideoId> seeds = request.seed_videos;
    if (seeds.empty()) {
      for (const rtrec::HistoryEntry& e :
           engine.history().GetRecent(request.user, config.max_seed_videos)) {
        seeds.push_back(e.video);
      }
    }
    std::vector<rtrec::VideoId> candidates;
    std::unordered_set<rtrec::VideoId> seen;
    for (rtrec::VideoId seed : seeds) {
      const Clock::time_point q0 = Clock::now();
      std::vector<rtrec::SimilarVideo> similar = engine.sim_table().Query(
          seed, request.now, config.candidates_per_seed);
      query_ns +=
          std::chrono::duration<double, std::nano>(Clock::now() - q0).count();
      ++queries;
      for (const rtrec::SimilarVideo& s : similar) {
        if (seen.insert(s.video).second) candidates.push_back(s.video);
      }
    }
    if (candidates.size() > config.max_candidates) {
      candidates.resize(config.max_candidates);
    }
    if (candidates.empty()) continue;
    const Clock::time_point m0 = Clock::now();
    std::vector<rtrec::FactorStore::VideoBatchEntry> batch =
        engine.factors().GetVideos(candidates);
    multiget_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - m0).count();
    ++multigets;
    keys += static_cast<std::int64_t>(batch.size());
    const Clock::time_point p0 = Clock::now();
    double sink = 0.0;
    for (rtrec::VideoId v : candidates) {
      sink += engine.model().Predict(request.user, v);
    }
    predict_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - p0).count();
    predicts += static_cast<std::int64_t>(candidates.size());
    if (!std::isfinite(sink)) result->Check("non-finite prediction");
  }
  auto per = [](double total, std::int64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  result->Add("core.recommend_p50_us", Median(recommend_us), "us");
  result->Add("core.predict_ns", per(predict_ns, predicts), "ns");
  result->Add("kvstore.sim_query_ns", per(query_ns, queries), "ns");
  result->Add("kvstore.multiget_ns", per(multiget_ns, multigets), "ns");
  result->Add("kvstore.multiget_keys_per_call",
              per(static_cast<double>(keys), multigets), "count");
}

void ServeLayers(const Args& args, bool mixed, Result* result) {
  ServeStack stack;
  if (!stack.start_status().ok()) {
    result->Check("server start: " + stack.start_status().ToString());
    return;
  }
  rtrec::MetricsRegistry& registry = stack.registry();
  rtrec::Histogram* server_recommend =
      registry.GetHistogram(kServerRecommendHistogram);
  server_recommend->Reset();
  rtrec::Counter* hits = registry.GetCounter("service.factor_cache.hits");
  rtrec::Counter* misses = registry.GetCounter("service.factor_cache.misses");
  const std::int64_t hits0 = hits->value(), misses0 = misses->value();
  const std::int64_t alerts0 = AlertTotal(registry);
  LoopStats loop = RunLoop(&stack, args.seed, mixed, args.seconds, result);
  result->attempted += loop.attempted;
  result->failed += loop.failed;
  const double client_p50 = Quantile(loop.recommend_us, 0.5);
  const double server_p50 = server_recommend->Percentile(50);
  const double lookups =
      static_cast<double>(hits->value() - hits0 + misses->value() - misses0);
  result->Add("net.server_recommend_p50_us", server_p50, "us");
  result->Add("net.outside_server_p50_us", client_p50 - server_p50, "us");
  result->Add("kvstore.factor_cache_hit_ratio",
              lookups > 0 ? static_cast<double>(hits->value() - hits0) / lookups
                          : 0.0,
              "ratio");
  result->Add("quality.alerts_fired",
              static_cast<double>(AlertTotal(registry) - alerts0), "count");

  // In-process, on the quiet server: the same request mix, timed at the
  // service, at the demographic trainer (group engine, else global) and
  // at the global engine's read path.
  rtrec::Rng rng(args.seed ^ 0x9b0eu);
  std::vector<rtrec::RecRequest> requests;
  std::vector<rtrec::UserAction> observes;
  for (std::size_t i = 0; i < kProbeRequests; ++i) {
    const rtrec::UserAction& a = stack.pool()[rng.NextUint64(stack.pool().size())];
    requests.push_back(stack.Request(a));
    observes.push_back(a);
  }
  // The two calls alternate which goes first, so neither always finds
  // the factor cache warmed by the other.
  std::vector<double> service_us, overhead_us;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    double service = 0.0, primary = 0.0;
    for (int k = 0; k < 2; ++k) {
      const bool service_call = (k == 0) == (i % 2 == 0);
      const Clock::time_point t0 = Clock::now();
      const bool ok =
          service_call
              ? stack.service().Recommend(requests[i]).ok()
              : stack.service().trainer()->Recommend(requests[i]).ok();
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      if (!ok) result->Check("probe: service or trainer recommend failed");
      (service_call ? service : primary) = us;
    }
    service_us.push_back(service);
    overhead_us.push_back(service - primary);
  }
  result->Add("service.recommend_p50_us", Median(service_us), "us");
  result->Add("demographic.overhead_p50_us", Median(overhead_us), "us");
  ReadPathProbes(stack.global_engine(), requests, result);
  std::vector<double> observe_us;
  for (const rtrec::UserAction& a : observes) {
    const Clock::time_point t0 = Clock::now();
    stack.service().Observe(a);
    observe_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  result->Add("service.observe_p50_us", Median(observe_us), "us");
}

void MicroProbes(Result* result) {
  constexpr int kAdds = 2'000'000;
  {
    rtrec::Histogram histogram;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kAdds; ++i) histogram.Add(i & 1023);
    result->Add("common.histogram_add_ns",
                std::chrono::duration<double, std::nano>(Clock::now() - t0)
                        .count() /
                    kAdds,
                "ns");
  }
  {
    rtrec::Histogram histogram;
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&histogram] {
        for (int i = 0; i < kAdds / 2; ++i) histogram.Add(i & 1023);
      });
    }
    for (std::thread& t : threads) t.join();
    // Per add on each thread: wall time over the adds one thread made.
    result->Add("common.histogram_add_2t_ns",
                std::chrono::duration<double, std::nano>(Clock::now() - t0)
                        .count() /
                    (kAdds / 2),
                "ns");
  }
  {
    constexpr int kRoundTrips = 200'000;
    rtrec::RecRequest request;
    request.user = 123456;
    request.now = 1'000'000;
    request.top_n = kTopN;
    request.seed_videos = {4242};
    std::vector<rtrec::ScoredVideo> page;
    for (std::size_t k = 0; k < kTopN; ++k) {
      page.push_back({static_cast<rtrec::VideoId>(k + 1), 1.0 / (k + 1.0)});
    }
    std::size_t decoded = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kRoundTrips; ++i) {
      rtrec::FrameDecoder decoder;
      decoder.Append(rtrec::EncodeRecommendRequest(i, request));
      auto frame = decoder.Next();
      if (frame.ok() && rtrec::DecodeRecommendRequest(*frame).ok()) ++decoded;
      decoder.Append(rtrec::EncodeRecommendResponse(i, page));
      auto reply_frame = decoder.Next();
      if (reply_frame.ok()) {
        auto reply = rtrec::DecodeRecommendReply(*reply_frame);
        if (reply.ok() && reply->videos.size() == page.size()) ++decoded;
      }
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    result->Check(CheckCount("codec round trips decoded", 2 * kRoundTrips,
                             static_cast<std::int64_t>(decoded)));
    result->Add("net.codec_ns", ns / kRoundTrips, "ns");
  }
}

}  // namespace perfbench
