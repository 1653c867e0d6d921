// Full streaming deployment (Fig. 2): runs the paper's Storm topology on
// the bundled stream engine — spout → {ComputeMF → MFStorage},
// {UserHistory + GetItemPairs → ItemPairSim → ResultStorage} — while a
// serving thread answers recommendation requests against the same KV
// stores the bolts are writing.
//
//   $ ./streaming_service

#include <atomic>
#include <cstdio>
#include <thread>

#include "core/recommender.h"
#include "core/topology_factory.h"
#include "data/event_generator.h"
#include "eval/experiment_runner.h"
#include "stream/topology.h"

using namespace rtrec;

int main() {
  const SyntheticWorld world(SmallWorldConfig(55));

  // The shared KV stores of Fig. 2.
  FactorStore::Options factor_options;
  MfModelConfig model_config;
  factor_options.num_factors = model_config.num_factors;
  factor_options.init_scale = model_config.init_scale;
  factor_options.seed = model_config.seed;
  FactorStore factors(factor_options);
  HistoryStore history;
  SimTableStore sim_table;

  // Three days of raw site traffic replayed through the topology.
  auto source = std::make_shared<VectorActionSource>(world.GenerateDays(0, 3));
  std::printf("replaying %zu actions through the Fig. 2 topology...\n",
              source->size());

  PipelineDeps deps;
  deps.factors = &factors;
  deps.history = &history;
  deps.sim_table = &sim_table;
  deps.type_resolver = world.TypeResolver();
  deps.model_config = model_config;

  PipelineParallelism parallelism;
  parallelism.spout = 2;
  parallelism.compute_mf = 4;
  parallelism.mf_storage = 4;
  parallelism.user_history = 2;
  parallelism.item_pair_sim = 4;
  parallelism.result_storage = 2;

  auto spec = BuildRecommendationTopology(source, deps, parallelism);
  if (!spec.ok()) {
    std::fprintf(stderr, "topology build failed: %s\n",
                 spec.status().ToString().c_str());
    return 1;
  }
  auto topology = stream::Topology::Create(std::move(spec).value());
  if (!topology.ok()) {
    std::fprintf(stderr, "topology create failed: %s\n",
                 topology.status().ToString().c_str());
    return 1;
  }

  // Serving path runs concurrently with ingestion — recommendations are
  // generated per request, not precomputed (Section 4.1).
  OnlineMf model(&factors, model_config);
  MfRecommender recommender(&model, &history, &sim_table, nullptr,
                            RecommendConfig{});

  std::atomic<bool> stop_serving{false};
  std::atomic<std::uint64_t> requests{0};
  std::thread server([&] {
    Rng rng(9);
    while (!stop_serving.load(std::memory_order_acquire)) {
      RecRequest request;
      request.user = 1 + rng.NextUint64(world.population().size());
      request.now = 3 * kMillisPerDay;
      request.top_n = 10;
      if (recommender.Recommend(request).ok()) {
        requests.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  (void)(*topology)->Start();
  (void)(*topology)->Join();
  stop_serving.store(true, std::memory_order_release);
  server.join();

  std::printf("\ningestion finished; %llu concurrent requests served\n",
              static_cast<unsigned long long>(requests.load()));
  std::printf("serving latency (us): %s\n",
              recommender.latency().ToString().c_str());
  std::printf("\nper-component metrics:\n%s",
              (*topology)->metrics().Report().c_str());
  std::printf("\nstores: %zu user vectors, %zu video vectors, "
              "%zu histories, %zu similar-video lists\n",
              factors.NumUsers(), factors.NumVideos(), history.NumUsers(),
              sim_table.NumVideos());
  return 0;
}
