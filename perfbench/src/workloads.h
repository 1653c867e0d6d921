// The three workloads and the per-layer probes of the traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"
#include "core/engine.h"

namespace perfbench {

/// `ingest`: day 0 of the world through the Fig. 2 topology, in whole
/// rounds into fresh stores, then recall@10 / AUC / history / entry
/// checks against day 1 and the input stream.
Result RunIngest(const Args& args);

/// `serve_read` (mixed = false) and `serve_mixed` (mixed = true): a
/// closed loop of 2 RecClient connections against a 2-worker RecServer
/// fronting a RecommendationService warmed on day 0.
Result RunServe(const Args& args, bool mixed);

/// Per-layer probes (traced run). Each appends its metrics to `result`.
/// Ingest layers: topology counters, the serial RecEngine::Observe
/// baseline and a layer-by-layer replay of the same stream.
void IngestLayers(Result* result);
/// Serve layers: a short closed loop in the given mode plus in-process
/// timing of service, demographic, core and kvstore calls.
void ServeLayers(const Args& args, bool mixed, Result* result);

/// Read-path probes over one engine's stores, timed from outside:
/// core.recommend_p50_us, core.predict_ns, kvstore.sim_query_ns,
/// kvstore.multiget_ns and kvstore.multiget_keys_per_call.
void ReadPathProbes(rtrec::RecEngine& engine,
                    const std::vector<rtrec::RecRequest>& requests,
                    Result* result);

/// Microbenchmarks: common.histogram_add_ns (1 and 2 threads) and
/// net.codec_ns.
void MicroProbes(Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
