#!/usr/bin/env python3
"""Warn-only diff between two bench ledgers (rtrec-bench/1 schema).

    scripts/bench_diff.py BASELINE.json FRESH.json [--threshold=0.20]

Compares serve QPS, client p99, ingest actions/sec, and per-stage
queue-wait percentiles of a fresh (usually --smoke) ledger against a
committed baseline. Regressions beyond the threshold print GitHub
`::warning::` annotations; the exit code is always 0 — CI bench
hardware is too noisy for a hard gate, so this is an operator signal,
not a merge blocker. Recall is also checked (it is deterministic, so a
drift there is a real behaviour change, but smoke and full ledgers use
different workload sizes — recall is only compared when both ledgers
ran the same mode, per the ledger's `smoke` flag). Queue-wait diffs
additionally require the regression to clear an absolute floor
(QUEUE_WAIT_FLOOR_US) so sub-50µs scheduler jitter never warns.
Ledgers missing the ingest section (pre-PR6 baselines) skip those rows;
likewise the cluster section (pre-PR7, or runs without the drill) —
when both ledgers carry it, steady cluster QPS, failover latency, and
recovery time are compared (the latencies carry their own absolute
floors, since tens of milliseconds ride on scheduler noise). The
transport section (PR8+) diffs per-leg QPS for every wire-bound drill
leg plus the v2/shm speedup ratios; the ratios are the load-bearing
numbers — absolute leg QPS depends on host CPU count, but a speedup
ratio collapsing toward 1.0 means pipelining or the shm rings
regressed regardless of hardware. The workload section (PR9+) diffs
quantized bytes-per-entry (any change warns — packed layout is a format
fact, not noise), the fp16/int8 recall deltas (same-mode only, like
recall), stream throughput, peak RSS, and whether the planted
demographic drift still trips the quality watchdog. The tracing
section (PR10+) diffs traced QPS and warns if any of the structural
facts collapse — wire adoption, finished span trees, tail captures, or
export validity are booleans/counts that a healthy run never zeroes;
likewise the cluster drill's stitched multi-shard trace.
"""

import json
import sys

# Queue-wait regressions below this absolute delta are scheduler noise,
# not a pipeline change, regardless of the relative threshold.
QUEUE_WAIT_FLOOR_US = 50.0

# The Fig. 2 stages whose queue_wait percentiles the ingest phase
# reports.
STAGES = ("compute_mf", "mf_storage", "user_history", "item_pair_sim",
          "result_storage")


def diff_ingest(baseline, fresh, threshold, paths):
    """Ingest throughput + per-stage queue-wait rows; tolerates ledgers
    that predate the ingest e2e accounting."""
    base_ingest = baseline.get("ingest") or {}
    fresh_ingest = fresh.get("ingest") or {}
    base_aps = base_ingest.get("actions_per_sec")
    fresh_aps = fresh_ingest.get("actions_per_sec")
    if not base_aps or not fresh_aps:
        print("bench_diff: ingest section missing from one ledger; "
              "skipping ingest diff")
        return
    print(f"ingest a/s: {base_aps:12.1f} -> {fresh_aps:12.1f} "
          f"({(fresh_aps / base_aps - 1) * 100:+.1f}%)")
    if fresh_aps < base_aps * (1 - threshold):
        print(f"::warning::ingest actions/sec regressed more than "
              f"{threshold:.0%}: {base_aps:.0f} -> {fresh_aps:.0f} "
              f"({paths[0]} vs {paths[1]})")

    base_stages = base_ingest.get("stages") or {}
    fresh_stages = fresh_ingest.get("stages") or {}
    for stage in STAGES:
        for pct in ("p50_us", "p95_us"):
            b = (base_stages.get(stage) or {}).get("queue_wait", {}).get(pct)
            f = (fresh_stages.get(stage) or {}).get("queue_wait", {}).get(pct)
            if b is None or f is None:
                continue
            print(f"queue_wait {stage:>16} {pct}: {b:10.1f}us -> "
                  f"{f:10.1f}us")
            if f > b * (1 + threshold) and f - b > QUEUE_WAIT_FLOOR_US:
                print(f"::warning::{stage} queue_wait {pct} regressed "
                      f"more than {threshold:.0%}: {b:.0f}us -> {f:.0f}us "
                      f"({paths[0]} vs {paths[1]})")


def diff_cluster(baseline, fresh, threshold, paths):
    """Cluster drill rows: aggregate QPS, failover latency, recovery
    time. Ledgers that never ran the drill (pre-PR7, or --no-cluster)
    skip the section."""
    base_cluster = baseline.get("cluster") or {}
    fresh_cluster = fresh.get("cluster") or {}
    base_qps = (base_cluster.get("steady") or {}).get("qps")
    fresh_qps = (fresh_cluster.get("steady") or {}).get("qps")
    if not base_qps or not fresh_qps:
        print("bench_diff: cluster section missing from one ledger; "
              "skipping cluster diff")
        return
    print(f"cluster qps: {base_qps:11.1f} -> {fresh_qps:11.1f} "
          f"({(fresh_qps / base_qps - 1) * 100:+.1f}%)")
    if fresh_qps < base_qps * (1 - threshold):
        print(f"::warning::cluster steady QPS regressed more than "
              f"{threshold:.0%}: {base_qps:.0f} -> {fresh_qps:.0f} "
              f"({paths[0]} vs {paths[1]})")
    for key, floor_ms in (("failover_latency_ms", 50.0),
                          ("recovery_ms", 250.0)):
        b, f = base_cluster.get(key), fresh_cluster.get(key)
        if b is None or f is None:
            continue
        print(f"cluster {key}: {b:8.1f}ms -> {f:8.1f}ms")
        # Latencies this small ride on scheduler noise; warn only past
        # both the relative threshold and an absolute floor.
        if f > b * (1 + threshold) and f - b > floor_ms:
            print(f"::warning::cluster {key} regressed more than "
                  f"{threshold:.0%}: {b:.0f}ms -> {f:.0f}ms "
                  f"({paths[0]} vs {paths[1]})")
    # The stitched multi-shard trace (PR10+) is a boolean contract, not
    # a timing: the kill-9 failover must surface on the fallback shard's
    # /traces with the hop marker whenever the drill ran.
    stitched = fresh_cluster.get("stitched_trace") or {}
    if stitched:
        found = stitched.get("found_on_fallback_shard")
        hop = stitched.get("failover_hop_recorded")
        print(f"cluster stitched trace: found={found} hop1={hop}")
        if not found or not hop:
            print(f"::warning::the kill-9 drill no longer yields a "
                  f"stitched multi-shard trace with hop=1 ({paths[1]})")


def diff_transport(baseline, fresh, threshold, paths):
    """Wire-bound drill rows: per-leg QPS plus the speedup ratios.
    Ledgers that predate the transport phase (pre-PR8) skip the
    section."""
    base_transport = baseline.get("transport") or {}
    fresh_transport = fresh.get("transport") or {}
    if not base_transport or not fresh_transport:
        print("bench_diff: transport section missing from one ledger; "
              "skipping transport diff")
        return
    for leg in ("tcp_v1", "tcp_v2_pipelined", "tcp_v2_batched",
                "shm_v2_pipelined", "shm_ping"):
        b = (base_transport.get(leg) or {}).get("qps")
        f = (fresh_transport.get(leg) or {}).get("qps")
        if not b or not f:
            continue
        print(f"transport {leg:>17} qps: {b:12.1f} -> {f:12.1f} "
              f"({(f / b - 1) * 100:+.1f}%)")
        if f < b * (1 - threshold):
            print(f"::warning::transport {leg} QPS regressed more than "
                  f"{threshold:.0%}: {b:.0f} -> {f:.0f} "
                  f"({paths[0]} vs {paths[1]})")
    # The ratios are host-independent: pipelining vs lock-step on the
    # SAME box. A collapse here is a transport regression even if
    # absolute QPS moved for hardware reasons.
    for key in ("v2_pipelined_speedup_vs_v1", "v2_batched_speedup_vs_v1",
                "shm_speedup_vs_v1"):
        b, f = base_transport.get(key), fresh_transport.get(key)
        if b is None or f is None:
            continue
        print(f"transport {key}: {b:6.2f}x -> {f:6.2f}x")
        if f < b * (1 - threshold):
            print(f"::warning::transport {key} collapsed more than "
                  f"{threshold:.0%}: {b:.2f}x -> {f:.2f}x "
                  f"({paths[0]} vs {paths[1]})")
        if f is not None and f <= 1.0:
            print(f"::warning::transport {key} is {f:.2f}x — pipelining "
                  f"no longer beats the v1 lock-step baseline "
                  f"({paths[1]})")


def diff_tracing(baseline, fresh, threshold, paths):
    """Tracing rows (PR10+): traced QPS uses the relative threshold;
    the structural facts (adoption, finished traces, tail captures,
    export validity) warn whenever the fresh ledger zeroes one —
    a healthy run always records them, whatever the hardware."""
    base_tracing = baseline.get("tracing") or {}
    fresh_tracing = fresh.get("tracing") or {}
    if not fresh_tracing:
        print("bench_diff: tracing section missing from the fresh ledger; "
              "skipping tracing diff")
        return
    b = base_tracing.get("qps_traced")
    f = fresh_tracing.get("qps_traced")
    if b and f:
        print(f"tracing qps: {b:12.1f} -> {f:12.1f} "
              f"({(f / b - 1) * 100:+.1f}%)")
        if f < b * (1 - threshold):
            print(f"::warning::traced QPS regressed more than "
                  f"{threshold:.0%}: {b:.0f} -> {f:.0f} "
                  f"({paths[0]} vs {paths[1]})")
    for key in ("adopted", "traces_finished", "slow_captured",
                "spans_recorded"):
        value = fresh_tracing.get(key)
        if value is None:
            continue
        print(f"tracing {key}: {value}")
        if value <= 0:
            print(f"::warning::tracing {key} is zero — the tracing "
                  f"subsystem recorded nothing for it ({paths[1]})")
    if not fresh_tracing.get("propagation_negotiated", True):
        print(f"::warning::trace propagation no longer negotiated on "
              f"connect ({paths[1]})")
    export = fresh_tracing.get("export") or {}
    if export and not export.get("valid", True):
        print(f"::warning::trace export is no longer valid Chrome "
              f"trace-event JSON ({paths[1]})")


def diff_workload(baseline, fresh, threshold, paths):
    """Workload rows (PR9+): quantized bytes-per-entry, the fp16/int8
    recall deltas, stream throughput, and RSS. Bytes-per-entry and the
    recall deltas are deterministic layout/algorithm facts, so they get
    drift warnings at tight absolute floors; throughput and RSS are
    hardware-bound and use the relative threshold."""
    base_workload = baseline.get("workload") or {}
    fresh_workload = fresh.get("workload") or {}
    if not base_workload or not fresh_workload:
        print("bench_diff: workload section missing from one ledger; "
              "skipping workload diff")
        return
    base_mem = base_workload.get("memory") or {}
    fresh_mem = fresh_workload.get("memory") or {}
    for precision in ("float32", "float16", "int8"):
        b = (base_mem.get(precision) or {}).get("bytes_per_entry")
        f = (fresh_mem.get(precision) or {}).get("bytes_per_entry")
        if b is None or f is None:
            continue
        print(f"workload {precision:>7} bytes/entry: {b:6.0f} -> {f:6.0f}")
        if f != b:
            print(f"::warning::{precision} bytes_per_entry changed: "
                  f"{b:.0f} -> {f:.0f} — packed layout drift is a "
                  f"deliberate format change or a bug, never noise "
                  f"({paths[0]} vs {paths[1]})")
    b = (base_mem.get("float16") or {}).get("reduction_vs_float32")
    f = (fresh_mem.get("float16") or {}).get("reduction_vs_float32")
    if b is not None and f is not None:
        print(f"workload fp16 reduction: {b:.1%} -> {f:.1%}")
        if f < 0.40:
            print(f"::warning::fp16 reduction fell below the 40% floor: "
                  f"{f:.1%} ({paths[1]})")

    base_million = base_workload.get("million_scale") or {}
    fresh_million = fresh_workload.get("million_scale") or {}
    b = base_million.get("actions_per_sec")
    f = fresh_million.get("actions_per_sec")
    if b and f:
        print(f"workload stream a/s: {b:12.1f} -> {f:12.1f} "
              f"({(f / b - 1) * 100:+.1f}%)")
        if f < b * (1 - threshold):
            print(f"::warning::workload stream throughput regressed more "
                  f"than {threshold:.0%}: {b:.0f} -> {f:.0f} "
                  f"({paths[0]} vs {paths[1]})")
    b = base_million.get("rss_peak_mb")
    f = fresh_million.get("rss_peak_mb")
    if b and f:
        print(f"workload rss peak: {b:8.1f}MB -> {f:8.1f}MB "
              f"({(f / b - 1) * 100:+.1f}%)")
        if f > b * (1 + threshold) and f - b > 64.0:
            print(f"::warning::workload peak RSS regressed more than "
                  f"{threshold:.0%}: {b:.0f}MB -> {f:.0f}MB "
                  f"({paths[0]} vs {paths[1]})")
    for key in ("tripped",):
        b = (base_million.get("drift") or {}).get(key)
        f = (fresh_million.get("drift") or {}).get(key)
        if b is None or f is None:
            continue
        print(f"workload drift tripped: {b} -> {f}")
        if b and not f:
            print(f"::warning::the planted demographic drift no longer "
                  f"trips the quality watchdog ({paths[1]})")

    # Recall deltas are same-seed deterministic within a mode, like the
    # offline recall rows — compare only across same-mode ledgers.
    if baseline.get("smoke") == fresh.get("smoke"):
        base_guard = base_workload.get("recall_guardrail") or {}
        fresh_guard = fresh_workload.get("recall_guardrail") or {}
        for key in ("fp16_rel_delta", "int8_rel_delta"):
            b, f = base_guard.get(key), fresh_guard.get(key)
            if b is None or f is None:
                continue
            print(f"workload {key}: {b:.6f} -> {f:.6f}")
            if abs(b - f) > 0.001:
                print(f"::warning::{key} drifted: {b:.6f} -> {f:.6f} — "
                      f"quantized recall is deterministic, this is a "
                      f"behaviour change, not noise")
        f = fresh_guard.get("fp16_rel_delta")
        if f is not None and f >= 0.01:
            print(f"::warning::fp16 recall@10 delta {f:.4f} breaches the "
                  f"1% guardrail ({paths[1]})")


def load(path):
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, ValueError) as e:
        print(f"::warning::bench_diff: cannot read {path}: {e}")
        return None
    if ledger.get("schema") != "rtrec-bench/1":
        print(f"::warning::bench_diff: {path} has unexpected schema "
              f"{ledger.get('schema')!r}")
        return None
    return ledger


def main(argv):
    threshold = 0.20
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print("usage: bench_diff.py BASELINE.json FRESH.json "
              "[--threshold=0.20]")
        return 0  # Warn-only by contract.
    baseline, fresh = load(paths[0]), load(paths[1])
    if baseline is None or fresh is None:
        return 0

    base_qps = baseline["serve"]["qps"]
    fresh_qps = fresh["serve"]["qps"]
    base_p99 = baseline["serve"]["client_latency"]["p99_us"]
    fresh_p99 = fresh["serve"]["client_latency"]["p99_us"]

    print(f"serve qps : {base_qps:12.1f} -> {fresh_qps:12.1f} "
          f"({(fresh_qps / base_qps - 1) * 100:+.1f}%)")
    print(f"client p99: {base_p99:10.1f}us -> {fresh_p99:10.1f}us "
          f"({(fresh_p99 / base_p99 - 1) * 100:+.1f}%)")

    if fresh_qps < base_qps * (1 - threshold):
        print(f"::warning::serve QPS regressed more than "
              f"{threshold:.0%}: {base_qps:.0f} -> {fresh_qps:.0f} "
              f"({paths[0]} vs {paths[1]})")
    if fresh_p99 > base_p99 * (1 + threshold):
        print(f"::warning::serve p99 regressed more than "
              f"{threshold:.0%}: {base_p99:.0f}us -> {fresh_p99:.0f}us "
              f"({paths[0]} vs {paths[1]})")

    diff_ingest(baseline, fresh, threshold, paths)
    diff_tracing(baseline, fresh, threshold, paths)
    diff_transport(baseline, fresh, threshold, paths)
    diff_cluster(baseline, fresh, threshold, paths)
    diff_workload(baseline, fresh, threshold, paths)

    if baseline.get("smoke") == fresh.get("smoke"):
        for k in ("recall_at_1", "recall_at_5", "recall_at_10"):
            b, f = baseline["recall"][k], fresh["recall"][k]
            if abs(b - f) > 0.001:
                print(f"::warning::{k} drifted: {b:.6f} -> {f:.6f} — "
                      f"recall is deterministic, this is a behaviour "
                      f"change, not noise")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
