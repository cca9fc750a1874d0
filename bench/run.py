"""Benchmark of the `ccnprobe sweep` path.

    python3 bench/run.py --workload probe-scan --seed 1 --seconds 20 --trace 0

Runs the workload's sweep in rounds, in this process, until `--seconds`
have passed (and at least twice, so every run checks that a rerun gives
byte-identical output). An operation is one simulation point; it fails if
the sweep raises or any check on its output fails.

With `--trace 0` it prints the end-to-end metrics: `wall_s`, `setup_s`,
`events_per_s` (medians over rounds) and `peak_rss_mib` (the peak
resident memory the rounds add to the process). With `--trace 1`
it alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones, with the tracing overhead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the same
object and the per-round figures are written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from time import perf_counter

from harness import OUT, WORKLOADS, ProgramMissing, import_program, run_round


def end_to_end(rounds, peak_rss_mib: float) -> dict:
    return {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "events_per_s": (statistics.median(r.tracer.counts["events"] / r.run_s
                                           for r in rounds), "events/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def max_rss_kib() -> int:
    """Peak resident memory of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced, untraced) -> dict:
    """Layer metrics of the traced rounds; times are medians over rounds."""
    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def total(key):
        return med(lambda r: r.tracer.stat(key).total)

    def self_s(key):
        return med(lambda r: r.tracer.stat(key).self)

    first = traced[0].tracer
    calls = {key: stat.calls for key, stat in first.stats.items()}
    counts = first.counts
    sends = calls["engine.link"]
    clones = calls["model.interest_clone"] + calls["model.data_clone"]
    return {
        "node.select_probe_s": (total("node.select_probe"), "s"),
        "node.select_probe_calls": (calls["node.select_probe"], "count"),
        "node.probe_attach_ratio": (ratio(counts["probes"],
                                          calls["node.select_probe"]), "ratio"),
        "node.fib_entries_mean": (ratio(counts["fib_entries_sum"],
                                        counts["fib_routers"]), "entries"),
        "node.fib_update_s": (total("node.fib_update"), "s"),
        "node.fib_update_calls": (calls["node.fib_update"], "count"),
        "node.replace_spt_s": (total("node.replace_spt"), "s"),
        "node.on_interest_self_s": (self_s("node.on_interest"), "s"),
        "node.on_interest_calls": (calls["node.on_interest"], "count"),
        "node.on_data_self_s": (self_s("node.on_data"), "s"),
        "node.on_data_calls": (calls["node.on_data"], "count"),
        "node.on_timeout_s": (total("node.on_timeout"), "s"),
        "node.on_timeout_calls": (calls["node.on_timeout"], "count"),
        "node.select_best_provider_s": (total("node.select_best_provider"), "s"),
        "node.fib_hit_ratio": (ratio(counts["fib_hits"],
                                     calls["node.select_best_provider"]), "ratio"),
        "engine.dispatch_self_s": (self_s("engine.run"), "s"),
        "engine.events_popped": (counts["events_popped"], "count"),
        "engine.stale_timeouts": (counts["stale_timeouts"], "count"),
        "engine.link_s": (total("engine.link"), "s"),
        "engine.link_sends": (sends, "count"),
        "engine.link_drops": (counts["link_drops"], "count"),
        "engine.issue_gen_s": (total("engine.issue_gen"), "s"),
        "engine.heap_initial": (counts["heap_initial"], "count"),
        "engine.churn_s": (total("engine.churn"), "s"),
        "engine.failure_s": (total("engine.failure"), "s"),
        "topology.spt_build_s": (total("topology.build_spt"), "s"),
        "topology.spt_builds": (calls["topology.build_spt"], "count"),
        "topology.load_s": (total("topology.load"), "s"),
        "model.clones": (clones, "count"),
        "model.clones_per_send": (ratio(clones, sends), "ratio"),
        "metrics.finalize_s": (total("metrics.finalize"), "s"),
        "cli.overhead_s": (med(lambda r: r.wall_s - r.setup_s - r.run_s), "s"),
        "trace.overhead_s": (med(lambda r: r.wall_s)
                             - statistics.median(r.wall_s for r in untraced), "s"),
    }


def deterministic_counts(rnd) -> dict:
    tracer = rnd.tracer
    return {**{k: s.calls for k, s in tracer.stats.items()}, **tracer.counts}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        modules = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out = OUT / workload.name
    rounds = []
    # The interpreter and its imports hold about 22 MiB before any round;
    # count only what the rounds add, so that the workload's own tables and
    # queued events are a material share of the figure.
    rss_before = max_rss_kib()
    start = perf_counter()
    while len(rounds) < 2 or perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append((traced, run_round(modules, workload, args.seed, out, traced)))
    peak_rss_mib = (max_rss_kib() - rss_before) / 1024.0

    untraced = [r for traced, r in rounds if not traced]
    traced = [r for is_traced, r in rounds if is_traced]
    problems = []
    digests = {r.digest for _, r in rounds}
    if len(digests) != 1 or None in digests:
        problems.append(f"sweep.csv differs between rounds of one seed: "
                        f"{sorted(map(str, digests))}")
    if any(r.extra_rows for _, r in rounds):
        problems.append("sweep.csv holds rows for points the workload never asked for")
    if traced and any(deterministic_counts(r) != deterministic_counts(traced[0])
                      for r in traced):
        problems.append("layer counts differ between traced rounds of one seed")
    failed = [line for _, r in rounds for line in r.failed]

    metrics = {}
    if not problems:
        metrics = (per_layer(traced, untraced) if args.trace
                   else end_to_end(untraced, peak_rss_mib))
    points = len(workload.points(args.seed))
    result = {
        "correct": not problems,
        "attempted": points * len(rounds),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    for line in sorted(set(failed))[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in problems:
        print(f"INCORRECT {line}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed}: {len(rounds)} rounds "
          f"({len(traced)} traced) of {points} points, {len(failed)} failed")
    print(f"sweep.csv sha256 {rounds[0][1].digest}, without scenario_hash "
          f"{rounds[0][1].rows_digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {unit}")
    record = {**result, "workload": workload.name, "seed": args.seed,
              "trace": args.trace, "sweep_csv_sha256": rounds[0][1].digest,
              "rows_sha256": rounds[0][1].rows_digest,
              "rounds": [{"traced": t, "wall_s": r.wall_s, "elapsed_s": r.elapsed_s, "setup_s": r.setup_s,
                          "run_s": r.run_s, "failed": r.failed}
                         for t, r in rounds]}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
