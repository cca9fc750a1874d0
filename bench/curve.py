"""The paper's per-interest overhead term as a measured curve.

    python3 bench/curve.py

The paper bounds the extra work per interest by O(N_CS + N_H + N_FIB*N_SPT).
This runs fig9's 52-node graph with one 150-simulated-second point per
strategy (fib-probe, random) and `fib_capacity` (64, 256, 1024, 4096,
unbounded), with 2000 names per producer so that the FIB can fill, 30
interests/s per consumer and unlimited links so that the run stays cheap.
For each point it prints the mean FIB size that `select_probe` saw and its
host CPU time per call. It is a reference curve, not a benchmark workload.
"""

from __future__ import annotations

import sys

from harness import ProgramMissing, import_program
from layers import clock

SECONDS = 150   # simulated seconds per point
SEED = 1
CAPACITIES = ("64", "256", "1024", "4096", "none")
STRATEGIES = ("fib-probe", "random")


def measure(modules, strategy: str, capacity: str):
    """(select_probe calls, mean FIB size at call, CPU seconds per call)."""
    cli = modules.cli
    config = cli.parse_config("fig9.cfg")
    cli.apply_overrides(config, [
        f"probe_strategy={strategy}", f"fib_capacity={capacity}",
        f"sim_duration={SECONDS}", f"rng_seed={SEED}", "interest_frequency=30",
        "contents_per_producer=2000", "link_bandwidth=unlimited"])
    scenario = cli.build_scenario(config)

    router_cls = modules.node.RouterState
    select_probe = router_cls.__dict__["select_probe"]
    calls = fib_sum = 0
    spent = 0.0

    def timed(self, *args, **kwargs):
        nonlocal calls, fib_sum, spent
        calls += 1
        fib_sum += len(self.fib)
        t0 = clock()
        result = select_probe(self, *args, **kwargs)
        spent += clock() - t0
        return result

    router_cls.select_probe = timed
    try:
        modules.engine.run(scenario)
    finally:
        router_cls.select_probe = select_probe
    return calls, fib_sum / calls, spent / calls


def main() -> int:
    try:
        modules = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("| strategy | fib_capacity | select_probe calls | mean FIB size "
          "| us per call |")
    print("| --- | --- | --- | --- | --- |")
    for strategy in STRATEGIES:
        for capacity in CAPACITIES:
            calls, fib_mean, per_call = measure(modules, strategy, capacity)
            print(f"| {strategy} | {capacity} | {calls} | {fib_mean:.0f} "
                  f"| {per_call * 1e6:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
