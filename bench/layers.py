"""Timing wrappers put around the program's functions from outside.

`Tracer` replaces a function on its module or class with a wrapper that
counts calls and accumulates total and self time (total minus the spans of
wrapped calls nested inside it), then runs an optional check hook. Hook time
is billed to no layer: each frame carries the time its wrapped children
spent in hooks, so every total excludes it, and `check_s()` returns it so
callers can take it out of wall time too. A child wrapper's bookkeeping
counts in its parent's total but not in its parent's self time.

All times are the thread's CPU time (`time.thread_time`): on a shared
virtual machine the wall clock also counts time the host gives to other
guests.

Untraced runs install only the three wrappers the end-to-end metrics need
(`Simulation.__init__`, `Simulation.run`, `Simulation._on_failure`), each
called a handful of times per point. Traced runs install all of them.
"""

from __future__ import annotations

from collections import Counter
from time import thread_time as clock

import checks


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Wrappers for one round of a sweep; `install()`, run, `uninstall()`."""

    def __init__(self, ccnprobe_modules, full: bool):
        self.m = ccnprobe_modules
        self.full = full
        self.stats: dict[str, Stat] = {}
        self.counts: Counter[str] = Counter()
        self.points: dict[str, list[str]] = {}   # scenario hash -> problems
        self.problems: list[str] = []            # of the point now running
        self.spt_snapshots: list[tuple[dict, dict]] = []
        self.point_timeout_events = 0
        self._stack = [[0.0, 0.0]]   # per frame: [child span s, child check s]
        self._patches = []

    def check_s(self) -> float:
        """Host seconds spent in check hooks so far, nested ones included."""
        return self._stack[0][1]

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    # -- wrapping --------------------------------------------------------------

    def wrap(self, owner, attr: str, key: str, hook=None) -> None:
        original = owner.__dict__[attr]
        stat = self.stat(key)
        stack = self._stack

        def wrapper(*args, **kwargs):
            w0 = clock()
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            span = t1 - t0
            stat.calls += 1
            stat.total += span - frame[1]
            stat.self += span - frame[0]
            checked = frame[1]
            if hook is not None:
                c0 = clock()
                hook(result, *args, **kwargs)
                checked += clock() - c0
            parent = stack[-1]
            parent[1] += checked
            parent[0] += clock() - w0
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        engine, node, topology, model, metrics = (
            self.m.engine, self.m.node, self.m.topology, self.m.model, self.m.metrics)
        sim = engine.Simulation
        self.wrap(sim, "__init__", "engine.setup", self._after_init)
        self.wrap(sim, "run", "engine.run", self._after_run)
        self.wrap(sim, "_on_failure", "engine.failure", self._after_failure)
        if not self.full:
            return
        router = node.RouterState
        self.wrap(router, "select_probe", "node.select_probe", self._after_select_probe)
        self.wrap(router, "fib_update", "node.fib_update", self._after_fib_update)
        self.wrap(router, "replace_spt", "node.replace_spt")
        self.wrap(router, "on_interest", "node.on_interest", self._after_on_interest)
        self.wrap(router, "on_data", "node.on_data")
        self.wrap(router, "on_timeout", "node.on_timeout")
        self.wrap(router, "select_best_provider", "node.select_best_provider",
                  self._after_select_best_provider)
        self.wrap(sim, "_on_timeout_event", "engine.timeout_event",
                  self._after_timeout_event)
        self.wrap(engine, "schedule_transmission", "engine.link",
                  self._after_schedule_transmission)
        self.wrap(engine, "generate_interest_events", "engine.issue_gen")
        self.wrap(engine, "inject_cache_churn", "engine.churn")
        self.wrap(engine, "load_topology", "topology.load")
        self.wrap(topology, "build_spt", "topology.build_spt")
        self.wrap(model.InterestPacket, "clone", "model.interest_clone")
        self.wrap(model.DataPacket, "clone", "model.data_clone")
        self.wrap(metrics.MetricsReport, "finalize", "metrics.finalize")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- hooks: engine ---------------------------------------------------------

    def _after_init(self, _result, sim, *args, **kwargs) -> None:
        self.counts["heap_initial"] += len(sim._heap)

    def _after_failure(self, _result, sim, _count) -> None:
        # Checked after the run: snapshot the surviving graph and the table
        # each survivor now holds (failures replace both, never mutate them).
        self.spt_snapshots.append(
            (sim.graph.adj, {rid: r.spt for rid, r in sim.routers.items()}))

    def _after_timeout_event(self, _result, *args) -> None:
        self.point_timeout_events += 1

    def _after_schedule_transmission(self, arrival, link, _wire_bytes, _now) -> None:
        if arrival is None:
            self.counts["link_drops"] += 1
            if link.bandwidth is None:
                self.problems.append("schedule_transmission dropped a packet "
                                     "on an unlimited link")

    def _after_run(self, report, sim) -> None:
        problems, self.problems = self.problems, []
        for adj, spts in self.spt_snapshots:
            problems.extend(checks.spt_problems(adj, spts))
        self.spt_snapshots = []

        ev_arrival = self.m.engine.EV_ARRIVAL
        queued = sum(1 for ev in sim._heap if ev[2] == ev_arrival)
        lossless = (not sim.scenario.failures
                    and all(link.bandwidth is None for link in sim.links.values()))
        problems.extend(checks.packet_problems(
            report.sent_interests, report.received_interests,
            report.sent_data, report.received_data,
            sim._inflight_drops, queued, lossless))
        self.counts["events"] += (report.issued_interests + report.received_interests
                                  + report.received_data + report.timeout_count)
        if self.full:
            self.counts["events_popped"] += next(sim._seq) - len(sim._heap)
            self.counts["stale_timeouts"] += (self.point_timeout_events
                                              - report.timeout_count)
            routers = sim.routers
            self.counts["fib_entries_sum"] += sum(len(r.fib) for r in routers.values())
            self.counts["fib_routers"] += len(routers)
            for rid, router in routers.items():
                problems.extend(checks.fib_problems(rid, router.fib,
                                                    sim.scenario.fib_capacity))
        self.point_timeout_events = 0
        self.points[self.m.cli.scenario_hash(sim.scenario)] = problems

    # -- hooks: node -----------------------------------------------------------

    def _after_select_probe(self, probe, router, _now, _rng, sending=None) -> None:
        if probe is None:
            return
        self.counts["probes"] += 1
        holds = probe in router.origin or probe in router.cs.entries
        self.problems.extend(checks.probe_problems(
            router.probe_strategy.value, sending, probe, holds))

    def _after_on_interest(self, _actions, router, interest, *args) -> None:
        if interest.probe is not None and router.probe_strategy.value == "basic-ccn":
            self.problems.append(f"basic-ccn interest carries probe {interest.probe}")

    def _after_fib_update(self, _result, router, name, _providers, _now) -> None:
        entry = router.fib.get(name)
        if entry is not None:
            self.problems.extend(checks.fib_entry_problems(router.id, name,
                                                           entry.providers))
        self.problems.extend(checks.fib_size_problems(router.id, len(router.fib),
                                                      router.fib_capacity))

    def _after_select_best_provider(self, best, *args, **kwargs) -> None:
        if best is not None:
            self.counts["fib_hits"] += 1

