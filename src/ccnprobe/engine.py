"""Deterministic discrete-event simulation: event queue, finite-bandwidth
links with drop-tail queues, consumer workload, cache churn, and failures."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, fields
from heapq import heappop, heappush

from .metrics import MetricsReport
from .model import (LOCAL, ContentName, DataPacket, InterestPacket, RouterId,
                    content_catalog, wire_size)
from .node import ContentStore, Forwarding, PitEntry, ProbeStrategy, RouterState
from .topology import Graph, SPTable, apply_failure, build_all_spts, load_topology

# Event kinds; pop order at equal timestamps follows push order via seq.
EV_END, EV_FAILURE, EV_CHURN, EV_ISSUE, EV_TIMEOUT, EV_ARRIVAL = range(6)


class ConfigError(ValueError):
    """Invalid scenario or experiment configuration."""


@dataclass
class Scenario:
    """One simulation's declarative configuration."""

    topology: str
    sim_duration: float = 480.0
    interest_frequency: int = 1          # interests/s per consumer
    cache_size_ratio: float = 0.10       # CS capacity / catalog size
    cache_update_ratio: float = 0.0      # per-second CS churn fraction
    probe_strategy: str = "basic-ccn"
    cs_policy: str = "lru"
    forwarding: str = "best-route"
    timeout: float = 0.5                 # PIT deadline, seconds
    failures: tuple[tuple[float, int], ...] = ()
    rng_seed: int = 1
    contents_per_producer: int = 100
    payload_size: int = 1024             # data payload bytes
    link_delay: float | None = None      # override every link when set
    link_bandwidth: float | str | None = None  # number, "unlimited", or None
    queue_capacity: int = 64             # packets per link direction
    fib_capacity: int | None = 256
    fib_entry_ttl: float | None = None   # forwarding trusts entries this fresh
    producer_routing: bool = False       # static prefix routes toward producers

    def validate(self) -> None:
        if self.sim_duration < 0:
            raise ConfigError(f"sim_duration must be >= 0: {self.sim_duration}")
        if self.interest_frequency < 0:
            raise ConfigError(
                f"interest_frequency must be >= 0: {self.interest_frequency}")
        if not 0.0 <= self.cache_size_ratio <= 1.0:
            raise ConfigError(f"cache_size_ratio out of [0,1]: {self.cache_size_ratio}")
        if not 0.0 <= self.cache_update_ratio <= 1.0:
            raise ConfigError(
                f"cache_update_ratio out of [0,1]: {self.cache_update_ratio}")
        if self.timeout <= 0:
            raise ConfigError(f"timeout must be positive: {self.timeout}")
        if self.payload_size < 0:
            raise ConfigError(f"payload_size must be >= 0: {self.payload_size}")
        if self.queue_capacity < 1:
            raise ConfigError(f"queue_capacity must be >= 1: {self.queue_capacity}")
        if self.fib_capacity is not None and self.fib_capacity < 1:
            raise ConfigError(f"fib_capacity must be >= 1: {self.fib_capacity}")
        if self.fib_entry_ttl is not None and self.fib_entry_ttl <= 0:
            raise ConfigError(f"fib_entry_ttl must be positive: {self.fib_entry_ttl}")
        if self.link_delay is not None and self.link_delay < 0:
            raise ConfigError(f"link_delay must be >= 0: {self.link_delay}")
        if (isinstance(self.link_bandwidth, (int, float))
                and self.link_bandwidth <= 0):
            raise ConfigError(
                f"link_bandwidth must be positive: {self.link_bandwidth}")
        if self.contents_per_producer < 1:
            raise ConfigError(
                f"contents_per_producer must be >= 1: {self.contents_per_producer}")
        try:
            ProbeStrategy(self.probe_strategy)
        except ValueError:
            raise ConfigError(
                f"unknown probe_strategy {self.probe_strategy!r}; expected one "
                f"of {[s.value for s in ProbeStrategy]}") from None
        try:
            Forwarding(self.forwarding)
        except ValueError:
            raise ConfigError(f"unknown forwarding {self.forwarding!r}") from None
        if self.cs_policy not in ("fifo", "lru"):
            raise ConfigError(f"unknown cs_policy {self.cs_policy!r}")
        if isinstance(self.link_bandwidth, str) and self.link_bandwidth != "unlimited":
            raise ConfigError(
                f"link_bandwidth must be a number or 'unlimited': "
                f"{self.link_bandwidth!r}")
        for time, count in self.failures:
            if time < 0 or time > self.sim_duration:
                raise ConfigError(f"failure time {time} outside the run")
            if count < 0:
                raise ConfigError(f"failure count must be >= 0: {count}")

    def canonical(self) -> str:
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "failures":
                value = ";".join(f"{t}:{c}" for t, c in value)
            parts.append(f"{f.name}={value}")
        return "\n".join(parts)


class LinkQueue:
    """One direction of a link: propagation delay, serialization, drop-tail.

    `completions` holds the serialization finish times of packets still in
    the queue or on the wire head; the last one is the busy-until mark.
    """

    __slots__ = ("delay", "bandwidth", "queue_cap", "completions")

    def __init__(self, delay: float, bandwidth: float | None, queue_cap: int):
        self.delay = delay
        self.bandwidth = bandwidth
        self.queue_cap = queue_cap
        self.completions: deque[float] = deque()


def schedule_transmission(link: LinkQueue, wire_bytes: int,
                          now: float) -> float | None:
    """Arrival time of a packet entering `link` at `now`; None when dropped.

    arrival = max(now, busy-until) + bits/bandwidth + delay. Links with
    unlimited bandwidth never queue, so they arrive at now + delay.
    """
    if link.bandwidth is None:
        return now + link.delay
    completions = link.completions
    while completions and completions[0] <= now:
        completions.popleft()
    if len(completions) >= link.queue_cap:
        return None
    start = completions[-1] if completions else now
    if start < now:
        start = now
    done = start + wire_bytes * 8.0 / link.bandwidth
    completions.append(done)
    return done + link.delay


def generate_interest_events(consumers: list[RouterId],
                             catalog: list[ContentName],
                             scenario: Scenario,
                             rng: random.Random,
                             ) -> list[tuple[float, RouterId, ContentName]]:
    """Issue times and names for every consumer interest of the run.

    Each consumer sends `interest_frequency` interests per simulated second
    at uniform offsets within the second; names are drawn uniformly from
    the whole catalog.
    """
    events = []
    if not catalog:
        return events
    n = len(catalog)
    for second in range(int(scenario.sim_duration)):
        for consumer in consumers:
            for _ in range(scenario.interest_frequency):
                t = second + rng.random()
                name = catalog[rng.randrange(n)]
                events.append((t, consumer, name))
    return events


def inject_cache_churn(routers: list[RouterState], ratio: float,
                       rng: random.Random) -> int:
    """Evict ceil(ratio * |CS|) uniformly chosen entries from each router.

    Models fast-changing cached content; FIBs are left untouched so their
    provider lists go stale, which is the effect under study. Returns the
    number of evicted entries.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"churn ratio out of [0,1]: {ratio}")
    evicted = 0
    for router in sorted(routers, key=lambda r: r.id):
        count = len(router.cs.entries)
        if count == 0 or ratio == 0.0:
            continue
        k = math.ceil(ratio * count)
        for name in rng.sample(list(router.cs.entries), k):
            router.evict_cached(name)
        evicted += k
    return evicted


def check_failure_total(scenario: Scenario, graph: Graph) -> None:
    """Reject failure events that together crash more routers than `graph`
    has eligible: victims never return, so all events draw on one pool."""
    failed = sum(count for _time, count in scenario.failures)
    eligible = len(graph.pure_routers())
    if failed > eligible:
        raise ConfigError(f"cannot fail {failed} routers in total; only "
                          f"{eligible} eligible")


def inject_failure(graph: Graph, count: int, rng: random.Random,
                   ) -> tuple[Graph, dict[RouterId, SPTable], list[RouterId]]:
    """Crash `count` randomly chosen pure routers.

    Returns the surviving graph, freshly built SPTables for every survivor
    (convergence is instantaneous), and the victim list.
    """
    eligible = graph.pure_routers()
    if count > len(eligible):
        raise ConfigError(
            f"cannot fail {count} routers; only {len(eligible)} eligible")
    victims = rng.sample(eligible, count) if count else []
    for victim in victims:
        graph = apply_failure(graph, victim)
    return graph, build_all_spts(graph), victims


class Simulation:
    """A single deterministic run of one scenario.

    All randomness flows from one generator seeded with the scenario seed;
    event ordering is total via (time, push-sequence). The simulation is
    the `out` of every router handler call: routers send through its
    `transmit` and `deliver` and queue their PIT timeouts through its
    `arm_timeout`.
    """

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.rng = random.Random(scenario.rng_seed)
        self.nonces = itertools.count(1)

        graph = self.graph = load_topology(scenario.topology)

        producer_ids = graph.producers()
        self.catalog = content_catalog(
            [graph.name_of[rid] for rid in producer_ids],
            scenario.contents_per_producer)
        cs_capacity = max(1, int(scenario.cache_size_ratio * len(self.catalog) + 1e-9))

        check_failure_total(scenario, graph)

        spts = build_all_spts(graph)
        strategy = ProbeStrategy(scenario.probe_strategy)
        forwarding = Forwarding(scenario.forwarding)
        # Routing-plane knowledge shared by every node: which router
        # publishes each name prefix. Off by default; a miss then broadcasts.
        producer_routes = {}
        if scenario.producer_routing:
            producer_routes = {graph.name_of[rid]: rid for rid in producer_ids}
        self.routers: dict[RouterId, RouterState] = {}
        for rid in graph.nodes:
            origin = frozenset()
            if "producer" in graph.roles[rid]:
                prefix = graph.name_of[rid]
                origin = frozenset(
                    n for n in self.catalog if n.prefix == prefix)
            self.routers[rid] = RouterState(
                rid, ContentStore(cs_capacity, scenario.cs_policy), spts[rid],
                graph.adj[rid], strategy, forwarding, scenario.fib_capacity,
                scenario.fib_entry_ttl, scenario.timeout, scenario.payload_size,
                origin, producer_routes, self.nonces)

        # `link_delay` and `link_bandwidth`, when set, override every link.
        delay, bandwidth = scenario.link_delay, scenario.link_bandwidth
        self.links: dict[tuple[RouterId, RouterId], LinkQueue] = {
            key: LinkQueue(link.delay if delay is None else delay,
                           link.bandwidth if bandwidth is None
                           else None if bandwidth == "unlimited" else float(bandwidth),
                           scenario.queue_capacity)
            for key, link in graph.links.items()
        }

        self.stats = MetricsReport(duration=scenario.sim_duration)
        self._heap: list = []
        self._seq = itertools.count()
        self._inflight_drops = 0

        self._push(scenario.sim_duration, EV_END, None, None, None)
        for time, count in scenario.failures:
            self._push(time, EV_FAILURE, count, None, None)
        if scenario.cache_update_ratio > 0:
            for second in range(1, int(scenario.sim_duration) + 1):
                self._push(float(second), EV_CHURN, None, None, None)
        for time, consumer, name in generate_interest_events(
                graph.consumers(), self.catalog, scenario, self.rng):
            self._push(time, EV_ISSUE, consumer, name, None)

    def _push(self, time, kind, a, b, c):
        heappush(self._heap, (time, next(self._seq), kind, a, b, c))

    def run(self) -> MetricsReport:
        heap = self._heap
        stats = self.stats
        while heap:
            now, _, kind, a, b, c = heappop(heap)
            if kind == EV_ARRIVAL:
                self._on_arrival(now, a, b, c)
            elif kind == EV_TIMEOUT:
                self._on_timeout_event(now, a, b, c)
            elif kind == EV_ISSUE:
                self._on_issue(now, a, b)
            elif kind == EV_CHURN:
                inject_cache_churn(list(self.routers.values()),
                                   self.scenario.cache_update_ratio, self.rng)
            elif kind == EV_FAILURE:
                self._on_failure(a)
            else:  # EV_END
                break
        stats.pending_at_end = sum(
            len(entry.local_issued)
            for router in self.routers.values()
            for entry in router.pit.values())
        return stats.finalize()

    # -- event handlers -------------------------------------------------------

    def _on_issue(self, now: float, rid: RouterId, name: ContentName) -> None:
        # Only pure routers fail, so the issuing consumer is always present.
        self.stats.issued_interests += 1
        self.routers[rid].on_interest(InterestPacket(name, next(self.nonces)),
                                      LOCAL, now, self.rng, self)

    def _on_arrival(self, now: float, packet, key: tuple[RouterId, RouterId],
                    hops: int) -> None:
        src, dst = key
        router = self.routers.get(dst)
        if router is None or key not in self.links:
            self._inflight_drops += 1
            return
        if type(packet) is InterestPacket:
            self.stats.received_interests += 1
            router.on_interest(packet, src, now, self.rng, self)
        else:
            self.stats.received_data += 1
            packet.hop_count = hops
            router.on_data(packet, src, now, self)

    def _on_timeout_event(self, now: float, rid: RouterId, name: ContentName,
                          deadline: float) -> None:
        router = self.routers.get(rid)
        if router is None:
            return
        entry = router.pit.get(name)
        if entry is None or entry.deadline != deadline:
            return
        self.stats.timeout_count += 1
        if router.on_timeout(name, now, self.rng, self) == "unsatisfied":
            self.stats.unsatisfied_timeout += len(entry.local_issued)

    def _on_failure(self, count: int) -> None:
        self.graph, spts, victims = inject_failure(self.graph, count, self.rng)
        for victim in victims:
            router = self.routers.pop(victim)
            self.stats.unsatisfied_failed += sum(
                len(entry.local_issued) for entry in router.pit.values())
        self.links = {key: lq for key, lq in self.links.items()
                      if key in self.graph.links}
        for rid, router in self.routers.items():
            router.replace_spt(spts[rid], self.graph.adj[rid])

    # -- router output ----------------------------------------------------------

    def transmit(self, src: RouterId, dst: RouterId,
                 packet: InterestPacket | DataPacket, now: float) -> None:
        """Send `packet` from router `src` to its neighbor `dst`.

        The packet object itself travels: copies sent to several neighbors
        share it, and a data packet's hop count rides on the arrival event.
        """
        if type(packet) is InterestPacket:
            self.stats.sent_interests += 1
            hops = 0
        else:
            self.stats.sent_data += 1
            hops = packet.hop_count + 1
        key = (src, dst)
        link = self.links.get(key)
        if link is None:
            return  # interface severed by a failure: sent but lost
        arrival = schedule_transmission(link, wire_size(packet), now)
        if arrival is None:
            return  # drop-tail loss: sent but never received
        self._push(arrival, EV_ARRIVAL, packet, key, hops)

    def deliver(self, data: DataPacket, issued: Sequence[float],
                expected_provider: RouterId | None, now: float) -> None:
        """Hand `data` to the local requests issued at the times `issued`.

        `expected_provider` is the provider the origin unicast toward, if any.
        """
        stats = self.stats
        stats.delivered_data += 1
        stats.hop_count_sum += data.hop_count
        for t0 in issued:
            stats.satisfied_count += 1
            stats.response_time_samples.append(now - t0)
        if expected_provider is not None:
            stats.expected_provider_total += 1
            if expected_provider == data.provider_id:
                stats.expected_provider_hits += 1

    def arm_timeout(self, rid: RouterId, entry: PitEntry) -> None:
        """Queue the timeout of router `rid`'s PIT entry at its deadline."""
        self._push(entry.deadline, EV_TIMEOUT, rid, entry.name, entry.deadline)


def run(scenario: Scenario) -> MetricsReport:
    """Run one scenario to completion and return its finalized report."""
    return Simulation(scenario).run()
