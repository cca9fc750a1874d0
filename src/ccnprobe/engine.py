"""Deterministic discrete-event simulation: event queue, finite-bandwidth
links with drop-tail queues, consumer workload, cache churn, and failures."""

from __future__ import annotations

import functools
import itertools
import math
import random
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from typing import NamedTuple

from .metrics import MetricsReport
from .model import (LOCAL, ContentName, DataPacket, InterestPacket, RouterId,
                    content_catalog, wire_size)
from .node import ContentStore, PitEntry, ProbeStrategy, RouterState
from .topology import (Graph, SPTable, apply_failure, build_all_spts,
                       load_topology, read_topology)

# Event kinds; pop order at equal timestamps follows push order via seq.
EV_END, EV_FAILURE, EV_SECOND, EV_ISSUE, EV_TIMEOUT, EV_ARRIVAL = range(6)


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
    timeout: float = 0.5                 # PIT deadline, seconds
    failures: tuple[tuple[float, int], ...] = ()
    rng_seed: int = 1
    contents_per_producer: int = 100
    payload_size: int = 1024             # data payload bytes
    link_delay: float = 1.0              # every link's delay, seconds
    link_bandwidth: float | str = "unlimited"  # every link's bits/s
    queue_capacity: int = 64             # packets per link direction
    fib_capacity: int | None = 256
    fib_entry_ttl: float | None = None   # forwarding trusts entries this fresh
    producer_routing: bool = False       # static prefix routes toward producers

    def validate(self) -> None:
        # Non-finite values would fail mid-run: a NaN time unorders the heap.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite: {value}")
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
        if not isinstance(self.link_delay, (int, float)) or self.link_delay < 0:
            raise ConfigError(f"link_delay must be a number >= 0: {self.link_delay!r}")
        if self.link_bandwidth != "unlimited" and (
                not isinstance(self.link_bandwidth, (int, float))
                or self.link_bandwidth <= 0):
            raise ConfigError(
                f"link_bandwidth must be a positive number or 'unlimited': "
                f"{self.link_bandwidth!r}")
        if self.contents_per_producer < 1:
            raise ConfigError(
                f"contents_per_producer must be >= 1: {self.contents_per_producer}")
        try:
            ProbeStrategy(self.probe_strategy)
        except ValueError:
            raise ConfigError(
                f"unknown probe_strategy {self.probe_strategy!r}; expected one "
                f"of {[s.value for s in ProbeStrategy]}") from None
        for time, count in self.failures:
            if not 0 <= time <= self.sim_duration:  # NaN and inf fail too
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
    the queue or on the wire head, in ascending order and never more than
    `queue_cap`; the last one is the busy-until mark.
    """

    __slots__ = ("delay", "bandwidth", "queue_cap", "completions")

    def __init__(self, delay: float, bandwidth: float | None, queue_cap: int):
        self.delay = delay
        self.bandwidth = bandwidth
        self.queue_cap = queue_cap
        self.completions: list[float] = []


def schedule_transmission(link: LinkQueue, wire_bytes: int,
                          now: float) -> float | None:
    """Arrival time of a packet entering `link` at `now`; None when dropped.

    arrival = max(now, busy-until) + bits/bandwidth + delay. Links with
    unlimited bandwidth never queue, so they arrive at now + delay.
    """
    if link.bandwidth is None:
        return now + link.delay
    completions = link.completions
    sent = bisect_right(completions, now)
    if sent:
        del completions[:sent]
    if len(completions) >= link.queue_cap:
        return None
    start = completions[-1] if completions else now
    if start < now:
        start = now
    done = start + wire_bytes * 8.0 / link.bandwidth
    completions.append(done)
    return done + link.delay


class IssuePlan(Sequence):
    """Every consumer interest of a run as `(time, consumer, name)` triples,
    in draw order, held in three arrays: 13 bytes an issue on a topology of
    up to 256 routers, and no Python object per issue until one is read. A
    name is its index in `catalog`.
    """

    __slots__ = ("times", "consumers", "names", "catalog")

    def __init__(self, times: array, consumers: array, names: array,
                 catalog: Sequence[ContentName]):
        self.times = times
        self.consumers = consumers
        self.names = names
        self.catalog = catalog

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return IssuePlan(self.times[index], self.consumers[index],
                             self.names[index], self.catalog)
        return (self.times[index], self.consumers[index],
                self.catalog[self.names[index]])


def generate_interest_events(consumers: list[RouterId],
                             catalog: Sequence[ContentName],
                             scenario: Scenario,
                             rng: random.Random) -> IssuePlan:
    """Issue times and names for every consumer interest of the run.

    Each consumer sends `interest_frequency` interests per simulated second
    at uniform offsets within the second; names are drawn uniformly from
    the whole catalog. Issues come grouped by second, in draw order.

    A name is drawn as `rng.randrange(n)` draws it (CPython's
    `_randbelow_with_getrandbits`: `n.bit_length()` random bits, redrawn
    until below n), written out over the public `getrandbits`, so the names
    and the generator's final state are those of `randrange` at about half
    the cost.
    """
    # Names stay 4-byte: appending to an "H" array converts more slowly.
    times, names = array("d"), array("I")
    # Consumers take the narrowest unsigned type that holds every id.
    top = max(consumers, default=0)
    code = "B" if top < 1 << 8 else "H" if top < 1 << 16 else "Q"
    if not catalog:
        return IssuePlan(times, array(code), names, catalog)
    n = len(catalog)
    k = n.bit_length()
    draw, bits = rng.random, rng.getrandbits
    add_time, add_name = times.append, names.append
    # One second's issuers in draw order: each consumer, frequency times.
    issuers = [c for c in consumers for _ in range(scenario.interest_frequency)]
    seconds = int(scenario.sim_duration)
    for second in range(seconds):
        for _ in issuers:
            add_time(second + draw())
            r = bits(k)
            while r >= n:
                r = bits(k)
            add_name(r)
    return IssuePlan(times, array(code, issuers) * seconds, names, catalog)


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


class Network(NamedTuple):
    """What every simulation of one topology shares, read-only."""

    graph: Graph
    catalog: tuple[ContentName, ...]
    spts: dict[RouterId, SPTable]
    # Every node's own content: its catalog names for a producer, else empty.
    origins: dict[RouterId, frozenset[ContentName]]


@functools.lru_cache(maxsize=8)
def shared_network(text: str, contents_per_producer: int) -> Network:
    """The graph, catalog, shortest-path tables and origin sets of one
    topology text, built once per process for every simulation of it.

    Keyed on the text rather than a path, so a file rewritten in place is
    parsed again. Nothing returned may be mutated: a failure builds a new
    graph and new tables, and a router copies its neighbor list.
    """
    # A newline keeps the text of a one-line file from reading as a path.
    graph = load_topology(text if "\n" in text else text + "\n")
    producers = graph.producers()
    catalog = tuple(content_catalog(
        [graph.name_of[rid] for rid in producers], contents_per_producer))
    origins = dict.fromkeys(graph.nodes, frozenset())
    for rid in producers:
        prefix = graph.name_of[rid]
        # Built from a dict, a frozenset is sized once for its final length.
        origins[rid] = frozenset(dict.fromkeys(
            n for n in catalog if n.prefix == prefix))
    return Network(graph, catalog, build_all_spts(graph), origins)


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
    event ordering is total via (time, push-sequence). Every issue is drawn
    at construction, but enters the queue only at its second's tick, under
    a sequence number reserved for it then: events tie exactly as if every
    issue had been queued up front. The simulation is
    the `out` of every router handler call: routers send through its
    `transmit` and `deliver` and queue their PIT timeouts through its
    `arm_timeout`. The graph, catalog, shortest-path tables and origin sets
    come from `shared_network`, shared with every simulation of the same
    topology text in the process.
    """

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.rng = random.Random(scenario.rng_seed)
        self.nonces = itertools.count(1)

        text, _name = read_topology(scenario.topology)
        graph, self.catalog, spts, origins = shared_network(
            text, scenario.contents_per_producer)
        self.graph = graph
        cs_capacity = max(1, int(scenario.cache_size_ratio * len(self.catalog) + 1e-9))

        check_failure_total(scenario, graph)

        strategy = ProbeStrategy(scenario.probe_strategy)
        # Routing-plane knowledge shared by every node: which router
        # publishes each name prefix. Off by default; a miss then broadcasts.
        producer_routes = {}
        if scenario.producer_routing:
            producer_routes = {graph.name_of[rid]: rid for rid in graph.producers()}
        self.routers: dict[RouterId, RouterState] = {}
        for rid in graph.nodes:
            self.routers[rid] = RouterState(
                rid, ContentStore(cs_capacity), spts[rid],
                graph.adj[rid], strategy, scenario.fib_capacity,
                scenario.fib_entry_ttl, scenario.timeout, scenario.payload_size,
                origins[rid], producer_routes, self.nonces)

        bandwidth = (None if scenario.link_bandwidth == "unlimited"
                     else float(scenario.link_bandwidth))
        self.links: dict[tuple[RouterId, RouterId], LinkQueue] = {
            key: LinkQueue(scenario.link_delay, bandwidth, scenario.queue_capacity)
            for key in graph.links
        }

        self.stats = MetricsReport(duration=scenario.sim_duration)
        self._heap: list = []
        self._seq = itertools.count()
        self._inflight_drops = 0

        self._push(scenario.sim_duration, EV_END, None, None, None)
        for time, count in scenario.failures:
            self._push(time, EV_FAILURE, count, None, None)
        for second in range(int(scenario.sim_duration) + 1):
            self._push(float(second), EV_SECOND, None, None, None)
        self._plan = generate_interest_events(
            graph.consumers(), self.catalog, scenario, self.rng)
        self._next_issue = 0
        self._issue_seq0 = next(self._seq)
        self._seq = itertools.count(self._issue_seq0 + len(self._plan))

    def _push(self, time, kind, a, b, c):
        heappush(self._heap, (time, next(self._seq), kind, a, b, c))

    def run(self) -> MetricsReport:
        heap = self._heap
        stats = self.stats
        routers = self.routers
        rng = self.rng
        while heap:
            now, _, kind, a, b, c = heappop(heap)
            if kind == EV_ARRIVAL:
                # a: the packet; b: its link's (src, dst); c: a data packet's hops
                router = routers.get(b[1])
                if router is None or b not in self.links:
                    self._inflight_drops += 1
                elif type(a) is InterestPacket:
                    stats.received_interests += 1
                    router.on_interest(a, b[0], now, rng, self)
                else:
                    stats.received_data += 1
                    a.hop_count = c
                    router.on_data(a, b[0], now, self)
            elif kind == EV_TIMEOUT:
                self._on_timeout_event(now, a, b, c)
            elif kind == EV_ISSUE:
                self._on_issue(now, a, b)
            elif kind == EV_SECOND:
                self._on_second(now)
            elif kind == EV_FAILURE:
                self._on_failure(a)
            else:  # EV_END
                break
        # No issue is read after the end: free the plan before finalize().
        self._plan = None
        stats.pending_at_end = sum(
            len(entry.local_issued)
            for router in self.routers.values()
            for entry in router.pit.values())
        return stats.finalize()

    # -- event handlers -------------------------------------------------------

    def _on_second(self, second: float) -> None:
        """Churn the caches from second 1 on, then queue this second's issues.

        An issue of second s lies in [s, s + 1], the end included when
        s + random() rounds up; so every issue still unqueued after this
        tick lies at or after the next one.

        Once the queued issues pass half the plan, they are deleted from it,
        so the plan never holds more than twice the issues still to queue.
        `_issue_seq0` is the sequence number of the plan's first issue, so
        every issue keeps the number reserved for it.
        """
        ratio = self.scenario.cache_update_ratio
        if second and ratio > 0:
            inject_cache_churn(list(self.routers.values()), ratio, self.rng)
        plan, i = self._plan, self._next_issue
        times, end = plan.times, second + 1
        while i < len(times) and times[i] <= end:
            time, consumer, name = plan[i]
            heappush(self._heap, (time, self._issue_seq0 + i, EV_ISSUE,
                                  consumer, name, None))
            i += 1
        if 2 * i > len(times):
            del plan.times[:i], plan.consumers[:i], plan.names[:i]
            self._issue_seq0 += i
            i = 0
        self._next_issue = i

    def _on_issue(self, now: float, rid: RouterId, name: ContentName) -> None:
        # Only pure routers fail, so the issuing consumer is always present.
        self.stats.issued_interests += 1
        self.routers[rid].on_interest(InterestPacket(name, next(self.nonces)),
                                      LOCAL, now, self.rng, self)

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
        # An unlimited link ignores the size.
        arrival = schedule_transmission(
            link, 0 if link.bandwidth is None else wire_size(packet), now)
        if arrival is None:
            return  # drop-tail loss: sent but never received
        heappush(self._heap, (arrival, next(self._seq), EV_ARRIVAL, packet, key, hops))

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
