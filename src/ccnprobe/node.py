"""Per-router state: content store, PIT, provider-recording FIB, and the
interest/data/timeout processing procedures with probe selection."""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum

from .model import (LOCAL, PROBE_RESPONSE_CAPACITY, ContentName, DataPacket,
                    InterestPacket, RouterId)
from .topology import SPTable

INF = float("inf")


class ProbeStrategy(str, Enum):
    NONE = "basic-ccn"
    PIT_POPULAR = "pit-probe"
    FIB_MAX_COST = "fib-probe"
    SEQUENTIAL = "sequential"
    RANDOM = "random"


class Forwarding(str, Enum):
    BEST_ROUTE = "best-route"
    BROADCAST = "broadcast"


class ContentStore:
    """Bounded cache of content names with FIFO or LRU replacement.

    `entries` maps each cached name to None; its order is the replacement
    order, oldest first.
    """

    def __init__(self, capacity: int, policy: str = "lru"):
        if capacity < 1:
            raise ValueError(f"content store capacity must be >= 1, got {capacity}")
        if policy not in ("fifo", "lru"):
            raise ValueError(f"unknown cache policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self.entries: OrderedDict[ContentName, None] = OrderedDict()

    def touch(self, name: ContentName) -> None:
        if self.policy == "lru" and name in self.entries:
            self.entries.move_to_end(name)

    def insert(self, name: ContentName) -> ContentName | None:
        """Store `name`; returns the evicted name when the store was full.

        Re-inserting an existing name makes it the newest without evicting
        anything.
        """
        entries = self.entries
        if name in entries:
            entries.move_to_end(name)
            return None
        evicted = None
        if len(entries) >= self.capacity:
            evicted, _ = entries.popitem(last=False)
        entries[name] = None
        return evicted

    def remove(self, name: ContentName) -> None:
        self.entries.pop(name, None)


@dataclass(slots=True)
class PitEntry:
    name: ContentName
    deadline: float
    incoming: set[RouterId] = field(default_factory=set)
    seen_nonces: set[int] = field(default_factory=set)
    arrival_count: int = 1
    # Issue times of the local requests; only at the origin router.
    local_issued: list[float] = field(default_factory=list)
    tried_providers: set[RouterId] = field(default_factory=set)
    expected_provider: RouterId | None = None
    broadcast_retry_used: bool = False


@dataclass(slots=True)
class FibEntry:
    name: ContentName
    providers: list[RouterId]
    last_update: float
    # The entry's key in the fib-probe order (fib-probe routers only).
    rank: tuple[float, float, ContentName] | None = None


class RouterState:
    """One router's tables plus the packet-processing procedures.

    Single-owner mutable state: the engine delivers events to one router at
    a time, so handlers never run re-entrantly. The packet handlers act
    through the `out` they are given and return the drop reason or None:
    `out.transmit(src, iface, packet, now)` sends, `out.deliver(data,
    issued, expected_provider, now)` answers local requests issued at the
    times `issued`, and `out.arm_timeout(src, entry)` queues a PIT entry's
    timeout at its deadline, once per deadline the router sets, after that
    call's sends. The router never keeps `out`.
    """

    def __init__(self, rid: RouterId, cs: ContentStore, spt: SPTable,
                 neighbors: list[RouterId],
                 probe_strategy: ProbeStrategy = ProbeStrategy.NONE,
                 forwarding: Forwarding = Forwarding.BEST_ROUTE,
                 fib_capacity: int | None = None,
                 fib_entry_ttl: float | None = None,
                 timeout: float = 0.5,
                 payload_size: int = 1024,
                 origin: frozenset[ContentName] = frozenset(),
                 producer_routes: dict[str, RouterId] | None = None,
                 nonces=None):
        self.id = rid
        self.cs = cs
        self.spt = spt
        self.neighbors = sorted(neighbors)
        self.probe_strategy = probe_strategy
        self.forwarding = forwarding
        self.fib_capacity = fib_capacity
        # Time-based entry validity: providers in entries not refreshed
        # within the window are not trusted for forwarding. Probe selection
        # still sees aged entries; refreshing them is what probes are for.
        self.fib_entry_ttl = fib_entry_ttl
        self.timeout = timeout
        self.payload_size = payload_size
        self.origin = origin
        # Static name-prefix routes toward producers (the routing-plane
        # knowledge every deployment has); empty means broadcast on FIB miss.
        self.producer_routes = producer_routes or {}
        self.pit: dict[ContentName, PitEntry] = {}
        self.fib: OrderedDict[ContentName, FibEntry] = OrderedDict()
        # sequential only: insertion-ordered name ring for the probe cursor;
        # names evicted from the FIB are skipped lazily.
        self._fib_ring: list[ContentName] | None = (
            [] if probe_strategy == ProbeStrategy.SEQUENTIAL else None)
        self.seq_cursor = 0
        # fib-probe only: every FIB entry's rank, (-min provider cost,
        # last_update, name), kept sorted by the FIB writes.
        self._fib_order: list[tuple[float, float, ContentName]] | None = (
            [] if probe_strategy == ProbeStrategy.FIB_MAX_COST else None)
        # random only: how many FIB names this router holds.
        self._count_held = probe_strategy == ProbeStrategy.RANDOM
        self._held_in_fib = 0
        self._nonces = nonces

    def replace_spt(self, spt: SPTable, neighbors: list[RouterId]) -> None:
        self.spt = spt
        self.neighbors = sorted(neighbors)
        if self._fib_order is not None:
            for entry in self.fib.values():
                entry.rank = (-self._min_cost(entry.providers),
                              entry.last_update, entry.name)
            self._fib_order = sorted(entry.rank for entry in self.fib.values())

    def holds(self, name: ContentName) -> bool:
        return name in self.origin or name in self.cs.entries

    # -- content store membership -------------------------------------------
    # The content store changes only through these two methods, and never
    # holds the router's own catalog: a name is cached only when not held.

    def _cache(self, name: ContentName) -> None:
        """Cache `name`, which this router does not hold yet."""
        evicted = self.cs.insert(name)
        if self._count_held:
            fib = self.fib
            if name in fib:
                self._held_in_fib += 1
            if evicted is not None and evicted in fib:
                self._held_in_fib -= 1

    def evict_cached(self, name: ContentName) -> None:
        """Drop `name` from the content store (cache churn)."""
        if self._count_held and name in self.cs.entries and name in self.fib:
            self._held_in_fib -= 1
        self.cs.remove(name)

    # -- probe selection ----------------------------------------------------

    def select_probe(self, now: float, rng: random.Random,
                     sending: ContentName | None = None) -> ContentName | None:
        """Pick a content name to piggyback on an outgoing interest for `sending`.

        A probe names content this router neither sends nor holds: probing
        the interest's own name asks nothing the interest does not already
        ask, and the true cost of held content is zero. Empty source tables
        (or the basic-ccn strategy) yield no probe; all tie-breaks are fully
        ordered so reruns pick identically.

        Cost per call: fib-probe reads its sorted order from the front,
        O(held names skipped + 1); random counts its pool in O(N_PIT) and
        walks at most half the FIB from the nearer end to the drawn index;
        pit-probe scans the PIT; sequential advances its cursor.
        """
        strategy = self.probe_strategy
        if strategy == ProbeStrategy.NONE:
            return None
        if strategy == ProbeStrategy.PIT_POPULAR:
            best = None
            best_count = -1
            best_deadline = INF
            for name, entry in self.pit.items():
                count = entry.arrival_count
                if (count > best_count
                        or (count == best_count
                            and (entry.deadline < best_deadline
                                 or (entry.deadline == best_deadline and name < best)))):
                    # Checked only for would-be winners: passing over any
                    # other candidate cannot change the pick.
                    if name == sending or self.holds(name):
                        continue
                    best = name
                    best_count = count
                    best_deadline = entry.deadline
            return best
        if strategy == ProbeStrategy.FIB_MAX_COST:
            cached = self.cs.entries
            origin = self.origin
            for _cost, _updated, name in self._fib_order:
                # Most names passed over are cached, so that test comes first.
                if name not in cached and name not in origin and name != sending:
                    return name
            return None
        if strategy == ProbeStrategy.SEQUENTIAL:
            ring = self._fib_ring
            fib = self.fib
            for _ in range(len(ring)):
                name = ring[self.seq_cursor % len(ring)]
                self.seq_cursor = (self.seq_cursor + 1) % len(ring)
                if name in fib and name != sending and not self.holds(name):
                    self._compact_ring()
                    return name
            self._compact_ring()
            return None
        if strategy == ProbeStrategy.RANDOM:
            return self._random_probe(rng, sending)
        raise ValueError(f"unknown probe strategy {strategy!r}")

    def _random_probe(self, rng: random.Random,
                      sending: ContentName | None) -> ContentName | None:
        """A uniform draw from the worthy PIT names, then the worthy FIB
        names not in the PIT, in that order, without building that pool.

        The FIB part's size is the FIB's size less its held names (a kept
        count), its pending names and `sending`; one `randrange` over the
        whole pool picks the index, and the FIB is walked to it from the
        nearer end.
        """
        pit = self.pit
        fib = self.fib
        cached = self.cs.entries
        origin = self.origin
        from_pit = []
        excluded = self._held_in_fib
        for n in pit:
            if n in cached or n in origin:
                continue
            if n in fib:
                excluded += 1
            if n != sending:
                from_pit.append(n)
        # An interest's own name is pending whenever it is sent, so the PIT
        # test below passes over `sending` unless it stands apart.
        sending_apart = sending is not None and sending not in pit
        if sending_apart and sending in fib and not self.holds(sending):
            excluded += 1
        in_fib = len(fib) - excluded
        size = len(from_pit) + in_fib
        if size == 0:
            return None
        i = rng.randrange(size)
        if i < len(from_pit):
            return from_pit[i]
        i -= len(from_pit)
        if i < in_fib - 1 - i:
            names = iter(fib)
        else:
            names = reversed(fib)
            i = in_fib - 1 - i
        for n in names:
            if (n not in pit and n not in cached and n not in origin
                    and not (sending_apart and n == sending)):
                if i == 0:
                    return n
                i -= 1
        raise RuntimeError(f"router {self.id}: the FIB holds fewer probe "
                           f"candidates than counted ({in_fib})")

    def _compact_ring(self) -> None:
        if len(self._fib_ring) > 4 * max(len(self.fib), 16):
            fib = self.fib
            self._fib_ring = [n for n in self._fib_ring if n in fib]
            self.seq_cursor = 0

    # -- provider selection ---------------------------------------------------

    def select_best_provider(self, name: ContentName,
                             excluded: frozenset[RouterId] | set[RouterId] = frozenset(),
                             now: float | None = None,
                             avoid_iface: RouterId | None = None,
                             ) -> tuple[RouterId, RouterId] | None:
        """Cheapest reachable FIB provider for `name` and its first hop.

        Ties break toward the lowest router id. Returns None when the FIB
        misses or every candidate is excluded or unreachable. Candidates
        reached through `avoid_iface` are skipped: an interest is never sent
        back out the interface it arrived on.
        """
        entry = self.fib.get(name)
        if entry is None:
            return None
        if (self.fib_entry_ttl is not None and now is not None
                and now - entry.last_update > self.fib_entry_ttl):
            return None
        self.fib.move_to_end(name)
        best_rid = None
        best_cost = INF
        spt = self.spt
        spt_cost = spt.cost
        for rid in entry.providers:
            if rid in excluded:
                continue
            c = spt_cost(rid)
            if c is None:
                continue
            if avoid_iface is not None and spt.first_hop(rid) == avoid_iface:
                continue
            if c < best_cost or (c == best_cost and rid < best_rid):
                best_cost = c
                best_rid = rid
        if best_rid is None:
            return None
        return best_rid, spt.first_hop(best_rid)

    def _route(self, entry: PitEntry, now: float,
               avoid_iface: RouterId | None) -> tuple[RouterId, RouterId] | None:
        """Provider and first hop for a best-route send of `entry`'s name.

        The cheapest untried FIB provider wins; on a miss, the static route
        toward the name's producer, if known and untried.
        """
        name = entry.name
        excluded = entry.tried_providers
        best = self.select_best_provider(name, excluded, now, avoid_iface)
        if best is not None:
            return best
        rid = self.producer_routes.get(name.prefix)
        if rid is None or rid == self.id or rid in excluded:
            return None
        hop = self.spt.first_hop(rid)
        if hop is None or hop == avoid_iface:
            return None
        return rid, hop

    # -- FIB updating ---------------------------------------------------------

    def fib_update(self, name: ContentName, providers: list[RouterId],
                   now: float) -> None:
        """Create or extend the FIB entry for `name` with `providers`.

        The router's own id is left out: local content is the content
        store's business, and the SPT has no entry for its owner. A list
        with no other provider changes nothing. Over the 5-provider cap the
        farthest provider by SPT cost is dropped (unreachable counts as
        infinitely far); a brand-new entry may evict the least-recently-used
        FIB entry when the table is full.

        Under fib-probe each write also moves the entry's rank in the sorted
        probe order: O(log N_FIB) comparisons and a list shift. Under random
        it keeps the count of held FIB names.
        """
        if self.id in providers:
            providers = [rid for rid in providers if rid != self.id]
            if not providers:
                return
        fib = self.fib
        order = self._fib_order
        entry = fib.get(name)
        if entry is None:
            if self.fib_capacity is not None and len(fib) >= self.fib_capacity:
                _, evicted = fib.popitem(last=False)
                if order is not None:
                    del order[bisect_left(order, evicted.rank)]
                if self._count_held and self.holds(evicted.name):
                    self._held_in_fib -= 1
            entry = FibEntry(name, [], now)
            fib[name] = entry
            if self._fib_ring is not None:
                self._fib_ring.append(name)
            if self._count_held and self.holds(name):
                self._held_in_fib += 1
        else:
            fib.move_to_end(name)
        known = entry.providers
        for rid in providers:
            if rid not in known:
                known.append(rid)
        while len(known) > PROBE_RESPONSE_CAPACITY:
            worst_i = 0
            worst_cost = -1.0
            spt_cost = self.spt.cost
            for i, rid in enumerate(known):
                c = spt_cost(rid)
                c = INF if c is None else c
                if c >= worst_cost:
                    worst_cost = c
                    worst_i = i
            known.pop(worst_i)
        entry.last_update = now
        if order is not None:
            if entry.rank is not None:
                del order[bisect_left(order, entry.rank)]
            entry.rank = (-self._min_cost(known), now, name)
            insort(order, entry.rank)

    def _min_cost(self, providers: list[RouterId]) -> float:
        """SPT cost of the nearest provider; unreachable ones count as INF."""
        cost = INF
        routes = self.spt.entries
        for rid in providers:
            route = routes.get(rid)
            if route is not None and route.cost < cost:
                cost = route.cost
        return cost

    # -- packet handlers ------------------------------------------------------

    def on_interest(self, interest: InterestPacket, in_iface: RouterId,
                    now: float, rng: random.Random, out) -> str | None:
        """Process one arriving interest (Initial / Miss / Hit roles).

        Order: PIT aggregation and duplicate-nonce suppression first, then
        the content-store check, probe handling, and output selection. Only
        a miss leaves a PIT entry and queues its timeout; a local hit is
        delivered with no PIT state. The arriving packet may be shared with
        copies still in flight, so it is cloned before this router writes
        its id into `probe_response`. Returns the drop reason, or None when
        the interest was answered or sent on.
        """
        name = interest.name
        entry = self.pit.get(name)
        if entry is not None:
            if interest.nonce in entry.seen_nonces:
                return "duplicate-nonce"
            entry.seen_nonces.add(interest.nonce)
            entry.arrival_count += 1
            if in_iface == LOCAL:
                entry.local_issued.append(now)
            else:
                entry.incoming.add(in_iface)
            return "pit-aggregated"

        probe = interest.probe
        if self.holds(name):
            # Hit: answer from the content store, replicating probe fields.
            self.cs.touch(name)
            response = interest.probe_response   # shared, never written
            if probe is not None and self.holds(probe):
                self.cs.touch(probe)
                if self.id not in response and len(response) < PROBE_RESPONSE_CAPACITY:
                    response = response + [self.id]
            data = DataPacket(name, self.id, self.payload_size, probe, response)
            if in_iface == LOCAL:
                out.deliver(data, (now,), None, now)
            else:
                out.transmit(self.id, in_iface, data, now)
            return None

        entry = PitEntry(name, deadline=now + self.timeout,
                         seen_nonces={interest.nonce})
        if in_iface == LOCAL:
            entry.local_issued.append(now)
        else:
            entry.incoming.add(in_iface)
        self.pit[name] = entry

        # Miss: record ourselves as a probe provider when it applies.
        if probe is not None and self.holds(probe):
            self.cs.touch(probe)
            response = interest.probe_response
            if self.id not in response and len(response) < PROBE_RESPONSE_CAPACITY:
                interest = interest.clone()
                interest.probe_response.append(self.id)
        elif probe is None and in_iface == LOCAL:
            # A local interest is new, not yet shared: set its probe in place.
            attached = self.select_probe(now, rng, name)
            if attached is not None:
                interest.probe = attached
                interest.probe_response = []

        if self.forwarding == Forwarding.BEST_ROUTE:
            best = self._route(entry, now, in_iface)
            if best is not None:
                provider, iface = best
                if in_iface == LOCAL:
                    entry.expected_provider = provider
                out.transmit(self.id, iface, interest, now)
                out.arm_timeout(self.id, entry)
                return None
        outs = [nb for nb in self.neighbors if nb != in_iface]
        for nb in outs:
            out.transmit(self.id, nb, interest, now)
        # With no route the entry stays pending until it times out.
        out.arm_timeout(self.id, entry)
        return None if outs else "no-route"

    def on_data(self, data: DataPacket, in_iface: RouterId, now: float,
                out) -> str | None:
        """Process one arriving data packet: refresh FIBs, cache, fan out.

        Returns "unsolicited" when no entry is pending for it, else None.
        """
        if data.probe is not None and data.probe_response:
            self.fib_update(data.probe, data.probe_response, now)
        name = data.name
        entry = self.pit.pop(name, None)
        if entry is None:
            return "unsolicited"
        if not self.holds(name):
            self._cache(name)
        else:
            self.cs.touch(name)
        self.fib_update(name, [data.provider_id], now)
        if entry.local_issued:
            out.deliver(data, entry.local_issued, entry.expected_provider, now)
        for iface in sorted(entry.incoming):
            out.transmit(self.id, iface, data, now)
        return None

    def on_timeout(self, name: ContentName, now: float, rng: random.Random,
                   out) -> str | None:
        """Handle a PIT entry whose deadline passed.

        The origin router excludes the provider that failed to answer and
        re-sends toward the next-best one, falling back to one broadcast
        before giving the interest up ("unsatisfied"); relay entries just
        expire.
        """
        entry = self.pit[name]
        if not entry.local_issued:
            del self.pit[name]
            return None
        if entry.expected_provider is not None:
            entry.tried_providers.add(entry.expected_provider)
            entry.expected_provider = None
        nonce = next(self._nonces)
        interest = InterestPacket(name, nonce)
        entry.seen_nonces.add(nonce)
        attached = self.select_probe(now, rng, name)
        if attached is not None:
            interest.probe = attached
        if self.forwarding == Forwarding.BEST_ROUTE:
            best = self._route(entry, now, None)
            if best is not None:
                provider, iface = best
                entry.deadline = now + self.timeout
                entry.expected_provider = provider
                out.transmit(self.id, iface, interest, now)
                out.arm_timeout(self.id, entry)
                return None
        if not entry.broadcast_retry_used and self.neighbors:
            entry.broadcast_retry_used = True
            entry.deadline = now + self.timeout
            for nb in self.neighbors:
                out.transmit(self.id, nb, interest, now)
            out.arm_timeout(self.id, entry)
            return None
        del self.pit[name]
        return "unsatisfied"
