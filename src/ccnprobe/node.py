"""Per-router state: content store, PIT, provider-recording FIB, and the
interest/data/timeout processing procedures with probe selection."""

from __future__ import annotations

import random
from bisect import bisect_left
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


class ContentStore:
    """Bounded cache of content names with LRU replacement.

    `entries` maps each cached name to None; its insertion order is the
    replacement order, oldest first: a touch re-inserts the name.

    Every touch and eviction leaves a deleted slot in the dict, and CPython
    sizes a dict by the slots used rather than the names held, so a store in
    steady use grows to about twice its fresh table. Every
    `max(1, capacity // 4)` evictions the dict is rebuilt at its fresh size:
    at most four name copies per eviction. The rebuild replaces `entries`,
    so no caller may hold it across an insert.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"content store capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.entries: dict[ContentName, None] = {}
        # Evictions left before the next rebuild.
        self._until_rebuild = max(1, capacity // 4)

    def touch(self, name: ContentName) -> None:
        if name in self.entries:
            self.entries[name] = self.entries.pop(name)

    def insert(self, name: ContentName) -> ContentName | None:
        """Store `name`; returns the evicted name when the store was full.

        Re-inserting an existing name makes it the newest without evicting
        anything.
        """
        entries = self.entries
        evicted = None
        if name in entries:
            del entries[name]
        elif len(entries) >= self.capacity:
            evicted = next(iter(entries))
            del entries[evicted]
            self._until_rebuild -= 1
            if not self._until_rebuild:
                self._until_rebuild = max(1, self.capacity // 4)
                entries[name] = None
                self.entries = dict(entries)
                return evicted
        entries[name] = None
        return evicted


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
    # Never changed in place; one-provider entries share their list.
    providers: list[RouterId]
    last_update: float


def _slot(times: list[float], names: list[ContentName], updated: float,
          name: ContentName) -> int:
    """Where (`updated`, `name`) sits, or belongs, in one cost's lists."""
    i = bisect_left(times, updated)
    # Where times tie, the names ascend.
    while i < len(times) and times[i] == updated and names[i] < name:
        i += 1
    return i


def _min_cost(spt: SPTable, providers: list[RouterId]) -> float:
    """SPT cost of the nearest provider; unreachable ones count as INF."""
    cost = INF
    routes = spt.entries
    for rid in providers:
        route = routes.get(rid)
        if route is not None and route.cost < cost:
            cost = route.cost
    return cost


# -- probe selectors ------------------------------------------------------------
# One class per probe strategy, whose `pick(router, rng, sending)` is the
# router's `select_probe`. A selector with an index defines only the hooks it
# needs, so a change no index reads costs no call. None stands for an absent
# entry or name: `fib_changed(router, name, old, new)` on each FIB write or
# eviction, `cache_changed(router, added, removed)` on each content-store
# insert or churn eviction, and `spt_replaced(router)` after an SPT change.


@dataclass(slots=True)
class PitProbe:
    """pit-probe: the pending name with the most arrivals, then the earliest
    deadline, then the smallest name. A minimum over the PIT; no index."""

    def pick(self, router, rng, sending) -> ContentName | None:
        cached = router.cs.entries
        origin = router.origin
        return min(((-entry.arrival_count, entry.deadline, name)
                    for name, entry in router.pit.items()
                    if name not in cached and name not in origin and name != sending),
                   default=(None,))[-1]


@dataclass(slots=True)
class FibProbe:
    """fib-probe: the highest nearest-provider cost, then the oldest update,
    then the smallest name.

    `by_cost` holds the FIB's names by nearest-provider cost, each cost as
    (update times ascending, names in the same order, by name where the
    times tie). A pick walks the costs from the highest down, each cost's
    names oldest first: O(costs + held names skipped + 1). A FIB write moves
    its name in O(log N_FIB), nearly always to the end of a cost's lists.
    """

    by_cost: dict[float, tuple[list, list]] = field(default_factory=dict)

    def pick(self, router, rng, sending) -> ContentName | None:
        cached = router.cs.entries
        origin = router.origin
        by_cost = self.by_cost
        for cost in sorted(by_cost, reverse=True):
            for name in by_cost[cost][1]:
                # Most names passed over are cached, so that test comes first.
                if name not in cached and name not in origin and name != sending:
                    return name
        return None

    def fib_changed(self, router, name, old, new) -> None:
        by_cost = self.by_cost
        if old is not None:
            times, names = by_cost[_min_cost(router.spt, old.providers)]
            i = _slot(times, names, old.last_update, name)
            del times[i]
            del names[i]
        if new is not None:
            cost = _min_cost(router.spt, new.providers)
            times, names = by_cost.get(cost) or by_cost.setdefault(cost, ([], []))
            i = _slot(times, names, new.last_update, name)
            times.insert(i, new.last_update)
            names.insert(i, name)

    def spt_replaced(self, router) -> None:
        self.by_cost = {}
        # In update order, so that each name goes at its list's end.
        for name, entry in sorted(router.fib.items(),
                                  key=lambda item: (item[1].last_update, item[0])):
            self.fib_changed(router, name, None, entry)


@dataclass(slots=True)
class SequentialProbe:
    """sequential: the FIB's names in the order they entered it, from a
    cursor that each pick advances. `ring` skips names evicted since, and
    drops them once it outgrows four times the FIB (or 64 names)."""

    ring: list[ContentName] = field(default_factory=list)
    cursor: int = 0

    def pick(self, router, rng, sending) -> ContentName | None:
        ring = self.ring
        fib = router.fib
        picked = None
        for _ in range(len(ring)):
            name = ring[self.cursor]
            self.cursor = (self.cursor + 1) % len(ring)
            if name in fib and name != sending and not router.holds(name):
                picked = name
                break
        if len(ring) > 4 * max(len(fib), 16):
            self.ring = [n for n in ring if n in fib]
            self.cursor = 0
        return picked

    def fib_changed(self, router, name, old, new) -> None:
        if old is None:
            self.ring.append(name)


@dataclass(slots=True)
class RandomProbe:
    """random: a uniform draw from the worthy PIT names, then the worthy FIB
    names not in the PIT, in that order, without building that pool.

    The FIB part's size is the FIB's size less its held names (`held`, kept
    by the hooks), its pending names and `sending`; one `randrange` over the
    whole pool picks the index, and the FIB is walked to it from the nearer
    end. A pick counts its pool in O(N_PIT) and walks at most half the FIB.
    """

    held: int = 0

    def pick(self, router, rng, sending) -> ContentName | None:
        pit = router.pit
        fib = router.fib
        cached = router.cs.entries
        origin = router.origin
        from_pit = []
        excluded = self.held
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
        if sending_apart and sending in fib and not router.holds(sending):
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
        raise RuntimeError(f"router {router.id}: the FIB holds fewer probe "
                           f"candidates than counted ({in_fib})")

    def fib_changed(self, router, name, old, new) -> None:
        if (old is None) != (new is None) and router.holds(name):
            self.held += 1 if old is None else -1

    def cache_changed(self, router, added, removed) -> None:
        fib = router.fib   # None is never a FIB key
        self.held += (added in fib) - (removed in fib)


_SELECTORS = {ProbeStrategy.NONE: None, ProbeStrategy.PIT_POPULAR: PitProbe,
              ProbeStrategy.FIB_MAX_COST: FibProbe,
              ProbeStrategy.SEQUENTIAL: SequentialProbe, ProbeStrategy.RANDOM: RandomProbe}


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
        # Insertion order is LRU order, oldest first: a use re-inserts.
        self.fib: dict[ContentName, FibEntry] = {}
        # The one `[rid]` list that every entry naming only `rid` holds.
        self._solo: dict[RouterId, list[RouterId]] = {}
        selector = _SELECTORS[probe_strategy]
        self.selector = None if selector is None else selector()
        self._fib_changed = getattr(self.selector, "fib_changed", None)
        self._cache_changed = getattr(self.selector, "cache_changed", None)
        self._spt_replaced = getattr(self.selector, "spt_replaced", None)
        self._nonces = nonces

    def replace_spt(self, spt: SPTable, neighbors: list[RouterId]) -> None:
        self.spt = spt
        self.neighbors = sorted(neighbors)
        if self._spt_replaced is not None:
            self._spt_replaced(self)

    def holds(self, name: ContentName) -> bool:
        return name in self.origin or name in self.cs.entries

    # -- content store membership -------------------------------------------
    # The content store changes only through these two methods, and never
    # holds the router's own catalog: a name is cached only when not held.

    def _cache(self, name: ContentName) -> None:
        """Cache `name`, which this router does not hold yet."""
        evicted = self.cs.insert(name)
        if self._cache_changed is not None:
            self._cache_changed(self, name, evicted)

    def evict_cached(self, name: ContentName) -> None:
        """Drop `name` from the content store (cache churn)."""
        if self._cache_changed is not None and name in self.cs.entries:
            self._cache_changed(self, None, name)
        self.cs.entries.pop(name, None)

    # -- probe selection ----------------------------------------------------

    def select_probe(self, now: float, rng: random.Random,
                     sending: ContentName | None = None) -> ContentName | None:
        """Pick a content name to piggyback on an outgoing interest for `sending`.

        A probe names content this router neither sends nor holds: probing
        the interest's own name asks nothing the interest does not already
        ask, and the true cost of held content is zero. Empty source tables
        (or basic-ccn, whose router holds no selector) yield no probe; all
        tie-breaks are fully ordered so reruns pick identically.
        """
        selector = self.selector
        return None if selector is None else selector.pick(self, rng, sending)

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
        self.fib[name] = self.fib.pop(name)
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

        A write stores a new entry, so `fib_changed` sees the old one intact,
        and changes no provider list in place: one-provider entries share the
        router's list for it, and added providers get a new list at its size.
        """
        if self.id in providers:
            providers = [rid for rid in providers if rid != self.id]
            if not providers:
                return
        fib = self.fib
        old = fib.pop(name, None)
        if old is None:
            if self.fib_capacity is not None and len(fib) >= self.fib_capacity:
                evicted_name = next(iter(fib))
                evicted = fib.pop(evicted_name)
                if self._fib_changed is not None:
                    self._fib_changed(self, evicted_name, evicted, None)
            known = list(dict.fromkeys(providers))
            if len(known) == 1:
                known = self._solo.setdefault(known[0], known)
        else:
            known = old.providers
            for rid in providers:
                if rid not in known:
                    known = known + [rid]
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
        entry = fib[name] = FibEntry(known, now)
        if self._fib_changed is not None:
            self._fib_changed(self, name, old, entry)

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
        cs = self.cs
        if name in self.origin or name in cs.entries:
            # Hit: answer from the content store, replicating probe fields.
            cs.touch(name)
            response = interest.probe_response   # shared, never written
            if probe is not None and self.holds(probe):
                cs.touch(probe)
                if self.id not in response and len(response) < PROBE_RESPONSE_CAPACITY:
                    response = response + [self.id]
            data = DataPacket(name, self.id, self.payload_size, probe, response)
            if in_iface == LOCAL:
                out.deliver(data, (now,), None, now)
            else:
                out.transmit(self.id, in_iface, data, now)
            return None

        # Every field given: a default factory costs a call per field.
        if in_iface == LOCAL:
            entry = PitEntry(name, now + self.timeout, set(), {interest.nonce},
                             1, [now], set())
        else:
            entry = PitEntry(name, now + self.timeout, {in_iface},
                             {interest.nonce}, 1, [], set())
        self.pit[name] = entry

        # Miss: record ourselves as a probe provider when it applies.
        if probe is not None and self.holds(probe):
            cs.touch(probe)
            response = interest.probe_response
            if self.id not in response and len(response) < PROBE_RESPONSE_CAPACITY:
                interest = interest.clone()
                interest.probe_response.append(self.id)
        elif probe is None and in_iface == LOCAL:
            # A local interest is new, not yet shared: set its probe in place.
            interest.probe = self.select_probe(now, rng, name)

        best = self._route(entry, now, in_iface)
        if best is not None:
            provider, iface = best
            if in_iface == LOCAL:
                entry.expected_provider = provider
            out.transmit(self.id, iface, interest, now)
            out.arm_timeout(self.id, entry)
            return None
        sent = False
        for nb in self.neighbors:
            if nb != in_iface:
                out.transmit(self.id, nb, interest, now)
                sent = True
        # With no route the entry stays pending until it times out.
        out.arm_timeout(self.id, entry)
        return None if sent else "no-route"

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
        if name in self.origin or name in self.cs.entries:
            self.cs.touch(name)
        else:
            self._cache(name)
        self.fib_update(name, [data.provider_id], now)
        if entry.local_issued:
            out.deliver(data, entry.local_issued, entry.expected_provider, now)
        incoming = entry.incoming
        for iface in incoming if len(incoming) < 2 else sorted(incoming):
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
        interest = InterestPacket(name, nonce, self.select_probe(now, rng, name))
        entry.seen_nonces.add(nonce)
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
