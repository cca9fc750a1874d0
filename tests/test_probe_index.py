"""Property test: the kept fib-probe order, the counted random draw and
pit-probe's PIT scan pick exactly what a full scan of the tables picks,
with the same RNG draws; sequential's cursor picks only worthy FIB names
and, with the tables left alone, comes round to every one of them.

The oracles below are the linear selections the index replaced: a scan of
every FIB entry's provider costs for fib-probe, and a materialized PIT+FIB
pool for random; pit-probe's is a plain minimum over the worthy pending
names. Hypothesis drives one router through random sequences of
FIB writes (repeated and out-of-order timestamps, unreachable providers,
the router's own id, capacity evictions), data arrivals that cache and
evict content, cache churn, PIT writes, provider lookups that reorder the
FIB, and SPT replacements, and compares the two at every selection.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccnprobe.engine import inject_cache_churn
from ccnprobe.model import ContentName, DataPacket
from ccnprobe.node import ContentStore, PitEntry, ProbeStrategy, RouterState
from ccnprobe.topology import build_spt, load_topology

INF = float("inf")

# Router 0's views of one 7-router network before and after its links
# change: a star with tails, a ring, and a split leaving 4-6 unreachable.
TOPOLOGIES = [load_topology(text) for text in (
    "node n0\nnode n1\nnode n2\nnode n3\nnode n4\nnode n5\nnode n6\n"
    "edge n0 n1\nedge n0 n2\nedge n0 n3\nedge n3 n4\nedge n4 n5\nedge n1 n6\n",
    "node n0\nnode n1\nnode n2\nnode n3\nnode n4\nnode n5\nnode n6\n"
    "edge n0 n1\nedge n1 n2\nedge n2 n3\nedge n3 n4\nedge n4 n5\nedge n5 n6\n"
    "edge n6 n0\n",
    "node n0\nnode n1\nnode n2\nnode n3\nnode n4\nnode n5\nnode n6\n"
    "edge n0 n1\nedge n1 n2\nedge n0 n3\nedge n4 n5\nedge n5 n6\n",
)]

NAMES = [ContentName(prefix, seq) for prefix in ("n0", "A", "B") for seq in range(4)]
ORIGIN = frozenset(NAMES[:2])   # router 0 publishes n0/0 and n0/1

names = st.sampled_from(NAMES)
times = st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0])
providers = st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 99]),
                     min_size=1, max_size=7)
seeds = st.integers(0, 2**16)
operations = st.one_of(
    st.tuples(st.just("fib"), names, providers, times),
    st.tuples(st.just("data"), names, st.sampled_from([1, 4, 5, 99]),
              st.none() | names, providers, times),
    st.tuples(st.just("churn"), st.sampled_from([0.3, 1.0]), seeds),
    # Few arrival counts, so that pit-probe's tie-breaks come into play.
    st.tuples(st.just("pit-add"), names, times, st.integers(1, 3)),
    st.tuples(st.just("pit-remove"), names),
    st.tuples(st.just("lookup"), names),
    st.tuples(st.just("spt"), st.sampled_from([0, 1, 2])),
    st.tuples(st.just("select"), st.none() | names, seeds),
)


def scan_fib_probe(router: RouterState, sending) -> ContentName | None:
    """The full FIB scan: highest nearest-provider cost, then the oldest
    update, then the smallest name, among names neither sent nor held."""
    best = None
    best_cost = -1.0
    best_updated = INF
    spt_cost = router.spt.cost
    for name, entry in router.fib.items():
        cost = INF
        for rid in entry.providers:
            c = spt_cost(rid)
            if c is not None and c < cost:
                cost = c
        if (cost > best_cost
                or (cost == best_cost
                    and (entry.last_update < best_updated
                         or (entry.last_update == best_updated and name < best)))):
            if name == sending or router.holds(name):
                continue
            best = name
            best_cost = cost
            best_updated = entry.last_update
    return best


def scan_pit_popular(router: RouterState, sending) -> ContentName | None:
    """The most-arrived pending name, then the earliest deadline, then the
    smallest name, among names neither sent nor held."""
    pool = [(-entry.arrival_count, entry.deadline, n)
            for n, entry in router.pit.items()
            if n != sending and not router.holds(n)]
    return min(pool)[2] if pool else None


def pool_random(router: RouterState, rng: random.Random, sending) -> ContentName | None:
    """One draw from the built pool: worthy PIT names, then worthy FIB names
    not in the PIT."""
    pit = router.pit

    def worthy(n):
        return n != sending and not router.holds(n)

    pool = [n for n in pit if worthy(n)]
    pool.extend(n for n in router.fib if n not in pit and worthy(n))
    if not pool:
        return None
    return pool[rng.randrange(len(pool))]


class Recorder:
    """A handler's `out`: records every transmit, local delivery and queued
    timeout."""

    def __init__(self):
        self.calls = []

    def transmit(self, src, iface, packet, now):
        self.calls.append(("transmit", src, iface, packet, now))

    def deliver(self, data, issued, expected_provider, now):
        self.calls.append(("deliver", data, issued, expected_provider, now))

    def arm_timeout(self, rid, entry):
        self.calls.append(("arm_timeout", rid, entry))


def check_selection(router: RouterState, sending, seed: int) -> None:
    rng, expected_rng = random.Random(seed), random.Random(seed)
    picked = router.select_probe(0.0, rng, sending)
    if router.probe_strategy == ProbeStrategy.FIB_MAX_COST:
        expected = scan_fib_probe(router, sending)
    elif router.probe_strategy == ProbeStrategy.PIT_POPULAR:
        expected = scan_pit_popular(router, sending)
    else:
        expected = pool_random(router, expected_rng, sending)
    assert picked == expected
    assert rng.getstate() == expected_rng.getstate()


def apply(router: RouterState, op: tuple) -> None:
    kind = op[0]
    if kind == "fib":
        _, name, provider_ids, now = op
        router.fib_update(name, provider_ids, now)
    elif kind == "data":
        _, name, provider, probe, response, now = op
        if name not in router.pit and not router.holds(name):
            router.pit[name] = PitEntry(name, now + 0.5, incoming={1})
        entry = router.pit.get(name)
        out = Recorder()
        data = DataPacket(name, provider, probe=probe, probe_response=response[:5])
        reason = router.on_data(data, 1, now, out)
        if entry is None:
            assert reason == "unsolicited" and out.calls == []
        else:
            assert reason is None
            assert out.calls == [("transmit", 0, iface, data, now)
                                 for iface in sorted(entry.incoming)]
    elif kind == "churn":
        _, ratio, seed = op
        inject_cache_churn([router], ratio, random.Random(seed))
    elif kind == "pit-add":
        _, name, now, arrivals = op
        router.pit.setdefault(name, PitEntry(name, now + 0.5,
                                             arrival_count=arrivals))
    elif kind == "pit-remove":
        router.pit.pop(op[1], None)
    elif kind == "lookup":
        router.select_best_provider(op[1])
    elif kind == "spt":
        graph = TOPOLOGIES[op[1]]
        router.replace_spt(build_spt(graph, 0), graph.adj[0])
    else:
        _, sending, seed = op
        check_selection(router, sending, seed)


@pytest.mark.parametrize("strategy", [ProbeStrategy.FIB_MAX_COST,
                                      ProbeStrategy.RANDOM,
                                      ProbeStrategy.PIT_POPULAR])
@given(ops=st.lists(operations, min_size=20, max_size=80),
       fib_capacity=st.sampled_from([None, 3, 6]),
       cs_capacity=st.sampled_from([1, 3]))
def test_index_picks_what_the_scan_picks(strategy, ops, fib_capacity,
                                         cs_capacity):
    graph = TOPOLOGIES[0]
    router = RouterState(0, ContentStore(cs_capacity), build_spt(graph, 0),
                         graph.adj[0], strategy, fib_capacity=fib_capacity,
                         origin=ORIGIN, nonces=itertools.count(1))
    for op in ops:
        apply(router, op)
    for sending in [None, *NAMES]:
        check_selection(router, sending, 7)


def check_sequential(router: RouterState, sending, seed: int) -> ContentName | None:
    """A sequential pick is a FIB name neither sent nor held, None only when
    there is no such name, and draws nothing from the RNG."""
    rng = random.Random(seed)
    state = rng.getstate()
    picked = router.select_probe(0.0, rng, sending)
    worthy = [n for n in router.fib if n != sending and not router.holds(n)]
    assert (picked in worthy) if worthy else (picked is None)
    assert rng.getstate() == state
    return picked


def sequential_router(fib_capacity, cs_capacity) -> RouterState:
    graph = TOPOLOGIES[0]
    return RouterState(0, ContentStore(cs_capacity), build_spt(graph, 0),
                       graph.adj[0], ProbeStrategy.SEQUENTIAL,
                       fib_capacity=fib_capacity, origin=ORIGIN,
                       nonces=itertools.count(1))


@given(ops=st.lists(operations, min_size=20, max_size=80),
       fib_capacity=st.sampled_from([None, 3, 6]),
       cs_capacity=st.sampled_from([1, 3]))
def test_sequential_picks_worthy_fib_names_and_comes_round_to_each(
        ops, fib_capacity, cs_capacity):
    """The first pick after the ops drops the ring's stale slots if the ring
    has outgrown 4 * max(|FIB|, 16) slots; as many picks again then visit
    every worthy name. That bound holds only while the live slots fit under
    it: a name that re-enters the FIB keeps its old slot too."""
    router = sequential_router(fib_capacity, cs_capacity)
    for op in ops:
        if op[0] == "select":
            check_sequential(router, op[1], op[2])
        else:
            apply(router, op)
    picks = {check_sequential(router, None, 7)
             for _ in range(1 + 4 * max(len(router.fib), 16))}
    assert picks - {None} == {n for n in router.fib if not router.holds(n)}


def test_sequential_keeps_every_live_name_when_it_drops_stale_slots():
    """100 names through a 2-entry FIB leave 98 stale slots in the ring;
    the pick that drops them keeps both live names in turn."""
    router = sequential_router(fib_capacity=2, cs_capacity=1)
    for seq in range(100):
        router.fib_update(ContentName("B", seq), [1], float(seq))
    check_sequential(router, None, 7)
    picks = {check_sequential(router, None, 7) for _ in range(64)}
    assert picks == set(router.fib)
