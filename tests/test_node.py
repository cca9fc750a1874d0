import itertools
import os
import random
import struct
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ccnprobe
from ccnprobe.model import LOCAL, ContentName, DataPacket, InterestPacket
from ccnprobe.node import ContentStore, PitEntry, ProbeStrategy, RouterState
from ccnprobe.topology import build_spt, load_topology

# Star around router 0 with a two-hop tail: 0-1, 0-2, 0-3, 3-4.
STAR_TAIL = """
node n0
node n1
node n2
node n3
node n4
edge n0 n1
edge n0 n2
edge n0 n3
edge n3 n4
"""


def name(text: str) -> ContentName:
    return ContentName.parse(text)


def make_router(rid=0, topo=STAR_TAIL, strategy=ProbeStrategy.NONE,
                cs_capacity=8, fib_capacity=None, fib_entry_ttl=None,
                origin=frozenset(), producer_routes=None):
    graph = load_topology(topo)
    return RouterState(rid, ContentStore(cs_capacity),
                       build_spt(graph, rid), graph.adj[rid], strategy,
                       fib_capacity, fib_entry_ttl,
                       timeout=0.5, payload_size=64, origin=origin,
                       producer_routes=producer_routes,
                       nonces=itertools.count(1000))


def interest(text, nonce=1, probe=None, response=()):
    return InterestPacket(name(text), nonce, probe=probe,
                          probe_response=list(response))


class Recorder:
    """A handler's `out`: records every transmit, local delivery and queued
    timeout in order."""

    def __init__(self):
        self.calls = []

    def transmit(self, src, iface, packet, now):
        self.calls.append(("transmit", src, iface, packet, now))

    def deliver(self, data, issued, expected_provider, now):
        self.calls.append(("deliver", data, issued, expected_provider, now))

    def arm_timeout(self, rid, entry):
        self.calls.append(("arm_timeout", rid, entry))

    @property
    def sends(self):
        """(interface, packet) of each transmit."""
        return [(c[2], c[3]) for c in self.calls if c[0] == "transmit"]

    @property
    def ifaces(self):
        return [iface for iface, _packet in self.sends]

    @property
    def forwards(self):
        """The interests transmitted."""
        return [p for _iface, p in self.sends if isinstance(p, InterestPacket)]


class TestContentStore:
    def test_lru_access_protects_entry(self):
        cs = ContentStore(2)
        cs.insert(name("P/0"))
        cs.insert(name("P/1"))
        cs.touch(name("P/0"))
        evicted = cs.insert(name("P/2"))
        assert evicted == name("P/1")

    def test_reinsert_refreshes_without_eviction(self):
        cs = ContentStore(2)
        cs.insert(name("P/0"))
        cs.insert(name("P/1"))
        assert cs.insert(name("P/0")) is None
        # refreshed entry is now the newest in replacement order
        assert list(cs.entries) == [name("P/1"), name("P/0")]
        assert cs.insert(name("P/2")) == name("P/1")

    def test_entries_hold_bare_names(self):
        cs = ContentStore(2)
        cs.insert(name("P/0"))
        assert dict(cs.entries) == {name("P/0"): None}

    def test_capacity_bound_holds(self):
        cs = ContentStore(3)
        for i in range(50):
            cs.insert(name(f"P/{i}"))
            assert len(cs.entries) <= 3

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ContentStore(0)

    @pytest.mark.parametrize("capacity,budget", [(480, 45), (12, 60)])
    def test_a_churned_store_stays_near_its_fresh_size(self, capacity, budget):
        """Under LRU churn the table averages at most `budget` bytes per
        unit of capacity (about 75 and 97 without rebuilds), is rebuilt at
        most four times per capacity's worth of evictions, and keeps the
        order of an `OrderedDict` oracle."""
        rng = random.Random(1)
        names = [name(f"P/{i}") for i in range(2000)]
        cs = ContentStore(capacity)
        oracle = OrderedDict()
        steps = 20_000
        table, tables = cs.entries, 1
        table_bytes = evictions = 0
        for _ in range(steps):
            n = rng.choice(names)
            if rng.random() < 0.5:
                evicted = cs.insert(n)
                if n not in oracle and len(oracle) >= capacity:
                    assert evicted == oracle.popitem(last=False)[0]
                    evictions += 1
                else:
                    assert evicted is None
                oracle[n] = None
                oracle.move_to_end(n)
            else:
                cs.touch(n)
                if n in oracle:
                    oracle.move_to_end(n)
            assert list(cs.entries) == list(oracle)
            if cs.entries is not table:
                table = cs.entries
                tables += 1
            table_bytes += sys.getsizeof(cs.entries)
        assert table_bytes / steps / capacity <= budget
        assert tables <= 4 * evictions / capacity + 1


TABLE_NAMES = [name(f"P/{i}") for i in range(6)]
table_names = st.sampled_from(TABLE_NAMES)
table_ops = st.one_of(
    st.tuples(st.just("cache"), table_names),
    st.tuples(st.just("touch"), table_names),
    st.tuples(st.just("reinsert"), table_names),
    st.tuples(st.just("churn"), table_names),
    st.tuples(st.just("lookup"), table_names),
    # Router 0 is the router itself; 1-4 are its star's other nodes.
    st.tuples(st.just("fib"), table_names,
              st.lists(st.integers(0, 4), min_size=1, max_size=4)),
    st.tuples(st.just("probe"), st.integers(0, 2**16)),
)


@given(strategy=st.sampled_from(list(ProbeStrategy)),
       cs_capacity=st.integers(1, 3), fib_capacity=st.sampled_from([2, 3, None]),
       fib_entry_ttl=st.sampled_from([None, 1.0]),
       steps=st.lists(st.tuples(table_ops, st.sampled_from([0.0, 0.5, 2.0])),
                      min_size=20, max_size=60))
def test_table_order_follows_an_ordered_dict_oracle(strategy, cs_capacity,
                                                    fib_capacity, fib_entry_ttl,
                                                    steps):
    """The content store's and the FIB's key order is LRU order, oldest
    first, as an OrderedDict with `move_to_end` and `popitem(last=False)`
    keeps it, through every operation that reads or writes either table."""
    router = make_router(strategy=strategy, cs_capacity=cs_capacity,
                         fib_capacity=fib_capacity, fib_entry_ttl=fib_entry_ttl)
    cs = OrderedDict()
    fib = OrderedDict()   # name -> [last_update, providers]
    now = 0.0
    for op, gap in steps:
        now += gap
        kind, target = op[0], op[1]
        if kind == "cache":   # as on_data caches a data packet's name
            if router.holds(target):
                router.cs.touch(target)
                cs.move_to_end(target)
            else:
                router._cache(target)
                if len(cs) >= cs_capacity:
                    cs.popitem(last=False)
                cs[target] = None
        elif kind == "touch":
            router.cs.touch(target)
            if target in cs:
                cs.move_to_end(target)
        elif kind == "reinsert":   # of a cached name only: no eviction
            if target in cs:
                assert router.cs.insert(target) is None
                cs.move_to_end(target)
        elif kind == "churn":
            router.evict_cached(target)
            cs.pop(target, None)
        elif kind == "lookup":
            router.select_best_provider(target, now=now)
            if target in fib and (fib_entry_ttl is None
                                  or now - fib[target][0] <= fib_entry_ttl):
                fib.move_to_end(target)
        elif kind == "fib":
            router.fib_update(target, op[2], now)
            providers = [rid for rid in op[2] if rid != 0]
            if providers:
                if target in fib:
                    fib.move_to_end(target)
                else:
                    if fib_capacity is not None and len(fib) >= fib_capacity:
                        fib.popitem(last=False)
                    fib[target] = [now, []]
                fib[target][0] = now
                known = fib[target][1]
                for rid in providers:
                    if rid not in known:
                        known.append(rid)
        else:   # probe selection reads both tables and must not reorder them
            router.select_probe(now, random.Random(target))
        assert list(router.cs.entries) == list(cs)
        assert list(router.fib) == list(fib)
        assert [(e.last_update, e.providers) for e in router.fib.values()] \
            == [(t, p) for t, p in fib.values()]


# Router 0's views of STAR_TAIL's five routers: the star, a ring, and a split
# that leaves 3 and 4 unreachable.
SPT_VIEWS = [load_topology(text) for text in (
    STAR_TAIL,
    "node n0\nnode n1\nnode n2\nnode n3\nnode n4\n"
    "edge n0 n1\nedge n1 n2\nedge n2 n3\nedge n3 n4\nedge n4 n0\n",
    "node n0\nnode n1\nnode n2\nnode n3\nnode n4\n"
    "edge n0 n1\nedge n1 n2\nedge n3 n4\n",
)]
# Repeats, the router's own id 0 and the unreachable 99 included.
provider_lists = st.lists(st.sampled_from([0, 1, 2, 3, 4, 99]),
                          min_size=1, max_size=7)
write_ops = st.one_of(
    st.tuples(st.just("fib"), table_names, provider_lists),
    st.tuples(st.just("data"), table_names, st.sampled_from([0, 1, 2, 3, 4, 99]),
              st.none() | table_names, provider_lists),
    st.tuples(st.just("spt"), st.integers(0, len(SPT_VIEWS) - 1)),
)


@given(strategy=st.sampled_from(list(ProbeStrategy)),
       fib_capacity=st.sampled_from([2, 4, None]),
       steps=st.lists(st.tuples(write_ops, st.sampled_from([0.0, 0.5])),
                      min_size=20, max_size=60))
def test_a_write_leaves_every_other_entrys_providers_alone(strategy, fib_capacity,
                                                           steps):
    """A router's one-provider entries share one list per provider, so no
    write may change a provider list in place: after each `fib_update`,
    `on_data` (which writes its probe's entry and its own) or SPT
    replacement, every entry it did not write holds the providers it held
    before, and every one-provider entry for a provider holds that one list."""
    router = make_router(strategy=strategy, fib_capacity=fib_capacity)
    now = 0.0
    for op, gap in steps:
        now += gap
        before = {n: list(entry.providers) for n, entry in router.fib.items()}
        kind = op[0]
        if kind == "fib":
            written = {op[1]}
            router.fib_update(op[1], op[2], now)
        elif kind == "data":
            _, target, provider, probe, response = op
            written = {target, probe}
            router.pit.setdefault(target, PitEntry(target, now + 0.5, incoming={1}))
            router.on_data(DataPacket(target, provider, 64, probe, response[:5]),
                           1, now, Recorder())
        else:
            written = set()
            graph = SPT_VIEWS[op[1]]
            router.replace_spt(build_spt(graph, 0), graph.adj[0])
        for n, entry in router.fib.items():
            if n in before and n not in written:
                assert entry.providers == before[n]
        solo = {}
        for entry in router.fib.values():
            if len(entry.providers) == 1:
                assert solo.setdefault(entry.providers[0],
                                       entry.providers) is entry.providers


class TestSelectProbe:
    def test_pit_popular_picks_max_arrival_count(self):
        router = make_router(strategy=ProbeStrategy.PIT_POPULAR)
        router.pit[name("X/0")] = PitEntry(name("X/0"), 1.5, arrival_count=3)
        router.pit[name("Y/0")] = PitEntry(name("Y/0"), 1.2, arrival_count=1)
        assert router.select_probe(2.0, random.Random(0)) == name("X/0")

    def test_pit_popular_tie_breaks_on_oldest_deadline(self):
        router = make_router(strategy=ProbeStrategy.PIT_POPULAR)
        router.pit[name("X/0")] = PitEntry(name("X/0"), 1.5, arrival_count=2)
        router.pit[name("Y/0")] = PitEntry(name("Y/0"), 1.2, arrival_count=2)
        assert router.select_probe(2.0, random.Random(0)) == name("Y/0")

    def test_empty_pit_yields_no_probe(self):
        router = make_router(strategy=ProbeStrategy.PIT_POPULAR)
        assert router.select_probe(0.0, random.Random(0)) is None

    def test_fib_max_cost_prefers_expensive_entry(self):
        # providers: X -> {1} at cost 1, Y -> {4} at cost 2 (via node 3)
        router = make_router(strategy=ProbeStrategy.FIB_MAX_COST)
        router.fib_update(name("X/0"), [1], 0.0)
        router.fib_update(name("Y/0"), [4], 0.0)
        assert router.select_probe(1.0, random.Random(0)) == name("Y/0")

    def test_fib_max_cost_tie_breaks_least_recently_updated(self):
        router = make_router(strategy=ProbeStrategy.FIB_MAX_COST)
        router.fib_update(name("X/0"), [1], 5.0)
        router.fib_update(name("Y/0"), [2], 1.0)
        assert router.select_probe(6.0, random.Random(0)) == name("Y/0")

    def test_unreachable_provider_counts_as_infinite_cost(self):
        router = make_router(strategy=ProbeStrategy.FIB_MAX_COST)
        router.fib_update(name("X/0"), [4], 0.0)
        router.fib_update(name("Y/0"), [99], 0.0)  # not in the SPT
        assert router.select_probe(1.0, random.Random(0)) == name("Y/0")

    def test_sequential_cycles_through_fib(self):
        router = make_router(strategy=ProbeStrategy.SEQUENTIAL)
        for i in range(3):
            router.fib_update(name(f"X/{i}"), [1], float(i))
        rng = random.Random(0)
        picks = [router.select_probe(5.0, rng) for _ in range(4)]
        assert picks == [name("X/0"), name("X/1"), name("X/2"), name("X/0")]

    def test_sequential_skips_evicted_names(self):
        router = make_router(strategy=ProbeStrategy.SEQUENTIAL, fib_capacity=2)
        for i in range(3):
            router.fib_update(name(f"X/{i}"), [1], float(i))
        rng = random.Random(0)
        assert router.select_probe(5.0, rng) == name("X/1")

    def test_random_draws_from_pit_and_fib(self):
        router = make_router(strategy=ProbeStrategy.RANDOM)
        router.pit[name("P/0")] = PitEntry(name("P/0"), 1.0)
        router.fib_update(name("F/0"), [1], 0.0)
        picks = {router.select_probe(1.0, random.Random(seed)) for seed in range(20)}
        assert picks == {name("P/0"), name("F/0")}

    def test_random_is_seed_deterministic(self):
        router = make_router(strategy=ProbeStrategy.RANDOM)
        for i in range(6):
            router.fib_update(name(f"F/{i}"), [1], 0.0)
        assert (router.select_probe(1.0, random.Random(3))
                == router.select_probe(1.0, random.Random(3)))

    def test_none_strategy_never_probes(self):
        router = make_router(strategy=ProbeStrategy.NONE)
        router.fib_update(name("F/0"), [1], 0.0)
        assert router.select_probe(1.0, random.Random(0)) is None

    @pytest.mark.parametrize("strategy", [ProbeStrategy.PIT_POPULAR,
                                          ProbeStrategy.RANDOM])
    def test_origin_never_probes_the_name_it_sends(self, strategy):
        router = make_router(strategy=strategy)
        router.fib_update(name("X/0"), [4], 0.0)
        for seed in range(10):
            router.pit.clear()
            packet = interest("X/0", nonce=seed)
            router.on_interest(packet, LOCAL, 1.0, random.Random(seed), Recorder())
            assert packet.probe is None  # its own entry is the only candidate

    @pytest.mark.parametrize("strategy", [ProbeStrategy.FIB_MAX_COST,
                                          ProbeStrategy.SEQUENTIAL,
                                          ProbeStrategy.RANDOM])
    def test_held_content_is_never_probed(self, strategy):
        # The held names sit at unreachable providers, so fib-probe would
        # rank them first, and they come first in sequential order.
        router = make_router(strategy=strategy,
                             origin=frozenset({name("n0/1")}))
        router.cs.insert(name("Q/0"))
        router.fib_update(name("n0/1"), [99], 0.0)
        router.fib_update(name("Q/0"), [99], 0.0)
        router.fib_update(name("F/0"), [1], 0.0)
        picks = {router.select_probe(1.0, random.Random(seed))
                 for seed in range(10)}
        assert picks == {name("F/0")}


class TestSelectBestProvider:
    def test_min_cost_provider_wins(self):
        router = make_router()
        router.fib_update(name("X/0"), [4, 1], 0.0)  # costs 2 and 1
        assert router.select_best_provider(name("X/0")) == (1, 1)

    def test_exclusion_removes_candidates(self):
        router = make_router()
        router.fib_update(name("X/0"), [1], 0.0)
        assert router.select_best_provider(name("X/0"), {1}) is None

    def test_unreachable_provider_skipped(self):
        router = make_router()
        router.fib_update(name("X/0"), [99, 4], 0.0)
        provider, iface = router.select_best_provider(name("X/0"))
        assert provider == 4 and iface == 3

    def test_tie_breaks_on_lowest_router_id(self):
        router = make_router()
        router.fib_update(name("X/0"), [2, 1], 0.0)  # both cost 1
        assert router.select_best_provider(name("X/0"))[0] == 1

    def test_fib_miss_returns_none(self):
        router = make_router()
        assert router.select_best_provider(name("X/0")) is None

    def test_avoid_iface_filters_first_hop(self):
        router = make_router()
        router.fib_update(name("X/0"), [1], 0.0)
        assert router.select_best_provider(name("X/0"), avoid_iface=1) is None

    def test_stale_entry_not_trusted_when_ttl_set(self):
        router = make_router(fib_entry_ttl=2.0)
        router.fib_update(name("X/0"), [1], 0.0)
        assert router.select_best_provider(name("X/0"), now=1.0) == (1, 1)
        assert router.select_best_provider(name("X/0"), now=3.5) is None

    def test_repeated_calls_are_deterministic(self):
        router = make_router()
        router.fib_update(name("X/0"), [2, 4, 1], 0.0)
        first = router.select_best_provider(name("X/0"))
        assert all(router.select_best_provider(name("X/0")) == first
                   for _ in range(5))


class TestFibUpdate:
    def test_appends_unseen_providers(self):
        router = make_router()
        router.fib_update(name("X/0"), [2], 0.0)
        router.fib_update(name("X/0"), [3, 2], 1.0)
        assert router.fib[name("X/0")].providers == [2, 3]

    def test_drops_farthest_over_capacity(self):
        # Tail node 4 is two hops away: farthest of {1,2,3,4} plus new 1-hop.
        router = make_router()
        router.fib_update(name("X/0"), [4, 1, 2], 0.0)
        router.fib_update(name("X/0"), [3, 99, 5], 1.0)  # 99, 5 unreachable
        providers = router.fib[name("X/0")].providers
        assert len(providers) == 5
        assert 99 not in providers or 5 not in providers

    def test_nearer_provider_displaces_farthest(self):
        router = make_router()
        router.fib_update(name("X/0"), [4, 99, 5, 6, 7], 0.0)  # 99,5,6,7 unreachable
        router.fib_update(name("X/0"), [1], 1.0)
        providers = router.fib[name("X/0")].providers
        assert 1 in providers and 4 in providers and len(providers) == 5

    def test_full_table_evicts_lru_entry(self):
        router = make_router(fib_capacity=2)
        router.fib_update(name("X/0"), [1], 0.0)
        router.fib_update(name("X/1"), [1], 1.0)
        router.select_best_provider(name("X/0"), now=2.0)  # touch X/0
        router.fib_update(name("X/2"), [1], 3.0)
        assert name("X/1") not in router.fib
        assert name("X/0") in router.fib and name("X/2") in router.fib
        assert len(router.fib) <= 2

    def test_refreshes_last_update(self):
        router = make_router()
        router.fib_update(name("X/0"), [1], 0.0)
        router.fib_update(name("X/0"), [1], 9.0)
        assert router.fib[name("X/0")].last_update == 9.0

    def test_own_id_left_out(self):
        router = make_router()
        router.fib_update(name("X/0"), [0, 2], 0.0)
        assert router.fib[name("X/0")].providers == [2]

    def test_own_id_alone_creates_no_entry(self):
        router = make_router()
        router.fib_update(name("X/0"), [0], 0.0)
        assert name("X/0") not in router.fib

    def test_new_entry_provider_list_is_sized_to_its_providers(self):
        # CPython rounds an exactly sized list up to an even slot count; an
        # appended-to list would hold four slots for one or two providers.
        router = make_router()
        router.fib_update(name("X/0"), [2], 0.0)
        router.fib_update(name("X/1"), [1, 3, 1], 0.0)
        assert router.fib[name("X/1")].providers == [1, 3]
        pointer = struct.calcsize("P")
        for entry in router.fib.values():
            spare = ((sys.getsizeof(entry.providers) - sys.getsizeof([]))
                     // pointer - len(entry.providers))
            assert spare <= 1

    def test_over_capacity_trim_never_sees_own_id(self):
        router = make_router()
        router.fib_update(name("X/0"), [4, 1, 2, 3], 0.0)
        router.fib_update(name("X/0"), [0, 99], 1.0)
        assert router.fib[name("X/0")].providers == [4, 1, 2, 3, 99]

    @pytest.mark.parametrize("strategy", ["basic-ccn", "fib-probe", "random"])
    def test_an_entry_costs_at_most_225_bytes(self, strategy):
        # A fresh interpreter: no earlier test's freed objects sit in the
        # free lists that the writes reuse.
        src = str(Path(ccnprobe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", FIB_BYTES, strategy, STAR_TAIL],
                             env=env, capture_output=True, text=True, check=True)
        assert float(out.stdout) <= 225


# Traced bytes a FIB entry costs, FIB dict included, for one router whose
# 256-entry FIB takes 20 000 one-provider writes over 2000 names in LRU use.
# Run as `python -c FIB_BYTES <strategy> <topology text>`.
FIB_BYTES = """
import random, sys, tracemalloc
from ccnprobe.model import ContentName
from ccnprobe.node import ContentStore, ProbeStrategy, RouterState
from ccnprobe.topology import build_spt, load_topology

graph = load_topology(sys.argv[2])
rng = random.Random(1)
names = [ContentName("P", i) for i in range(2000)]
writes = [(rng.choice(names), [rng.randrange(1, 5)]) for _ in range(20000)]
router = RouterState(0, ContentStore(8), build_spt(graph, 0), graph.adj[0],
                     ProbeStrategy(sys.argv[1]), fib_capacity=256)
# Empty the float and list free lists, so that every object the FIB keeps
# is allocated, and so traced, while tracing is on.
held = [i + 0.5 for i in range(200)], [[] for _ in range(200)]
tracemalloc.start()
for i, (name, providers) in enumerate(writes):
    router.fib_update(name, providers, i * 0.01)
print(tracemalloc.get_traced_memory()[0] / len(router.fib))
"""


class TestOnInterest:
    def test_hit_role_returns_data_with_replicated_probe_fields(self):
        router = make_router(origin=frozenset({name("n0/1"), name("n0/7")}))
        packet = interest("n0/1", probe=name("n0/7"), response=[2])
        out = Recorder()
        assert router.on_interest(packet, 1, 1.0, random.Random(0), out) is None
        assert len(out.calls) == 1
        kind, src, iface, data, _now = out.calls[0]
        assert kind == "transmit" and src == 0 and iface == 1
        assert isinstance(data, DataPacket)
        assert data.provider_id == 0
        assert data.probe == name("n0/7")
        assert data.probe_response == [2, 0]  # own id appended: probe also held
        assert packet.probe_response == [2]  # the interest may be shared: untouched
        assert router.pit == {}

    def test_local_hit_delivers_locally(self):
        router = make_router(origin=frozenset({name("n0/1")}))
        out = Recorder()
        assert router.on_interest(interest("n0/1"), LOCAL, 1.0, random.Random(0),
                                  out) is None
        [(kind, data, issued, expected_provider, now)] = out.calls
        assert kind == "deliver" and isinstance(data, DataPacket)
        assert data.name == name("n0/1") and data.provider_id == 0
        # Issued now, sent toward no provider, and no PIT state left behind.
        assert issued == (1.0,) and expected_provider is None and now == 1.0
        assert router.pit == {}

    def test_pending_name_aggregates_and_drops(self):
        router = make_router()
        router.on_interest(interest("X/0", nonce=1), 1, 1.0, random.Random(0),
                           Recorder())
        out = Recorder()
        reason = router.on_interest(interest("X/0", nonce=2), 2, 1.1,
                                    random.Random(0), out)
        assert reason == "pit-aggregated" and out.calls == []
        entry = router.pit[name("X/0")]
        assert entry.incoming == {1, 2}
        assert entry.arrival_count == 2
        assert entry.deadline == 1.5  # aggregation does not extend the deadline

    def test_duplicate_nonce_dropped_without_merge(self):
        router = make_router()
        router.on_interest(interest("X/0", nonce=1), 1, 1.0, random.Random(0),
                           Recorder())
        out = Recorder()
        reason = router.on_interest(interest("X/0", nonce=1), 2, 1.1,
                                    random.Random(0), out)
        assert reason == "duplicate-nonce" and out.calls == []
        assert router.pit[name("X/0")].incoming == {1}

    def test_miss_with_fib_miss_broadcasts_except_incoming(self):
        router = make_router()
        out = Recorder()
        assert router.on_interest(interest("X/0"), 1, 1.0, random.Random(0), out) is None
        # The timeout is queued once, after the sends.
        assert out.calls[2:] == [("arm_timeout", 0, router.pit[name("X/0")])]
        assert [c[0] for c in out.calls] == ["transmit", "transmit", "arm_timeout"]
        assert len(out.forwards) == 2
        assert out.ifaces == [2, 3]

    def test_local_origin_broadcasts_to_all_neighbors(self):
        router = make_router()
        out = Recorder()
        router.on_interest(interest("X/0"), LOCAL, 1.0, random.Random(0), out)
        assert out.ifaces == [1, 2, 3]

    def test_best_route_unicast_records_expected_provider_at_origin(self):
        router = make_router()
        router.fib_update(name("X/0"), [4], 0.0)
        out = Recorder()
        router.on_interest(interest("X/0"), LOCAL, 1.0, random.Random(0), out)
        assert out.ifaces == [3]
        assert router.pit[name("X/0")].expected_provider == 4

    def test_relay_does_not_record_expected_provider(self):
        router = make_router()
        router.fib_update(name("X/0"), [4], 0.0)
        router.on_interest(interest("X/0"), 1, 1.0, random.Random(0), Recorder())
        assert router.pit[name("X/0")].expected_provider is None

    def test_origin_attaches_probe(self):
        router = make_router(strategy=ProbeStrategy.PIT_POPULAR)
        router.pit[name("P/0")] = PitEntry(name("P/0"), 1.4, arrival_count=4)
        packet = interest("X/0")
        router.on_interest(packet, LOCAL, 1.0, random.Random(0), Recorder())
        assert packet.probe == name("P/0")
        assert packet.probe_response == []

    def test_relay_does_not_attach_probe(self):
        router = make_router(strategy=ProbeStrategy.PIT_POPULAR)
        router.pit[name("P/0")] = PitEntry(name("P/0"), 1.4, arrival_count=4)
        packet = interest("X/0")
        router.on_interest(packet, 1, 1.0, random.Random(0), Recorder())
        assert packet.probe is None

    def test_relay_appends_id_when_it_holds_probe_content(self):
        router = make_router()
        router.cs.insert(name("Q/0"))
        packet = interest("X/0", probe=name("Q/0"), response=[7])
        out = Recorder()
        router.on_interest(packet, 1, 1.0, random.Random(0), out)
        assert out.ifaces == [2, 3]  # FIB miss: broadcast
        sent, again = out.forwards
        assert sent is again and sent.probe_response == [7, 0]
        # The arriving packet may be shared with copies in flight: untouched.
        assert sent is not packet and packet.probe_response == [7]

    def test_probe_response_capacity_is_first_come(self):
        router = make_router()
        router.cs.insert(name("Q/0"))
        packet = interest("X/0", probe=name("Q/0"), response=[5, 6, 7, 8, 9])
        out = Recorder()
        router.on_interest(packet, 1, 1.0, random.Random(0), out)
        assert len(out.forwards) == 2
        for sent in out.forwards:  # full: no displacement
            assert sent.probe_response == [5, 6, 7, 8, 9]
        assert packet.probe_response == [5, 6, 7, 8, 9]

    def test_probe_response_never_duplicates_ids(self):
        router = make_router()
        router.cs.insert(name("Q/0"))
        packet = interest("X/0", probe=name("Q/0"), response=[0])
        out = Recorder()
        router.on_interest(packet, 1, 1.0, random.Random(0), out)
        assert len(out.forwards) == 2
        for sent in out.forwards:
            assert sent.probe_response == [0]
        assert packet.probe_response == [0]

    def test_isolated_router_drops_with_no_route(self):
        router = make_router(topo="node n0\nnode n1\nedge n0 n1\n")
        out = Recorder()
        reason = router.on_interest(interest("X/0"), 1, 1.0, random.Random(0), out)
        # Nothing is sent, but the entry stays pending until it times out.
        assert reason == "no-route"
        assert out.calls == [("arm_timeout", 0, router.pit[name("X/0")])]

    def test_producer_route_used_on_fib_miss(self):
        router = make_router(producer_routes={"n4": 4})
        out = Recorder()
        router.on_interest(interest("n4/3"), LOCAL, 1.0, random.Random(0), out)
        assert out.ifaces == [3]
        assert router.pit[name("n4/3")].expected_provider == 4


class TestOnData:
    def test_probe_response_creates_fib_entry(self):
        router = make_router()
        router.pit[name("X/0")] = PitEntry(name("X/0"), 1.5, incoming={1})
        data = DataPacket(name("X/0"), provider_id=4, payload_size=64,
                          probe=name("P/0"), probe_response=[2, 3])
        router.on_data(data, 3, 1.2, Recorder())
        assert router.fib[name("P/0")].providers == [2, 3]

    def test_unsolicited_data_dropped(self):
        router = make_router()
        data = DataPacket(name("X/0"), provider_id=4)
        out = Recorder()
        assert router.on_data(data, 3, 1.2, out) == "unsolicited"
        assert out.calls == []
        assert name("X/0") not in router.cs.entries

    def test_fan_out_covers_incoming_set_and_removes_entry(self):
        router = make_router()
        entry = PitEntry(name("X/0"), 1.5, incoming={1, 2},
                         local_issued=[1.0], expected_provider=4)
        router.pit[name("X/0")] = entry
        data = DataPacket(name("X/0"), provider_id=4, payload_size=64)
        out = Recorder()
        assert router.on_data(data, 3, 1.2, out) is None
        assert [c[0] for c in out.calls] == ["deliver", "transmit", "transmit"]
        assert out.sends == [(1, data), (2, data)]
        assert out.calls[0] == ("deliver", data, [1.0], 4, 1.2)
        assert name("X/0") not in router.pit

    def test_payload_cached_and_provider_recorded(self):
        router = make_router()
        router.pit[name("X/0")] = PitEntry(name("X/0"), 1.5, incoming={1})
        data = DataPacket(name("X/0"), provider_id=4, payload_size=64)
        router.on_data(data, 3, 1.2, Recorder())
        assert name("X/0") in router.cs.entries
        assert router.fib[name("X/0")].providers == [4]

    def test_probe_response_naming_this_router_is_not_recorded(self):
        router = make_router()
        router.pit[name("X/0")] = PitEntry(name("X/0"), 1.5, incoming={1})
        data = DataPacket(name("X/0"), provider_id=4, payload_size=64,
                          probe=name("P/0"), probe_response=[0, 3])
        router.on_data(data, 3, 1.2, Recorder())
        assert router.fib[name("P/0")].providers == [3]

    def test_empty_probe_response_does_not_create_entry(self):
        router = make_router()
        router.pit[name("X/0")] = PitEntry(name("X/0"), 1.5, incoming={1})
        data = DataPacket(name("X/0"), provider_id=4, payload_size=64,
                          probe=name("P/0"), probe_response=[])
        router.on_data(data, 3, 1.2, Recorder())
        assert name("P/0") not in router.fib

    def test_origin_content_not_recached(self):
        router = make_router(origin=frozenset({name("n0/1")}))
        router.pit[name("n0/1")] = PitEntry(name("n0/1"), 1.5, incoming={1})
        data = DataPacket(name("n0/1"), provider_id=4, payload_size=64)
        router.on_data(data, 3, 1.2, Recorder())
        assert name("n0/1") not in router.cs.entries


class TestOnTimeout:
    def prepared_router(self, providers, strategy=ProbeStrategy.NONE):
        router = make_router(strategy=strategy)
        router.fib_update(name("X/0"), providers, 0.0)
        entry = PitEntry(name("X/0"), 0.5, local_issued=[0.0],
                         expected_provider=providers[0], seen_nonces={1})
        router.pit[name("X/0")] = entry
        return router, entry

    def test_retransmits_toward_next_provider(self):
        # expected 4 timed out; 1 remains
        router, entry = self.prepared_router([4, 1])
        out = Recorder()
        assert router.on_timeout(name("X/0"), 0.5, random.Random(0), out) is None
        assert len(out.calls) == 2 and len(out.forwards) == 1
        assert out.calls[1] == ("arm_timeout", 0, entry)
        [(iface, packet)] = out.sends
        assert iface == 1
        assert entry.expected_provider == 1
        assert 4 in entry.tried_providers
        assert entry.deadline == 1.0
        assert packet.nonce in entry.seen_nonces
        assert packet.nonce != 1

    def test_exhausted_providers_fall_back_to_single_broadcast(self):
        router, entry = self.prepared_router([4])
        out = Recorder()
        router.on_timeout(name("X/0"), 0.5, random.Random(0), out)
        assert out.ifaces == [1, 2, 3]
        assert entry.broadcast_retry_used
        assert out.calls[-1] == ("arm_timeout", 0, entry) and entry.deadline == 1.0

    def test_second_exhaustion_gives_up_unsatisfied(self):
        router, entry = self.prepared_router([4])
        router.on_timeout(name("X/0"), 0.5, random.Random(0), Recorder())
        out = Recorder()
        reason = router.on_timeout(name("X/0"), 1.0, random.Random(0), out)
        assert reason == "unsatisfied" and out.calls == []
        # The engine counts the given-up requests from the entry it holds.
        assert entry.local_issued == [0.0]
        assert name("X/0") not in router.pit

    def test_new_provider_learned_after_broadcast_still_used(self):
        router, entry = self.prepared_router([4])
        router.on_timeout(name("X/0"), 0.5, random.Random(0), Recorder())  # broadcast
        router.fib_update(name("X/0"), [1], 0.8)
        out = Recorder()
        router.on_timeout(name("X/0"), 1.0, random.Random(0), out)
        assert out.ifaces == [1]

    def test_relay_entry_expires_silently(self):
        router = make_router()
        router.pit[name("X/0")] = PitEntry(name("X/0"), 0.5, incoming={1})
        out = Recorder()
        assert router.on_timeout(name("X/0"), 0.5, random.Random(0), out) is None
        assert out.calls == []
        assert name("X/0") not in router.pit

    def test_retransmission_attaches_fresh_probe(self):
        # Only the retried entry pending: nothing else is worth probing.
        router, entry = self.prepared_router([4, 1], ProbeStrategy.PIT_POPULAR)
        out = Recorder()
        router.on_timeout(name("X/0"), 0.5, random.Random(0), out)
        assert out.sends[0][1].probe is None
        # A second pending entry loses the deadline tie-break to X/0, yet
        # it is the one the retry carries.
        router, entry = self.prepared_router([4, 1], ProbeStrategy.PIT_POPULAR)
        router.pit[name("Y/0")] = PitEntry(name("Y/0"), 0.8, incoming={2})
        out = Recorder()
        router.on_timeout(name("X/0"), 0.5, random.Random(0), out)
        assert out.sends[0][1].probe == name("Y/0")


def test_table_capacity_bounds_hold_under_random_operations():
    rng = random.Random(5)
    router = make_router(cs_capacity=4, fib_capacity=6)
    names = [name(f"P/{i}") for i in range(40)]
    for step in range(500):
        now = step * 0.1
        pick = rng.choice(names)
        op = rng.randrange(3)
        if op == 0:
            router.cs.insert(pick)
        elif op == 1:
            router.fib_update(pick, [rng.randrange(1, 6)], now)
        else:
            router.select_best_provider(pick, now=now)
        assert len(router.cs.entries) <= 4
        assert len(router.fib) <= 6


@pytest.mark.parametrize("strategy", [s for s in ProbeStrategy
                                      if s is not ProbeStrategy.NONE])
def test_probes_name_only_content_the_origin_lacks(strategy):
    rng = random.Random(13)
    router = make_router(strategy=strategy, cs_capacity=4, fib_capacity=8,
                         origin=frozenset(name(f"n0/{i}") for i in range(3)))
    names = [name(f"n0/{i}") for i in range(3)] + [name(f"P/{i}") for i in range(9)]
    nonces = itertools.count(1)
    probes = 0
    for step in range(600):
        now = step * 0.05
        pick = rng.choice(names)
        op = rng.randrange(4)
        if op == 0:
            packet = InterestPacket(pick, next(nonces))
            router.on_interest(packet, LOCAL, now, rng, Recorder())
            if packet.probe is not None:
                probes += 1
                assert packet.probe != pick
                assert not router.holds(packet.probe)
        elif op == 1:
            router.on_interest(InterestPacket(pick, next(nonces)),
                               rng.choice([1, 2, 3]), now, rng, Recorder())
        elif op == 2 and pick in router.pit:
            response = rng.sample(range(5), rng.randrange(6))
            router.on_data(DataPacket(pick, provider_id=rng.randrange(5),
                                      payload_size=64,
                                      probe=rng.choice(names),
                                      probe_response=response), 1, now,
                           Recorder())
        elif op == 3 and pick in router.pit:
            out = Recorder()
            router.on_timeout(pick, now, rng, out)
            for packet in out.forwards:
                probes += packet.probe is not None
                assert packet.probe != pick
                assert not router.holds(packet.probe)
        assert all(0 not in entry.providers for entry in router.fib.values())
    assert probes > 0


def test_aggregation_emits_at_most_one_forward_batch_per_pending_entry():
    rng = random.Random(9)
    router = make_router()
    nonces = itertools.count(1)
    for _ in range(300):
        pick = name(f"P/{rng.randrange(8)}")
        in_iface = rng.choice([LOCAL, 1, 2, 3])
        pending = pick in router.pit
        out = Recorder()
        router.on_interest(InterestPacket(pick, next(nonces)), in_iface,
                           rng.random(), rng, out)
        if pending:
            assert out.forwards == []
