import gc
import math
import random
import tracemalloc
import weakref
from collections import Counter, deque

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from ccnprobe import engine
from ccnprobe.cli import check_point, data_path
from ccnprobe.engine import (EV_END, EV_FAILURE, EV_ISSUE, EV_SECOND,
                             EV_TIMEOUT, ConfigError, LinkQueue, Scenario,
                             Simulation, generate_interest_events,
                             inject_cache_churn, inject_failure, run)
from ccnprobe.model import (PROBE_RESPONSE_CAPACITY, ContentName, InterestPacket,
                            content_catalog)
from ccnprobe.node import ContentStore, ProbeStrategy, RouterState
from ccnprobe.topology import build_all_spts, build_spt, load_topology
from test_probe_index import scan_fib_probe

LINE_TOPO = """
node A producer consumer
node B
node C
node D producer consumer
edge A B
edge B C
edge C D
"""


def abilene_scenario(**overrides):
    base = dict(topology=str(data_path("abilene.topo")), sim_duration=60.0,
                cache_size_ratio=0.10, link_delay=0.01,
                link_bandwidth="unlimited", rng_seed=1)
    base.update(overrides)
    return Scenario(**base)


class TestScenarioValidation:
    def test_defaults_validate(self):
        abilene_scenario().validate()

    @pytest.mark.parametrize("field,value", [
        ("sim_duration", -1), ("interest_frequency", -2),
        ("cache_size_ratio", 1.5), ("cache_update_ratio", -0.1),
        ("timeout", 0.0), ("payload_size", -5), ("queue_capacity", 0),
        ("fib_capacity", 0), ("fib_entry_ttl", 0.0),
        ("probe_strategy", "telepathy"), ("sim_duration", math.nan),
        ("timeout", math.nan), ("link_bandwidth", "fast"),
        ("contents_per_producer", 0), ("failures", ((999.0, 1),)),
        # Non-finite values (like the two NaNs above) fail or stop a run.
        ("sim_duration", math.inf), ("link_delay", math.nan),
        ("link_delay", math.inf), ("link_bandwidth", math.inf),
        ("fib_entry_ttl", math.inf), ("failures", ((math.nan, 1),)),
        ("failures", ((math.inf, 1),)),
        ("link_delay", None), ("link_bandwidth", None),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            abilene_scenario(**{field: value}).validate()

    def test_canonical_is_stable(self):
        a, b = abilene_scenario(), abilene_scenario()
        assert a.canonical() == b.canonical()
        assert a.canonical() != abilene_scenario(rng_seed=2).canonical()


class TestWorkload:
    def test_abilene_interest_count(self):
        scenario = abilene_scenario(sim_duration=480.0)
        graph = load_topology(scenario.topology)
        catalog = content_catalog(
            [graph.name_of[r] for r in graph.producers()], 100)
        events = generate_interest_events(graph.consumers(), catalog,
                                          scenario, random.Random(1))
        assert len(events) == 12 * 480  # 5760

    def test_frequency_scales_event_count(self):
        scenario = abilene_scenario(sim_duration=10.0, interest_frequency=30)
        graph = load_topology(scenario.topology)
        catalog = content_catalog(["P"], 10)
        events = generate_interest_events(graph.consumers(), catalog,
                                          scenario, random.Random(1))
        assert len(events) == 12 * 10 * 30

    def test_issue_times_fall_inside_their_second(self):
        scenario = abilene_scenario(sim_duration=5.0)
        graph = load_topology(scenario.topology)
        catalog = content_catalog(["P"], 10)
        events = generate_interest_events(graph.consumers(), catalog,
                                          scenario, random.Random(1))
        assert all(0.0 <= t < 5.0 for t, _, _ in events)

    def test_names_drawn_uniformly(self):
        # chi-square over 10^5 draws across a 1200-name catalog
        scenario = Scenario(topology="node A consumer\n", sim_duration=100000.0,
                            interest_frequency=1)
        catalog = content_catalog([f"p{i}" for i in range(12)], 100)
        events = generate_interest_events([0], catalog, scenario,
                                          random.Random(123))
        counts = Counter(name for _, _, name in events)
        observed = [counts.get(n, 0) for n in catalog]
        assert chisquare(observed).pvalue > 0.01

    @pytest.mark.parametrize("n", [1, 2, 3, 1024, 1600, 1601])
    def test_names_are_randrange_draws(self, n):
        # The reference draws each issue's time, then its name, through
        # `randrange`, second by second and consumer by consumer.
        scenario = Scenario(topology="node A consumer\n", sim_duration=7.0,
                            interest_frequency=3)
        consumers = [0, 1]
        catalog = content_catalog(["P"], n)
        rng, ref = random.Random(5), random.Random(5)
        plan = generate_interest_events(consumers, catalog, scenario, rng)
        expected = []
        for _second in range(7):
            for _issuer in range(len(consumers) * 3):
                ref.random()
                expected.append(catalog[ref.randrange(n)])
        assert [name for _, _, name in plan] == expected
        assert rng.getstate() == ref.getstate()


class TestIssuePlan:
    """The plan is a sequence of (time, consumer, name) triples that slices
    like a list; a simulation issues exactly the triples it is given."""

    def scenario(self):
        return abilene_scenario(sim_duration=5.0, interest_frequency=2)

    def plan(self, scenario):
        graph = load_topology(scenario.topology)
        catalog = content_catalog(
            [graph.name_of[r] for r in graph.producers()], 100)
        return generate_interest_events(graph.consumers(), catalog, scenario,
                                        random.Random(1))

    def test_slices_read_like_a_list(self):
        plan = self.plan(self.scenario())
        triples = list(plan)
        assert len(plan) == len(triples) == 12 * 5 * 2
        assert list(plan[1:]) == triples[1:]
        assert len(plan[1:]) == len(triples) - 1
        assert plan[7] == triples[7] and plan[-1] == triples[-1]

    def test_an_issue_costs_at_most_13_bytes(self):
        plan = self.plan(self.scenario())
        columns = (plan.times, plan.consumers, plan.names)
        assert all(len(column) == len(plan) for column in columns)
        assert sum(column.itemsize for column in columns) <= 13

    def test_a_simulation_issues_exactly_its_plan(self, monkeypatch):
        scenario = self.scenario()
        generate = engine.generate_interest_events
        monkeypatch.setattr(engine, "generate_interest_events",
                            lambda *args: generate(*args)[1:])
        assert run(scenario).issued_interests == len(self.plan(scenario)) - 1


class TestSharedNetwork:
    """Simulations of one topology text share its graph, catalog, tables and
    origin sets, which nothing mutates."""

    def test_simulations_of_one_topology_share_their_tables(self):
        a = Simulation(abilene_scenario(rng_seed=1))
        b = Simulation(abilene_scenario(rng_seed=2, cache_size_ratio=0.3))
        assert a.graph is b.graph and a.catalog is b.catalog
        for rid, router in a.routers.items():
            assert router.spt is b.routers[rid].spt
            assert router.origin is b.routers[rid].origin

    def test_abilene_network_holds_at_most_170_kib(self):
        text = data_path("abilene.topo").read_text()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            network = engine.shared_network.__wrapped__(text, 100)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 170 * 1024
        producers = set(network.graph.producers())
        for rid, origin in network.origins.items():
            prefix = network.graph.name_of[rid]
            assert origin == {n for n in network.catalog
                              if rid in producers and n.prefix == prefix}

    def test_file_rewritten_in_place_is_parsed_again(self, tmp_path):
        path = tmp_path / "net.topo"
        path.write_text("node A producer consumer\nnode B\nedge A B\n")
        first = Simulation(Scenario(topology=str(path), sim_duration=1.0))
        path.write_text("node A producer consumer\nnode B\nnode C consumer\n"
                        "edge A B\nedge B C\n")
        second = Simulation(Scenario(topology=str(path), sim_duration=1.0))
        assert len(first.graph.nodes) == 2
        assert len(second.graph.nodes) == 3
        assert second.routers[0].spt.cost(2) == 2

    def test_failures_leave_the_shared_tables_intact(self):
        topology = str(data_path("sprint52.topo"))
        Simulation(Scenario(topology=topology, sim_duration=20.0,
                            failures=((5.0, 3), (10.0, 2)))).run()
        sim = Simulation(Scenario(topology=topology, sim_duration=20.0))
        fresh = build_all_spts(load_topology(topology))
        assert sorted(sim.routers) == sorted(fresh)
        for rid, router in sim.routers.items():
            assert router.spt.entries == fresh[rid].entries
            assert router.neighbors == sorted(sim.graph.adj[rid])


# Consumers at both ends of a line of four; B and C may fail.
LINE_SCENARIO = dict(topology=LINE_TOPO, interest_frequency=3,
                     contents_per_producer=10, cache_size_ratio=0.2,
                     link_delay=0.01, link_bandwidth="unlimited")


class TestIssueAdmission:
    """Issues enter the queue one simulated second at a time."""

    def test_construction_queues_end_failures_and_one_tick_per_second(self):
        sim = Simulation(Scenario(sim_duration=5.5, failures=((2.0, 1),),
                                  **LINE_SCENARIO))
        kinds = Counter(event[2] for event in sim._heap)
        assert kinds == {EV_END: 1, EV_FAILURE: 1, EV_SECOND: 6}
        assert sorted(event[0] for event in sim._heap
                      if event[2] == EV_SECOND) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_at_most_one_second_of_issues_is_queued(self):
        sim = Simulation(Scenario(sim_duration=6.0, cache_update_ratio=0.2,
                                  **LINE_SCENARIO))
        queued = []
        push = sim._push

        def recording_push(*event):
            queued.append(sum(1 for ev in sim._heap if ev[2] == EV_ISSUE))
            push(*event)
        sim._push = recording_push
        report = sim.run()
        assert report.issued_interests == 2 * 3 * 6
        assert 0 < max(queued) <= 2 * 3  # consumers x interest_frequency

    def test_the_plan_frees_the_issues_it_has_queued(self):
        sim = Simulation(Scenario(sim_duration=20.0, **LINE_SCENARIO))
        per_second = 2 * 3  # consumers x interest_frequency
        on_second = sim._on_second
        held = []

        def recording(second):
            on_second(second)
            held.append((len(sim._plan), len(sim._plan) - sim._next_issue))
        sim._on_second = recording
        report = sim.run()
        assert report.issued_interests == 20 * per_second
        assert len(held) == 20  # the end wins the tie with the tick at 20
        assert all(size <= 2 * unqueued + per_second for size, unqueued in held)

    @pytest.mark.parametrize("duration,churns", [(3.0, 2), (3.5, 3)])
    def test_churn_runs_at_whole_seconds_from_one(self, monkeypatch,
                                                  duration, churns):
        calls = []
        churn = engine.inject_cache_churn

        def counting(routers, ratio, rng):
            calls.append(ratio)
            return churn(routers, ratio, rng)
        monkeypatch.setattr(engine, "inject_cache_churn", counting)
        # At 3.0 the end event, queued first, wins the tie with the tick.
        Simulation(Scenario(sim_duration=duration, cache_update_ratio=0.2,
                            **LINE_SCENARIO)).run()
        assert calls == [0.2] * churns


class TestCacheChurn:
    def fleet(self, items):
        graph = load_topology("node A\nnode B\nedge A B\n")
        router = RouterState(0, ContentStore(32), build_spt(graph, 0), [1])
        for i in range(items):
            router.cs.insert(ContentName("P", i))
        return [router]

    def test_zero_ratio_is_identity(self):
        routers = self.fleet(12)
        assert inject_cache_churn(routers, 0.0, random.Random(1)) == 0
        assert len(routers[0].cs.entries) == 12

    def test_full_ratio_empties_store(self):
        routers = self.fleet(12)
        assert inject_cache_churn(routers, 1.0, random.Random(1)) == 12
        assert len(routers[0].cs.entries) == 0

    def test_ceiling_rule(self):
        routers = self.fleet(9)
        assert inject_cache_churn(routers, 0.5, random.Random(1)) == 5
        assert len(routers[0].cs.entries) == 4

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            inject_cache_churn(self.fleet(3), 1.5, random.Random(1))

    def test_deterministic_under_seed(self):
        a, b = self.fleet(10), self.fleet(10)
        inject_cache_churn(a, 0.4, random.Random(7))
        inject_cache_churn(b, 0.4, random.Random(7))
        assert list(a[0].cs.entries) == list(b[0].cs.entries)


class TestScheduleTransmission:
    def test_idle_unlimited_link_is_pure_propagation(self):
        from ccnprobe.engine import schedule_transmission
        link = LinkQueue(1.0, None, 64)
        assert schedule_transmission(link, 27, 5.0) == 6.0

    def test_serialization_delay_arithmetic(self):
        from ccnprobe.engine import schedule_transmission
        link = LinkQueue(1.0, 1024.0, 64)
        arrival = schedule_transmission(link, 27, 0.0)
        assert arrival == pytest.approx(27 * 8 / 1024 + 1.0)

    def test_busy_link_serializes_back_to_back(self):
        from ccnprobe.engine import schedule_transmission
        link = LinkQueue(0.0, 1000.0, 64)
        first = schedule_transmission(link, 125, 0.0)   # 1 s serialization
        second = schedule_transmission(link, 125, 0.0)  # queued behind it
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_full_queue_drops(self):
        from ccnprobe.engine import schedule_transmission
        link = LinkQueue(0.0, 1000.0, 2)
        assert schedule_transmission(link, 125, 0.0) is not None
        assert schedule_transmission(link, 125, 0.0) is not None
        assert schedule_transmission(link, 125, 0.0) is None

    def test_queue_drains_over_time(self):
        from ccnprobe.engine import schedule_transmission
        link = LinkQueue(0.0, 1000.0, 2)
        schedule_transmission(link, 125, 0.0)
        schedule_transmission(link, 125, 0.0)
        assert schedule_transmission(link, 125, 1.5) is not None

    def test_serializations_never_overlap(self):
        from ccnprobe.engine import schedule_transmission
        link = LinkQueue(0.0, 8000.0, 64)
        rng = random.Random(3)
        finish = []
        now = 0.0
        for _ in range(50):
            now += rng.random() * 0.05
            size = rng.randint(5, 200)
            arrival = schedule_transmission(link, size, now)
            if arrival is None:
                continue
            start = arrival - size * 8 / 8000.0
            assert not finish or start >= finish[-1] - 1e-12
            finish.append(arrival)

    @staticmethod
    def deque_reference(sends, delay, bandwidth, queue_cap):
        """Drop-tail over a deque of finish times, popped from the left."""
        completions = deque()
        arrivals = []
        for now, size in sends:
            while completions and completions[0] <= now:
                completions.popleft()
            if len(completions) >= queue_cap:
                arrivals.append(None)
                continue
            start = max(completions[-1], now) if completions else now
            completions.append(start + size * 8.0 / bandwidth)
            arrivals.append(completions[-1] + delay)
        return arrivals

    @given(gaps_and_sizes=st.lists(
               st.tuples(st.sampled_from([0.0, 0.001, 0.05, 0.3, 2.0]),
                         st.integers(1, 1200)), max_size=80),
           delay=st.sampled_from([0.0, 0.01, 1.0]),
           bandwidth=st.sampled_from([800.0, 32000.0, 1e6]),
           queue_cap=st.integers(1, 8))
    def test_same_arrivals_and_drops_as_a_deque(self, gaps_and_sizes, delay,
                                                  bandwidth, queue_cap):
        from ccnprobe.engine import schedule_transmission
        sends, now = [], 0.0
        for gap, size in gaps_and_sizes:
            now += gap
            sends.append((now, size))
        link = LinkQueue(delay, bandwidth, queue_cap)
        arrivals = [schedule_transmission(link, size, now) for now, size in sends]
        assert arrivals == self.deque_reference(sends, delay, bandwidth,
                                                queue_cap)
        assert len(link.completions) <= queue_cap


class TestFailureInjection:
    def test_zero_count_is_noop(self):
        graph = load_topology(data_path("sprint52.topo"))
        survivor, spts, victims = inject_failure(graph, 0, random.Random(1))
        assert victims == []
        assert len(survivor.nodes) == 52

    def test_victims_come_from_pure_routers(self):
        graph = load_topology(data_path("sprint52.topo"))
        eligible = set(graph.pure_routers())
        _, _, victims = inject_failure(graph, 20, random.Random(1))
        assert len(victims) == 20
        assert set(victims) <= eligible

    def test_count_above_eligible_rejected(self):
        graph = load_topology(data_path("sprint52.topo"))
        with pytest.raises(ConfigError):
            inject_failure(graph, 34, random.Random(1))

    def test_abilene_has_no_eligible_victims(self):
        graph = load_topology(data_path("abilene.topo"))
        with pytest.raises(ConfigError):
            inject_failure(graph, 1, random.Random(1))

    def test_spts_rebuilt_for_survivors(self):
        graph = load_topology(data_path("sprint52.topo"))
        survivor, spts, victims = inject_failure(graph, 5, random.Random(2))
        assert set(spts) == set(survivor.nodes)
        for rid, spt in spts.items():
            for dst in spt.entries:
                assert dst not in victims

    def test_failure_event_fires_at_half_time(self):
        sc = Scenario(topology=str(data_path("sprint52.topo")),
                      sim_duration=40.0, cache_size_ratio=0.05,
                      contents_per_producer=20, payload_size=64,
                      link_delay=0.01, link_bandwidth="unlimited",
                      failures=((20.0, 3),), rng_seed=5)
        sim = Simulation(sc)
        sim.run()
        assert len(sim.routers) == 49
        assert len(sim.graph.nodes) == 49

    def test_failed_router_pending_interests_counted(self):
        # every issued interest must still be accounted for after failures
        sc = Scenario(topology=str(data_path("sprint52.topo")),
                      sim_duration=60.0, cache_size_ratio=0.05,
                      contents_per_producer=20, payload_size=64,
                      link_delay=0.2, link_bandwidth="unlimited",
                      failures=((30.0, 10),), rng_seed=5)
        report = run(sc)
        assert (report.satisfied_count + report.unsatisfied_count
                + report.pending_at_end == report.issued_interests)


class TestRun:
    def test_zero_duration_yields_empty_report(self):
        report = run(abilene_scenario(sim_duration=0.0))
        assert report.issued_interests == 0
        assert report.sent_packets == 0
        assert report.throughput_pkt_s == 0.0

    def test_same_seed_reproduces_identical_report(self):
        a = run(abilene_scenario(probe_strategy="fib-probe", rng_seed=9))
        b = run(abilene_scenario(probe_strategy="fib-probe", rng_seed=9))
        assert a.csv_values() == b.csv_values()
        assert a.response_time_samples == b.response_time_samples

    def test_different_seeds_differ(self):
        a = run(abilene_scenario(rng_seed=1))
        b = run(abilene_scenario(rng_seed=2))
        assert a.csv_values() != b.csv_values()

    def test_unloadable_topology_fails_before_events(self):
        with pytest.raises(OSError):
            Simulation(abilene_scenario(topology="/nope/missing.topo"))

    def test_conservation_identity(self):
        for seed in (1, 2, 3):
            report = run(abilene_scenario(rng_seed=seed, sim_duration=90.0,
                                          probe_strategy="pit-probe",
                                          cache_update_ratio=0.2))
            assert (report.satisfied_count + report.unsatisfied_count
                    + report.pending_at_end == report.issued_interests)
            assert report.received_packets <= report.sent_packets

    def test_forwarded_interests_exclude_consumer_originals(self):
        # single-node network: every interest satisfied locally, nothing forwarded
        report = run(Scenario(topology="node A producer consumer router\n",
                              sim_duration=30.0, contents_per_producer=5,
                              cache_size_ratio=0.2, rng_seed=1))
        assert report.issued_interests == 30
        assert report.forwarded_interests == 0
        assert report.satisfied_count == 30
        assert report.avg_response_time_s == 0.0

    def test_line_topology_response_time_matches_hop_arithmetic(self):
        # A requests D's content: 3 hops out, 3 hops back at 0.01 s each.
        sc = Scenario(topology=LINE_TOPO, sim_duration=1.0,
                      contents_per_producer=1, cache_size_ratio=0.5,
                      link_delay=0.01, link_bandwidth="unlimited",
                      rng_seed=5, timeout=5.0)
        report = run(sc)
        # consumer A and consumer D each issued one interest; names are A/0,
        # D/0, and under this seed each asks for the other end's content.
        assert report.issued_interests == 2
        remote = [s for s in report.response_time_samples if s > 0]
        assert len(remote) == 2
        assert all(s == pytest.approx(0.06) for s in remote)
        assert report.hop_count_sum == 3 * len(remote)

    def test_event_times_never_decrease(self, monkeypatch):
        seen = []
        on_interest = RouterState.on_interest

        def recording(router, interest, in_iface, now, rng, out):
            seen.append(now)
            return on_interest(router, interest, in_iface, now, rng, out)

        monkeypatch.setattr(RouterState, "on_interest", recording)
        Simulation(abilene_scenario(sim_duration=30.0)).run()
        assert len(seen) > 12 * 30  # issues and relayed arrivals
        assert all(a <= b for a, b in zip(seen, seen[1:]))

    def test_finished_simulation_is_freed_by_reference_counting(self):
        # Routers get the simulation per call and never keep it, so no
        # reference cycle keeps a finished run's tables alive until the
        # cycle collector runs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim = Simulation(abilene_scenario(sim_duration=10.0))
            sim.run()
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_producer_routing_unicasts_without_fib(self):
        sc = Scenario(topology=LINE_TOPO, sim_duration=1.0,
                      contents_per_producer=1, cache_size_ratio=0.5,
                      link_delay=0.01, link_bandwidth="unlimited",
                      rng_seed=4, timeout=5.0, producer_routing=True)
        report = run(sc)
        assert report.satisfied_count == report.issued_interests

    def test_duplicate_churn_and_probe_strategies_smoke(self):
        for strategy in ("sequential", "random"):
            report = run(abilene_scenario(sim_duration=30.0,
                                          probe_strategy=strategy,
                                          cache_update_ratio=0.3))
            assert report.issued_interests == 12 * 30

    def test_finite_bandwidth_produces_queueing_and_loss(self):
        report = run(abilene_scenario(sim_duration=60.0, payload_size=128,
                                      link_bandwidth=4096.0, queue_capacity=4))
        assert report.packet_loss_pct > 0.0
        assert report.received_packets < report.sent_packets


# Two relays between a consumer and a producer: S-R1-P and S-R2-P.
DIAMOND_TOPO = """
node S consumer
node R1
node R2
node P producer
edge S R1
edge S R2
edge R1 P
edge R2 P
"""

# A producer behind router X, with consumer A one hop from X and consumer B
# two hops from X through Y.
FORK_TOPO = """
node P producer
node X
node A consumer
node Y
node B consumer
edge P X
edge X A
edge X Y
edge Y B
"""


def quiet_simulation(topology, **overrides):
    """A 1 s run that issues no interests of its own, and its router ids."""
    settings = dict(sim_duration=1.0, interest_frequency=0,
                    contents_per_producer=4, cache_size_ratio=0.5,
                    link_delay=0.01, link_bandwidth="unlimited")
    sim = Simulation(Scenario(topology=topology, **{**settings, **overrides}))
    ids = {name: rid for rid, name in sim.graph.name_of.items()}
    return sim, ids


class TestSharedPackets:
    """Copies of a packet in flight share one object; each hop still sees
    its own probe response and hop count."""

    def test_relays_holding_the_probe_each_write_their_own_copy(self):
        sim, ids = quiet_simulation(DIAMOND_TOPO)
        s, r1, r2, p = (ids[n] for n in ("S", "R1", "R2", "P"))
        probe = ContentName("P", 1)
        for relay in (r1, r2):
            sim.routers[relay]._cache(probe)
        sent = []
        transmit = sim.transmit

        def recording(src, dst, packet, now):
            sent.append((src, dst, packet))
            transmit(src, dst, packet, now)
        sim.transmit = recording

        # S broadcasts one probed interest to both relays.
        original = InterestPacket(ContentName("P", 0), next(sim.nonces),
                                  probe=probe)
        for relay in (r1, r2):
            sim.transmit(s, relay, original, 0.0)
        sim.run()
        interests = {(src, dst): packet for src, dst, packet in sent
                     if isinstance(packet, InterestPacket)}
        assert interests[s, r1] is original and interests[s, r2] is original
        assert interests[r1, p].probe_response == [r1]
        assert interests[r2, p].probe_response == [r2]
        assert original.probe_response == []

    def test_one_data_packet_reaches_two_origins_with_their_own_hop_counts(self):
        sim, ids = quiet_simulation(FORK_TOPO, producer_routing=True)
        a, b = ids["A"], ids["B"]
        name = ContentName("P", 0)
        sim._push(0.0, EV_ISSUE, a, name, None)
        sim._push(0.001, EV_ISSUE, b, name, None)
        delivered = []
        deliver = sim.deliver

        def recording(data, issued, expected_provider, now):
            [issued_at] = issued
            delivered.append((issued_at, data, data.hop_count))
            deliver(data, issued, expected_provider, now)
        sim.deliver = recording

        report = sim.run()
        assert [(issued, hops) for issued, _data, hops in delivered] == [
            (0.0, 2), (0.001, 3)]
        assert delivered[0][1] is delivered[1][1]  # one shared data packet
        assert report.hop_count_sum == 2 + 3


# Consumer A with a dead-end relay B and the producer P as neighbors.
DEAD_END_TOPO = """
node A consumer
node B
node P producer
edge A B
edge A P
"""

# Consumer A, relay B, producer P in a line.
LINE3_TOPO = """
node A consumer
node B
node P producer
edge A B
edge B P
"""


class TestTimeouts:
    """Every PIT deadline a router sets queues exactly one timeout event."""

    def traced(self, topology, **overrides):
        """A quiet simulation recording each timeout pushed, as (router,
        deadline), and each popped, as (router, counted as a timeout)."""
        sim, ids = quiet_simulation(topology, **overrides)
        pushed, popped = [], []
        push, on_timeout_event = sim._push, sim._on_timeout_event

        def recording_push(time, kind, a, b, c):
            if kind == EV_TIMEOUT:
                pushed.append((a, time))
            push(time, kind, a, b, c)

        def recording_pop(now, rid, name, deadline):
            before = sim.stats.timeout_count
            on_timeout_event(now, rid, name, deadline)
            popped.append((rid, sim.stats.timeout_count > before))
        sim._push = recording_push
        sim._on_timeout_event = recording_pop
        return sim, ids, pushed, popped

    def test_aggregated_interests_queue_no_second_timeout(self):
        sim, ids, pushed, _popped = self.traced(FORK_TOPO, producer_routing=True)
        a, x, y, b = (ids[n] for n in ("A", "X", "Y", "B"))
        name = ContentName("P", 0)
        sim._push(0.0, EV_ISSUE, a, name, None)
        sim._push(0.001, EV_ISSUE, b, name, None)
        sim._push(0.002, EV_ISSUE, a, name, None)  # aggregates at A
        report = sim.run()  # B's interest aggregates at X at 0.021
        assert report.satisfied_count == 3
        # One timeout per miss; none for the two aggregated interests, nor
        # for the producer's hit.
        assert sorted(rid for rid, _deadline in pushed) == sorted([a, x, b, y])

    def test_no_route_entry_gets_one_timeout_that_fires(self):
        sim, ids, pushed, popped = self.traced(DEAD_END_TOPO)
        a, b = ids["A"], ids["B"]
        sim._push(0.0, EV_ISSUE, a, ContentName("P", 0), None)
        report = sim.run()
        # A broadcasts to B and P; B has nowhere to send it on but keeps the
        # entry, which expires at 0.51. A's entry is satisfied by P.
        assert [rid for rid, _deadline in pushed] == [a, b]
        assert pushed[1][1] == pytest.approx(0.51)
        assert popped == [(a, False), (b, True)]
        assert report.timeout_count == 1 and report.satisfied_count == 1
        assert sim.routers[b].pit == {}

    def test_each_origin_retry_queues_one_new_timeout(self):
        # Deadlines far shorter than a round trip: every try times out.
        sim, ids, pushed, popped = self.traced(LINE3_TOPO, timeout=0.005)
        a, b, p = ids["A"], ids["B"], ids["P"]
        name = ContentName("P", 0)
        sim.routers[a].fib_update(name, [b, p], 0.0)
        sim._push(0.0, EV_ISSUE, a, name, None)
        report = sim.run()
        # Unicast toward B, unicast retry toward P, one broadcast retry,
        # then the origin gives up and queues nothing more.
        at_origin = [deadline for rid, deadline in pushed if rid == a]
        assert at_origin == pytest.approx([0.005, 0.010, 0.015])
        assert [rid for rid, counted in popped if counted].count(a) == 3
        assert report.unsatisfied_timeout == 1
        assert name not in sim.routers[a].pit

    def test_satisfied_entry_timeout_pops_without_counting(self):
        sim, ids, pushed, popped = self.traced(FORK_TOPO, producer_routing=True)
        a, x = ids["A"], ids["X"]
        sim._push(0.0, EV_ISSUE, a, ContentName("P", 0), None)
        report = sim.run()
        assert [rid for rid, _deadline in pushed] == [a, x]
        assert popped == [(a, False), (x, False)]
        assert report.timeout_count == 0 and report.satisfied_count == 1

    def test_stale_timeout_leaves_a_newer_entry_alone(self):
        # One-name content stores: P/1 evicts P/0 at A and X, so A's second
        # request for P/0 is a miss again, pending when the first one's
        # timeout pops at 0.5.
        sim, ids, pushed, popped = self.traced(FORK_TOPO, producer_routing=True,
                                               cache_size_ratio=0.25)
        a = ids["A"]
        for time, seq in ((0.0, 0), (0.1, 1), (0.49, 0)):
            sim._push(time, EV_ISSUE, a, ContentName("P", seq), None)
        report = sim.run()
        assert [deadline for rid, deadline in pushed if rid == a] == pytest.approx(
            [0.5, 0.6, 0.99])
        assert popped and not any(counted for _rid, counted in popped)
        assert report.timeout_count == 0 and report.satisfied_count == 3


class TestFailureTotals:
    def sprint52(self, failures):
        return Scenario(topology=str(data_path("sprint52.topo")),
                        sim_duration=40.0, failures=failures)

    def test_summed_counts_above_eligible_rejected_before_events(self):
        # 33 eligible routers; each event alone is within the pool.
        with pytest.raises(ConfigError, match="40 routers in total"):
            Simulation(self.sprint52(((10.0, 20), (20.0, 20))))

    def test_summed_counts_up_to_eligible_accepted(self):
        sim = Simulation(self.sprint52(((10.0, 20), (20.0, 13))))
        sim.run()
        assert sim.graph.pure_routers() == []


@st.composite
def random_scenarios(draw, strategy: str) -> Scenario:
    """A short `strategy` run on a random connected graph of 4-12 nodes with
    random roles, table sizes, churn and failures, inside `RANGES`."""
    n = draw(st.integers(4, 12))
    roles = draw(st.lists(st.sampled_from(["", "", " consumer", " producer",
                                           " producer consumer"]),
                          min_size=n, max_size=n))
    if not any("producer" in r for r in roles):
        roles[0] += " producer"
    if not any("consumer" in r for r in roles):
        roles[-1] += " consumer"
    # A random tree, so the graph is connected, plus a few extra edges.
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    text = "".join(f"node n{i}{r}\n" for i, r in enumerate(roles))
    text += "".join(f"edge n{a} n{b}\n" for a, b in sorted(edges))
    duration = float(draw(st.integers(2, 20)))
    pure = roles.count("")
    failures = []
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, int(duration)))
        if pure:
            count = draw(st.integers(1, pure))
            pure -= count
            failures.append((float(at), count))
    return Scenario(
        topology=text, sim_duration=duration,
        interest_frequency=draw(st.integers(1, 30)),
        cache_size_ratio=draw(st.sampled_from([0.01, 0.1, 0.4])),
        cache_update_ratio=draw(st.sampled_from([0.0, 0.01, 0.5])),
        probe_strategy=strategy,
        failures=tuple(failures), rng_seed=draw(st.integers(1, 2**16)),
        contents_per_producer=draw(st.sampled_from([4, 20])),
        link_delay=draw(st.sampled_from([0.005, 0.05])),
        link_bandwidth=draw(st.sampled_from(["unlimited", 32768.0])),
        queue_capacity=draw(st.sampled_from([2, 16])),
        fib_capacity=draw(st.sampled_from([None, 2, 8, 256])),
        producer_routing=draw(st.booleans()))


@pytest.mark.parametrize("strategy", [s.value for s in ProbeStrategy])
@given(data=st.data())
def test_random_scenarios_run_reproducibly_with_sound_fibs(strategy, data):
    """Any scenario inside the ranges runs to the end and audits clean in
    `finalize()`, a rerun gives the same CSV row, and the final FIBs keep
    their bounds: no FIB over `fib_capacity`, no entry over the provider cap
    or listing its own router, and every fib-probe router picks what a full
    scan of its FIB picks."""
    scenario = data.draw(random_scenarios(strategy))
    check_point(scenario, force=False)
    sim = Simulation(scenario)
    report = sim.run()
    assert Simulation(scenario).run().csv_values() == report.csv_values()
    for rid, router in sim.routers.items():
        if scenario.fib_capacity is not None:
            assert len(router.fib) <= scenario.fib_capacity
        for entry in router.fib.values():
            assert len(entry.providers) <= PROBE_RESPONSE_CAPACITY
            assert rid not in entry.providers
        if router.probe_strategy == ProbeStrategy.FIB_MAX_COST:
            for sending in [None, *router.fib]:
                assert (router.select_probe(0.0, random.Random(0), sending)
                        == scan_fib_probe(router, sending))
