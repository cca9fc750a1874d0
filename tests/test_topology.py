import random

import networkx as nx
import pytest

from ccnprobe.cli import data_path
from ccnprobe.engine import Scenario, Simulation
from ccnprobe.topology import (Graph, TopologyError, apply_failure, build_all_spts,
                               build_spt, load_topology)

PATH_GRAPH = """
node A
node B
node C
node D
edge A B
edge B C
edge C D
"""


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from((a, b) for (a, b) in graph.links if a < b)
    return g


def random_connected_graph(rng: random.Random) -> Graph:
    n = rng.randint(2, 20)
    graph = Graph()
    for i in range(n):
        graph.add_node(f"n{i}", frozenset({"router"}))
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):  # random spanning tree keeps it connected
        a = nodes[i]
        b = nodes[rng.randrange(i)]
        graph.add_edge(a, b)
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        if (a, b) not in graph.links:
            graph.add_edge(a, b)
    return graph


class TestLoadTopology:
    def test_abilene_shape(self):
        graph = load_topology(data_path("abilene.topo"))
        assert len(graph.nodes) == 12
        assert len(graph.links) // 2 == 15
        assert len(graph.producers()) == 12
        assert len(graph.consumers()) == 12
        assert graph.pure_routers() == []

    def test_sprint_shape(self):
        graph = load_topology(data_path("sprint52.topo"))
        assert len(graph.nodes) == 52
        assert len(graph.producers()) == 8
        assert len(graph.consumers()) == 11
        assert len(graph.pure_routers()) == 33
        # 52-node graph must be connected for the experiments to make sense
        assert nx.is_connected(to_networkx(graph))

    def test_two_node_file(self):
        graph = load_topology("node A\nnode B\nedge A B\n")
        assert len(graph.nodes) == 2
        assert len(graph.links) // 2 == 1

    def test_default_link_parameters(self):
        # An edge record carries no link values: every link takes the
        # scenario's, by default 1 s and unlimited bandwidth.
        sim = Simulation(Scenario(topology="node A\nnode B\nedge A B\n"))
        assert set(sim.links) == {(0, 1), (1, 0)}
        for link in sim.links.values():
            assert link.delay == 1.0
            assert link.bandwidth is None

    def test_roles_default_to_router(self):
        graph = load_topology("node A\nnode B producer consumer\nedge A B\n")
        assert graph.roles[0] == frozenset({"router"})
        assert graph.roles[1] == frozenset({"producer", "consumer"})

    def test_comments_and_blank_lines(self):
        graph = load_topology("# hi\n\nnode A\nnode B # inline\nedge A B\n")
        assert len(graph.links) // 2 == 1

    @pytest.mark.parametrize("text,fragment", [
        ("node A\nedge A B\n", "line 2"),
        ("node A\nnode B\nedge A B\nedge B A\n", "line 4"),
        ("node A\nedge A A\n", "self-loop"),
        ("node A\nnode A\n", "duplicate node"),
        ("node A wizard\n", "unknown role"),
        ("node A\nnode B\nedge A B notanumber\n", "line 3"),
        ("node A\nnode B\nedge A B 0.25 1024\n", "line 3"),
        ("frob A B\n", "unknown record"),
        ("node\n", "line 1"),
    ])
    def test_parse_errors_name_the_line(self, text, fragment):
        with pytest.raises(TopologyError) as err:
            load_topology(text)
        assert fragment in str(err.value)

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_topology("/nonexistent/nowhere.topo")


class TestBuildSpt:
    def test_path_graph_costs_and_first_hops(self):
        graph = load_topology(PATH_GRAPH)
        spt = build_spt(graph, graph.id_of["A"])
        b, c, d = graph.id_of["B"], graph.id_of["C"], graph.id_of["D"]
        assert spt.cost(b) == 1 and spt.cost(c) == 2 and spt.cost(d) == 3
        assert spt.first_hop(b) == b
        assert spt.first_hop(c) == b
        assert spt.first_hop(d) == b

    def test_no_self_entry(self):
        graph = load_topology(PATH_GRAPH)
        spt = build_spt(graph, 0)
        assert spt.cost(0) is None
        assert 0 not in spt.entries

    def test_unknown_source_rejected(self):
        graph = load_topology(PATH_GRAPH)
        with pytest.raises(TopologyError):
            build_spt(graph, 99)

    def test_unreachable_destination_has_no_entry(self):
        graph = load_topology("node A\nnode B\nnode C\nedge A B\n")
        spt = build_spt(graph, 0)
        assert spt.cost(2) is None

    def test_abilene_matches_bfs_oracle(self):
        graph = load_topology(data_path("abilene.topo"))
        oracle = dict(nx.all_pairs_shortest_path_length(to_networkx(graph)))
        for src in graph.nodes:
            spt = build_spt(graph, src)
            for dst in graph.nodes:
                if dst == src:
                    continue
                assert spt.cost(dst) == oracle[src][dst]

    def test_random_graphs_match_oracle_with_consistent_first_hops(self):
        rng = random.Random(42)
        for _ in range(30):
            graph = random_connected_graph(rng)
            oracle = dict(nx.all_pairs_shortest_path_length(to_networkx(graph)))
            spts = build_all_spts(graph)
            for src in graph.nodes:
                spt = spts[src]
                for dst in graph.nodes:
                    if dst == src:
                        continue
                    assert spt.cost(dst) == oracle[src][dst]
                    hop = spt.first_hop(dst)
                    assert hop in graph.adj[src]
                    # first hop lies on some shortest path
                    rest = 0 if hop == dst else oracle[hop][dst]
                    assert spt.cost(dst) == 1 + rest

    def test_tie_break_prefers_lowest_first_hop_id(self):
        # Diamond: 0-1, 0-2, 1-3, 2-3; both 1 and 2 reach 3 in two hops.
        graph = Graph()
        for i in range(4):
            graph.add_node(f"n{i}", frozenset({"router"}))
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        graph.add_edge(1, 3)
        graph.add_edge(2, 3)
        assert build_spt(graph, 0).first_hop(3) == 1

    def test_triangle_inequality(self):
        rng = random.Random(7)
        graph = random_connected_graph(rng)
        spts = build_all_spts(graph)
        nodes = graph.nodes
        for a in nodes:
            for b in nodes:
                for c in nodes:
                    if len({a, b, c}) < 3:
                        continue
                    ab = spts[a].cost(b)
                    bc = spts[b].cost(c)
                    ac = spts[a].cost(c)
                    if ab is not None and bc is not None:
                        assert ac is not None and ac <= ab + bc

    def test_equal_entries_are_one_object(self):
        graph = load_topology(data_path("sprint52.topo"))
        oracle = dict(nx.all_pairs_shortest_path_length(to_networkx(graph)))
        seen = {}
        for spts in (build_all_spts(graph), build_all_spts(graph)):
            for src, spt in spts.items():
                assert {dst: e.cost for dst, e in spt.entries.items()} == {
                    dst: cost for dst, cost in oracle[src].items() if dst != src}
                for entry in spt.entries.values():
                    key = (entry.cost, entry.outgoing_interface)
                    assert seen.setdefault(key, entry) is entry

    def test_deterministic_across_rebuilds(self):
        graph = load_topology(data_path("abilene.topo"))
        first = build_all_spts(graph)
        second = build_all_spts(graph)
        for rid in graph.nodes:
            assert first[rid].entries == {
                dst: e for dst, e in second[rid].entries.items()}


class TestApplyFailure:
    def test_cut_vertex_disconnects(self):
        graph = load_topology("node A\nnode B\nnode C\nedge A B\nedge B C\n")
        survivor = apply_failure(graph, 1)
        assert 1 not in survivor.name_of
        spt_a = build_spt(survivor, 0)
        assert spt_a.cost(2) is None
        assert build_spt(survivor, 2).cost(0) is None

    def test_leaf_removal_preserves_other_costs(self):
        graph = load_topology(PATH_GRAPH)
        before = build_spt(graph, 0)
        survivor = apply_failure(graph, graph.id_of["D"])
        after = build_spt(survivor, 0)
        for dst in (1, 2):
            assert after.cost(dst) == before.cost(dst)

    def test_costs_never_decrease_after_failure(self):
        rng = random.Random(11)
        for _ in range(20):
            graph = random_connected_graph(rng)
            if len(graph.nodes) < 3:
                continue
            victim = rng.choice(graph.nodes)
            survivor = apply_failure(graph, victim)
            for src in survivor.nodes:
                before = build_spt(graph, src)
                after = build_spt(survivor, src)
                for dst in survivor.nodes:
                    if dst == src:
                        continue
                    b, a = before.cost(dst), after.cost(dst)
                    assert b is not None
                    assert a is None or a >= b

    def test_absent_victim_rejected(self):
        graph = load_topology(PATH_GRAPH)
        with pytest.raises(TopologyError):
            apply_failure(graph, 99)

    def test_original_graph_untouched(self):
        graph = load_topology(PATH_GRAPH)
        apply_failure(graph, 1)
        assert len(graph.nodes) == 4
        assert len(graph.links) // 2 == 3
