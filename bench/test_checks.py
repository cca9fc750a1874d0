"""Each benchmark check fails on a deliberately wrong input.

Run with `python3 -m pytest -q bench/test_checks.py` from the repository
root. The first group feeds the check functions hand-made wrong values;
the second runs one small sweep round with one program function sabotaged
and shows that the round fails the point it breaks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
from harness import Workload, import_program, rows_digest, run_round

BENCH = Path(__file__).resolve().parent

LINE_TOPO = """
node A producer consumer
node B router   # a comment
node C consumer
node D producer consumer router
edge A B
edge B C
edge C D
"""

GOOD_ROW = {"issued_interests": "60", "satisfied_count": "50",
            "unsatisfied_count": "7", "pending_at_end": "3",
            "sent_packets": "200", "received_packets": "190"}


# -- the check functions -------------------------------------------------------

def test_consumers_counted_from_topology_text():
    assert checks.count_consumers(LINE_TOPO) == 3


def test_overrides_win_over_preset():
    config = checks.read_config("a = 1\nb = 2  # note\n", ("b=3",))
    assert config == {"a": "1", "b": "3"}


def test_row_passes_when_consistent():
    assert checks.row_problems(GOOD_ROW, consumers=3, rate=2, duration=10) == []


def test_issued_count_off_by_one_fails():
    row = {**GOOD_ROW, "issued_interests": "61", "satisfied_count": "51"}
    problems = checks.row_problems(row, consumers=3, rate=2, duration=10)
    assert len(problems) == 1 and "issued_interests 61" in problems[0]


def test_broken_conservation_fails():
    row = {**GOOD_ROW, "pending_at_end": "2"}
    problems = checks.row_problems(row, consumers=3, rate=2, duration=10)
    assert len(problems) == 1 and "satisfied + unsatisfied + pending" in problems[0]


def test_more_received_than_sent_fails():
    row = {**GOOD_ROW, "received_packets": "201"}
    assert checks.row_problems(row, consumers=3, rate=2, duration=10)


def test_packet_accounting():
    assert checks.packet_problems(10, 8, 5, 5, 0, 2, lossless=True) == []
    assert checks.packet_problems(10, 7, 5, 5, 0, 2, lossless=False) == []
    # A drop on a lossless run, more data received than sent, and more
    # packets accounted for than were sent each fail.
    assert checks.packet_problems(10, 7, 5, 5, 0, 2, lossless=True)
    assert checks.packet_problems(10, 8, 5, 6, 0, 1, lossless=False)
    assert checks.packet_problems(10, 8, 5, 5, 1, 2, lossless=False)


def table(costs: dict[int, int]):
    return SimpleNamespace(entries={d: SimpleNamespace(cost=c) for d, c in costs.items()})


def test_spt_check_against_bfs():
    adj = {0: [1], 1: [0, 2], 2: [1], 3: []}
    good = {0: table({1: 1, 2: 2}), 1: table({0: 1, 2: 1}),
            2: table({0: 2, 1: 1}), 3: table({})}
    assert checks.spt_problems(adj, good) == []
    wrong_cost = {**good, 0: table({1: 1, 2: 3})}
    assert "router 0" in checks.spt_problems(adj, wrong_cost)[0]
    unreachable_listed = {**good, 3: table({0: 1})}
    assert checks.spt_problems(adj, unreachable_listed)
    missing_router = {rid: t for rid, t in good.items() if rid != 2}
    assert checks.spt_problems(adj, missing_router)


def test_spt_check_accepts_the_programs_tables():
    modules = import_program()
    graph = modules.topology.load_topology(LINE_TOPO)
    spts = modules.topology.build_all_spts(graph)
    assert checks.spt_problems(graph.adj, spts) == []


def test_probe_checks():
    assert checks.probe_problems("fib-probe", "a/1", "a/2", origin_holds=False) == []
    assert checks.probe_problems("basic-ccn", "a/1", None, origin_holds=False) == []
    assert "own name" in checks.probe_problems("pit-probe", "a/1", "a/1", False)[0]
    assert "holds" in checks.probe_problems("fib-probe", "a/1", "a/2", True)[0]
    assert "basic-ccn" in checks.probe_problems("basic-ccn", "a/1", "a/2", False)[0]


def test_fib_checks():
    def fib(*provider_lists):
        return {f"n/{i}": SimpleNamespace(providers=list(p))
                for i, p in enumerate(provider_lists)}

    assert checks.fib_problems(0, fib([1, 2], [3]), capacity=2) == []
    assert "lists its owner" in checks.fib_problems(0, fib([1, 0]), capacity=None)[0]
    assert "providers" in checks.fib_problems(0, fib([1, 2, 3, 4, 5, 6]), None)[0]
    assert "fib_capacity" in checks.fib_problems(0, fib([1], [2], [3]), capacity=2)[0]


def test_rows_digest_ignores_only_the_scenario_hash():
    base = b"strategy,seed,scenario_hash,issued\nfib-probe,1,aaaa,60\n"
    moved = b"strategy,seed,scenario_hash,issued\nfib-probe,1,bbbb,60\n"
    changed = b"strategy,seed,scenario_hash,issued\nfib-probe,1,aaaa,61\n"
    assert rows_digest(base) == rows_digest(moved) != rows_digest(changed)


# -- one sabotaged round --------------------------------------------------------

TINY = Workload("tiny", "fig6.cfg", "cache_size_ratio", ("0.10",),
                ("fib-probe",), sets=("sim_duration=20",))
TINY_FAILURE = Workload("tiny-failure", "fig8.cfg", "cache_update_ratio", ("0.10",),
                        ("fib-probe",), sets=("sim_duration=20", "failures=10:3"))


@pytest.fixture(scope="module")
def modules():
    return import_program()


@pytest.mark.parametrize("workload", [TINY, TINY_FAILURE], ids=lambda w: w.name)
@pytest.mark.parametrize("traced", [False, True])
def test_clean_round_passes(modules, tmp_path, workload, traced):
    first = run_round(modules, workload, 3, tmp_path, traced)
    again = run_round(modules, workload, 3, tmp_path, traced)
    assert first.failed == [] and first.extra_rows == 0
    assert first.digest is not None and first.digest == again.digest
    assert first.wall_s > 0 and first.setup_s > 0 and first.run_s > 0


def test_dropped_issue_fails_the_issued_check(modules, tmp_path, monkeypatch):
    generate = modules.engine.generate_interest_events
    monkeypatch.setattr(modules.engine, "generate_interest_events",
                        lambda *args: generate(*args)[1:])
    rnd = run_round(modules, TINY, 3, tmp_path, traced=False)
    assert len(rnd.failed) == 1 and "issued_interests" in rnd.failed[0]


def test_probe_of_own_name_fails(modules, tmp_path, monkeypatch):
    def select_probe(self, now, rng, sending=None):
        return sending
    monkeypatch.setattr(modules.node.RouterState, "select_probe", select_probe)
    rnd = run_round(modules, TINY, 3, tmp_path, traced=True)
    assert len(rnd.failed) == 1 and "own name" in rnd.failed[0]


def test_probe_of_held_content_fails(modules, tmp_path, monkeypatch):
    def select_probe(self, now, rng, sending=None):
        return next(iter(self.cs.entries), None)
    monkeypatch.setattr(modules.node.RouterState, "select_probe", select_probe)
    rnd = run_round(modules, TINY, 3, tmp_path, traced=True)
    assert len(rnd.failed) == 1 and "which the origin holds" in rnd.failed[0]


def test_fib_listing_its_owner_fails(modules, tmp_path, monkeypatch):
    fib_update = modules.node.RouterState.fib_update

    def sabotaged(self, name, providers, now):
        fib_update(self, name, providers, now)
        if name in self.fib and self.id not in self.fib[name].providers:
            self.fib[name].providers.insert(0, self.id)
    monkeypatch.setattr(modules.node.RouterState, "fib_update", sabotaged)
    rnd = run_round(modules, TINY, 3, tmp_path, traced=True)
    assert len(rnd.failed) == 1 and "lists its owner" in rnd.failed[0]


def test_stale_spt_after_failure_fails(modules, tmp_path, monkeypatch):
    def keep_old_table(self, spt, neighbors):
        self.neighbors = sorted(neighbors)
    monkeypatch.setattr(modules.node.RouterState, "replace_spt", keep_old_table)
    rnd = run_round(modules, TINY_FAILURE, 3, tmp_path, traced=False)
    assert len(rnd.failed) == 1 and "SPT cost differs from BFS" in rnd.failed[0]


def test_drop_on_unlimited_link_fails(modules, tmp_path, monkeypatch):
    schedule = modules.engine.schedule_transmission
    calls = iter(range(10**9))

    def lossy(link, wire_bytes, now):
        return None if next(calls) == 100 else schedule(link, wire_bytes, now)
    monkeypatch.setattr(modules.engine, "schedule_transmission", lossy)
    for traced in (False, True):
        calls = iter(range(10**9))
        rnd = run_round(modules, TINY, 3, tmp_path, traced)
        assert len(rnd.failed) == 1 and "dropped" in rnd.failed[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flood", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
