"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

The heavy trend criteria share module-scoped sweeps built from the bundled
experiment presets, so the whole suite exercises the same configurations a
user runs from the CLI.
"""

import random
import statistics
import time
from dataclasses import replace

import networkx as nx
import pytest
from scipy.stats import spearmanr

import ccnprobe.cli as cli
from ccnprobe.cli import build_scenario, data_path, main, parse_config
from ccnprobe.engine import Scenario, Simulation, run
from ccnprobe.metrics import AccountingError, MetricsReport, classify_qos
from ccnprobe.model import ContentName, DataPacket, InterestPacket, wire_size
from ccnprobe.node import RouterState
from ccnprobe.topology import Graph, build_all_spts, load_topology

SEEDS = (1, 2, 3, 4, 5)
STRATEGIES = ("basic-ccn", "pit-probe", "fib-probe")


def record(num: int, name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = detail if not failures else "; ".join(failures)
    print(f"\nACCEPTANCE {num:02d} {name}: {status}" + (f" [{extra}]" if extra else ""))
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def preset_scenario(preset: str) -> tuple[Scenario, list[float]]:
    config = parse_config(preset)
    scenario = build_scenario(config)
    values = [float(v) for v in config["sweep_values"]]
    return scenario, values


def seed_mean(reports: dict, strategy: str, value: float, metric) -> float:
    return statistics.fmean(metric(r) for r in reports[(strategy, value)])


# -- criterion 1 --------------------------------------------------------------

def test_criterion_01_probe_overhead_identity():
    failures = []
    name, probe = ContentName("Atlanta", 0), ContentName("Chicago", 9)
    for payload in (0, 64, 128, 1024):
        plain_i = InterestPacket(name, nonce=1)
        probed_i = InterestPacket(name, nonce=1, probe=probe,
                                  probe_response=[1, 2])
        if wire_size(probed_i) - wire_size(plain_i) != 22:
            failures.append(f"interest delta != 22")
        plain_d = DataPacket(name, provider_id=1, payload_size=payload)
        probed_d = DataPacket(name, provider_id=1, payload_size=payload,
                              probe=probe, probe_response=[1, 2, 3, 4, 5])
        if wire_size(probed_d) - wire_size(plain_d) != 22:
            failures.append(f"data delta != 22 at payload {payload}")
    if wire_size(InterestPacket(name, nonce=1)) != 5:
        failures.append("basic interest is not 5 bytes")
    record(1, "probe overhead identity", failures,
           "22-byte delta exact for both packet kinds")


# -- criterion 2 --------------------------------------------------------------

def random_connected_graph(rng: random.Random) -> Graph:
    n = rng.randint(2, 20)
    graph = Graph()
    for i in range(n):
        graph.add_node(f"n{i}", frozenset({"router"}))
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        graph.add_edge(order[i], order[rng.randrange(i)])
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        if (a, b) not in graph.links:
            graph.add_edge(a, b)
    return graph


def check_spt_against_oracle(graph: Graph) -> list[str]:
    failures = []
    oracle_graph = nx.Graph()
    oracle_graph.add_nodes_from(graph.nodes)
    oracle_graph.add_edges_from((a, b) for (a, b) in graph.links if a < b)
    oracle = dict(nx.all_pairs_shortest_path_length(oracle_graph))
    spts = build_all_spts(graph)
    for src in graph.nodes:
        spt = spts[src]
        for dst in graph.nodes:
            if dst == src:
                continue
            expected = oracle[src].get(dst)
            if spt.cost(dst) != expected:
                failures.append(f"cost({src}->{dst}) = {spt.cost(dst)} != {expected}")
                continue
            if expected is None:
                continue
            hop = spt.first_hop(dst)
            rest = 0 if hop == dst else oracle[hop][dst]
            if spt.cost(dst) != 1 + rest:
                failures.append(f"first hop of {src}->{dst} not on a shortest path")
    return failures


def test_criterion_02_spt_oracle_equivalence():
    started = time.perf_counter()
    failures = check_spt_against_oracle(load_topology(data_path("abilene.topo")))
    rng = random.Random(20260809)
    for _ in range(200):
        failures.extend(check_spt_against_oracle(random_connected_graph(rng)))
    elapsed = time.perf_counter() - started
    record(2, "SPT oracle equivalence", failures[:5],
           f"Abilene + 200 random graphs, all pairs, {elapsed:.1f}s")


# -- criterion 3 --------------------------------------------------------------

class RecordingOut:
    """Passes a handler's sends, deliveries and queued timeouts on to the
    simulation and keeps a copy."""

    def __init__(self, out):
        self.out = out
        self.calls = []

    def transmit(self, src, iface, packet, now):
        self.calls.append(packet)
        self.out.transmit(src, iface, packet, now)

    def deliver(self, data, issued, expected_provider, now):
        self.calls.append(data)
        self.out.deliver(data, issued, expected_provider, now)

    def arm_timeout(self, rid, entry):
        self.calls.append(entry)
        self.out.arm_timeout(rid, entry)


def test_criterion_03_pit_aggregation_property(monkeypatch):
    started = time.perf_counter()
    failures = []
    issued = 0
    on_interest = RouterState.on_interest

    def observed(router, interest, in_iface, now, rng, out):
        entry = router.pit.get(interest.name)
        had_entry = entry is not None
        nonce_seen = had_entry and interest.nonce in entry.seen_nonces
        recording = RecordingOut(out)
        reason = on_interest(router, interest, in_iface, now, rng, recording)
        rid = router.id
        forwards = [p for p in recording.calls if isinstance(p, InterestPacket)]
        if had_entry and forwards:
            failures.append(
                f"router {rid} re-forwarded {interest.name} while pending")
        if nonce_seen:
            if recording.calls or reason != "duplicate-nonce":
                failures.append(f"duplicate nonce not dropped at router {rid}")
        return reason

    # 10^4 interests: 12 consumers x 2/s x 420 s = 10080
    scenario = Scenario(topology=str(data_path("abilene.topo")),
                        sim_duration=420.0, interest_frequency=2,
                        cache_size_ratio=0.05, probe_strategy="fib-probe",
                        link_delay=0.01, link_bandwidth="unlimited",
                        fib_capacity=256, fib_entry_ttl=25.0, rng_seed=11)
    monkeypatch.setattr(RouterState, "on_interest", observed)
    report = Simulation(scenario).run()
    issued = report.issued_interests
    if issued < 10_000:
        failures.append(f"trace too small: {issued} interests")
    elapsed = time.perf_counter() - started
    record(3, "PIT aggregation property", failures[:5],
           f"{issued} interests, no duplicate forwarding, {elapsed:.1f}s")


# -- criterion 4 --------------------------------------------------------------

def test_criterion_04_metric_formula_oracles():
    from ccnprobe.metrics import average_delay, jitter, packet_loss
    failures = []
    if packet_loss(100, 90) != 10.0:
        failures.append("loss(100,90) != 10%")
    if abs(jitter([1.0, 3.0]) - 2 ** 0.5) > 1e-12:
        failures.append("jitter([1,3]) != sqrt(2) +- 1e-12")
    if jitter([4.2] * 9) != 0.0:
        failures.append("jitter(constant) != 0")
    if average_delay([100.0, 300.0]) != 200.0:
        failures.append("mean([100,300]) != 200")
    record(4, "metric formula oracles", failures,
           "Eq (1)-(3) hand values exact")


# -- criterion 5 --------------------------------------------------------------

def test_criterion_05_qos_classification():
    rows = [
        ((85, 11.4, 275, 183), ("Good", "Good", "Bad", "Bad")),
        ((87, 10.54, 217, 116), ("Good", "Good", "Bad", "Good")),
        ((90, 10.34, 221, 126), ("Good", "Good", "Bad", "Bad")),
    ]
    failures = []
    for (tp, loss, delay, jit), expected in rows:
        report = MetricsReport()
        report.throughput_pkt_s = tp
        report.packet_loss_pct = loss
        report.avg_delay_ms = delay
        report.jitter_ms = jit
        cats = classify_qos(report)
        got = (cats["throughput"], cats["packet_loss"], cats["delay"], cats["jitter"])
        if got != expected:
            failures.append(f"{(tp, loss, delay, jit)} -> {got}, expected {expected}")
    record(5, "QoS classification", failures, "published rows classified exactly")


# -- criteria 6 + 7 (shared cache-size sweep) ---------------------------------

@pytest.fixture(scope="module")
def fig6_sweep():
    scenario, ratios = preset_scenario("fig6.cfg")
    started = time.perf_counter()
    reports = {}
    for strategy in STRATEGIES:
        for ratio in ratios:
            runs = []
            for seed in SEEDS:
                sc = replace(scenario, probe_strategy=strategy,
                             cache_size_ratio=ratio, rng_seed=seed)
                runs.append(run(sc))
            reports[(strategy, ratio)] = runs
    elapsed = time.perf_counter() - started
    print(f"\n[fig6 sweep: {len(STRATEGIES) * len(ratios) * len(SEEDS)} runs "
          f"in {elapsed:.0f}s (wall-clock target 120s)]")
    return ratios, reports, elapsed


def test_criterion_06_cache_size_trends(fig6_sweep):
    ratios, reports, elapsed = fig6_sweep
    metrics = [("forwarded", lambda r: r.forwarded_interests),
               ("timeouts", lambda r: r.timeout_count),
               ("response", lambda r: r.avg_response_time_s)]
    failures = []
    details = []
    for strategy in STRATEGIES:
        for label, metric in metrics:
            series = [seed_mean(reports, strategy, v, metric) for v in ratios]
            rho = spearmanr(ratios, series).statistic
            details.append(f"{strategy}/{label} rho={rho:+.2f}")
            if not rho <= -0.8:
                failures.append(f"{strategy} {label}: rho {rho:+.2f} > -0.8")
    record(6, "cache-size monotonic trends", failures,
           f"all 9 series rho <= -0.8; sweep {elapsed:.0f}s")


def test_criterion_07_probe_vs_basic_improvement(fig6_sweep):
    ratios, reports, _ = fig6_sweep

    def grand_mean(strategy, metric):
        return statistics.fmean(
            seed_mean(reports, strategy, v, metric) for v in ratios)

    basic_fwd = grand_mean("basic-ccn", lambda r: r.forwarded_interests)
    basic_tmo = grand_mean("basic-ccn", lambda r: r.timeout_count)
    basic_rt = grand_mean("basic-ccn", lambda r: r.avg_response_time_s)
    failures = []
    details = []
    for strategy in ("pit-probe", "fib-probe"):
        fwd = grand_mean(strategy, lambda r: r.forwarded_interests)
        tmo = grand_mean(strategy, lambda r: r.timeout_count)
        rt = grand_mean(strategy, lambda r: r.avg_response_time_s)
        tmo_red = (basic_tmo - tmo) / basic_tmo * 100.0
        rt_red = basic_rt - rt
        details.append(f"{strategy}: fwd {100 * (basic_fwd - fwd) / basic_fwd:+.2f}%, "
                       f"timeouts {tmo_red:+.2f}%, response {rt_red * 1000:+.2f}ms")
        if not fwd < basic_fwd:
            failures.append(f"{strategy} forwarded {fwd:.0f} not < basic {basic_fwd:.0f}")
        if not tmo < basic_tmo:
            failures.append(f"{strategy} timeouts {tmo:.0f} not < basic {basic_tmo:.0f}")
        if not tmo_red >= 3.0:
            failures.append(f"{strategy} timeout reduction {tmo_red:.2f}% < 3pp")
        if not rt_red > 0:
            failures.append(f"{strategy} response reduction {rt_red * 1000:.2f}ms not > 0")
    print("\n[criterion 7 measurements] " + " | ".join(details))
    record(7, "probe-vs-basic improvement", failures, " | ".join(details))


# -- criterion 8 --------------------------------------------------------------

def paired_difference(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Mean and standard error of the per-seed differences xs - ys."""
    diffs = [x - y for x, y in zip(xs, ys, strict=True)]
    return statistics.fmean(diffs), statistics.stdev(diffs) / len(diffs) ** 0.5


def test_criterion_08_probe_selection_ordering():
    # The strategy gaps are a few points of accuracy and a few tens of hops,
    # smaller than the spread between seeds, so five seeds cannot rank them.
    seeds = range(1, 21)
    scenario, values = preset_scenario("table2.cfg")
    strategies = ("pit-probe", "fib-probe", "sequential", "random")
    acc, hops = {}, {}
    for strategy in strategies:
        runs = [run(replace(scenario, probe_strategy=strategy,
                            cache_size_ratio=values[0], rng_seed=seed))
                for seed in seeds]
        acc[strategy] = [r.provider_accuracy_pct for r in runs]
        hops[strategy] = [r.hop_count_sum for r in runs]
    mean_acc = {s: statistics.fmean(acc[s]) for s in strategies}
    mean_hops = {s: statistics.fmean(hops[s]) for s in strategies}
    ranking = sorted(mean_acc, key=mean_acc.get, reverse=True)
    details = ", ".join(f"{s} {mean_acc[s]:.2f}%/{mean_hops[s]:.0f}h"
                        for s in ranking)
    print(f"\n[criterion 8 measurements] {len(seeds)} seeds: {details}")
    for other in strategies:
        if other == "fib-probe":
            continue
        d_acc, se_acc = paired_difference(acc["fib-probe"], acc[other])
        d_hops, se_hops = paired_difference(hops["fib-probe"], hops[other])
        print(f"[criterion 8 paired] fib-probe - {other}: accuracy "
              f"{d_acc:+.2f} +- {se_acc:.2f} pp, hops {d_hops:+.0f} +- {se_hops:.0f}")
    # The 10-35% band is the original simulator's absolute accuracy; this
    # artifact reproduces trends, not absolute values, so it is report-only.
    out_of_band = [s for s in strategies if not 10.0 <= mean_acc[s] <= 35.0]
    print(f"[criterion 8 note] outside the original study's 10-35% accuracy "
          f"band: {', '.join(out_of_band) or 'none'} (report-only)")
    failures = []
    if ranking[0] != "fib-probe":
        failures.append(f"fib-probe not highest accuracy ({ranking[0]} is)")
    if min(mean_hops, key=mean_hops.get) != "fib-probe":
        failures.append(f"fib-probe not smallest routing hops "
                        f"({min(mean_hops, key=mean_hops.get)} is)")
    # flip of the two weakest strategies is report-only
    weakest = ranking[2:]
    print(f"[criterion 8 note] two weakest strategies: {weakest[0]} then "
          f"{weakest[1]} (flip is report-only)")
    record(8, "probe-selection ordering", failures, details)


# -- criterion 9 --------------------------------------------------------------

def test_criterion_09_churn_trends():
    scenario, churns = preset_scenario("fig7.cfg")
    started = time.perf_counter()
    reports = {}
    for strategy in STRATEGIES:
        for churn in churns:
            reports[(strategy, churn)] = [
                run(replace(scenario, probe_strategy=strategy,
                            cache_update_ratio=churn, rng_seed=seed))
                for seed in SEEDS]
    elapsed = time.perf_counter() - started
    metrics = [("forwarded", lambda r: r.forwarded_interests),
               ("timeouts", lambda r: r.timeout_count),
               ("response", lambda r: r.avg_response_time_s)]
    failures = []
    for strategy in STRATEGIES:
        for label, metric in metrics:
            series = [seed_mean(reports, strategy, c, metric) for c in churns]
            rho = spearmanr(churns, series).statistic
            if not rho >= 0.8:
                failures.append(f"{strategy} {label}: rho {rho:+.2f} < 0.8")
    # >15% churn crossover between the probe variants: reported, not gated
    high = [c for c in churns if c > 0.15]
    fib_high = statistics.fmean(
        seed_mean(reports, "fib-probe", c, lambda r: r.timeout_count) for c in high)
    pit_high = statistics.fmean(
        seed_mean(reports, "pit-probe", c, lambda r: r.timeout_count) for c in high)
    crossover = "yes" if fib_high > pit_high else "no"
    print(f"\n[criterion 9 note] >15% churn: fib-probe timeouts {fib_high:.0f} vs "
          f"pit-probe {pit_high:.0f} (crossover: {crossover}, report-only)")
    record(9, "churn monotonic trends", failures,
           f"9 series non-decreasing; sweep {elapsed:.0f}s")


# -- criterion 10 -------------------------------------------------------------

def test_criterion_10_failure_trends():
    scenario, counts = preset_scenario("fig8.cfg")
    scenario = replace(scenario, sim_duration=240.0)  # desk scale
    counts = [int(c) for c in counts]
    started = time.perf_counter()
    delay, loss = {}, {}
    for strategy in STRATEGIES:
        for k in counts:
            runs = [run(replace(scenario, probe_strategy=strategy,
                                rng_seed=seed,
                                failures=((scenario.sim_duration / 2, k),)))
                    for seed in SEEDS]
            delay[(strategy, k)] = statistics.fmean(r.avg_delay_ms for r in runs)
            loss[(strategy, k)] = statistics.fmean(r.packet_loss_pct for r in runs)
    elapsed = time.perf_counter() - started
    failures = []
    for strategy in STRATEGIES:
        d_series = [delay[(strategy, k)] for k in counts]
        l_series = [loss[(strategy, k)] for k in counts]
        rho_d = spearmanr(counts, d_series).statistic
        rho_l = spearmanr(counts, l_series).statistic
        if not rho_d >= 0.8:
            failures.append(f"{strategy} delay rho {rho_d:+.2f} < 0.8")
        if not rho_l >= 0.8:
            failures.append(f"{strategy} loss rho {rho_l:+.2f} < 0.8")
    sign_details = []
    for strategy in ("pit-probe", "fib-probe"):
        wins = sum(1 for k in counts
                   if delay[(strategy, k)] <= delay[("basic-ccn", k)])
        share = wins / len(counts)
        sign_details.append(f"{strategy} <= basic at {wins}/{len(counts)}")
        if not share >= 0.8:
            failures.append(f"{strategy} delay <= basic at only "
                            f"{100 * share:.0f}% of failure counts (< 80%)")
    print(f"\n[criterion 10 measurements] {'; '.join(sign_details)}; "
          f"{len(STRATEGIES) * len(counts) * len(SEEDS)} runs in {elapsed:.0f}s")
    shown = [k for k in (1, 10, 20) if k in counts]
    print("[criterion 10 delay ms at k=" + "/".join(map(str, shown)) + "] "
          + "; ".join(f"{s} " + "/".join(f"{delay[(s, k)]:.1f}" for k in shown)
                      for s in STRATEGIES))
    record(10, "failure trends", failures,
           "delay/loss non-decreasing; " + "; ".join(sign_details))


# -- criterion 11 -------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    started = time.perf_counter()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["run", "--config", "fig6.cfg", "--set", "sim_duration=120",
            "--repeats", "2", "--set", "probe_strategy=fib-probe"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()
    elapsed = time.perf_counter() - started
    failures = [] if identical else ["run.csv differs between identical runs"]
    record(11, "determinism", failures, f"byte-identical run.csv, {elapsed:.1f}s")


# -- criterion 12 -------------------------------------------------------------

def test_criterion_12_conservation_audit(tmp_path, monkeypatch, capsys):
    failures = []
    report = run(Scenario(topology=str(data_path("abilene.topo")),
                          sim_duration=60.0, cache_size_ratio=0.05,
                          probe_strategy="pit-probe", link_delay=0.01,
                          link_bandwidth="unlimited", rng_seed=2))
    if (report.satisfied_count + report.unsatisfied_count
            + report.pending_at_end != report.issued_interests):
        failures.append("interest conservation identity violated on a real run")
    if report.received_packets > report.sent_packets:
        failures.append("received > sent on a real run")

    # a corrupted accumulator must abort the run with exit code 3
    def corrupted_run(scenario):
        broken = MetricsReport(duration=1.0)
        broken.issued_interests = 5
        return broken.finalize()

    monkeypatch.setattr(cli, "run", corrupted_run)
    code = main(["run", "--config", "fig6.cfg", "--out", str(tmp_path),
                 "--repeats", "1"])
    capsys.readouterr()
    if code != 3:
        failures.append(f"accounting violation exited {code}, expected 3")
    with pytest.raises(AccountingError):
        corrupted_run(None)
    record(12, "conservation audit", failures,
           "identity holds; violations abort with exit 3")
