"""The benchmark's workloads and one round of each: a `ccnprobe sweep`
called in-process through `ccnprobe.cli.main`, with its outputs checked."""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
from layers import Tracer, clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "ccnprobe" / "data"
OUT = Path(__file__).resolve().parent / "out"


class ProgramMissing(RuntimeError):
    """The checkout holds no `src/ccnprobe` to build and measure."""


def import_program() -> SimpleNamespace:
    """Import ccnprobe from this checkout's `src/`, never from elsewhere."""
    package = SRC / "ccnprobe"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"{package} not found: run from a checkout of "
                             f"the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = SimpleNamespace(**{
        name: importlib.import_module(f"ccnprobe.{name}")
        for name in ("cli", "engine", "node", "topology", "model", "metrics")})
    if Path(modules.cli.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported ccnprobe from {modules.cli.__file__}, "
                             f"not from {package}")
    return modules


@dataclass(frozen=True)
class Workload:
    """One `ccnprobe sweep`: a bundled preset, overrides and a point grid.

    The benchmark's `--seed n` becomes the sweep's `--seed n`; with
    `repeats` r the sweep runs seeds n .. n+r-1 for every strategy and
    axis value.
    """

    name: str
    config: str
    axis: str
    values: tuple[str, ...]
    strategies: tuple[str, ...]
    repeats: int = 1
    sets: tuple[str, ...] = ()

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = ["sweep", "--config", self.config, "--axis", self.axis,
                "--values", *self.values, "--strategies", *self.strategies,
                "--repeats", str(self.repeats), "--seed", str(seed),
                "--jobs", "1", "--out", str(out)]
        for item in self.sets:
            argv += ["--set", item]
        return argv

    def points(self, seed: int) -> list[tuple[str, str, int]]:
        return [(s, v, seed + i) for s in self.strategies for v in self.values
                for i in range(self.repeats)]

    def settings(self) -> dict[str, str]:
        return checks.read_config((DATA / self.config).read_text(), self.sets)

    def consumers(self) -> int:
        return checks.count_consumers((DATA / self.settings()["topology"]).read_text())


WORKLOADS = {w.name: w for w in (
    # fig9's 52-node graph with 32 kbps links and producer routes at 10
    # interests/s per consumer: select_probe's linear FIB scan (fib-probe)
    # and PIT+FIB pool (random) take about half of each run, and the high
    # rate pre-pushes the most issue events into the heap.
    Workload("probe-scan", "fig9.cfg", "frequency", ("10",),
             ("fib-probe", "random"), sets=("sim_duration=60",)),
    # Abilene with unlimited links, basic-ccn only: no probe is selected and
    # links never queue, so time goes to the per-packet path. The two cache
    # ratios set the content-store hit rate and so the flood volume.
    Workload("flood", "fig6.cfg", "cache_size_ratio", ("0.01", "0.40"),
             ("basic-ccn",)),
    # fig8's graph with finite links, 10%/s cache churn, a 64-entry FIB and
    # four failure events: short probe scans, frequent FIB writes with LRU
    # eviction, churn evictions and SPT replacement after each failure. One
    # router per event: three per event partition the graph on some seeds
    # and then the event count swings threefold from seed to seed.
    Workload("churn-failure", "fig8.cfg", "cache_update_ratio", ("0.10",),
             ("fib-probe", "pit-probe"), repeats=2,
             sets=("fib_capacity=64", "failures=96:1,192:1,288:1,384:1")),
)}


def rows_digest(data: bytes) -> str:
    """sha256 of a `sweep.csv` without its `scenario_hash` column.

    `scenario_hash` hashes the resolved topology path, so it changes with
    the directory the repository sits in; the other columns do not.
    """
    rows = list(csv.reader(io.StringIO(data.decode())))
    drop = rows[0].index("scenario_hash")
    text = "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Round:
    """One sweep: host times, checked points and the CSV digest."""

    tracer: Tracer
    wall_s: float          # host CPU seconds, checks excluded
    elapsed_s: float       # wall-clock seconds, checks included
    digest: str | None     # sha256 of sweep.csv
    rows_digest: str | None
    failed: list[str] = field(default_factory=list)   # one line per failed point
    extra_rows: int = 0

    @property
    def setup_s(self) -> float:
        return self.tracer.stat("engine.setup").total

    @property
    def run_s(self) -> float:
        return self.tracer.stat("engine.run").total


def run_round(modules, workload: Workload, seed: int, out: Path,
              traced: bool) -> Round:
    """Run the workload's sweep once and check every point it produced."""
    out.mkdir(parents=True, exist_ok=True)
    sweep_csv = out / "sweep.csv"
    sweep_csv.unlink(missing_ok=True)
    tracer = Tracer(modules, full=traced)
    error = None
    tracer.install()
    try:
        e0, t0 = perf_counter(), clock()
        with redirect_stdout(io.StringIO()):
            rc = modules.cli.main(workload.argv(seed, out))
        wall = clock() - t0 - tracer.check_s()
        elapsed = perf_counter() - e0
    except Exception as exc:  # a crashing sweep fails its points, not the run
        error, wall, elapsed = f"{type(exc).__name__}: {exc}", 0.0, 0.0
    finally:
        tracer.uninstall()
    if error is None and rc != 0:
        error = f"ccnprobe sweep exited {rc}"

    data = sweep_csv.read_bytes() if error is None else b""
    rnd = Round(tracer, wall, elapsed,
                hashlib.sha256(data).hexdigest() if data else None,
                rows_digest(data) if data else None)
    rows = {}
    for row in csv.DictReader(io.StringIO(data.decode())):
        rows[(row["strategy"], float(row["axis_value"]), int(row["seed"]))] = row
    settings = workload.settings()
    consumers = workload.consumers()
    duration = int(float(settings["sim_duration"]))
    for strategy, value, s in workload.points(seed):
        row = rows.pop((strategy, float(value), s), None)
        if row is None:
            rnd.failed.append(f"{strategy} {workload.axis}={value} seed {s}: "
                              f"no output row ({error or 'missing'})")
            continue
        rate = int(value) if workload.axis == "frequency" else int(
            settings["interest_frequency"])
        problems = checks.row_problems(row, consumers, rate, duration)
        problems += tracer.points.get(row["scenario_hash"], ["no run record"])
        if problems:
            rnd.failed.append(f"{strategy} {workload.axis}={value} seed {s}: "
                              + "; ".join(problems[:3]))
    rnd.extra_rows = len(rows)
    return rnd
