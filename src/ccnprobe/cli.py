"""Command-line harness: config files, single runs, parameter sweeps, and
plot-ready report files."""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

from .engine import ConfigError, Scenario, Simulation, check_failure_total, run
from .metrics import AccountingError, MetricsReport, classify_qos
from .node import ProbeStrategy
from .topology import TopologyError, load_topology

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

# Sweep axis -> the Scenario field it varies.
SWEEP_AXES = {
    "cache_size_ratio": "cache_size_ratio",
    "cache_update_ratio": "cache_update_ratio",
    "failures": "failures",
    "frequency": "interest_frequency",
}
DEFAULT_STRATEGIES = ("basic-ccn", "pit-probe", "fib-probe")
ALL_STRATEGIES = tuple(s.value for s in ProbeStrategy)

# Table-1 parameter ranges, enforced unless --force; `failures` bounds each
# event's count. Zero also passes where it means "off".
RANGES = {
    "interest_frequency": (1, 30),
    "cache_size_ratio": (0.01, 0.40),
    "cache_update_ratio": (0.01, 0.50),
    "failures": (1, 20),
}
ZERO_MEANS_OFF = {"cache_update_ratio", "failures"}


def _parse_failures(text: str) -> tuple[tuple[float, int], ...]:
    if not text.strip():
        return ()
    out = []
    for part in text.split(","):
        time, sep, count = part.strip().partition(":")
        if not sep:
            raise ValueError(f"failure spec {part.strip()!r} is not time:count")
        out.append((float(time), int(count)))
    return tuple(out)


def _parse_optional_float(text: str) -> float | None:
    return None if text.lower() in ("none", "default", "file") else float(text)


def _parse_bandwidth(text: str) -> float | str | None:
    return "unlimited" if text.lower() == "unlimited" else _parse_optional_float(text)


def _parse_optional_int(text: str) -> int | None:
    return None if text.lower() in ("none", "unlimited") else int(text)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "on", "1"):
        return True
    if text.lower() in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_values(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


# Parser per Scenario field type, as `dataclasses.fields` spells it (the
# annotations are strings under `from __future__ import annotations`).
TYPE_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "int | None": _parse_optional_int,
    "float | None": _parse_optional_float,
    "float | str | None": _parse_bandwidth,
    "tuple[tuple[float, int], ...]": _parse_failures,
}

# key -> parser for everything a config file or --set may contain: the
# Scenario fields plus the harness keys.
SCENARIO_KEYS = {f.name: TYPE_PARSERS[f.type] for f in fields(Scenario)}
CONFIG_KEYS = {
    **SCENARIO_KEYS,
    "repeats": int,
    "output_dir": str,
    "sweep_axis": str,
    "sweep_values": _parse_values,
    "strategies": _parse_values,
}


def data_path(name: str) -> Path | None:
    """Path of a bundled data file (topology or preset config), if any."""
    candidate = resources.files("ccnprobe").joinpath("data", name)
    try:
        if candidate.is_file():
            return Path(str(candidate))
    except (OSError, TypeError):
        pass
    return None


def _parse_item(text: str, where: str) -> tuple[str, object]:
    """The key and typed value of a `key = value` config line or --set item.

    A malformed item, an unknown key or a bad value fails naming `where`.
    """
    key, sep, value = text.partition("=")
    key, value = key.strip(), value.strip()
    if not sep or not key:
        raise ConfigError(f"{where}: expected `key = value`")
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return key, CONFIG_KEYS[key](value)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from None


def parse_config(path: str | Path) -> dict:
    """Read a `key = value` config file into a typed dict.

    Unknown keys, bad values, and repeated keys fail with the line number.
    """
    p = Path(path)
    if not p.exists():
        bundled = data_path(p.name) if p.name == str(path) else None
        if bundled is None:
            raise ConfigError(f"config file not found: {path}")
        p = bundled
    config: dict = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _parse_item(line, f"{p.name}:{lineno}")
        if key in config:
            raise ConfigError(f"{p.name}:{lineno}: duplicate key {key!r}")
        config[key] = value
    config["_config_dir"] = p.parent
    return config


def apply_overrides(config: dict, overrides: list[str]) -> None:
    for item in overrides:
        key, value = _parse_item(item, f"--set {item!r}")
        config[key] = value


def resolve_topology(config: dict) -> str:
    name = config.get("topology")
    if name is None:
        raise ConfigError("config is missing the `topology` key")
    for candidate in (Path(name), config.get("_config_dir", Path(".")) / name):
        if candidate.exists():
            return str(candidate)
    bundled = data_path(Path(name).name)
    if bundled is not None:
        return str(bundled)
    raise ConfigError(f"topology file not found: {name}")


def build_scenario(config: dict) -> Scenario:
    fields = {k: v for k, v in config.items() if k in SCENARIO_KEYS}
    fields["topology"] = resolve_topology(config)
    scenario = Scenario(**fields)
    scenario.validate()
    return scenario


def check_ranges(scenario: Scenario, force: bool) -> None:
    """Reject parameters outside the documented experiment ranges."""
    if force:
        return
    problems = []
    for key, (lo, hi) in RANGES.items():
        value = getattr(scenario, key)
        values = [count for _t, count in value] if key == "failures" else [value]
        zero_ok = key in ZERO_MEANS_OFF
        for v in values:
            if not (lo <= v <= hi or (zero_ok and v == 0)):
                problems.append(
                    f"{key} {v} outside {'0 or ' if zero_ok else ''}[{lo},{hi}]")
    if problems:
        raise ConfigError("; ".join(problems) + " (use --force to override)")


def scenario_hash(scenario: Scenario) -> str:
    digest = hashlib.sha256(scenario.canonical().encode()).hexdigest()
    return digest[:12]


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


RUN_HEADER = ["strategy", "seed", "scenario_hash", *MetricsReport.CSV_FIELDS]
SWEEP_HEADER = ["strategy", "axis", "axis_value", "seed", "scenario_hash",
                *MetricsReport.CSV_FIELDS]


def _axis_variant(scenario: Scenario, axis: str, value: str) -> tuple[Scenario, float]:
    field = SWEEP_AXES[axis]
    parse = int if axis == "failures" else SCENARIO_KEYS[field]
    try:
        v = parse(value)
    except ValueError as exc:
        raise ConfigError(f"bad {axis} value {value!r}: {exc}") from None
    if axis == "failures":  # one event of `v` routers, at half time
        at = scenario.sim_duration / 2.0
        return replace(scenario, failures=((at, v),)), v
    return replace(scenario, **{field: v}), v


def _run_point(args: tuple) -> list:
    """One (strategy, seed) simulation; returns its run.csv row, or its
    sweep.csv row when `axis_columns` holds the axis and its value."""
    scenario, strategy, seed, axis_columns = args
    sc = replace(scenario, probe_strategy=strategy, rng_seed=seed)
    report = run(sc)
    return [strategy, *axis_columns, seed, scenario_hash(sc),
            *report.csv_values()]


def load(args) -> tuple[dict, Scenario, int]:
    """The config, scenario and repeat count every command starts from."""
    config = parse_config(args.config)
    apply_overrides(config, args.set)
    scenario = build_scenario(config)
    if args.seed is not None:
        scenario = replace(scenario, rng_seed=args.seed)
    repeats = args.repeats if args.repeats is not None else config.get("repeats", 1)
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    return config, scenario, repeats


def cmd_validate(args) -> int:
    _config, scenario, _repeats = load(args)
    check_ranges(scenario, args.force)
    Simulation(scenario)  # every construction check; no event runs
    print(f"ok: scenario {scenario_hash(scenario)} "
          f"({scenario.probe_strategy}, topology {Path(scenario.topology).name})")
    return EXIT_OK


def cmd_run(args) -> int:
    config, scenario, repeats = load(args)
    check_ranges(scenario, args.force)
    out_dir = Path(args.out or config.get("output_dir", "."))

    rows = [_run_point((scenario, scenario.probe_strategy, scenario.rng_seed + i, ()))
            for i in range(repeats)]
    _write_csv(out_dir / "run.csv", RUN_HEADER, rows)

    means = [statistics.fmean(float(r[i]) for r in rows)
             for i in range(3, len(RUN_HEADER))]
    summary = [[scenario.probe_strategy, repeats, scenario_hash(scenario), *means]]
    _write_csv(out_dir / "run_summary.csv",
               ["strategy", "seeds", "scenario_hash", *MetricsReport.CSV_FIELDS],
               summary)
    print(f"wrote {out_dir / 'run.csv'} ({repeats} seed(s)) and "
          f"{out_dir / 'run_summary.csv'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, scenario, repeats = load(args)
    axis = args.axis or config.get("sweep_axis")
    values = args.values or config.get("sweep_values")
    if axis is None or axis not in SWEEP_AXES:
        raise ConfigError(f"sweep needs an axis from {tuple(SWEEP_AXES)}, got {axis!r}")
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    strategies = args.strategies or config.get("strategies") or list(DEFAULT_STRATEGIES)
    for s in strategies:
        if s not in ALL_STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}; expected one of {ALL_STRATEGIES}")
    out_dir = Path(args.out or config.get("output_dir", "."))

    # Every point is checked before the first one runs.
    graph = load_topology(scenario.topology)
    variants = []
    for value in values:
        variant, axis_value = _axis_variant(scenario, axis, value)
        check_ranges(variant, args.force)
        variant.validate()
        check_failure_total(variant, graph)
        variants.append((variant, (axis, axis_value)))
    points = [(variant, strategy, scenario.rng_seed + i, axis_columns)
              for strategy in strategies
              for variant, axis_columns in variants
              for i in range(repeats)]

    # More workers than points or cores would only idle or contend.
    jobs = min(args.jobs, len(points), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_point, points))
    else:
        rows = [_run_point(p) for p in points]
    rows.sort(key=lambda r: (r[0], float(r[2]), int(r[3])))
    _write_csv(out_dir / "sweep.csv", SWEEP_HEADER, rows)
    print(f"wrote {out_dir / 'sweep.csv'}: {len(rows)} rows "
          f"({len(strategies)} strategies x {len(values)} values x {repeats} seed(s))")
    return EXIT_OK


# -- report -----------------------------------------------------------------

FIGURES = {
    "fig6": ("cache_size_ratio",
             ["forwarded_interests", "timeout_count", "avg_response_time_s"]),
    "fig7": ("cache_update_ratio",
             ["forwarded_interests", "timeout_count", "avg_response_time_s"]),
    "fig8": ("failures", ["avg_delay_ms", "packet_loss_pct"]),
    "fig9": ("frequency", ["avg_delay_ms", "packet_loss_pct"]),
}


def _load_sweep(path: Path) -> list[dict]:
    if not path.exists():
        raise ConfigError(f"input CSV not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigError(f"{path} is empty")
        missing = [c for c in SWEEP_HEADER if c not in reader.fieldnames]
        if missing:
            raise ConfigError(f"{path} is missing columns: {', '.join(missing)}")
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path} has a header but no data rows")
    return rows


def _means(rows: list[dict], metric: str, key=lambda row: row["strategy"]) -> dict:
    """Mean of `metric` over the rows of each group that `key` names."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(float(row[metric]))
    return {k: statistics.fmean(vals) for k, vals in groups.items()}


def _write_table(path: Path, lines: list[str]) -> Path:
    """Write a markdown table to `path` and echo it to stdout."""
    text = "\n".join(lines) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(text, end="")
    return path


def _report_figure(rows: list[dict], figure: str, out_dir: Path) -> list[Path]:
    axis, metrics = FIGURES[figure]
    seen_axes = {row["axis"] for row in rows}
    if seen_axes != {axis}:
        raise ConfigError(
            f"{figure} needs a sweep over {axis!r}, found {sorted(seen_axes)}")
    written = []
    for metric in metrics:
        means = _means(rows, metric,
                       lambda row: (row["strategy"], float(row["axis_value"])))
        out = [[strategy, value, mean]
               for (strategy, value), mean in sorted(means.items())]
        path = out_dir / f"{figure}_{metric}.csv"
        _write_csv(path, ["strategy", axis, metric], out)
        written.append(path)
    return written


def _report_table2(rows: list[dict], out_dir: Path) -> Path:
    acc = _means(rows, "provider_accuracy_pct")
    hops = _means(rows, "hop_count_sum")
    hop_mean = _means(rows, "hop_count_mean")
    lines = ["| Strategy | Provider accuracy (%) | Routing hops (total) | Routing hops (mean) |",
             "| --- | --- | --- | --- |"]
    for strategy in sorted(acc):
        lines.append(f"| {strategy} | {acc[strategy]:.2f} | "
                     f"{hops[strategy]:.6g} | {hop_mean[strategy]:.3f} |")
    return _write_table(out_dir / "table2.md", lines)


def _report_table3(rows: list[dict], out_dir: Path) -> Path:
    metrics = [("Throughput (packets/s)", "throughput_pkt_s", "throughput"),
               ("Packet loss (%)", "packet_loss_pct", "packet_loss"),
               ("Delay (ms)", "avg_delay_ms", "delay"),
               ("Jitter (ms)", "jitter_ms", "jitter")]
    means = {field: _means(rows, field) for _label, field, _qos_key in metrics}
    strategies = sorted(means["throughput_pkt_s"])
    qos = {s: classify_qos(MetricsReport(**{field: m[s] for field, m in means.items()}))
           for s in strategies}
    header = "| QoS parameter | " + " | ".join(strategies) + " | Category |"
    lines = [header, "|" + " --- |" * (len(strategies) + 2)]
    for label, field, qos_key in metrics:
        values = [f"{means[field][s]:.6g}" for s in strategies]
        cats = [qos[s][qos_key] for s in strategies]
        cat = cats[0] if len(set(cats)) == 1 else "/".join(cats)
        lines.append(f"| {label} | " + " | ".join(values) + f" | {cat} |")
    return _write_table(out_dir / "table3.md", lines)


def cmd_report(args) -> int:
    rows = _load_sweep(Path(args.input))
    out_dir = Path(args.out or ".")
    if args.figure in FIGURES:
        written = _report_figure(rows, args.figure, out_dir)
    elif args.figure == "table2":
        written = [_report_table2(rows, out_dir)]
    elif args.figure == "table3":
        written = [_report_table3(rows, out_dir)]
    else:
        raise ConfigError(f"unknown figure {args.figure!r}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccnprobe",
        description="Discrete-event CCN simulator with probe-based FIB updating.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sweep=False):
        p.add_argument("--config", required=True, help="config file (or bundled preset name)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--force", action="store_true",
                       help="skip experiment-range validation")
        if sweep is not None:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--repeats", type=int, default=None)
            p.add_argument("--out", default=None, help="output directory")
        if sweep:
            p.add_argument("--axis", default=None, choices=SWEEP_AXES)
            p.add_argument("--values", nargs="+", default=None)
            p.add_argument("--strategies", nargs="+", default=None)
            p.add_argument("--jobs", type=int, default=1)

    p_validate = sub.add_parser("validate", help="check a config without running")
    common(p_validate, sweep=None)
    p_validate.set_defaults(func=cmd_validate, seed=None, repeats=None)

    p_run = sub.add_parser("run", help="run one scenario over one or more seeds")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep across strategies")
    common(p_sweep, sweep=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="reshape a sweep.csv into figure/table data")
    p_report.add_argument("--input", required=True, help="sweep.csv path")
    p_report.add_argument("--figure", required=True,
                          choices=[*FIGURES, "table2", "table3"])
    p_report.add_argument("--out", default=None, help="output directory")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TopologyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AccountingError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
