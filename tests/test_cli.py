import csv
from dataclasses import fields
from pathlib import Path

import pytest

from ccnprobe import cli
from ccnprobe.cli import (CONFIG_KEYS, EXIT_CONFIG, EXIT_OK, RUN_HEADER,
                          SWEEP_HEADER, apply_overrides, build_scenario,
                          check_ranges, data_path, main, parse_config,
                          scenario_hash)
from ccnprobe.engine import ConfigError, Scenario, Simulation

SMALL_CFG = """
# test scenario
topology = abilene.topo
sim_duration = 20
interest_frequency = 1
cache_size_ratio = 0.10
probe_strategy = basic-ccn
link_delay = 0.01
link_bandwidth = unlimited
rng_seed = 1
repeats = 2
sweep_axis = cache_size_ratio
sweep_values = 0.05, 0.10
strategies = basic-ccn, fib-probe
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


class TestParseConfig:
    def test_reads_typed_values(self, cfg):
        config = parse_config(cfg)
        assert config["sim_duration"] == 20.0
        assert config["sweep_values"] == ["0.05", "0.10"]
        assert config["strategies"] == ["basic-ccn", "fib-probe"]

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("topology = abilene.topo\nwizardry = 9\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            parse_config(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sim_duration = soon\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rng_seed = 1\nrng_seed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nope/missing.cfg")

    def test_bundled_preset_found_by_bare_name(self):
        config = parse_config("fig6.cfg")
        assert config["sweep_axis"] == "cache_size_ratio"
        assert len(config["sweep_values"]) == 9

    def test_failures_spec(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("topology = abilene.topo\nfailures = 240:3, 300:2\n")
        assert parse_config(path)["failures"] == ((240.0, 3), (300.0, 2))

    def test_overrides_win(self, cfg):
        config = parse_config(cfg)
        apply_overrides(config, ["cache_size_ratio=0.40", "rng_seed=7"])
        assert config["cache_size_ratio"] == 0.40
        assert config["rng_seed"] == 7

    def test_bad_override_rejected(self, cfg):
        config = parse_config(cfg)
        with pytest.raises(ConfigError):
            apply_overrides(config, ["nonsense"])


class TestBuildScenario:
    def test_resolves_bundled_topology(self, cfg):
        scenario = build_scenario(parse_config(cfg))
        assert Path(scenario.topology).name == "abilene.topo"
        assert Path(scenario.topology).exists()

    def test_topology_next_to_config_wins(self, tmp_path):
        (tmp_path / "mini.topo").write_text("node A\nnode B\nedge A B\n")
        path = tmp_path / "c.cfg"
        path.write_text("topology = mini.topo\n")
        scenario = build_scenario(parse_config(path))
        assert Path(scenario.topology).parent == tmp_path

    def test_missing_topology_is_config_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("topology = vanished.topo\n")
        with pytest.raises(ConfigError, match="topology file not found"):
            build_scenario(parse_config(path))

    def test_hash_tracks_content(self, cfg):
        scenario = build_scenario(parse_config(cfg))
        assert scenario_hash(scenario) != scenario_hash(
            Scenario(**{**scenario.__dict__, "rng_seed": 99}))


class TestCheckRanges:
    def test_documented_ranges_enforced(self):
        sc = Scenario(topology="node A\n", interest_frequency=31)
        with pytest.raises(ConfigError, match="interest_frequency"):
            check_ranges(sc, force=False)
        check_ranges(sc, force=True)

    @pytest.mark.parametrize("field,value", [
        ("cache_size_ratio", 0.005), ("cache_size_ratio", 0.45),
        ("cache_update_ratio", 0.6), ("failures", ((1.0, 25),)),
    ])
    def test_out_of_range_values(self, field, value):
        sc = Scenario(topology="node A\n", **{field: value})
        with pytest.raises(ConfigError):
            check_ranges(sc, force=False)


class TestRunCommand:
    def test_writes_run_and_summary(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        with open(out / "run.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RUN_HEADER
        assert len(rows) == 3  # header + 2 seeds
        assert rows[1][0] == "basic-ccn"
        assert {r[1] for r in rows[1:]} == {"1", "2"}
        summary = (out / "run_summary.csv").read_text().splitlines()
        assert len(summary) == 2

    def test_repeats_flag_overrides_config(self, cfg, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out), "--repeats", "1"])
        assert len((out / "run.csv").read_text().splitlines()) == 2

    def test_missing_topology_exits_2_without_output(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("topology = vanished.topo\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_out_of_range_set_exits_2(self, cfg, tmp_path):
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path),
                     "--set", "cache_size_ratio=0.9"])
        assert code == EXIT_CONFIG

    def test_force_allows_out_of_range(self, cfg, tmp_path):
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path),
                     "--set", "cache_size_ratio=0.9", "--force", "--repeats", "1"])
        assert code == EXIT_OK

    def test_byte_identical_reruns(self, cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()


class TestSweepCommand:
    def test_cartesian_rows_sorted(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2  # strategies x values x seeds
        keys = [(r["strategy"], float(r["axis_value"]), int(r["seed"])) for r in rows]
        assert keys == sorted(keys)
        assert {r["axis"] for r in rows} == {"cache_size_ratio"}

    def test_axis_and_values_flags(self, cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "frequency", "--values", "1", "2",
                     "--repeats", "1", "--strategies", "basic-ccn"])
        assert code == EXIT_OK
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["axis_value"] for r in rows] == ["1", "2"]

    def test_empty_value_list_exits_2(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("topology = abilene.topo\nsim_duration = 5\n"
                        "link_delay = 0.01\nsweep_axis = cache_size_ratio\n")
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_strategy_exits_2(self, cfg, tmp_path):
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                     "--strategies", "telepathy"])
        assert code == EXIT_CONFIG

    def test_failures_axis_injects_at_half_time(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "topology = sprint52.topo\nsim_duration = 20\n"
            "contents_per_producer = 10\nlink_delay = 0.01\n"
            "link_bandwidth = unlimited\npayload_size = 64\n")
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(path), "--out", str(out),
                     "--axis", "failures", "--values", "2",
                     "--strategies", "basic-ccn", "--repeats", "1"])
        assert code == EXIT_OK


class TestReportCommand:
    @pytest.fixture
    def sweep_csv(self, cfg, tmp_path):
        out = tmp_path / "out"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        return out / "sweep.csv"

    def test_fig6_reshapes_three_metrics(self, sweep_csv, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--input", str(sweep_csv), "--figure", "fig6",
                     "--out", str(out)]) == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert files == ["fig6_avg_response_time_s.csv",
                         "fig6_forwarded_interests.csv",
                         "fig6_timeout_count.csv"]
        with open(out / "fig6_forwarded_interests.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["strategy", "cache_size_ratio", "forwarded_interests"]
        assert len(rows) == 1 + 2 * 2  # strategies x axis values

    def test_wrong_axis_exits_2(self, sweep_csv, tmp_path):
        assert main(["report", "--input", str(sweep_csv), "--figure", "fig8",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["report", "--input", str(tmp_path / "none.csv"),
                     "--figure", "fig6"]) == EXIT_CONFIG

    def test_header_only_csv_exits_2(self, tmp_path):
        empty = tmp_path / "sweep.csv"
        empty.write_text(",".join(SWEEP_HEADER) + "\n")
        assert main(["report", "--input", str(empty),
                     "--figure", "fig6"]) == EXIT_CONFIG

    def test_missing_columns_listed(self, tmp_path, capsys):
        bad = tmp_path / "sweep.csv"
        bad.write_text("strategy,seed\nx,1\n")
        assert main(["report", "--input", str(bad),
                     "--figure", "fig6"]) == EXIT_CONFIG
        assert "missing columns" in capsys.readouterr().err

    def test_table2_renders_rows(self, sweep_csv, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["report", "--input", str(sweep_csv), "--figure", "table2",
                     "--out", str(out)]) == EXIT_OK
        text = (out / "table2.md").read_text()
        assert "Provider accuracy" in text
        assert "fib-probe" in text

    def test_table3_has_four_qos_rows_with_categories(self, sweep_csv, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--input", str(sweep_csv), "--figure", "table3",
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "table3.md").read_text().splitlines()
        assert len(lines) == 2 + 4  # header, separator, four metrics
        for line in lines[2:]:
            assert line.split("|")[-2].strip() in (
                "Good", "Bad", "Good/Bad", "Bad/Good",
                "Good/Good", "Bad/Bad") or "/" in line

    def test_report_is_deterministic(self, sweep_csv, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["report", "--input", str(sweep_csv), "--figure", "fig6", "--out", str(out1)])
        main(["report", "--input", str(sweep_csv), "--figure", "fig6", "--out", str(out2)])
        for p in out1.iterdir():
            assert p.read_bytes() == (out2 / p.name).read_bytes()


class TestValidateCommand:
    def test_ok(self, cfg, capsys):
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_bundled_presets_all_validate(self):
        for preset in ("fig6.cfg", "fig7.cfg", "fig8.cfg", "fig9.cfg",
                       "table2.cfg", "table3.cfg"):
            assert main(["validate", "--config", preset]) == EXIT_OK

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("topology = abilene.topo\ntimeout = 0\n")
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG


def test_data_path_resolves_bundled_files():
    assert data_path("abilene.topo") is not None
    assert data_path("not-a-file.topo") is None


class TestScenarioDerivedKeys:
    def test_every_scenario_field_is_a_config_key(self):
        assert {f.name for f in fields(Scenario)} <= set(CONFIG_KEYS)

    @pytest.mark.parametrize("item,key,expected", [
        ("fib_capacity=unlimited", "fib_capacity", None),
        ("fib_capacity=none", "fib_capacity", None),
        ("link_delay=default", "link_delay", None),
        ("link_bandwidth=unlimited", "link_bandwidth", "unlimited"),
        ("producer_routing=yes", "producer_routing", True),
        ("failures=1:2", "failures", ((1.0, 2),)),
        ("interest_frequency=3", "interest_frequency", 3),
    ])
    def test_documented_spellings_give_typed_values(self, cfg, item, key, expected):
        config = parse_config(cfg)
        apply_overrides(config, [item])
        value = getattr(build_scenario(config), key)
        assert value == expected
        assert type(value) is type(expected)


class TestLoadChecks:
    def test_validate_checks_failure_total_against_topology(self, capsys):
        # fig8's graph has 33 eligible routers; each event alone is in range.
        assert main(["validate", "--config", "fig8.cfg",
                     "--set", "failures=100:20,200:20"]) == EXIT_CONFIG
        assert "40 routers in total" in capsys.readouterr().err

    def test_validate_rejects_zero_repeats(self, cfg):
        assert main(["validate", "--config", str(cfg),
                     "--set", "repeats=0"]) == EXIT_CONFIG

    def test_sweep_zero_repeats_exits_2_without_output(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--repeats", "0"]) == EXIT_CONFIG
        assert not (out / "sweep.csv").exists()

    def test_malformed_topology_exits_2(self, tmp_path):
        (tmp_path / "bad.topo").write_text("node A\nedge A Z\n")
        path = tmp_path / "c.cfg"
        path.write_text("topology = bad.topo\n")
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG


class TestSweepArguments:
    def test_unparsable_axis_value_exits_2(self, capsys):
        assert main(["sweep", "--config", "fig6.cfg", "--values", "abc"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cache_size_ratio" in err and "'abc'" in err

    def test_unparsable_failure_count_exits_2(self, cfg, tmp_path, capsys):
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                     "--axis", "failures", "--values", "two"]) == EXIT_CONFIG
        assert "failures" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--config", "fig6.cfg", "--force", "--values", "0.1", "0.2", "1.5"],
         "cache_size_ratio out of [0,1]: 1.5"),
        (["--config", "fig8.cfg", "--axis", "failures", "--values", "1", "40",
          "--force"], "cannot fail 40 routers in total"),
    ], ids=["cache-ratio-out-of-range", "failure-total-too-high"])
    def test_bad_point_exits_2_before_any_point_runs(self, tmp_path, monkeypatch,
                                                      capsys, argv, message):
        runs = []

        def refuse(sim):
            runs.append(sim)
            pytest.fail("a point ran before every point was checked")

        monkeypatch.setattr(Simulation, "run", refuse)
        out = tmp_path / "out"
        assert main(["sweep", *argv, "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
        assert runs == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_without_output(self, cfg, tmp_path, jobs):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--jobs", jobs]) == EXIT_CONFIG
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("jobs,cores,workers", [
        (64, 3, [3]),    # capped by the cores
        (64, 16, [4]),   # capped by the 4 points
        (2, 16, [2]),
        (1, 16, []),     # runs in-process, no pool
        (64, 1, []),
    ])
    def test_pool_is_capped_by_points_and_cores(self, cfg, tmp_path, monkeypatch,
                                                jobs, cores, workers):
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                     "--repeats", "1", "--jobs", str(jobs)]) == EXIT_OK
        assert seen == workers
