"""Golden outputs: the sha256 of every metric of short runs, pinned.

Each case is a bundled preset (or a variant of one) shortened to at most
60 simulated seconds, run under every probe strategy. The digest covers
`MetricsReport.csv_values()` at full float precision. One small sweep's
whole `sweep.csv` is pinned as well: its `scenario_hash` column names the
topology by file name and content, so its bytes are the same in any
checkout directory.

A change that alters any of these outputs must re-pin the digest it
changes and give the reason. To print the current digests:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from ccnprobe.cli import ALL_STRATEGIES, build_scenario, main, parse_config
from ccnprobe.engine import run
from ccnprobe.metrics import MetricsReport

# case -> (preset, overrides). The Abilene presets run 30 simulated
# seconds, the 52-node ones 60. The variants load the 52-node graph at 5
# interests/s with small caches, so that within 40 seconds FIBs fill and
# evict, and list names the router no longer caches: only such names are
# probed.
CASES = {
    "fig6": ("fig6.cfg", {"sim_duration": 30.0}),
    "fig7": ("fig7.cfg", {"sim_duration": 30.0}),
    "fig8": ("fig8.cfg", {"sim_duration": 60.0, "failures": ((30.0, 3),)}),
    "fig9": ("fig9.cfg", {"sim_duration": 60.0}),
    "table2": ("table2.cfg", {"sim_duration": 30.0}),
    "table3": ("table3.cfg", {"sim_duration": 30.0}),
    "churn": ("fig9.cfg", {"sim_duration": 40.0, "interest_frequency": 5,
                           "cache_update_ratio": 0.2, "rng_seed": 2}),
    "failures": ("fig8.cfg", {"sim_duration": 40.0, "interest_frequency": 5,
                              "failures": ((10.0, 2), (25.0, 3)),
                              "cache_size_ratio": 0.02}),
    "small-fib": ("fig9.cfg", {"sim_duration": 40.0, "interest_frequency": 5,
                               "fib_capacity": 16, "cache_size_ratio": 0.01}),
}

GOLDEN = {
    ('fig6', 'basic-ccn'): '7e6a05b7cc5f48a79f4af89b61c721d0f65e067dc3a88ca5f1a78a9b7e777481',
    ('fig6', 'pit-probe'): '8498683bf629ff863a48e796bfe8f8a5c12b656f007b684d3ee48b2fb3be738b',
    ('fig6', 'fib-probe'): '0d7669a263faf11019eb0e38eaf645251ca865ad62bb1327cf86f37cb00a1ec4',
    ('fig6', 'sequential'): '69de9e3a380b170caafd1a018e55d056d2976be9e406d61a7f8af3c7e554cdd4',
    ('fig6', 'random'): 'c1affad518f9f66c6ba407411b3e9d5c1d3dde1e39c50c3f707962a820540c2c',
    ('fig7', 'basic-ccn'): 'd11a1c30ff4dc3e53bcb440204ecad2ba3ddafa47beb8aa062b9ed525184fb38',
    ('fig7', 'pit-probe'): 'c461c230d24e3721cfd1d8f98df4e2b31c8ca0a60f15b1fc049b7825b002a927',
    ('fig7', 'fib-probe'): '8d6593fa2f9b19a0f9479c7f217f624c4cab95dba02b3b74c70dd6bcdbdcd018',
    ('fig7', 'sequential'): 'faccd6058f670ce795198e7f464ff360dd0fd2576652e75661b69e49973df168',
    ('fig7', 'random'): 'd57ade588ab6c36ddcd93844eccbf1bf704834db10329ee725e3c14fbe7af536',
    ('fig8', 'basic-ccn'): '322136dd3d074332d02c1c5804545282608fca60cc9cb3cb55f0ae3a63e488c8',
    ('fig8', 'pit-probe'): '8d76b41f18cb8f4a2338ad71659300288091cddf889a147213f74a4735863305',
    ('fig8', 'fib-probe'): '322136dd3d074332d02c1c5804545282608fca60cc9cb3cb55f0ae3a63e488c8',
    ('fig8', 'sequential'): '322136dd3d074332d02c1c5804545282608fca60cc9cb3cb55f0ae3a63e488c8',
    ('fig8', 'random'): '5fa111898d8520250089c96240cc312994b8c27b105fb276cf071be7de57befc',
    ('fig9', 'basic-ccn'): '88ccf7fc999a20e27652b5726fe8b5e2540ed94f1e9667be532958190472f08c',
    ('fig9', 'pit-probe'): '3fe1e7a1dc74d1f464f24ffe3bd969cb4b8e119c952d0ca4d6008a6dd97f5178',
    ('fig9', 'fib-probe'): '88ccf7fc999a20e27652b5726fe8b5e2540ed94f1e9667be532958190472f08c',
    ('fig9', 'sequential'): '88ccf7fc999a20e27652b5726fe8b5e2540ed94f1e9667be532958190472f08c',
    ('fig9', 'random'): '3fe1e7a1dc74d1f464f24ffe3bd969cb4b8e119c952d0ca4d6008a6dd97f5178',
    ('table2', 'basic-ccn'): 'bfdf4b6b097330260de469d26b51cc83b8b3b3242bf65c958359f8e0cf76839f',
    ('table2', 'pit-probe'): 'bdf2ed56fe6a2eff446749af9e2f77bf8c725b6ced05defb8dd37b54676e2949',
    ('table2', 'fib-probe'): 'ce2d700ad94ab4bf7c9d8760d0ccc3b6b2e4d74d85a9624949fda856753bbfd6',
    ('table2', 'sequential'): 'f4b7482ef1f42c607fad3762838777076cbd51450aad471fa89b873919d53c02',
    ('table2', 'random'): 'aa512f88c44d8ce82fd060cea866f458a0d66c0fb7020dc4e6e7926fef47b28d',
    ('table3', 'basic-ccn'): 'feda3dd18ca826d59d3b3e0579f8f8b8bf883b2903ac7503e16ab6e17ea2544c',
    ('table3', 'pit-probe'): '7039a07526c0d9ee5518784835b6a3f0c07254e081cbbd0642de3fa45db55da0',
    ('table3', 'fib-probe'): 'c6877dddaba2539fee9b32c84e1d9f7f3e16cda52dc10b10285c2bdaa021f446',
    ('table3', 'sequential'): '68b1475be0a1b6197aa5915023840e11c37c2e16140edc337507212e2ab0555b',
    ('table3', 'random'): 'd8e1a2674c1e9742b5cc36c88fcb17b75db8a0f038cf292ed0809650ece9191f',
    ('churn', 'basic-ccn'): 'fd8ecfa5f4a6667a42f6a7e51fcde1ff7e60ebcadc827589c4db67859a1f10f7',
    ('churn', 'pit-probe'): 'eeb6b2e6ba3f0d97d87a5f18e5a1be73350c55dacd8808324ef8e6d4593cab29',
    ('churn', 'fib-probe'): '8e09f8296cddd1efcc82fb3b9a388dde6ca0dd978fd3795290c02eb52aba818d',
    ('churn', 'sequential'): '604606f4c91088353b944fbd7ad078342b896c95f6d2d93889274b8295fc807b',
    ('churn', 'random'): 'a6b3ba68876f7cfd7e5228ba29a5a2336c0fa8e3dca45d4c752a14937e85bdcb',
    ('failures', 'basic-ccn'): 'd68eaf37f208db226e13146883769057deae3a7a8aeac3c3cb2524d0261c2ba2',
    ('failures', 'pit-probe'): 'bee4e7338e273be964b2660dc16c52628dd640b82906dfa1781dd837374c9dcf',
    ('failures', 'fib-probe'): '3b7edd57378bb6b18a33d0be0e98252ee7e1822907e54b8cb4eee25b5afe77c2',
    ('failures', 'sequential'): 'bff78035cff1cec853e533b65e422de643bcde731b812d5565f5c2c16e42a04e',
    ('failures', 'random'): '0ab781b1bfdec9e4514049ca917bf25a300f98b0a2803a714f631d1e849ca884',
    ('small-fib', 'basic-ccn'): '362a265b6d58f8ae7342cce75d3210c646823a6f1b8598d2f6597f3337c2797d',
    ('small-fib', 'pit-probe'): 'cd783c1a36ea87c795c6681af1ff0032af149ae0b5e551b8bf0144ab6457354e',
    ('small-fib', 'fib-probe'): 'e5f00d01b1b84451b5b78f3473f68a0b50687842e8cdc4989f274313d697af04',
    ('small-fib', 'sequential'): '850d5afebe9da63d5d2c12fc51306903adef5d281a4101ccec2fa8191e295ecf',
    ('small-fib', 'random'): '1f909ed71f753ebbcc0139a12e21947091d03667cac9b7ebad84a65d35c8d85c',
}


def digest(case: str, strategy: str) -> str:
    preset, overrides = CASES[case]
    scenario = replace(build_scenario(parse_config(preset)),
                       probe_strategy=strategy, **overrides)
    values = run(scenario).csv_values()
    text = "\n".join(f"{key}={value!r}"
                     for key, value in zip(MetricsReport.CSV_FIELDS, values))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case,strategy", [(c, s) for c in CASES
                                           for s in ALL_STRATEGIES])
def test_output_matches_golden(case, strategy):
    assert digest(case, strategy) == GOLDEN[case, strategy]


SWEEP_ARGS = ["sweep", "--config", "fig6.cfg", "--axis", "cache_size_ratio",
              "--values", "0.10", "--strategies", "basic-ccn", "--seed", "1",
              "--repeats", "1", "--set", "sim_duration=10"]
SWEEP_CSV_SHA256 = "aa5ab9e4ece2b9150149a4bb95b3e58f848bb5ccfc4fd15eaa363e997ae41612"


def sweep_digest(out_dir) -> str:
    assert main([*SWEEP_ARGS, "--out", str(out_dir)]) == 0
    return hashlib.sha256((out_dir / "sweep.csv").read_bytes()).hexdigest()


def test_sweep_csv_matches_golden(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_CSV_SHA256


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for case in CASES:
        for strategy in ALL_STRATEGIES:
            print(f"    ({case!r}, {strategy!r}): {digest(case, strategy)!r},")
    with tempfile.TemporaryDirectory() as out:
        print(f"SWEEP_CSV_SHA256 = {sweep_digest(Path(out))!r}")
