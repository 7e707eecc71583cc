"""Smoke test of the benchmark itself: a tiny solve through both run paths.

    python3 -m pytest perfbench/test_smoke.py -q

Runs the hidden `smoke2d` workload (2d, n=48, L=6, 2 starts) untraced and
traced, and checks the output contract: the last line is one JSON object
with exactly correct/attempted/failed/metrics, every metric printed is
declared in BENCHMARK.json with its unit, and every name is well formed.
"""

import json
import re
import subprocess
import sys

import pytest

from workloads import HERE, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_are_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke2d", "--seed", "12345",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    spec = _spec()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert printed and set(printed) <= set(declared), set(printed) - set(declared)
