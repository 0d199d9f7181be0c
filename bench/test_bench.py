"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest bench
"""

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((HERE / "manifest.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1", "--smoke", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def run(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    lines, result = run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
    for name, unit in spec.items():
        assert table.get(name) == unit, name
    assert table.get("fail_ratio") == "1"


def test_same_seed_gives_same_counts():
    first = run("mult", 1)[1]["metrics"]
    second = run("mult", 1)[1]["metrics"]
    counts = [k for k, v in first.items() if v["unit"] in ("count", "bytes")]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_every_per_layer_metric_has_one_layer():
    for metric in SPEC["per_layer"]:
        layers = [
            name for name, layer in MANIFEST["layers"].items()
            if any(fnmatch.fnmatchcase(metric["name"], p) for p in layer["metrics"])
        ]
        assert len(layers) == 1, (metric["name"], layers)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
