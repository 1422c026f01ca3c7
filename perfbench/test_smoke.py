"""Smoke tests of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench/test_smoke.py -q`` from the
repository root (a minute or less).  They check that every workload
emits every metric by name and unit with no failures, that the gate
trips on a corrupted result, that ``BENCHMARK.json`` meets its format
and ``spec.py`` describes every workload and metric it names, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def test_benchmark_json_meets_contract_and_spec_covers_it():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(spec.WORKLOADS) == [w["name"] for w in committed["workloads"]]
    assert list(spec.TIMES) == [m["name"] for m in committed["end_to_end"]] + list(spec.REPORTED)
    assert list(spec.MOVES) == [m["name"] for m in committed["per_layer"]]
    assert set(committed) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads((HERE / "out" / f"{workload}-seed3-smoke-trace{trace}.json").read_text())
    assert report["failed_frac"] == 0 and report["problems"] == []
    assert all(entry["samples"] >= 1 for entry in report["end_to_end"].values())


def test_gate_trips_on_corrupted_results():
    from repro.engine import BatchRouter
    from repro.graphs.generators import random_geometric
    from repro.pipeline.context import BuildContext
    from repro.schemes.nameind_simple import SimpleNameIndependentScheme

    ctx = BuildContext()
    scheme = ctx.scheme(SimpleNameIndependentScheme, ctx.metric(random_geometric(20, seed=1)))
    tables = ctx.compiled(scheme)
    rng = np.random.default_rng(0)
    src, tgt = rng.integers(0, 20, size=30), rng.integers(0, 20, size=30)
    out = BatchRouter(tables).route_arrays(src, tgt)
    results = [scheme.route(int(u), int(v)) for u, v in zip(src, tgt)]
    bound = gate.stretch_bound(scheme)
    assert gate.misdelivered(out, tgt) == 0
    assert gate.against_interpreted(results, out, tables.leg_names, bound) == []

    bad_cost = dict(out, cost=out["cost"].copy())
    bad_cost["cost"][4] += 1e-9
    assert gate.against_interpreted(results, bad_cost, tables.leg_names, bound)
    assert gate.same_outputs("corrupted", out, bad_cost)

    bad_target = dict(out, target=out["target"].copy())
    bad_target["target"][0] = (bad_target["target"][0] + 1) % 20
    assert gate.misdelivered(bad_target, tgt) == 1
    assert gate.against_interpreted(results, bad_target, tables.leg_names, bound)
    assert gate.against_interpreted(results, out, tables.leg_names, 0.5)  # stretch bound trips


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "geo-churn", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
