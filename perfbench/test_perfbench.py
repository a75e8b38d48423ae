"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py

The cold-start tests start real benchmark runs and take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402


def _bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _declared(kind: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", ["curve-arith", "registry"])
def test_cold_runs_repeat_work_counters_and_outputs(workload):
    """A module cache leaking between runs would change the counters."""
    runs = [_bench(workload, 11, trace=1) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    results = [_last_json(p.stdout) for p in runs]
    infos = [json.loads(p.stdout.strip().splitlines()[-2]) for p in runs]
    for res in results:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == _declared("per_layer")
    counters = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}
                for res in results]
    assert counters[0] == counters[1]
    assert any(counters[0].values())
    assert infos[0]["output_digest"] == infos[1]["output_digest"]
    assert infos[0]["inputs_digest"] == infos[1]["inputs_digest"]


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _bench("curve-arith", 3, trace=0)
    assert proc.returncode == 0, proc.stderr
    res = _last_json(proc.stdout)
    assert res["correct"] and res["attempted"] > 0
    assert set(res["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_seed():
    for workload in ("subgroup-oracle", "curve-arith"):
        first = inputs.generate(workload, 5)
        assert first == inputs.generate(workload, 5)
        assert inputs.digest(first) != inputs.digest(inputs.generate(workload, 6))
    assert inputs.generate("registry", 1) == inputs.generate("registry", 2) == {}


def test_curve_inputs_have_the_promised_shape():
    import sympy
    spec = inputs.generate("curve-arith", 2)
    for j_text in spec["js"]:
        factors = sympy.factorint(abs(int(j_text) - 1728))
        assert sum(1 for p in factors if 10 ** 9 <= p < 2 * 10 ** 9) == 2
    for _, q in spec["large_q"]:
        assert 5 * 10 ** 5 < q < 10 ** 6


def test_oracles_on_known_values():
    # (t + 16)^3 / t at t = -2 is -2^2 * 7^3, a FAMILY_J entry of the registry
    assert oracles.family_parameters(-1372) == [Fraction(-2)]
    assert oracles.squarefree_part(-2 ** 2 * 7 ** 3) == -7
    assert oracles.cubic_rational_roots(-1, 0) == [Fraction(-1), Fraction(0), Fraction(1)]
    # X0(11): y^2 + y = x^3 - x^2 - 10x - 20 has a_3 = -1, so 5 points over F_3
    assert oracles.count_completed_square(-4, -20, -79, 3) == 5
    # y^2 = x^3 + x over F_5: (0,0), (2,0), (3,0) and infinity
    assert oracles.short_trace(1, 0, 5) == 2
    assert oracles.hasse_ok(5, 3) and not oracles.hasse_ok(20, 3)


def test_speed_probe_samples_during_a_run_and_keeps_its_own_time():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(i * i for i in range(1000))
    finally:
        probe.stop()
    elapsed = time.perf_counter() - start
    assert len(probe.samples) >= 10
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert probe.spent < 0.1 * elapsed
    mean_speed = sum(speed.REFERENCE_S / took for took in probe.samples) / len(probe.samples)
    assert probe.factor() == pytest.approx(mean_speed)
