"""isogate benchmark: the parent process that starts and measures the runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload registry|subgroup-oracle|curve-arith
                             --seed N --seconds S --trace 0|1

Every measured run is a fresh interpreter (perfbench/child.py), started
one at a time with numpy/BLAS threads pinned to 1, because the package's
module caches would turn a second run in the same process into cache hits
and every real invocation of the CLI starts cold.  Children are started
while the next one is expected to end within S seconds (at least one).
Set-up time is measured on separate processes that only
`import isogate`, and on every child.  Every time is scaled to the
reference CPU by the speed each child measured while it ran (speed.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced children and prints the per-layer metrics from the traced ones.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import inputs as inputs_mod

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
CHILD = os.path.join(BENCH_DIR, "child.py")

SETUP_PROBES = 10
RUN_DEADLINE_S = 170.0

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

TORSION_CLAIMS = ("x011", "x014-torsion", "x020")
TIMED_CLAIMS = ("gate-search", "surjectivity") + TORSION_CLAIMS

# functions reported as <name>.calls and <name>.self_s
LAYER_FUNCTIONS = (
    "matgroup.all_gl2",
    "matgroup.MatrixGroup",
    "matgroup.MatrixGroup.close",
    "matgroup.MatrixGroup.fingerprint",
    "matgroup.MatrixGroup.sl2_part",
    "matgroup.are_conjugate",
    "matgroup._generating_subset",
    "subgroup_enum.subgroup_classes",
    "subgroup_enum._closure_capped",
    "subgroup_enum._normalizer_generators",
    "subgroup_enum._candidate_orbit_reps",
    "gatefinder.find_gate_groups",
    "gatefinder.reducible_sl2_candidates",
    "linaction.fixed_lines",
    "linaction.orbits",
    "linaction.projective_image",
    "stdgroups.standard_group",
    "pointcount.count_by_x_scan",
    "ratcurves.frobenius_samples",
    "ratcurves.surjectivity_certificate",
    "ratcurves.certificate_criteria",
    "ratcurves.squarefree_part",
    "ratcurves.rational_roots_cubic",
    "modcurve.rational_point_search",
    "modcurve.count_points",
    "modcurve.torsion_bound_cyclotomic",
    "modcurve.named_curves",
    "claims.run_claim",
    "cli.main",
)

# work counters recorded at the span boundaries, with their units
LAYER_COUNTS = {
    "matgroup.all_gl2.elements": "count",
    "matgroup.MatrixGroup.elements": "count",
    "matgroup.MatrixGroup.close.elements": "count",
    "subgroup_enum.subgroup_classes.classes": "count",
    "gatefinder.reducible_sl2_candidates.candidates": "count",
    "pointcount.count_by_x_scan.field_elements": "count",
    "pointcount.count_by_x_scan.small_q_s": "s",
    "pointcount.count_by_x_scan.large_q_s": "s",
    "modcurve.rational_point_search.candidates": "count",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    def __init__(self, root: str, workload: str, seed: int):
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "isogate", "__init__.py")):
            raise BenchError(f"no isogate package under {self.src}; run from a checkout root")
        self.workload = workload
        self.seed = seed
        self.inputs = inputs_mod.generate(workload, seed)
        # children cache bytecode, as an installed package does, so set-up
        # time does not include compiling isogate's source
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env = dict(env, PYTHONPATH=self.src, **THREAD_PINS)
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.count = 0
        os.makedirs(OUT_DIR, exist_ok=True)

    def child(self, spec: dict) -> dict:
        """Run one child process to completion; return its result."""
        self.count += 1
        tag = f"{self.workload}-{self.seed}-{os.getpid()}-{self.count}"
        spec_path = os.path.join(OUT_DIR, f"spec-{tag}.json")
        result_path = os.path.join(OUT_DIR, f"result-{tag}.json")
        spec = dict(spec, src=self.src, out_dir=OUT_DIR, run_id=tag,
                    trace_path=os.path.join(OUT_DIR, f"trace-{self.workload}-{self.seed}.json.gz"))
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            spawned = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, CHILD, spec_path, result_path],
                    env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True, timeout=max(1.0, self.deadline - spawned),
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"child {tag} passed the {RUN_DEADLINE_S:.0f} s run deadline")
            if proc.returncode != 0:
                raise BenchError(f"child {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
            with open(result_path) as fh:
                result = json.load(fh)
        finally:
            for path in (spec_path, result_path):
                if os.path.exists(path):
                    os.remove(path)
        result["setup_raw_s"] = result["ready"] - spawned
        result["setup_s"] = result["setup_raw_s"] * result["setup_speed"]
        return result

    def probes(self) -> list[float]:
        self.child({"workload": "probe"})  # the first import may write bytecode
        return [self.child({"workload": "probe"})["setup_s"] for _ in range(SETUP_PROBES)]


def _median(values):
    return statistics.median(values) if values else 0.0


def _claim_metrics(claim_times: list[dict]) -> dict:
    """Per-claim and grouped claim times, medians over children."""
    out = {}
    for cid in TIMED_CLAIMS:
        out[f"claims.run_claim.{cid}_s"] = _median([t.get(cid, 0.0) for t in claim_times])
    out["claim.gate-search_s"] = out["claims.run_claim.gate-search_s"]
    out["claim.surjectivity_s"] = out["claims.run_claim.surjectivity_s"]
    out["claim.torsion_s"] = _median(
        [sum(t.get(c, 0.0) for c in TORSION_CLAIMS) for t in claim_times])
    return out


def _layer_metrics(traced: list[dict]) -> dict:
    layers = [c["layers"] for c in traced]
    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = (layers[0]["calls"].get(name, 0), "count")
        out[f"{name}.self_s"] = (_median([lay["self_s"].get(name, 0.0) for lay in layers]), "s")
    for name, unit in LAYER_COUNTS.items():
        values = [lay["counts"].get(name, 0) for lay in layers]
        out[name] = (_median(values) if unit == "s" else values[0], unit)
    first = layers[0]
    conj = first["calls"].get("matgroup.are_conjugate", 0)
    hits = first["counts"].get("matgroup.are_conjugate.hits", 0)
    out["matgroup.are_conjugate.witness_ratio"] = (hits / conj if conj else 0.0, "ratio")
    certs = first["calls"].get("ratcurves.surjectivity_certificate", 0)
    certified = first["counts"].get("ratcurves.surjectivity_certificate.certified", 0)
    out["ratcurves.surjectivity_certificate.certified_ratio"] = (
        certified / certs if certs else 0.0, "ratio")
    return out


def _work_counters(child: dict) -> dict:
    layers = child["layers"]
    counts = {k: v for k, v in layers["counts"].items() if not k.endswith("_s")}
    return {"calls": layers["calls"], "counts": counts}


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict]:
    setups = runner.probes()
    untraced, traced = [], []
    start = time.perf_counter()
    last = 0.0
    # start another child only if it is expected to end within the run time
    while not untraced or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        untraced.append(runner.child({"workload": runner.workload, "inputs": runner.inputs,
                                      "trace": False}))
        if trace:
            traced.append(runner.child({"workload": runner.workload, "inputs": runner.inputs,
                                        "trace": True}))
        last = time.perf_counter() - began
    children = untraced + traced
    setups += [c["setup_s"] for c in children]

    attempted = sum(len(c["checks"]) for c in children)
    failed_checks = [name for c in children for name, ok in c["checks"] if not ok]
    digests = sorted({c["output_digest"] for c in children})
    attempted += 1
    if len(digests) != 1:
        failed_checks.append(f"outputs differ between cold runs: {digests}")
    if trace:
        attempted += 1
        counters = [_work_counters(c) for c in traced]
        if any(w != counters[0] for w in counters[1:]):
            failed_checks.append("work counters differ between cold runs")
    failed = len(failed_checks)

    wall = _median([c["wall_s"] for c in untraced])
    if trace:
        traced_wall = _median([c["wall_s"] for c in traced])
        metrics = _layer_metrics(traced)
        metrics.update({k: (v, "s") for k, v in
                        _claim_metrics([c["claims"] for c in untraced]).items()})
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        metrics["trace.unattributed_s"] = (
            _median([c["layers"]["self_s"]["workload"] for c in traced]), "s")
        metrics["failed_frac"] = (failed / attempted, "ratio")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (_median([c["peak_rss_mb"] for c in untraced]), "MB"),
        }
    record = {
        "workload": runner.workload,
        "seed": runner.seed,
        "inputs_digest": inputs_mod.digest(runner.inputs),
        "output_digest": digests[0] if len(digests) == 1 else digests,
        "samples": {"untraced": len(untraced), "traced": len(traced),
                    "setup": len(setups)},
        "wall_s_samples": [c["wall_s"] for c in untraced],
        "wall_raw_s_samples": [c["wall_raw_s"] for c in untraced],
        "speed_samples": [c["speed"] for c in untraced],
        "setup_s_samples": setups,
        "layers": [c["layers"] for c in traced],
        "failed_checks": failed_checks,
        "attempted": attempted,
        "failed": failed,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    return record, result


def main(argv=None) -> int:
    args = _parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        runner = Runner(os.getcwd(), args.workload, args.seed)
        record, result = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(OUT_DIR, f"record-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for name in record["failed_checks"]:
        print(f"FAILED: {name}")
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "inputs_digest", "output_digest", "samples")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
