"""One cold run of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

The first thing it does is `import isogate`; the parent's clock reading
just before starting this process and ours just after the import bound
the set-up time (perf_counter is CLOCK_MONOTONIC, shared by processes on
Linux).  It then samples the CPU's speed (speed.py), so the parent can
scale that set-up time to the reference CPU.  With spec workload "probe" it
stops there.
"""

import sys
import time

import isogate

READY = time.perf_counter()

import speed  # noqa: E402

PROBE = speed.SpeedProbe()
for _ in range(speed.SETUP_SAMPLES):
    PROBE.sample()
SETUP_SPEED = PROBE.factor()

import isogate.cli  # noqa: E402  (not imported by the package; loaded before tracing)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _claim_timer(times: dict, probe: speed.SpeedProbe):
    """Time every run_claim call, under every name it is bound to."""
    from isogate import claims
    inner = claims.run_claim

    def timed(claim_id, *args, **kwargs):
        start, probed = time.perf_counter(), probe.spent
        try:
            return inner(claim_id, *args, **kwargs)
        finally:
            took = time.perf_counter() - start - (probe.spent - probed)
            times[claim_id] = times.get(claim_id, 0.0) + took

    tracing.rebind_everywhere(inner, timed)


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(isogate.__file__).startswith(src + os.sep):
        print(f"isogate imported from {isogate.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"ready": READY, "setup_speed": SETUP_SPEED}
    if spec["workload"] != "probe":
        result.update(_run(spec))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def _run(spec: dict) -> dict:
    run, check = workloads.RUNNERS[spec["workload"]]
    inputs = spec["inputs"]
    tracer = tracing.Tracer(spec["run_id"]) if spec["trace"] else None
    probe = PROBE
    probe.reset()
    if tracer is not None:
        tracing.install(tracer)
        probe.trace_into(tracer)
    claim_times: dict = {}
    if spec["workload"] == "registry":
        _claim_timer(claim_times, probe)
    ops = workloads.Ops()

    if tracer is not None:
        tracer.begin()
    probe.start()
    start = time.perf_counter()
    try:
        run(inputs, ops, spec["out_dir"])
        wall = time.perf_counter() - start - probe.spent
    finally:
        probe.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every time below is in seconds on the reference CPU, less the probe's own
    factor = probe.factor()
    out = {"wall_s": wall * factor, "wall_raw_s": wall, "speed": factor,
           "speed_samples": len(probe.samples), "peak_rss_mb": rss_mb,
           "claims": {cid: took * factor for cid, took in claim_times.items()}}
    if tracer is not None:
        tracer.finish()
        out["layers"] = {
            # the probe's samples follow the wall clock, not the work
            "calls": {name: n for name, n in tracer.calls.items() if name != speed.PROBE_SPAN},
            "self_s": {name: took * factor for name, took in tracer.self_s.items()},
            "counts": {name: value * factor if name.endswith("_s") else value
                       for name, value in tracer.counts.items()},
        }
        tracer.write(spec["trace_path"])
    checks, output_digest = check(inputs, ops)
    checks += [(f"{name} raised {err}", False) for name, err in ops.errors.items()]
    out["checks"] = checks
    out["output_digest"] = output_digest
    return out


if __name__ == "__main__":
    sys.exit(main())
