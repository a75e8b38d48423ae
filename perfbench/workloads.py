"""The three benchmark workloads, as run inside one cold child process.

Each workload has a run function, whose time is the workload's wall time,
and a check function, which runs after it, outside the timed region, and
compares every output against an independent oracle or a frozen value.
Each run is one closed loop with a single caller: every call waits for the
previous one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import traceback

import oracles


class Ops:
    """Calls into the program, keeping each result or the error it raised."""

    def __init__(self):
        self.results: dict[str, object] = {}
        self.errors: dict[str, str] = {}

    def call(self, name: str, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising operation counts as failed
            self.errors[name] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            return None
        self.results[name] = result
        return result


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---- registry: `isogate verify --all --json <path>` ----

def run_registry(inputs: dict, ops: Ops, out_dir: str) -> None:
    from isogate import cli
    path = os.path.join(out_dir, f"registry-report-{os.getpid()}.json")
    ops.results["report_path"] = path
    ops.call("verify-all", cli.main, ["verify", "--all", "--json", path])


def check_registry(inputs: dict, ops: Ops) -> tuple[list, str]:
    checks = [("exit code 0", ops.results.get("verify-all") == 0)]
    path = ops.results["report_path"]
    try:
        with open(path) as fh:
            reports = json.load(fh)
        os.remove(path)
    except (OSError, ValueError):
        reports = []
    ids = sorted(rep.get("claim_id") for rep in reports)
    checks.append(("19 distinct claims reported", len(set(ids)) == 19 == len(ids)))
    for rep in reports:
        checks.append((f"claim {rep.get('claim_id')} pass", rep.get("status") == "pass"))
    stripped = [{k: v for k, v in rep.items() if k != "elapsed_ms"} for rep in reports]
    return checks, _digest(stripped)


# ---- subgroup-oracle: exhaustive subgroup classes, soundness, completeness ----

def _gate_shaped(group) -> bool:
    """The gate-search predicates, as the criterion-4 test states them."""
    from isogate import linaction, matgroup
    return (group.order < matgroup.gl2_order(group.r)
            and matgroup.is_applicable(group)
            and not linaction.fixed_lines(group)
            and bool(linaction.fixed_lines(group.sl2_part())))


def _trace_det_pairs(group) -> list[tuple[int, int]]:
    r = group.r
    return [((a + d) % r, (a * d - b * c) % r) for a, b, c, d in group.elements]


def run_subgroup_oracle(inputs: dict, ops: Ops, out_dir: str) -> None:
    from isogate import gatefinder, matgroup, ratcurves, subgroup_enum

    for r, k in inputs["cases"]:
        inv = ops.call(f"classes r={r} k={k}", subgroup_enum.subgroup_classes, r, k)
        if inv is not None:
            ops.results[f"counts r={r}"] = [
                subgroup_enum.subgroup_classes(r, level).count for level in range(1, k + 1)
            ]
    for r in inputs["soundness"]:
        def passing(r=r):
            classes = subgroup_enum.subgroup_classes(r, 2).classes
            return sum(all(ok for _, ok in ratcurves.certificate_criteria(_trace_det_pairs(g), r))
                       for g in classes)
        ops.call(f"soundness r={r}", passing)
    for key, conj in inputs["conjugators"].items():
        r = int(key)

        def completeness(r=r, conj=tuple(conj)):
            shaped = [[g for g in subgroup_enum.subgroup_classes(r, level).classes
                       if _gate_shaped(g)]
                      for level in (2, 3)]
            found = gatefinder.find_gate_groups(r, reference_conjugator=conj)
            matches = [sum(matgroup.are_conjugate(cls, g) is not None for g in found.groups)
                       for cls in shaped[1]]
            return len(shaped[0]), len(shaped[1]), len(found.groups), matches
        ops.call(f"completeness r={r}", completeness)


def check_subgroup_oracle(inputs: dict, ops: Ops) -> tuple[list, str]:
    checks = []
    facts = {}
    for r, k in inputs["cases"]:
        counts = ops.results.get(f"counts r={r}")
        facts[f"counts r={r}"] = counts
        checks.append((f"class counts r={r} k={k}",
                       counts is not None and tuple(counts) == oracles.CLASS_COUNTS[r][:k]))
    for r in inputs["soundness"]:
        checks.append((f"no proper class passes all criteria r={r}",
                       ops.results.get(f"soundness r={r}") == 0))
    for key in inputs["conjugators"]:
        got = ops.results.get(f"completeness r={key}")
        facts[f"completeness r={key}"] = got
        ok = (got is not None and got[0] == got[1] == got[2]
              and all(m == 1 for m in got[3]))
        checks.append((f"gate classes match enumeration r={key}", ok))
    return checks, _digest(facts)


# ---- curve-arith: exact invariants, point counts, torsion bounds ----

def run_curve_arith(inputs: dict, ops: Ops, out_dir: str) -> None:
    from isogate import modcurve, ratcurves

    bound = inputs["sample_bound"]
    for j_text in inputs["js"]:
        j = int(j_text)
        ops.call(f"disc {j}", ratcurves.disc_square_class_of_j, j)
        ops.call(f"cubic {j}", ratcurves.two_division_cubic, j)
        ops.call(f"family {j}", ratcurves.family_membership, j)
        curve = ops.call(f"curve {j}", ratcurves.curve_from_j, j)
        samples = ops.call(f"samples {j}", ratcurves.frobenius_samples, curve, bound)
        for r in inputs["moduli"]:
            ops.call(f"certificate {j} r={r}", ratcurves.surjectivity_certificate,
                     curve, r, bound, samples=samples)
    for index, q in inputs["large_q"]:
        j = int(inputs["js"][index])
        ops.call(f"count {j} q={q}", modcurve.count_points, ratcurves.curve_from_j(j), q)
    for label, r in inputs["torsion"]:
        ops.call(f"torsion {label} r={r}", modcurve.torsion_bound_cyclotomic,
                 modcurve.named_curve(label), r)


def _check_j(j: int, inputs: dict, res: dict) -> list:
    checks = []
    k = 1728 - j
    a, b = 3 * j * k, 2 * j * k * k
    sqf = oracles.squarefree_part(j - 1728)
    checks.append((f"disc class {j}", res.get(f"disc {j}") == sqf))

    cubic = res.get(f"cubic {j}")
    roots = oracles.cubic_rational_roots(a, b)
    shape = {0: "irreducible", 1: "one_rational_root", 3: "three_rational_roots"}[len(roots)]
    ok = (cubic is not None and cubic.shape == shape and cubic.disc_class == sqf
          and list(cubic.roots) == roots)
    if ok and shape == "irreducible":
        q = cubic.witness_prime
        ok = q is not None and not oracles.has_root_mod(a, b, q)
    checks.append((f"2-division cubic {j}", ok))

    checks.append((f"family parameters {j}",
                   list(res.get(f"family {j}", [None])) == oracles.family_parameters(j)))

    samples = res.get(f"samples {j}")
    disc = -16 * (4 * a ** 3 + 27 * b * b)
    expected_qs = [q for q in oracles.odd_primes_upto(inputs["sample_bound"]) if disc % q]
    ok = samples is not None and [q for q, _ in samples] == expected_qs
    if ok:
        ok = all(oracles.hasse_ok(q + 1 - t, q) for q, t in samples)
        ok = ok and all(t == oracles.short_trace(a % q, b % q, q)
                        for q, t in samples[:12])
    checks.append((f"Frobenius samples {j}", ok))

    for r in inputs["moduli"]:
        rep = res.get(f"certificate {j} r={r}")
        ok = (samples is not None and rep is not None
              and rep.status == "certified_surjective"
              and all(flag for _, flag in rep.criteria)
              and rep.sample_count == sum(q != r for q, _ in samples))
        checks.append((f"surjective {j} r={r}", ok))
    return checks


def check_curve_arith(inputs: dict, ops: Ops) -> tuple[list, str]:
    res = ops.results
    checks = []
    for j_text in inputs["js"]:
        checks.extend(_check_j(int(j_text), inputs, res))
    facts = {}
    for index, q in inputs["large_q"]:
        j = int(inputs["js"][index])
        n = res.get(f"count {j} q={q}")
        facts[f"count {j} q={q}"] = n
        checks.append((f"Hasse bound {j} q={q}", n is not None and oracles.hasse_ok(n, q)))
    from isogate import modcurve
    for label, r in inputs["torsion"]:
        rep = res.get(f"torsion {label} r={r}")
        ok = rep is not None
        if ok:
            m = modcurve.named_curve(label).model
            b2, b4, b6 = (int(v) for v in (m.b2, m.b4, m.b6))
            ok = (len(rep.primes) == 8
                  and all(oracles.split_prime_ok(q, r) for q in rep.primes)
                  and list(rep.counts) == [oracles.count_completed_square(b2, b4, b6, q)
                                           for q in rep.primes]
                  and rep.gcd_bound == math.gcd(*rep.counts)
                  and rep.rational_points_found == oracles.RATIONAL_TORSION[label]
                  and rep.gcd_bound % rep.rational_points_found == 0)
            facts[f"torsion {label} r={r}"] = [rep.gcd_bound, list(rep.counts)]
        checks.append((f"torsion bound {label} r={r}", ok))
    for name, value in res.items():
        if name.startswith(("disc ", "family ")):
            facts[name] = value
        elif name.startswith("cubic "):
            facts[name] = [value.shape, value.disc_class, value.witness_prime]
        elif name.startswith("certificate "):
            facts[name] = [value.status, value.sample_count]
    return checks, _digest(facts)


RUNNERS = {
    "registry": (run_registry, check_registry),
    "subgroup-oracle": (run_subgroup_oracle, check_subgroup_oracle),
    "curve-arith": (run_curve_arith, check_curve_arith),
}
