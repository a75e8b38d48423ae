"""Claim registry: every finite computation the package vouches for, as a
named, independently rerunnable check.

Each claim freezes its expected values (closed forms where they exist,
otherwise oracle outputs cross-checked by a second method) and recomputes
them from scratch on demand.  A report compares the two and is
deterministic except for its timing field, so reruns are diffable.  Each
claim is registered once, beside its body, with its id, description,
default moduli and the domain a moduli list may name.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable

from .cyclo import (
    cm_isogeny_over_cyclotomic,
    cm_table,
    full_two_torsion_over_cyclotomic,
    is_square_in_cyclotomic,
    quadratic_subfield,
)
from .errors import (
    FactorizationIncomplete,
    InsufficientSamples,
    Undecided,
    UnknownClaim,
)
from .gatefinder import _verify_gate_group, find_gate_groups
from .linaction import acts_freely, fixed_lines, orbits, projective_image
from .matgroup import mat_det, mat_trace
from .modcurve import (image_bound, named_curve, named_curves,
                       torsion_bound_cyclotomic, two_division_shape)
from .modfield import supported_moduli
from .pointcount import SCAN_BOUND
from .ratcurves import (
    SAMPLE_BOUND,
    CurveModel,
    _poly_eval,
    certificate_criteria,
    curve_from_j,
    disc_square_class_of_j,
    family_membership,
    g3_family_j,
    is_probable_prime,
    parse_rational_expr,
    surjectivity_certificates,
    two_division_cubic,
    two_torsion_family_j,
)
from .stdgroups import standard_group, standard_sl2_part

SCHEMA = "isogate-report/1"

# the eighteen non-CM j-invariants with a rational 2-torsion point whose
# mod-r images must be certified surjective
FAMILY_J = (
    "-2^2*7^3", "-2^4*3^3", "-2^6", "2^7", "2^4*5^3", "2^11", "2^2*3^6",
    "2^7*3^3", "17^3", "2^5*7^3", "2^5*3^6", "2^4*17^3", "2^3*31^3",
    "2^2*3^6*7^3", "2^2*5^3*13^3", "2*127^3", "2*3^3*43^3", "257^3",
)

# the family parameters t with (t+16)^3/t = j, one per entry of FAMILY_J;
# frozen from an integer divisor search over t | 4096 and reverified
# exactly by the claim
FAMILY_T = (
    "-2", "-4", "-8", "-32", "4", "16", "2", "32", "1", "-128",
    "128", "256", "-512", "-1024", "1024", "-2048", "2048", "4096",
)

# j-invariants the source argument needs to have no rational 2-torsion:
# three from the projective-S4 case at r=13, four from the r >= 17
# square-class cases, two from the r=11 case
NO_TWO_TORSION_J = (
    "2^4*5*13^4*17^3/3^13",
    "-2^12*5^3*11*13^4/3^13",
    "2^18*3^3*13^4*127^3*139^3*157^3*283^3*929/5^13/61^13",
    "-17*373^3/2^17",
    "-17^2*101^3/2",
    "-7*11^3",
    "-7*137^3*2083^3",
    "-11^2",
    "-11*131^3",
)

_ODD_PRIMES_37 = tuple(r for r in supported_moduli() if r <= 37)


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    params: dict
    status: str  # pass | fail | inconclusive
    expected: object
    computed: object
    elapsed_ms: int

    def to_dict(self) -> dict:
        # the field values themselves: dataclasses.asdict would deep-copy them
        return {"schema": SCHEMA, **{f.name: getattr(self, f.name) for f in fields(self)}}


def _torsion_prime_lists(raw) -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"torsion_primes must map curve labels to prime lists, got {raw!r}")
    out = {}
    for label, qs in raw.items():
        if label not in named_curves():
            raise ValueError(f"torsion_primes: unknown curve {label!r}; "
                             f"have {sorted(named_curves())}")
        if not isinstance(qs, (list, tuple)) or not qs:
            raise ValueError(f"torsion_primes[{label!r}] must be a non-empty list of primes")
        for q in qs:
            if (isinstance(q, bool) or not isinstance(q, int) or q == 2
                    or not is_probable_prime(q)):
                raise ValueError(f"torsion_primes[{label!r}]: {q!r} is not an odd prime")
            if q > SCAN_BOUND:
                raise ValueError(f"torsion_primes[{label!r}]: {q} is above the "
                                 f"{SCAN_BOUND} scan bound")
        out[label] = tuple(qs)
    return out


@dataclass(frozen=True)
class Config:
    """Prime lists and bounds the claims read; checked on construction."""
    sample_bound: int = SAMPLE_BOUND
    torsion_primes: dict = field(default_factory=dict)  # curve label -> primes

    def __post_init__(self):
        bound = self.sample_bound
        if isinstance(bound, bool) or not isinstance(bound, int) or not 3 <= bound <= SCAN_BOUND:
            raise ValueError(f"sample_bound must be an integer in [3, {SCAN_BOUND}], got {bound!r}")
        object.__setattr__(self, "torsion_primes",
                           _torsion_prime_lists(self.torsion_primes))

    @classmethod
    def from_json(cls, path: str) -> "Config":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        extra = set(raw) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**raw)


def _freeze(value):
    """Down-convert to JSON-stable structures; Fractions become strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _freeze(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_freeze(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)}")


def _line_report(group) -> dict:
    return {
        "order": group.order,
        "free": acts_freely(group),
        "orbit_sizes": {str(s): n for s, n in Counter(orbits(group).sizes).items()},
        "fixed_lines": len(fixed_lines(group)),
    }


def _free_report(order: int, r: int, fixed: int) -> dict:
    """The line report of a free action by a group of this order on F_r^2:
    every orbit has the group's order, so there are (r^2 - 1)/order."""
    return {
        "order": order,
        "free": True,
        "orbit_sizes": {str(order): (r * r - 1) // order},
        "fixed_lines": fixed,
    }


def _at(key: str) -> tuple[Fraction, int]:
    """A case key "expr@r" as the parsed expression and the modulus."""
    expr, r = key.split("@")
    return parse_rational_expr(expr), int(r)


@dataclass(frozen=True)
class ClaimSpec:
    claim_id: str
    description: str
    runner: Callable
    # the moduli a run without a list covers; () when the claim takes no list
    defaults: tuple[int, ...] = ()
    # which supported moduli a list may name; None admits every one
    domain: Callable[[int], bool] | None = None


_REGISTRY: dict[str, ClaimSpec] = {}


def _claim(claim_id: str, description: str, defaults: tuple[int, ...] = (),
           domain: Callable[[int], bool] | None = None):
    """Register the decorated body as claim_id; the body is returned unchanged."""
    def register(runner):
        _REGISTRY[claim_id] = ClaimSpec(claim_id, description, runner, defaults, domain)
        return runner
    return register


# ---- claim bodies: each runner(config, moduli) -> (expected, computed) ----

@_claim("cartan-lemma",
        "determinant-one parts of both Cartan normalizers act freely "
        "with no fixed lines, orders 2(r-1) and 2(r+1)",
        defaults=_ODD_PRIMES_37)
def _claim_cartan_lemma(config: Config, moduli) -> tuple[dict, dict]:
    expected, computed = {}, {}
    for r in moduli:
        expected[str(r)] = {
            "split": _free_report(2 * (r - 1), r, 0),
            "nonsplit": _free_report(2 * (r + 1), r, 0),
        }
        computed[str(r)] = {
            "split": _line_report(standard_sl2_part("cs+", r)),
            "nonsplit": _line_report(standard_sl2_part("cns+", r)),
        }
    return expected, computed


@_claim("g3-orbits",
        "the extended cube nonsplit torus has determinant-one part of "
        "order 2(r+1)/3 acting freely; lines survive only at r=5",
        defaults=(5, 11, 17, 23, 29), domain=lambda r: r % 3 == 2)
def _claim_g3_orbits(config: Config, moduli) -> tuple[dict, dict]:
    # a line is fixed exactly when single orbits of size 2(r+1)/3 can fill
    # its r-1 nonzero vectors; 2(r+1)/3 = k(r-1) has the sole solution
    # r=5, k=1, where two eigenlines of the order-4 part appear
    expected, computed = {}, {}
    for r in moduli:
        expected[str(r)] = _free_report(2 * (r + 1) // 3, r, 2 if r == 5 else 0)
        computed[str(r)] = _line_report(standard_sl2_part("g3", r))
    return expected, computed


def _gate_expected(r: int) -> dict:
    """The gate classes at r by the closed form proved in gatefinder.

    One class G_d of index r(r^2-1)/d for each d | r-1 with d > 2, and
    4 | d when r = 1 (mod 4); G_d = <G_(d/2), -I> exactly when
    d = 2 (mod 4).  Indices ascend (d descends); a pair is its index ranks.
    """
    ds = [d for d in range(r - 1, 2, -1)
          if (r - 1) % d == 0 and (r % 4 == 3 or d % 4 == 0)]
    rank = {d: i for i, d in enumerate(ds)}
    return {
        "classes": len(ds),
        "indices": [r * (r * r - 1) // d for d in ds],
        "pm_pairs": [[rank[d], rank[d // 2]] for d in ds if d % 4 == 2],
    }


@_claim("gate-search",
        "the proper applicable subgroups with irreducible action and "
        "reducible determinant-one part, constructed and checked against "
        "their closed form",
        defaults=(5, 7, 11, 13))
def _claim_gate_search(config: Config, moduli) -> tuple[dict, dict]:
    expected, computed = {}, {}
    for r in moduli:
        expected[str(r)] = _gate_expected(r)
        # in the order find_gate_groups documents, which _gate_expected states
        res = find_gate_groups(r)
        computed[str(r)] = {
            "classes": len(res.groups),
            "indices": list(res.indices),
            "pm_pairs": [list(p) for p in res.plus_minus_pairs],
        }
    return expected, computed


@_claim("exc-family",
        "the unique r=5 gate class is the extended cube torus and the "
        "degree-30 parameterizing map evaluates as frozen")
def _claim_exc_family(config: Config, moduli) -> tuple[dict, dict]:
    expected = {
        "r5_gate_class_is_cube_torus": True,
        "evaluations": {
            "0": "0",
            "1": str(Fraction(5 ** 4 * 16 ** 3 * 12 ** 3 * 379 ** 3,
                              11 ** 5 * 71 ** 5)),
            "-1": str(Fraction(-(5 ** 4) * 6 ** 3 * 2 ** 3 * 19 ** 3, 11 ** 5)),
        },
        "rational_poles": [],
    }
    # every gate group G is conjugate to the G_d with d = |S(G)|, and r = 5
    # has the one class G_4 (gatefinder docstring), so a g3 that passes the
    # gate predicates with |S(g3)| = |S(G_4)| is conjugate to it
    gate = find_gate_groups(5).groups[0]
    g3 = standard_group("g3", 5)
    computed = {
        "r5_gate_class_is_cube_torus": (_verify_gate_group(g3)
                                        and g3.sl2_part().order == gate.sl2_part().order),
        "evaluations": {
            t: str(g3_family_j(Fraction(t))) for t in ("0", "1", "-1")
        },
        "rational_poles": [str(t) for t in _denominator_rational_roots()],
    }
    return expected, computed


def _denominator_rational_roots() -> list[Fraction]:
    # both denominator factors are monic, so integer roots dividing the
    # constant term are the only candidates
    return sorted({Fraction(t) for coeffs in ((1, 5, 5), (1, 5, 15, 25, 25))
                   for n in (1, 5, 25) for t in (n, -n) if _poly_eval(coeffs, t) == 0})


@_claim("cube-cartan",
        "the cube-ratio split torus extension has no line fixed by its "
        "determinant-one part",
        defaults=(7, 13, 19, 31, 37), domain=lambda r: r % 3 == 1)
def _claim_cube_cartan(config: Config, moduli) -> tuple[dict, dict]:
    expected, computed = {}, {}
    for r in moduli:
        expected[str(r)] = {
            "order": 2 * (r - 1) ** 2 // 3,
            "sl2_fixed_lines": 0,
        }
        group = standard_group("cube_split", r)
        computed[str(r)] = {
            "order": group.order,
            "sl2_fixed_lines": len(fixed_lines(group.sl2_part())),
        }
    return expected, computed


@_claim("cm-criterion",
        "a CM curve gains an r-isogeny over the r-th cyclotomic field "
        "exactly when r divides its tabulated discriminant",
        defaults=_ODD_PRIMES_37)
def _claim_cm_criterion(config: Config, moduli) -> tuple[dict, dict]:
    examples = {"-3^3*5^3@7": True, "2^6*3^3@7": False, "2^4*3^3*5^3@7": False}
    expected = {
        "examples": examples,
        "isogeny_moduli": {
            rec.j_expr: [r for r in moduli if (-rec.field_discriminant) % r == 0]
            for rec in cm_table()
        },
    }
    computed = {
        "examples": {key: cm_isogeny_over_cyclotomic(*_at(key)) for key in examples},
        "isogeny_moduli": {
            rec.j_expr: [
                r for r in moduli if cm_isogeny_over_cyclotomic(rec.j, r)
            ]
            for rec in cm_table()
        },
    }
    return expected, computed


@_claim("family-j",
        "each of the eighteen listed j-invariants lies on the rational "
        "2-torsion family with an exactly verified parameter")
def _claim_family_j(config: Config, moduli) -> tuple[dict, dict]:
    expected = {
        j_expr: {"t": t_expr, "verified": True}
        for j_expr, t_expr in zip(FAMILY_J, FAMILY_T)
    }
    computed = {}
    for j_expr in FAMILY_J:
        j = parse_rational_expr(j_expr)
        roots = family_membership(j)
        entry: dict = {"t": None, "verified": False}
        if roots:
            t = min(roots)
            entry = {
                "t": str(t),
                "verified": two_torsion_family_j(t) == j,
            }
        computed[j_expr] = entry
    return expected, computed


# first root-free primes for the 2-division cubics, frozen from the
# witness search and reverified on every run
_NO_TORSION_WITNESS = (11, 19, 7, 7, 7, 23, 23, 5, 5)


@_claim("exc-2torsion",
        "the exceptional j-invariants all have trivial rational "
        "2-torsion, certified by root-free witness primes")
def _claim_exc_2torsion(config: Config, moduli) -> tuple[dict, dict]:
    expected = {
        j_expr: {"two_torsion": False, "witness_prime": w}
        for j_expr, w in zip(NO_TWO_TORSION_J, _NO_TORSION_WITNESS)
    }
    computed = {}
    for j_expr in NO_TWO_TORSION_J:
        cubic = two_division_cubic(parse_rational_expr(j_expr))
        computed[j_expr] = {
            "two_torsion": cubic.shape != "irreducible",
            "witness_prime": cubic.witness_prime,
        }
    return expected, computed


@_claim("surjectivity",
        "mod-r surjectivity certificates for the family curves, plus "
        "pinned inconclusive cases",
        defaults=(11, 13, 17, 19), domain=lambda r: r >= 5)
def _claim_surjectivity(config: Config, moduli) -> tuple[dict, dict]:
    expected: dict = {
        "family": {
            j_expr: {str(r): "certified_surjective" for r in moduli}
            for j_expr in FAMILY_J
        },
        "negative": {"X0(11)@5": "inconclusive", "2^6*3^3@7": "inconclusive"},
    }
    computed: dict = {"family": {}, "negative": {}}
    for j_expr in FAMILY_J:
        curve = curve_from_j(parse_rational_expr(j_expr))
        reports = surjectivity_certificates(curve, moduli, config.sample_bound)
        computed["family"][j_expr] = {
            str(r): report.status for r, report in reports.items()
        }
    computed["negative"]["X0(11)@5"] = _bounded_verdict(named_curve("X0(11)").model, 5)
    computed["negative"]["2^6*3^3@7"] = _bounded_verdict(CurveModel(0, 0, 0, 1, 0), 7)
    return expected, computed


def _bounded_verdict(model: CurveModel, r: int) -> str | None:
    """The certificate verdict every sample bound gives, read from the
    maximal subgroup that holds the mod-r image.

    Every Frobenius (trace, det) pair lies in that subgroup's set, and every
    criterion is upward-closed, so a criterion that fails on the whole set
    fails on every sample: "inconclusive".  Otherwise the group's kind (all
    four criteria hold, which soundness rules out) or None (no bound known)
    is returned as found, and differs from the frozen verdict.
    """
    kind = image_bound(model, r)
    if kind is None:
        return None
    pairs = {(mat_trace(m, r), mat_det(m, r)) for m in standard_group(kind, r)}
    if all(ok for _, ok in certificate_criteria(pairs, r)):
        return kind
    return "inconclusive"


def _torsion_claim(label: str, r: int, gcd_bound: int, structure_bound: int,
                   points: int, config: Config) -> tuple[dict, dict]:
    curve = named_curve(label)
    qs = config.torsion_primes.get(label)
    report = torsion_bound_cyclotomic(curve, r, qs=qs)
    expected = {
        "gcd_bound": gcd_bound,
        "structure_bound": structure_bound,
        "rational_points": points,
        "torsion_divides_bound": True,
        "caveat": "upper bound only — rank not verified",
    }
    computed = {
        "gcd_bound": report.gcd_bound,
        "structure_bound": report.structure_bound,
        "rational_points": report.rational_points_found,
        "torsion_divides_bound": report.gcd_bound % report.structure_bound == 0
        and report.structure_bound % curve.expected_rational_torsion == 0
        and report.structure_bound % report.rational_points_found == 0,
        "caveat": report.caveat,
    }
    return expected, computed


def _exact_torsion_order(shape, rational_points: int, structure_bound: int,
                         r: int) -> int | None:
    """#E(Q(zeta_r))_tors when a certified lower bound meets the upper one.

    E[2] lies in E(Q(zeta_r)) when the 2-division cubic splits over Q, or
    has one rational root and a discriminant class that is a square in
    Q(zeta_r).  Then E[2] and E(Q)_tors generate a subgroup of order
    4 |E(Q)_tors| / |E(Q)[2]|, where |E(Q)[2]| is one more than the number
    of rational roots.  None when that lower bound is below
    `structure_bound`.
    """
    full_two = shape.shape == "three_rational_roots" or (
        shape.shape == "one_rational_root"
        and is_square_in_cyclotomic(shape.disc_class, r))
    lower = 4 * rational_points // (1 + len(shape.roots)) if full_two else rational_points
    return lower if lower == structure_bound else None


@_claim("x014-torsion",
        "reduction gcd and structure bounds, rational point count, "
        "2-division shape and exact torsion order for X0(14) over the 7th "
        "cyclotomic field")
def _claim_x014(config: Config, moduli) -> tuple[dict, dict]:
    # the gcd over split good primes is 36, an isogeny invariant stuck
    # above the field torsion order 12 that the structure bound reaches;
    # E[2] (class -7, a square in Q(zeta_7)) and the rational Z/6 give the
    # matching lower bound Z/2 x Z/6
    expected, computed = _torsion_claim("X0(14)", 7, 36, 12, 6, config)
    expected["two_division"] = {"shape": "one_rational_root", "disc_class": -7}
    shape = two_division_shape(named_curve("X0(14)"))
    computed["two_division"] = {
        "shape": shape.shape,
        "disc_class": shape.disc_class,
    }
    expected["torsion_order"] = 12
    computed["torsion_order"] = _exact_torsion_order(
        shape, computed["rational_points"], computed["structure_bound"], 7)
    return expected, computed


@_claim("x020",
        "reduction gcd and structure bounds and rational point count for "
        "X0(20) over the 5th cyclotomic field")
def _claim_x020(config: Config, moduli) -> tuple[dict, dict]:
    return _torsion_claim("X0(20)", 5, 12, 6, 6, config)


@_claim("x011",
        "reduction gcd and structure bounds, rational point count, and "
        "irreducible 2-division cubic for X0(11) over the 11th "
        "cyclotomic field")
def _claim_x011(config: Config, moduli) -> tuple[dict, dict]:
    expected, computed = _torsion_claim("X0(11)", 11, 25, 5, 5, config)
    expected["two_division"] = {"shape": "irreducible"}
    computed["two_division"] = {
        "shape": two_division_shape(named_curve("X0(11)")).shape
    }
    return expected, computed


@_claim("disc-7",
        "discriminant square classes -7 and 7 for the two surviving "
        "j-invariants at r=7")
def _claim_disc_7(config: Config, moduli) -> tuple[dict, dict]:
    cases = {"-3^3*5^3": -7, "3^3*5^3*17^3": 7}
    expected = dict(cases)
    computed = {
        expr: disc_square_class_of_j(parse_rational_expr(expr))
        for expr in cases
    }
    return expected, computed


@_claim("sqrt-rule",
        "quadratic subfield values and the square test in the 7th "
        "cyclotomic field")
def _claim_sqrt_rule(config: Config, moduli) -> tuple[dict, dict]:
    squares = {"-7@7": True, "7@7": False}
    expected = {"subfield": {"5": 5, "7": -7, "17": 17}, "squares": squares}
    computed = {
        "subfield": {str(p): quadratic_subfield(p) for p in (5, 7, 17)},
        "squares": {key: is_square_in_cyclotomic(*_at(key)) for key in squares},
    }
    return expected, computed


@_claim("cm-filter",
        "the CM j-invariants on the 2-torsion family, and which keep "
        "an r-isogeny for r at least 5",
        defaults=_ODD_PRIMES_37[1:],  # 5 to 37
        domain=lambda r: r >= 5)
def _claim_cm_filter(config: Config, moduli) -> tuple[dict, dict]:
    expected = {
        "family_cm": [
            "0", "2^6*3^3", "2^4*3^3*5^3", "2^3*3^3*11^3", "-3^3*5^3",
            "3^3*5^3*17^3", "2^6*5^3",
        ],
        "survivors": {"7": ["-3^3*5^3", "3^3*5^3*17^3"]} if 7 in moduli else {},
    }
    family_cm = [rec for rec in cm_table() if family_membership(rec.j)]
    survivors: dict[str, list[str]] = {}
    for r in moduli:
        hits = [rec.j_expr for rec in family_cm if cm_isogeny_over_cyclotomic(rec.j, r)]
        if hits:
            survivors[str(r)] = hits
    computed = {"family_cm": [rec.j_expr for rec in family_cm], "survivors": survivors}
    return expected, computed


@_claim("disc-17-37",
        "square classes -10 and -5 for the r >= 17 exceptional "
        "j-invariants, none a square in the 17th or 37th cyclotomic field")
def _claim_disc_17_37(config: Config, moduli) -> tuple[dict, dict]:
    classes = {
        "-17*373^3/2^17": -10,
        "-17^2*101^3/2": -10,
        "-7*11^3": -5,
        "-7*137^3*2083^3": -5,
    }
    squares = {"-5@17": False, "-10@17": False, "-5@37": False, "-10@37": False}
    expected = {"disc_classes": dict(classes), "squares": dict(squares)}
    computed = {
        "disc_classes": {
            expr: disc_square_class_of_j(parse_rational_expr(expr))
            for expr in classes
        },
        "squares": {key: is_square_in_cyclotomic(*_at(key)) for key in squares},
    }
    return expected, computed


@_claim("g7-orbits",
        "the order-288 exceptional group mod 13: determinant-one part "
        "of order 24 with seven orbits of length 24")
def _claim_g7_orbits(config: Config, moduli) -> tuple[dict, dict]:
    expected = {
        "order": 288,
        "sl2_order": 24,
        "orbit_count": 7,
        "orbit_sizes": [24] * 7,
    }
    group = standard_group("octahedral", 13)
    sl2 = group.sl2_part()
    dec = orbits(sl2)
    computed = {
        "order": group.order,
        "sl2_order": sl2.order,
        "orbit_count": dec.count,
        "orbit_sizes": sorted(dec.sizes),
    }
    return expected, computed


@_claim("full2",
        "full 2-torsion decisions over cyclotomic fields for the three "
        "pinned cases")
def _claim_full2(config: Config, moduli) -> tuple[dict, dict]:
    cases = {"-3^3*5^3@7": "yes", "3^3*5^3*17^3@7": "no", "-11^2@11": "no"}
    computed = {key: full_two_torsion_over_cyclotomic(*_at(key)).verdict for key in cases}
    return dict(cases), computed


@_claim("g95-s4",
        "the order-96 group mod 5 has projective image of order 24 "
        "isomorphic to S4")
def _claim_g95_s4(config: Config, moduli) -> tuple[dict, dict]:
    expected = {"order": 96, "projective_order": 24, "projective_kind": "S4"}
    group = standard_group("octahedral", 5)
    image = projective_image(group)
    computed = {
        "order": group.order,
        "projective_order": image.order,
        "projective_kind": image.kind,
    }
    return expected, computed


CLAIM_IDS = tuple(sorted(_REGISTRY))

# acceptance criterion number -> claim ids exercising it
CRITERION_CLAIMS: dict[int, tuple[str, ...]] = {
    1: ("cartan-lemma",),
    2: ("g3-orbits",),
    3: ("gate-search",),
    4: ("gate-search",),
    5: ("cube-cartan",),
    6: ("g7-orbits",),
    7: ("g95-s4",),
    8: ("disc-7", "disc-17-37"),
    9: ("sqrt-rule", "disc-17-37"),
    10: ("full2",),
    11: ("family-j", "exc-2torsion"),
    12: ("surjectivity",),
    13: ("x014-torsion", "x020", "x011"),
    14: CLAIM_IDS,
}


def _spec(claim_id: str) -> ClaimSpec:
    if claim_id not in _REGISTRY:
        raise UnknownClaim(f"no claim {claim_id!r}; known: {', '.join(CLAIM_IDS)}")
    return _REGISTRY[claim_id]


def claim_description(claim_id: str) -> str:
    return _spec(claim_id).description


def run_claim(
    claim_id: str,
    moduli: tuple[int, ...] | None = None,
    config: Config | None = None,
) -> ClaimReport:
    """Run one claim at the given moduli, or at its defaults when none are given."""
    spec = _spec(claim_id)
    if moduli and not spec.defaults:
        raise ValueError(f"claim {claim_id} does not take a moduli list")
    for r in moduli or ():
        if r not in supported_moduli() or not (spec.domain is None or spec.domain(r)):
            raise ValueError(f"claim {claim_id} does not cover r = {r}")
    if moduli and len(set(moduli)) < len(moduli):
        raise ValueError(f"claim {claim_id} is given a modulus twice: r = {list(moduli)}")
    config = config or Config()
    params: dict = {}
    if moduli:
        params["r"] = list(moduli)
    start = time.monotonic()
    try:
        expected, computed = spec.runner(config, moduli or spec.defaults)
        status = "pass" if expected == computed else "fail"
    except (Undecided, FactorizationIncomplete, InsufficientSamples) as exc:
        expected, computed = None, {"error": str(exc)}
        status = "inconclusive"
    except Exception as exc:
        # one broken claim must not abort the rest of the registry
        expected, computed = None, {"error": f"{type(exc).__name__}: {exc}"}
        status = "fail"
    elapsed = int((time.monotonic() - start) * 1000)
    return ClaimReport(
        claim_id, params, status, _freeze(expected), _freeze(computed), elapsed
    )


def run_all(config: Config | None = None) -> tuple[ClaimReport, ...]:
    """Every claim at its defaults, in CLAIM_IDS order; prints and writes nothing."""
    return tuple(run_claim(cid, config=config) for cid in CLAIM_IDS)
