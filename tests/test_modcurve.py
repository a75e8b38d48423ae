import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isogate import modcurve
from isogate.cyclo import cm_table
from isogate.errors import (BadReduction, CompositeModulus, NoValidPrimes,
                            SingularCurve)
from isogate.modcurve import (RANK_CAVEAT, NamedCurve, add_points,
                              add_points_mod, count_points,
                              image_bound, multiply_mod, named_curve,
                              named_curves, negate,
                              on_curve, point_order, primary_structure,
                              rational_torsion, torsion_bound_cyclotomic,
                              two_division_shape)
from isogate.modfield import supported_moduli
from isogate.pointcount import primes_upto
from isogate.ratcurves import (SAMPLE_BOUND, CurveModel, curve_from_j, frobenius_stream,
                               parse_rational_expr,
                               rational_roots_cubic)

X011 = named_curve("X0(11)")
X014 = named_curve("X0(14)")
X020 = named_curve("X0(20)")


def test_named_curves():
    assert set(named_curves()) == {"X0(11)", "X0(14)", "X0(20)"}
    assert X011.expected_rational_torsion == 5
    assert X014.expected_rational_torsion == 6
    assert X020.expected_rational_torsion == 6
    for curve in named_curves().values():
        assert all(c.denominator == 1 for c in curve.model.coefficients())
    with pytest.raises(KeyError):
        named_curve("X0(15)")


def test_group_law():
    m = X011.model
    p = (Fraction(5), Fraction(5))
    assert on_curve(m, p)
    assert on_curve(m, None)
    assert not on_curve(m, (Fraction(5), Fraction(4)))
    assert negate(m, p) == (5, -6)
    assert add_points(m, p, negate(m, p)) is None
    assert add_points(m, p, None) == p
    double = add_points(m, p, p)
    assert double == (16, -61)
    assert on_curve(m, double)
    assert point_order(m, p) == 5
    assert point_order(m, None) == 1


def test_point_order_cap():
    # (3, 5) on y^2 = x^3 - 2 generates an infinite group
    assert point_order(CurveModel(0, 0, 0, 0, -2), (Fraction(3), Fraction(5))) is None


def test_count_points():
    assert count_points(CurveModel(0, 0, 0, 1, 0), 5) == 4
    assert count_points(CurveModel(0, 0, 0, 0, 1), 5) == 6  # q + 1, supersingular
    with pytest.raises(BadReduction):
        count_points(X011.model, 11)


def _split_pairs(model, r, how_many=8):
    """The first (q, a_q) of the stream at the split primes q = 1 (mod r)."""
    return tuple(islice(frobenius_stream(model, SAMPLE_BOUND, r), how_many))


def test_hasse_bullet():
    for label, r in (("X0(11)", 11), ("X0(14)", 7), ("X0(20)", 5)):
        curve = named_curve(label)
        for q, a_q in _split_pairs(curve.model, r):
            n = count_points(curve.model, q)
            assert n == q + 1 - a_q
            assert abs(n - (q + 1)) <= 2 * math.isqrt(4 * q) / 2
            assert (n - (q + 1)) ** 2 <= 4 * q


def test_count_scan_agreement_bullet():
    # independent recount: brute force over all (x, y) pairs
    def brute(model, q):
        a1, a2, a3, a4, a6 = (int(c) % q for c in model.coefficients())
        n = 1
        for x in range(q):
            rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % q
            for y in range(q):
                if (y * y + a1 * x * y + a3 * y) % q == rhs:
                    n += 1
        return n

    for curve in named_curves().values():
        disc = int(curve.model.discriminant())
        for q in (13, 29, 43):
            if disc % q == 0:
                continue
            assert brute(curve.model, q) == count_points(curve.model, q)


def test_good_split_primes():
    qs = tuple(q for q, _ in _split_pairs(X014.model, 7))
    assert qs == (29, 43, 71, 113, 127, 197, 211, 239)
    assert tuple(q for q, _ in _split_pairs(X011.model, 11, 1)) == (23,)
    disc = int(X014.model.discriminant())
    for q in qs:
        assert q % 7 == 1 and disc % q != 0


def test_torsion_bound_defaults():
    # bounds over the extension field; they exceed the rational torsion
    # orders (6, 6, 5) and are not claimed tight
    rep = torsion_bound_cyclotomic(X014, 7)
    assert rep.primes == (29, 43, 71, 113, 127, 197, 211, 239)
    assert rep.counts == (36, 36, 72, 108, 144, 216, 216, 216)
    assert rep.gcd_bound == 36
    assert rep.structure_bound == 12
    assert rep.rational_points_found == 6
    assert rep.caveat == RANK_CAVEAT

    rep = torsion_bound_cyclotomic(X020, 5)
    assert rep.counts == (12, 36, 36, 60, 84, 96, 132, 132)
    assert rep.gcd_bound == 12
    assert rep.structure_bound == 6
    assert rep.rational_points_found == 6

    rep = torsion_bound_cyclotomic(X011, 11)
    assert rep.counts == (25, 75, 75, 200, 325, 375, 400, 400)
    assert rep.gcd_bound == 25
    assert rep.structure_bound == 5  # the 5-part is Z/5 x Z/5 at q = 331
    assert rep.rational_points_found == 5


def test_torsion_bound_explicit_lists():
    # shorter hand-picked lists; prefixes of the defaults, same gcds
    rep = torsion_bound_cyclotomic(X014, 7, (29, 43, 71, 113, 127))
    assert rep.counts == (36, 36, 72, 108, 144)
    assert rep.gcd_bound == 36
    assert rep.structure_bound == 12
    rep = torsion_bound_cyclotomic(X020, 5, (11, 31, 41, 61, 71))
    assert rep.counts == (12, 36, 36, 60, 84)
    assert rep.gcd_bound == 12
    assert rep.structure_bound == 6
    rep = torsion_bound_cyclotomic(X011, 11, (23, 67, 89, 199))
    assert rep.counts == (25, 75, 75, 200)
    assert rep.gcd_bound == 25
    assert rep.structure_bound == 25  # every 5-part here is Z/25


def test_torsion_bound_monotonicity_bullet():
    for curve, r in ((X014, 7), (X020, 5), (X011, 11)):
        counts = [q + 1 - a_q for q, a_q in _split_pairs(curve.model, r)]
        prev = 0
        for k in range(1, len(counts) + 1):
            bound = math.gcd(*counts[:k])
            if prev:
                assert bound <= prev
                assert prev % bound == 0
            prev = bound
    # same property through the public report builder
    one = torsion_bound_cyclotomic(X014, 7, (29,)).gcd_bound
    two = torsion_bound_cyclotomic(X014, 7, (29, 71)).gcd_bound
    assert two <= one and one % two == 0


def test_sandwich_bullet():
    for curve, r in ((X014, 7), (X020, 5), (X011, 11)):
        rep = torsion_bound_cyclotomic(curve, r)
        assert rep.gcd_bound % rep.rational_points_found == 0
        assert rep.structure_bound % rep.rational_points_found == 0
        assert rep.gcd_bound % rep.structure_bound == 0


def test_group_law_mod_q():
    # reductions of the rational group law and of rational torsion orders
    m = X011.model
    p = (Fraction(5), Fraction(5))
    for q in (23, 331):
        coeffs = tuple(int(c) % q for c in m.coefficients())

        def reduce(pt):
            return (int(pt[0]) % q, int(pt[1]) % q)

        assert add_points_mod(coeffs, q, reduce(p), reduce(p)) == reduce(
            add_points(m, p, p))
        assert multiply_mod(coeffs, q, 3, reduce(p)) == reduce(
            add_points(m, add_points(m, p, p), p))
        assert [multiply_mod(coeffs, q, k, reduce(p)) is None
                for k in range(1, 6)] == [False] * 4 + [True]
        assert add_points_mod(coeffs, q, reduce(p), reduce(negate(m, p))) is None


def test_points_mod_against_a_scan():
    # primary_structure reads the l-part of E(F_q) off these points; the
    # oracle scans every (x, y) in F_q^2 against the long Weierstrass equation
    rng = random.Random(2024)
    models = [X011.model, X014.model, X020.model,
              CurveModel(*(rng.randrange(-10 ** 6, 10 ** 6) for _ in range(5)))]
    for model in models:
        for q in (3, 5, 13, 23, 101, 331):
            coeffs = tuple(int(c) % q for c in model.coefficients())
            a1, a2, a3, a4, a6 = coeffs
            scan = {x for x in range(q) for y in range(q)
                    if (y * y + a1 * x * y + a3 * y
                        - x ** 3 - a2 * x * x - a4 * x - a6) % q == 0}
            points = list(modcurve._points_mod(coeffs, q))
            xs = [x for x, _ in points]
            assert xs == sorted(scan), (model, q)
            for x, y in points:
                assert (y * y + a1 * x * y + a3 * y
                        - x ** 3 - a2 * x * x - a4 * x - a6) % q == 0, (model, q, x, y)


def _brute_torsion_sizes(model, q, ell, v):
    """#E(F_q)[ell^k] for k = 0..v, by enumerating every (x, y) pair."""
    coeffs = tuple(int(c) % q for c in model.coefficients())
    a1, a2, a3, a4, a6 = coeffs
    points = [None] + [
        (x, y) for x in range(q) for y in range(q)
        if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % q == 0
    ]
    return [sum(multiply_mod(coeffs, q, ell ** k, pt) is None for pt in points)
            for k in range(v + 1)]


def test_primary_structure_brute_force():
    # E(F_q)[ell^oo] = Z/ell^a x Z/ell^b has ell^(min(k, a) + min(k, b))
    # points killed by ell^k; the cases cover a = 0 and a >= 1 for each ell
    cases = (
        (X014, 29, 2, (1, 1)), (X014, 29, 3, (0, 2)), (X014, 43, 3, (1, 1)),
        (X014, 127, 2, (1, 3)), (X020, 11, 2, (0, 2)), (X020, 41, 2, (1, 1)),
        (X020, 101, 2, (1, 4)), (X011, 23, 5, (0, 2)), (X011, 331, 5, (1, 1)),
    )
    for curve, q, ell, shape in cases:
        count = count_points(curve.model, q)
        assert primary_structure(curve.model, q, ell, count) == shape
        a, b = shape
        assert count % ell ** (a + b) == 0 and (count // ell ** (a + b)) % ell
        sizes = _brute_torsion_sizes(curve.model, q, ell, a + b)
        assert sizes == [ell ** (min(k, a) + min(k, b)) for k in range(a + b + 1)]
    assert primary_structure(X014.model, 29, 5, 36) == (0, 0)


def test_torsion_bound_errors():
    with pytest.raises(ValueError):
        torsion_bound_cyclotomic(X011, 5, (13,))  # 13 is not 1 mod 5
    with pytest.raises(BadReduction):
        torsion_bound_cyclotomic(X011, 5, (11,))
    with pytest.raises(NoValidPrimes):
        torsion_bound_cyclotomic(X011, 5, ())


def test_torsion_bound_needs_eight_default_primes(monkeypatch):
    # r = 97 has its eighth split good prime at 4,657 on every named curve
    monkeypatch.setattr(modcurve, "SAMPLE_BOUND", 4_656)
    with pytest.raises(NoValidPrimes, match="fewer than 8 .* below 4656"):
        torsion_bound_cyclotomic(X014, 97)
    monkeypatch.setattr(modcurve, "SAMPLE_BOUND", 4_657)
    assert torsion_bound_cyclotomic(X014, 97).primes[-1] == 4_657


# sha256 of the 72 default reports, named curves in label order, each at the
# supported primes in increasing order, as JSON of the report fields; taken
# from the walk over q = 1 (mod r) that the Frobenius stream replaced
_DEFAULT_REPORTS_SHA256 = "47e4320ae62145a40ad7918d4c1e5306983447ad91912d8d626ce6fa7c98671f"


def test_default_torsion_reports_are_frozen():
    reports = [dataclasses.asdict(torsion_bound_cyclotomic(curve, r))
               for _, curve in sorted(named_curves().items()) for r in supported_moduli()]
    assert len(reports) == 72
    assert max(q for rep in reports for q in rep["primes"]) == 4_657
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _DEFAULT_REPORTS_SHA256


def _is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    if n & 63 not in _SQ64:
        return False
    return math.isqrt(n) ** 2 == n


_SQ64 = {(i * i) & 63 for i in range(64)}


def rational_point_search(model: CurveModel, height_bound: int):
    """All affine points x = a/b^2, y = c/b^3 with |a|, |b|, |c| bounded.

    The height-bounded reference for rational_torsion.  Clearing
    denominators turns the curve equation into a monic quadratic in c with
    integer coefficients per (a, b), so each candidate costs one
    discriminant square test.  On an integral model every rational point
    has this shape.
    """
    a1, a2, a3, a4, a6 = (int(c) for c in model.coefficients())
    found = []
    for b in range(1, height_bound + 1):
        b2, b3 = b * b, b * b * b
        b4, b6 = b2 * b2, b3 * b3
        for a in range(-height_bound, height_bound + 1):
            if b > 1 and math.gcd(a, b) != 1:
                continue
            p = a1 * a * b + a3 * b3
            q = ((a + a2 * b2) * a + a4 * b4) * a + a6 * b6
            disc = p * p + 4 * q
            if not _is_perfect_square(disc):
                continue
            root = math.isqrt(disc)
            for c2 in (-p + root, -p - root):
                if c2 % 2:
                    continue
                c = c2 // 2
                if abs(c) > height_bound:
                    continue
                pt = (Fraction(a, b2), Fraction(c, b3))
                if pt not in found:
                    found.append(pt)
    found.sort()
    return tuple(found)


def test_rational_point_search():
    pts = rational_point_search(X014.model, 1000)
    assert pts == ((1, -1), (2, -5), (2, 2), (9, -33), (9, 23))
    assert all(on_curve(X014.model, p) for p in pts)
    assert rational_point_search(X011.model, 1000) == (
        (5, -6), (5, 5), (16, -61), (16, 60))
    assert rational_point_search(CurveModel(0, 0, 0, -1, 0), 10) == (
        (-1, 0), (0, 0), (1, 0))


MAZUR_ORDERS = frozenset(range(1, 11)) | {12}


def test_rational_torsion_matches_reference_search():
    for curve in named_curves().values():
        points = rational_torsion(curve.model)
        assert points == rational_point_search(curve.model, 100)
        assert len(points) + 1 == curve.expected_rational_torsion


def test_rational_torsion_known_groups():
    cases = (((0, 0, 0, 0, 1), 6), ((0, 0, 0, -1, 0), 4),
             ((0, 0, 0, 1, 0), 2), ((0, 0, 0, 0, -2), 1))
    for coeffs, order in cases:
        assert len(rational_torsion(CurveModel(*coeffs))) + 1 == order
    # y^2 = x^3 - 2 has rational points, all of infinite order
    model = CurveModel(0, 0, 0, 0, -2)
    assert rational_point_search(model, 30) == ((3, -5), (3, 5))
    assert rational_torsion(model) == ()


def _tate_normal_form(b, c):
    """y^2 + (1 - c)xy - by = x^3 - bx^2, on which (0, 0) is a point."""
    return CurveModel(1 - c, -b, -b, 0, 0)


# (N, b, c) with (0, 0) of order N, from Kubert's parametrizations at
# integer t; for N = 8, 10, 12 only the listed t give integral models
TATE_CASES = (
    (4, 3, 0), (4, -2, 0),                      # b = t, c = 0
    (5, 2, 2), (5, -3, -3),                     # b = c = t
    (6, 6, 2), (6, 2, -2),                      # b = t + t^2, c = t
    (7, 4, 2), (7, 18, 6), (7, -2, 2),          # b = t^3 - t^2, c = t^2 - t
    (8, 6, -6),                                 # t = -1
    (9, 12, 4), (9, -6, -2),                    # c = t^2(t - 1), b = c(t^2 - t + 1)
    (10, 24, 6), (10, 270, -30),                # t = 2, 3
    (12, 210, -42),                             # t = 2
)


def test_rational_torsion_tate_normal_forms():
    for n, b, c in TATE_CASES:
        model = _tate_normal_form(b, c)
        origin = (Fraction(0), Fraction(0))
        assert point_order(model, origin) == n, (n, b, c)
        points = rational_torsion(model)
        assert origin in points
        assert (len(points) + 1) % n == 0, (n, b, c, len(points) + 1)


def test_rational_torsion_rejects_non_integral_model():
    with pytest.raises(ValueError):
        rational_torsion(CurveModel(0, 0, 0, Fraction(1, 2), 0))


_SMALL = st.integers(-12, 12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1), _SMALL, _SMALL)
def test_rational_torsion_properties(a1, a2, a3, a4, a6):
    try:
        model = CurveModel(a1, a2, a3, a4, a6)
    except SingularCurve:
        return
    points = rational_torsion(model)
    for pt in points:
        assert on_curve(model, pt)
        assert point_order(model, pt) in MAZUR_ORDERS
    # torsion injects into E(F_q) at every odd prime of good reduction
    disc = int(model.discriminant())
    qs = [q for q in primes_upto(200) if q > 2 and disc % q][:5]
    for q in qs:
        assert count_points(model, q) % (len(points) + 1) == 0, q
    for pt in rational_point_search(model, 30):
        if point_order(model, pt) is not None:
            assert pt in points


def test_load_rejects_hasse_violation(monkeypatch):
    # 30 is past the Hasse bound 2 sqrt(101) ~ 20.1 but under 40, where a
    # check against 2 isqrt(4q) would let it through
    real = modcurve.count_points
    monkeypatch.setattr(modcurve, "count_points",
                        lambda model, q: q + 1 + 30 if q == 101 else real(model, q))
    with pytest.raises(ValueError, match="Hasse violation at 101"):
        modcurve._load_curves()


_READS_SCRIPT = """
import collections, json, pathlib
reads = collections.Counter()
for method in ("read_bytes", "read_text"):
    def counting(self, *args, _real=getattr(pathlib.Path, method), **kwargs):
        reads[self.name] += 1
        return _real(self, *args, **kwargs)
    setattr(pathlib.Path, method, counting)
from isogate.cyclo import cm_table
from isogate.modcurve import named_curves
for _ in range(3):
    cm_table(), named_curves()
print(json.dumps(reads))
"""


def test_data_tables_are_cached():
    assert cm_table() is cm_table()
    assert named_curves() is named_curves()
    # a cold process reads each data file once, however often it asks
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _READS_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    reads = json.loads(out.stdout)
    assert reads["cm_j_invariants.txt"] == 1 and reads["x0_curves.txt"] == 1, reads


def test_validate_curve_checks_torsion_group():
    modcurve._validate_curve(NamedCurve("X0(11)", X011.model, 5))
    for order in (1, 10):
        with pytest.raises(ValueError, match="rational torsion"):
            modcurve._validate_curve(NamedCurve("X0(11)", X011.model, order))
    # Z/2 x Z/2 has four points but no point of order 4
    with pytest.raises(ValueError, match="rational torsion"):
        modcurve._validate_curve(NamedCurve("split", CurveModel(0, 0, 0, -1, 0), 4))


def test_two_division_shape():
    s = two_division_shape(X014)
    assert s.shape == "one_rational_root"
    assert s.disc_class == -7
    s = two_division_shape(X020)
    assert s.shape == "one_rational_root"
    assert s.disc_class == -1
    s = two_division_shape(X011)
    assert s.shape == "irreducible"
    assert s.disc_class == -11
    adhoc = NamedCurve("split", CurveModel(0, 0, 0, -1, 0), 2)
    assert two_division_shape(adhoc).shape == "three_rational_roots"


_BOUND_MODULI = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_image_bound_cm_kind_follows_the_kronecker_symbol():
    for rec in cm_table():
        model = curve_from_j(rec.j)
        d = rec.field_discriminant
        for r in _BOUND_MODULI:
            kind = image_bound(model, r)
            if d % r == 0:
                assert kind is None, (rec.j_expr, r)  # r ramified: no CM bound
            elif pow(d, (r - 1) // 2, r) == 1:  # Euler's criterion: r splits
                assert kind == "split_cartan_normalizer", (rec.j_expr, r)
            else:
                assert kind == "nonsplit_cartan_normalizer", (rec.j_expr, r)


def test_image_bound_cm_shortcut_agrees_with_exact_torsion():
    # the CM rule never reads the torsion: where Nagell-Lutz is cheap,
    # confirm no CM curve has a rational point of order 5 or 7
    cheap = ("0", "2^6*3^3", "-3^3*5^3", "2^6*5^3", "-2^15", "-2^15*3^3")
    models = [curve_from_j(parse_rational_expr(j)) for j in cheap]
    models += [CurveModel(0, 0, 0, 0, 1), CurveModel(0, 0, 0, -1, 0)]
    for model in models:
        orders = {point_order(model, pt) for pt in rational_torsion(model)}
        assert not orders & {5, 7}, (model, orders)


def test_image_bound_from_rational_torsion():
    x011 = X011.model
    assert image_bound(x011, 5) == "borel"
    assert image_bound(x011, 7) is None
    assert image_bound(x011, 11) is None
    for n, b, c in TATE_CASES:
        if n in (5, 7):
            assert image_bound(_tate_normal_form(b, c), n) == "borel", (n, b, c)
    # order 3 torsion on X0(14), and on the CM curve y^2 = x^3 + 1, where
    # the CM rule does not apply below r = 5
    assert image_bound(X014.model, 3) == "borel"
    assert image_bound(CurveModel(0, 0, 0, 0, 1), 3) == "borel"
    assert image_bound(X020.model, 5) is None
    with pytest.raises(CompositeModulus):
        image_bound(x011, 9)


def test_image_bound_is_none_where_family_curves_are_certified():
    # the family curves are certified surjective at these moduli, so any
    # bound would contradict the certificates
    from isogate.claims import FAMILY_J

    for j_expr in FAMILY_J:
        model = curve_from_j(parse_rational_expr(j_expr))
        for r in (11, 13, 17, 19):
            assert image_bound(model, r) is None, (j_expr, r)


# ---- rational_torsion's shortcut when the counts leave order <= 2 ----

def _two_division_points(model):
    """The points of order 2: 2y + a1 x + a3 = 0 at the rational roots of
    4x^3 + b2 x^2 + 2 b4 x + b6."""
    xs = rational_roots_cubic(4, model.b2, 2 * model.b4, model.b6)
    return tuple(sorted((x, -(model.a1 * x + model.a3) / 2) for x in xs))


@pytest.mark.parametrize("j_expr, gcd", (
    ("2*3^3*43^3", 2), ("3^3*5^3*17^3", 2), ("-2^18*3^3*5^3", 1),
    ("-2^15*3^3*5^3*11^3", 1)))
def test_rational_torsion_large_models_read_the_two_division_cubic(j_expr, gcd, monkeypatch):
    model = curve_from_j(parse_rational_expr(j_expr))
    assert modcurve._torsion_order_gcd(model) == gcd

    def no_factoring(n):
        raise AssertionError("the discriminant was factored")
    monkeypatch.setattr(modcurve, "_factor_positive", no_factoring)
    points = rational_torsion.__wrapped__(model)  # bypass the cache
    assert points == _two_division_points(model)
    assert len(points) + 1 == gcd


def _cheap_models():
    yield from (curve.model for curve in named_curves().values())
    yield from (_tate_normal_form(b, c) for _, b, c in TATE_CASES)
    for coeffs in ((0, 0, 0, 0, 1), (0, 0, 0, -1, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, -2)):
        yield CurveModel(*coeffs)
    for j_expr in ("0", "2^6*3^3", "-3^3*5^3", "-2^15"):
        yield curve_from_j(parse_rational_expr(j_expr))


def test_empty_frobenius_stream_takes_the_full_path(monkeypatch):
    # a gcd of 0 (no counts read) bounds nothing: full Nagell-Lutz, not the
    # 2-division cubic alone
    model = X011.model
    monkeypatch.setattr(modcurve, "frobenius_stream", lambda *args: iter(()))
    assert modcurve._torsion_order_gcd(model) == 0
    calls = []
    full = modcurve._nagell_lutz

    def recording(model, two_torsion_only):
        calls.append(two_torsion_only)
        return full(model, two_torsion_only)
    monkeypatch.setattr(modcurve, "_nagell_lutz", recording)
    points = rational_torsion.__wrapped__(model)  # bypass the cache
    assert calls == [False]
    assert len(points) + 1 == X011.expected_rational_torsion


def test_rational_torsion_matches_full_nagell_lutz_on_cheap_models():
    shortcut = 0
    for model in _cheap_models():
        full = modcurve._nagell_lutz(model, two_torsion_only=False)
        assert rational_torsion(model) == full, model
        shortcut += modcurve._torsion_order_gcd(model) <= 2
    assert 0 < shortcut < len(list(_cheap_models()))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1), _SMALL, _SMALL)
def test_rational_torsion_matches_full_nagell_lutz(a1, a2, a3, a4, a6):
    try:
        model = CurveModel(a1, a2, a3, a4, a6)
    except SingularCurve:
        return
    assert rational_torsion(model) == modcurve._nagell_lutz(model, two_torsion_only=False)


def test_nagell_lutz_sieve_keeps_every_torsion_point(monkeypatch):
    sifted = [modcurve._nagell_lutz(model, two_torsion_only=False) for model in _cheap_models()]
    monkeypatch.setattr(modcurve, "_SIEVE_PRIMES", ())
    assert sifted == [modcurve._nagell_lutz(model, two_torsion_only=False)
                      for model in _cheap_models()]


def test_nagell_lutz_sieve_cuts_the_exact_cubics(monkeypatch):
    solved = []

    def counting(*coeffs):
        solved[-1] += 1
        return rational_roots_cubic(*coeffs)
    monkeypatch.setattr(modcurve, "rational_roots_cubic", counting)
    for curve in named_curves().values():
        solved.append(0)
        modcurve._nagell_lutz(curve.model, two_torsion_only=False)
    # of 106, 113 and 127 candidate Y (Y = 0 included) for X0(11), X0(14), X0(20)
    assert solved == [8, 9, 19]
