"""Point counting over prime fields and torsion bounds over Q(zeta_r) for
the named genus-one modular curves, via reduction at split primes.

Torsion injects into E(F_q) at any odd prime q of good reduction that
splits completely in the field, and q splits completely in Q(zeta_r)
exactly when q = 1 (mod r).  Two upper bounds follow.  The gcd of a few
such counts bounds the torsion order, but it is an isogeny invariant and
cannot fall below the largest torsion in the isogeny class.  Comparing
group structures instead is sharper: with the l-part of E(F_q) written
Z/l^a x Z/l^b (a <= b), the l-part of the torsion has order at most
l^(min a + min b), minima over the primes q.  The rational torsion
E(Q)_tors, found exactly by Nagell-Lutz, is a subgroup of the torsion over
Q(zeta_r) and so a lower bound, which need not meet either upper bound.
Nothing here touches ranks, so every report states that the bound is
one-sided.

The same exact data also bound the mod-r image from above: a rational point
of order r or CM by an order in which r is unramified names a maximal
subgroup of GL2(F_r) that holds the image (image_bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from importlib import resources
from itertools import islice

from .cyclo import cm_field_discriminant
from .errors import BadReduction, NoValidPrimes
from .modfield import is_square, validate_modulus
from .pointcount import SCAN_BOUND, count_by_x_scan, primes_upto
from .ratcurves import (SAMPLE_BOUND, CubicFactorType, CurveModel, _cubic_shape,
                        _divide_out, _factor_positive, frobenius_stream,
                        is_probable_prime, rational_roots_cubic)

_CURVE_FILE = "x0_curves.txt"
_POINT_CAP = 16  # order search cutoff; rational torsion orders stay below it

RANK_CAVEAT = "upper bound only — rank not verified"

Point = tuple[Fraction, Fraction] | None
ModPoint = tuple[int, int] | None


def negate(model: CurveModel, pt: Point) -> Point:
    if pt is None:
        return None
    x, y = pt
    return (x, -y - model.a1 * x - model.a3)


def add_points(model: CurveModel, p1: Point, p2: Point) -> Point:
    """Chord-tangent addition on a long Weierstrass model, exact."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    a1, a2, a3, a4, a6 = model.coefficients()
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (
            2 * y1 + a1 * x1 + a3
        )
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def point_order(model: CurveModel, pt: Point) -> int | None:
    """Order of pt in the group law, or None if it exceeds _POINT_CAP."""
    acc = pt
    for n in range(1, _POINT_CAP + 1):
        if acc is None:
            return n
        acc = add_points(model, acc, pt)
    return None


def on_curve(model: CurveModel, pt: Point) -> bool:
    if pt is None:
        return True
    a1, a2, a3, a4, a6 = model.coefficients()
    x, y = pt
    return y * y + a1 * x * y + a3 * y == x ** 3 + a2 * x * x + a4 * x + a6


@dataclass(frozen=True)
class NamedCurve:
    label: str
    model: CurveModel
    expected_rational_torsion: int


@dataclass(frozen=True)
class TorsionBoundReport:
    """Upper bounds for #E(Q(zeta_r))_tors and the exact order of E(Q)_tors.

    gcd_bound and structure_bound come from the counts #E(F_q) at the split
    good primes q in `primes`; rational_points_found is #E(Q)_tors, point at
    infinity included.  The caveat stays: no rank is computed, so nothing
    shows the upper bounds are met over Q(zeta_r).
    """
    curve_label: str
    r: int
    primes: tuple[int, ...]
    counts: tuple[int, ...]
    gcd_bound: int
    structure_bound: int
    rational_points_found: int
    caveat: str = RANK_CAVEAT


def add_points_mod(coeffs: tuple[int, ...], q: int, p1: ModPoint,
                   p2: ModPoint) -> ModPoint:
    """Chord-tangent addition mod q; coeffs are (a1, a2, a3, a4, a6) mod q."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    a1, a2, a3, a4, a6 = coeffs
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2 + a1 * x2 + a3) % q == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(
            2 * y1 + a1 * x1 + a3, -1, q)
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, q)
    lam %= q
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % q
    y3 = (-(lam + a1) * x3 - y1 + lam * x1 - a3) % q
    return (x3, y3)


def multiply_mod(coeffs: tuple[int, ...], q: int, n: int, pt: ModPoint) -> ModPoint:
    """n * pt for n >= 0, by double-and-add."""
    acc = None
    while n:
        if n & 1:
            acc = add_points_mod(coeffs, q, acc, pt)
        pt = add_points_mod(coeffs, q, pt, pt)
        n >>= 1
    return acc


def _sqrt_mod(a: int, q: int) -> int | None:
    """A square root of a mod the odd prime q (Tonelli-Shanks), or None."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    s, t = 0, q - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    c, x, b = pow(z, t, q), pow(a, (t + 1) // 2, q), pow(a, t, q)
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            i, b2 = i + 1, b2 * b2 % q
        f = pow(c, 1 << (s - i - 1), q)
        s, c = i, f * f % q
        x, b = x * f % q, b * c % q
    return x


def _points_mod(coeffs: tuple[int, ...], q: int):
    """One affine point per x with a point above it, in increasing x."""
    a1, a2, a3, a4, a6 = coeffs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    half = (q + 1) // 2
    for x in range(q):
        root = _sqrt_mod(((4 * x + b2) * x + 2 * b4) * x + b6, q)
        if root is not None:
            yield (x, (root - a1 * x - a3) * half % q)


def primary_structure(model: CurveModel, q: int, ell: int,
                      count: int) -> tuple[int, int]:
    """Exponents (a, b), a <= b, with E(F_q)[ell^oo] = Z/ell^a x Z/ell^b.

    a is the largest k with E[ell^k] inside E(F_q).  The Weil pairing then
    puts the ell^a-th roots of unity in F_q, so a <= v_ell(q - 1); with
    a + b = v_ell(#E(F_q)) that often settles a with no point arithmetic.
    Otherwise the cofactor multiples of points, taken in increasing x,
    generate the ell-part, and its exponent ell^b is the largest order
    among those generators.  count is #E(F_q).
    """
    cofactor, v = _divide_out(count, ell)
    if min(v // 2, _divide_out(q - 1, ell)[1]) == 0:
        return 0, v
    coeffs = tuple(int(c) % q for c in model.coefficients())
    group: set[ModPoint] = {None}
    b = 0
    for pt in _points_mod(coeffs, q):
        gen = multiply_mod(coeffs, q, cofactor, pt)
        if gen in group:
            continue
        # adjoin gen one coset of the old subgroup at a time
        old, layer, step = group, group, gen
        group = set(old)
        while step not in old:
            layer = {add_points_mod(coeffs, q, h, gen) for h in layer}
            group |= layer
            step = add_points_mod(coeffs, q, step, gen)
        k = 0
        while gen is not None:
            gen, k = multiply_mod(coeffs, q, ell, gen), k + 1
        b = max(b, k)
        if len(group) == ell ** v:
            return v - b, b
    raise AssertionError(f"points mod {q} did not generate the {ell}-part")


# counts of the Frobenius stream that bound the torsion order; the curves of
# claims.FAMILY_J and the CM j 3^3*5^3*17^3, -2^18*3^3*5^3 and
# -2^15*3^3*5^3*11^3 reach a gcd of at most 2 within five (2*3^3*43^3 needs
# all five), and a curve that does not falls back to the full path
_TORSION_PRIMES = 5


def _torsion_order_gcd(model: CurveModel) -> int:
    """gcd of #E(F_q) over the first _TORSION_PRIMES pairs of the Frobenius
    stream, stopping once it is at most 2; 0 when the stream is empty.

    E(Q)_tors injects into E(F_q) at every odd prime of good reduction
    (Silverman AEC VII.3.1), so its order divides every nonzero result.
    """
    g = 0
    for q, a_q in islice(frobenius_stream(model, SAMPLE_BOUND), _TORSION_PRIMES):
        g = math.gcd(g, q + 1 - a_q)
        if g <= 2:
            break
    return g


@lru_cache(maxsize=8)
def rational_torsion(model: CurveModel) -> tuple[Point, ...]:
    """The affine points of E(Q)_tors, exactly, in sorted order.

    On the integral short model Y^2 = X^3 + AX + B with A = -27 c4,
    B = -54 c6, reached by X = 36x + 3 b2 and Y = 108(2y + a1 x + a3), a
    torsion point has integer coordinates and Y = 0 or Y^2 | 4A^3 + 27B^2
    = -2^8 3^12 Delta (Nagell-Lutz, Silverman AEC VIII.7).  When the
    counts of _torsion_order_gcd leave an order of 1 or 2, every torsion
    point has Y = 0, and only that cubic is solved: Delta is not factored.
    """
    if not model.is_integral():
        raise ValueError("integral model required")
    return _nagell_lutz(model, two_torsion_only=0 < _torsion_order_gcd(model) <= 2)


# small primes that sift the Nagell-Lutz candidates Y before the exact cubic
_SIEVE_PRIMES = primes_upto(23)


def _nagell_lutz(model: CurveModel, two_torsion_only: bool) -> tuple[Point, ...]:
    """Torsion points of an integral model, from the candidate Y above.

    Each candidate Y gives the integer roots X of X^3 + AX + B - Y^2; a
    candidate is kept when the group law reaches infinity within
    _POINT_CAP steps, which Mazur's bound (orders at most 12) makes exact.
    With two_torsion_only, Y = 0 is the only candidate.  A Y whose square
    is not a value of X^3 + AX + B mod some p in _SIEVE_PRIMES is dropped
    before the exact cubic: an integer root X would be one mod every p.
    """
    b2, b4, b6 = model.b2, model.b4, model.b6
    c4, c6 = b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    short = CurveModel.short(-27 * c4, -54 * c6)
    ys = []
    if not two_torsion_only:
        ys = [1]
        disc = abs(int(model.discriminant())) * 2 ** 8 * 3 ** 12
        for p, e in _factor_positive(disc).items():
            ys = [y * p ** k for y in ys for k in range(e // 2 + 1)]
    a4, a6 = int(short.a4), int(short.a6)
    values = [(p, {(x * x * x + a4 * x + a6) % p for x in range(p)}) for p in _SIEVE_PRIMES]
    found = []
    for y_short in [0] + ys:
        if any(y_short * y_short % p not in vals for p, vals in values):
            continue
        for x_short in rational_roots_cubic(1, 0, short.a4, short.a6 - y_short * y_short):
            for pt in {(x_short, Fraction(y_short)), (x_short, Fraction(-y_short))}:
                if point_order(short, pt) is None:
                    continue
                x = (x_short - 3 * b2) / 36
                back = (x, (pt[1] / 108 - model.a1 * x - model.a3) / 2)
                assert on_curve(short, pt) and on_curve(model, back)
                found.append(back)
    found.sort()
    return tuple(found)


def image_bound(model: CurveModel, r: int) -> str | None:
    """The stdgroups kind of a maximal subgroup of GL2(F_r) that provably
    holds the mod-r image of E, or None when neither rule below applies.

    CM by an order of discriminant D with r >= 5 not dividing D puts the
    image in the normalizer of the Cartan subgroup (O/rO)^*, split or
    nonsplit as the Kronecker symbol (D/r) is +1 or -1 (Serre 1972, sections
    4-5; Zywina, arXiv:1508.07660, section 1.9).  A rational point of order r
    is fixed by Galois, so the image lies in the Borel.  Such a point exists
    only for r <= 7 (Mazur), and never for r >= 5 on a CM curve (Olson
    1974), so rational_torsion is consulted only where it can answer.  The
    model must be integral.
    """
    validate_modulus(r)
    d = cm_field_discriminant(model.j_invariant())
    if d is not None and r >= 5:
        if d % r == 0:
            return None
        return "split_cartan_normalizer" if is_square(d, r) else "nonsplit_cartan_normalizer"
    if r <= 7 and any(point_order(model, pt) == r for pt in rational_torsion(model)):
        return "borel"
    return None


def count_points(model: CurveModel, q: int) -> int:
    """#E(F_q) with the point at infinity, by exhaustive x-scan."""
    if not is_probable_prime(q) or q == 2:
        raise ValueError(f"need an odd prime, got {q}")
    if q > SCAN_BOUND:
        raise ValueError(f"prime {q} above the {SCAN_BOUND} scan bound")
    if not model.is_integral():
        raise ValueError("integral model required")
    if int(model.discriminant()) % q == 0:
        raise BadReduction(f"discriminant vanishes mod {q}")
    return count_by_x_scan(int(model.b2), int(model.b4), int(model.b6), q)


def _load_curves() -> dict[str, NamedCurve]:
    text = resources.files("isogate.data").joinpath(_CURVE_FILE).read_text("ascii")
    curves: dict[str, NamedCurve] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, *rest = line.split()
        a1, a2, a3, a4, a6, torsion = (int(v) for v in rest)
        curve = NamedCurve(label, CurveModel(a1, a2, a3, a4, a6), torsion)
        _validate_curve(curve)
        curves[label] = curve
    return curves


def _validate_curve(curve: NamedCurve) -> None:
    # CurveModel construction already rejected singular models
    model = curve.model
    points = rational_torsion(model)
    orders = {1} | {point_order(model, pt) for pt in points}
    if (len(points) + 1 != curve.expected_rational_torsion
            or curve.expected_rational_torsion not in orders):
        raise ValueError(
            f"{curve.label}: rational torsion has {len(points) + 1} points and "
            f"element orders {sorted(orders)}, not cyclic of order "
            f"{curve.expected_rational_torsion}"
        )
    for q in (101, 103):
        if int(model.discriminant()) % q:
            n = count_points(model, q)
            if (n - q - 1) ** 2 > 4 * q:
                raise ValueError(f"{curve.label}: Hasse violation at {q}")


@cache
def named_curves() -> dict[str, NamedCurve]:
    return _load_curves()


def named_curve(label: str) -> NamedCurve:
    curves = named_curves()
    if label not in curves:
        raise KeyError(f"unknown curve {label!r}; have {sorted(curves)}")
    return curves[label]


def torsion_bound_cyclotomic(
    curve: NamedCurve,
    r: int,
    qs: tuple[int, ...] | None = None,
) -> TorsionBoundReport:
    """Two upper bounds for #E(Q(zeta_r))_tors from split good primes q.

    gcd_bound is the gcd of the counts #E(F_q).  structure_bound is the
    product over primes l dividing it of l^(min a + min b), where
    E(F_q)[l^oo] = Z/l^a x Z/l^b (a <= b) and the minima run over the
    primes q; it divides gcd_bound.  Neither is claimed tight.  The
    default primes and counts are the first eight pairs of
    frobenius_stream(model, SAMPLE_BOUND, r), so reports are deterministic.
    rational_points_found is exactly #E(Q)_tors (rational_torsion plus the
    point at infinity), which divides the torsion order over Q(zeta_r) and
    so both bounds.
    """
    validate_modulus(r)
    model = curve.model
    if qs is None:
        pairs = tuple(islice(frobenius_stream(model, SAMPLE_BOUND, r), 8))
        if len(pairs) < 8:
            raise NoValidPrimes(f"fewer than 8 good primes = 1 mod {r} below {SAMPLE_BOUND}")
        qs = tuple(q for q, _ in pairs)
        counts = tuple(q + 1 - a_q for q, a_q in pairs)
    else:
        qs = tuple(qs)
        if not qs:
            raise NoValidPrimes("empty prime list")
        disc = int(model.discriminant())
        for q in qs:
            if q % r != 1:
                raise ValueError(f"{q} is not 1 mod {r}")
            if disc % q == 0:
                raise BadReduction(f"bad reduction at {q}")
        qs = tuple(sorted(qs))
        counts = tuple(count_points(model, q) for q in qs)
    bound = math.gcd(*counts)
    structure = 1
    for ell in _factor_positive(bound):
        shapes = [primary_structure(model, q, ell, n) for q, n in zip(qs, counts)]
        structure *= ell ** (min(a for a, _ in shapes) + min(b for _, b in shapes))
    found = len(rational_torsion(model)) + 1
    return TorsionBoundReport(
        curve.label, r, qs, counts, bound, structure, found
    )


def two_division_shape(curve: NamedCurve) -> CubicFactorType:
    """Factorization shape of the completed-square 2-division cubic."""
    model = curve.model
    return _cubic_shape(1, model.b2, 8 * model.b4, 16 * model.b6)
