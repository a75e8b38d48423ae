"""Exact elliptic-curve arithmetic over Q.

Models from j-invariants, discriminants and their square classes,
2-division cubic analysis with exact certificates in both directions,
the two parameterized j-families, and surjectivity certification of the
mod-r Galois image from Frobenius (trace, det) samples.

The square class of the 2-division discriminant needs no large factoring:
for the model (A, B) = (3jk, 2jk^2), k = 1728 - j, of `curve_from_j`, the
discriminant of x^3 + Ax + B is (432jk)^2 (j - 1728), so its class is that
of j - 1728.  The class is checked against the discriminant exactly, by
integer square roots of numerator and denominator.

A square class is read without a full factorization.  After trial
division by the primes below 2000, the cofactor m is 1, a prime, a square,
or, below 2^63, divided by every prime in (2000, L] with L = floor(m^(1/3)),
in one numpy remainder over the primes up to L.  What is left, m', has no
prime factor <= L, and m' <= m < (L + 1)^3.  A product of three primes,
each >= L + 1, would be at least (L + 1)^3, so m' is 1, p, p^2 or pq with
p != q: its squarefree part is 1 when m' is a square and m' otherwise.
Only a cofactor of 2^63 or more goes through Brent's rho.

All rational arithmetic uses fractions.Fraction; the only floating point
is the estimate of an integer cube root, which is then corrected
exactly.  Root finding never factors the (possibly 40-digit)
coefficients: positive answers come from exact bisection plus
verification, negative ones from a root-free reduction at a witness
prime.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (FactorizationIncomplete, InsufficientSamples,
                     PoleAtParameter, SingularCurve, Undecided, ZeroParameter)
from .modfield import (LARGE_ORDER, NONSPLIT, SPLIT, generates_units, serre_bits,
                       validate_modulus)
from .pointcount import SCAN_BOUND, count_by_x_scan, prime_array, primes_upto

Rational = Fraction | int


# ---- factored rational expression syntax ----

# bound on every atom, numerator and denominator of a parsed expression;
# the registry's largest value is 137 bits
_EXPR_LIMIT_BITS = 256


def parse_rational_expr(text: str) -> Fraction:
    """Parse 'n', 'n/d', or factored forms like '-17*373^3/2^17'.

    Grammar: optional leading minus, then integer atoms with optional
    '^exponent', combined left-to-right by '*' and '/'.  The Unicode minus
    sign is read as '-'.  The text is split at '*' and '/', and every atom
    between them must be ASCII digits or digits^digits, so an empty atom
    ('-', '3*'), '2^', '^3', '2^3^4', a superscript or a non-ASCII digit
    raises ValueError.  An atom, numerator or denominator above 2^256
    raises ValueError, a large power before it is computed.
    """
    s = text.strip().replace("−", "-").replace(" ", "")
    if not s:
        raise ValueError("empty rational expression")
    negative = s.startswith("-")
    pieces = re.split(r"([*/])", s.removeprefix("-"))
    value = Fraction(1)
    # atoms sit at the even places, each after the operator before it
    for op, piece in zip(["*"] + pieces[1::2], pieces[::2]):
        # [0-9], not \d, which also matches non-ASCII digits
        if not re.fullmatch(r"[0-9]+(\^[0-9]+)?", piece):
            raise ValueError(f"malformed factor {piece!r} in {text!r}: want digits or digits^digits")
        base_s, _, exp_s = piece.partition("^")
        base, exp = int(base_s), int(exp_s or 1)
        # base >= 2^(bits - 1), so this refuses only powers above the limit
        if base > 1 and (base.bit_length() - 1) * exp > _EXPR_LIMIT_BITS:
            raise ValueError(f"{piece!r} exceeds 2^{_EXPR_LIMIT_BITS} in {text!r}")
        atom = base ** exp
        if op == "/" and not atom:
            raise ValueError(f"division by zero in {text!r}")
        value = value * atom if op == "*" else value / atom
        for part in (atom, value.numerator, value.denominator):
            if part > 2 ** _EXPR_LIMIT_BITS:
                raise ValueError(f"{text!r} exceeds 2^{_EXPR_LIMIT_BITS} in a numerator "
                                 "or denominator")
    return -value if negative else value


def format_rational(q: Rational) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---- primality and the factoring pipeline ----

_TRIAL_PRIMES = primes_upto(2000)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24 with these bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, c: int, max_iters: int):
    """One bounded Brent-cycle attempt at a nontrivial factor of odd composite n."""
    batch = 128
    y, g, q_acc = 2, 1, 1
    cycle, iters = 1, 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(cycle):
            y = (y * y + c) % n
        k = 0
        while k < cycle and g == 1:
            ys = y
            steps = min(batch, cycle - k)
            for _ in range(steps):
                y = (y * y + c) % n
                q_acc = q_acc * (x - y) % n
            g = math.gcd(q_acc, n)
            k += steps
            iters += steps
        cycle *= 2
        if iters >= max_iters:
            return None
    if g == n:
        # backtrack one step at a time to recover the factor the batch skipped
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            iters += 1
            if iters >= max_iters + batch:
                return None
    return g if 1 < g < n else None


def _factor_positive(n: int) -> dict[int, int]:
    """Prime exponents of n >= 1: trial division below 2000, then Miller-Rabin,
    square roots and Brent's rho; FactorizationIncomplete past rho's effort cap."""
    out, n = _trial_divide(n)
    if n == 1:
        return out
    stack = [(n, 1)]
    while stack:
        m, mult = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + mult
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.append((root, 2 * mult))
            continue
        factor = None
        for c in (1, 3):
            factor = _brent_rho(m, c, max_iters=10 ** 6)
            if factor:
                break
        if factor is None:
            raise FactorizationIncomplete(f"cofactor {m} resisted the pipeline")
        stack.append((factor, mult))
        stack.append((m // factor, mult))
    return out


def _divide_out(n: int, p: int) -> tuple[int, int]:
    """n with every factor p taken out, and the exponent of p in n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """Exponents of the primes below 2000 that divide n >= 1, and the cofactor.

    Stops once p^2 exceeds the cofactor, which is then 1 or a prime (it may
    be below 2000).
    """
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n, out[p] = _divide_out(n, p)
    return out, n


def _icbrt(m: int) -> int:
    """floor(m^(1/3)) for 0 <= m < 2^63, exactly: the float estimate is
    corrected in both directions."""
    c = round(m ** (1 / 3))
    while c ** 3 > m:
        c -= 1
    while (c + 1) ** 3 <= m:
        c += 1
    return c


def _cofactor_class(m: int) -> int:
    """Squarefree part of m >= 1 with no prime factor below 2000.

    1, a prime and a square are read off directly; below 2^63 the primes up
    to the cube root are tried in one numpy call (the module docstring has
    the proof); only a larger cofactor is factored with Brent's rho.
    """
    if m == 1 or is_probable_prime(m):
        return m
    root = math.isqrt(m)
    if root * root == m:
        return 1
    if m >= 1 << 63:
        return math.prod(p for p, e in _factor_positive(m).items() if e % 2)
    # the primes in (2000, L]: the sieve's first entries are the trial primes
    primes = prime_array(_icbrt(m))[len(_TRIAL_PRIMES):]
    out = 1
    for p in primes[np.remainder(m, primes) == 0].tolist():
        m, e = _divide_out(m, p)
        out *= p if e % 2 else 1
    root = math.isqrt(m)
    return out if root * root == m else out * m


@lru_cache(maxsize=256)
def _squarefree_int(n: int) -> int:
    """Squarefree part of the integer n >= 1.

    Memoised on the integer, so a class asked for twice (as an int and as
    an equal Fraction, say) is computed once.
    """
    exponents, m = _trial_divide(n)
    return math.prod(p for p, e in exponents.items() if e % 2) * _cofactor_class(m)


def squarefree_part(q: Rational) -> int:
    """The unique squarefree integer d with q/d a square in Q."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no square class")
    n = q.numerator * q.denominator
    return _squarefree_int(n) if n > 0 else -_squarefree_int(-n)


# ---- Weierstrass models ----

@dataclass(frozen=True)
class CurveModel:
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, Fraction(getattr(self, f.name)))
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc == 0:
            raise SingularCurve(f"discriminant 0 for {self}")
        # not a field, so eq, hash and repr read the five coefficients only
        object.__setattr__(self, "_disc", disc)

    @classmethod
    def short(cls, a: Rational, b: Rational) -> "CurveModel":
        return cls(0, 0, 0, Fraction(a), Fraction(b))

    @property
    def b2(self) -> Fraction:
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self) -> Fraction:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> Fraction:
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self) -> Fraction:
        return (self.a1 * self.a1 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 * self.a3
                - self.a4 * self.a4)

    def discriminant(self) -> Fraction:
        return self._disc

    def j_invariant(self) -> Fraction:
        c4 = self.b2 * self.b2 - 24 * self.b4
        return c4 ** 3 / self.discriminant()

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.coefficients())

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)


def curve_from_j(j: Rational) -> CurveModel:
    """A fixed model with the given j-invariant; any twist works downstream."""
    j = Fraction(j)
    if j == 0:
        return CurveModel.short(0, 1)
    if j == 1728:
        return CurveModel.short(1, 0)
    k = 1728 - j
    return CurveModel.short(3 * j * k, 2 * j * k * k)


def quadratic_twist(curve: CurveModel, d: Rational) -> CurveModel:
    """Twist of a short-form model by d: (A, B) -> (d^2 A, d^3 B)."""
    if (curve.a1, curve.a2, curve.a3) != (0, 0, 0):
        raise ValueError("twisting implemented for short models only")
    d = Fraction(d)
    return CurveModel.short(d * d * curve.a4, d ** 3 * curve.a6)


def disc_square_class_of_j(j: Rational) -> int:
    """Square class shared by the discriminants of all curves with this j."""
    j = Fraction(j)
    if j == 1728:
        raise ValueError("j = 1728 has twists in distinct discriminant classes")
    return squarefree_part(j - 1728)


# ---- exact root extraction for cubics ----

def _poly_eval(coeffs, x):
    out = 0
    for c in coeffs:
        out = out * x + c
    return out


def _primitive_integer(coeffs):
    """Integer coefficients proportional to the given rationals, with content 1."""
    coeffs = [Fraction(c) for c in coeffs]
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _crit_floor(a: int, d: int, sign: int) -> tuple[int, bool]:
    """floor((-a + sign*sqrt(d))/3) exactly, plus whether the value is integral.

    Comparisons against sqrt(d) are done on squares, so the result is exact
    for arbitrarily large integers.
    """
    s = math.isqrt(d)
    base = (-a + sign * s) // 3
    best = base - 2
    for n in (base - 1, base, base + 1):
        t = 3 * n + a  # n <= crit  <=>  t <= sign*sqrt(d)
        if sign < 0:
            ok = t <= 0 and t * t >= d
        else:
            ok = t <= 0 or t * t <= d
        if ok:
            best = n
    is_integral = s * s == d and (-a + sign * s) % 3 == 0
    return best, is_integral


def _monotone_integer_root(coeffs, lo: int, hi: int, increasing: bool):
    """The integer root in [lo, hi], where the polynomial is monotone."""
    while lo <= hi:
        mid = (lo + hi) // 2
        val = _poly_eval(coeffs, mid)
        if val == 0:
            return mid
        if (val < 0) == increasing:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def _integer_roots(coeffs: list[int]) -> list[int]:
    """All integer roots of a monic integer polynomial of degree <= 3.

    The real line is cut at the critical points into monotone regions; a
    binary search on each region finds its root, if any.  No coefficient
    is ever factored, so 40-digit constants are fine.  The search range is
    Fujiwara's bound: every root z of x^n + c_1 x^(n-1) + ... + c_n has
    |z| <= 2 max_k |c_k|^(1/k), and |c_k| < 2^b for b its bit length, so
    2^ceil(b/k) bounds |c_k|^(1/k) with no k-th root computed.
    """
    assert coeffs[0] == 1
    bound = 2 * max((1 << -(-abs(c).bit_length() // k)
                     for k, c in enumerate(coeffs[1:], 1)), default=1)
    regions = [(-bound, bound, True)]
    if len(coeffs) == 3:
        a = coeffs[1]
        vertex_floor = (-a) // 2
        vertex_ceil = vertex_floor if a % 2 == 0 else vertex_floor + 1
        regions = [(-bound, vertex_floor, False), (vertex_ceil, bound, True)]
    elif len(coeffs) == 4:
        a, b = coeffs[1], coeffs[2]
        d = a * a - 3 * b
        if d > 0:
            lo_floor, lo_int = _crit_floor(a, d, -1)
            hi_floor, hi_int = _crit_floor(a, d, +1)
            lo_ceil = lo_floor if lo_int else lo_floor + 1
            hi_ceil = hi_floor if hi_int else hi_floor + 1
            regions = [(-bound, lo_floor, True),
                       (lo_ceil, hi_floor, False),
                       (hi_ceil, bound, True)]
    roots = set()
    for lo, hi, increasing in regions:
        root = _monotone_integer_root(coeffs, lo, hi, increasing)
        if root is not None:
            roots.add(root)
    return sorted(roots)


def rational_roots_cubic(c3: Rational, c2: Rational, c1: Rational, c0: Rational) -> list[Fraction]:
    """All distinct rational roots of c3 x^3 + c2 x^2 + c1 x + c0, exactly.

    The polynomial is made primitive, then rescaled to a monic integer
    polynomial whose rational roots are integers; every candidate is
    verified against the original coefficients.
    """
    coeffs = [Fraction(c) for c in (c3, c2, c1, c0)]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) <= 1:
        raise ValueError("degenerate polynomial")
    ints = _primitive_integer(coeffs)
    lead = ints[0]
    # y = lead * x turns lead*x^3 + ... into a monic polynomial in y
    monic = [1] + [ints[i] * lead ** (i - 1) for i in range(1, len(ints))]
    roots = sorted(Fraction(y, lead) for y in _integer_roots(monic))
    verified = [x for x in roots if _poly_eval([Fraction(c) for c in (c3, c2, c1, c0)], x) == 0]
    assert len(verified) == len(roots)
    return verified


_WITNESS_PRIMES = tuple(p for p in _TRIAL_PRIMES if p > 3)


def root_free_witness(coeffs) -> int | None:
    """A prime q not dividing the leading coefficient modulo which the
    polynomial has no root; certifies the absence of rational roots."""
    ints = _primitive_integer(coeffs)
    for q in _WITNESS_PRIMES:
        if ints[0] % q == 0:
            continue
        reduced = [c % q for c in ints]
        if all(_poly_eval(reduced, x) % q for x in range(q)):
            return q
    return None


# ---- 2-division cubic ----

@dataclass(frozen=True)
class CubicFactorType:
    shape: str  # three_rational_roots | one_rational_root | irreducible
    disc_class: int
    roots: tuple[Fraction, ...]
    witness_prime: int | None


def _is_rational_square(q: Fraction) -> bool:
    """Whether q is the square of a nonzero rational (q in lowest terms)."""
    num, den = q.numerator, q.denominator
    return num > 0 and math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


def _cubic_shape(c3, c2, c1, c0, disc_class: int | None = None) -> CubicFactorType:
    """Shape over Q of c3 x^3 + c2 x^2 + c1 x + c0 and its discriminant's class.

    A caller that knows the square class passes it as `disc_class`; it is
    then checked exactly (disc * disc_class must be a nonzero rational
    square) instead of read off a factored discriminant.  A class that
    fails the check is a program fault and raises AssertionError.
    """
    roots = rational_roots_cubic(c3, c2, c1, c0)
    c3, c2, c1, c0 = (Fraction(c) for c in (c3, c2, c1, c0))
    disc = (18 * c3 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 * c2 * c1 * c1
            - 4 * c3 * c1 ** 3 - 27 * c3 * c3 * c0 * c0)
    if disc_class is None:
        disc_class = squarefree_part(disc) if disc != 0 else 1
    elif not _is_rational_square(disc * disc_class):
        raise AssertionError(f"{disc_class} is not the square class of the "
                             f"discriminant {format_rational(disc)}")
    if len(roots) >= 2:
        shape = "three_rational_roots"
    elif len(roots) == 1:
        shape = "one_rational_root"
    else:
        shape = "irreducible"
        witness = root_free_witness([c3, c2, c1, c0])
        if witness is None:
            raise Undecided("no rational root found and no root-free prime witness")
        return CubicFactorType(shape, disc_class, (), witness)
    return CubicFactorType(shape, disc_class, tuple(roots), None)


def two_division_cubic(j: Rational) -> CubicFactorType:
    """Factorization shape over Q of the 2-division cubic x^3 + Ax + B.

    For j not in {0, 1728} the model of `curve_from_j` has A = 3jk and
    B = 2jk^2 with k = 1728 - j, so the cubic's discriminant is
    -4A^3 - 27B^2 = (432jk)^2 (j - 1728).  Its square class is then that of
    j - 1728, `disc_square_class_of_j(j)`, which factors a number of about
    the size of j instead of the 350-bit discriminant; `_cubic_shape`
    checks the class against the discriminant exactly, by integer square
    roots.
    """
    j = Fraction(j)
    curve = curve_from_j(j)
    disc_class = None if j in (0, 1728) else disc_square_class_of_j(j)
    return _cubic_shape(1, 0, curve.a4, curve.a6, disc_class)


# ---- the two j-families ----

def two_torsion_family_j(t: Rational) -> Fraction:
    t = Fraction(t)
    if t == 0:
        raise ZeroParameter("family parameter t = 0 is outside the domain")
    return (t + 16) ** 3 / t


def family_membership(j: Rational) -> tuple[Fraction, ...]:
    """All rational t with (t+16)^3/t = j, via the cleared cubic in t."""
    j = Fraction(j)
    d, n = j.denominator, j.numerator
    roots = rational_roots_cubic(d, 48 * d, 768 * d - n, 4096 * d)
    return tuple(t for t in roots if t != 0)


def g3_family_j(t: Rational) -> Fraction:
    """Exact evaluation of the degree-30 exceptional j-map at rational t."""
    t = Fraction(t)
    den1 = t * t + 5 * t + 5
    den2 = t ** 4 + 5 * t ** 3 + 15 * t * t + 25 * t + 25
    if den1 == 0 or den2 == 0:
        raise PoleAtParameter(f"denominator vanishes at t = {t}")
    num = (5 ** 4 * t ** 3
           * (t * t + 5 * t + 10) ** 3
           * (2 * t * t + 5 * t + 5) ** 3
           * (4 * t ** 4 + 30 * t ** 3 + 95 * t * t + 150 * t + 100) ** 3)
    return num / (den1 ** 5 * den2 ** 5)


# ---- surjectivity certification ----

# default prime bound of the Frobenius readers: the certificates, the claim
# config, the torsion-gcd shortcut and the default torsion primes
SAMPLE_BOUND = 10 ** 4

@dataclass(frozen=True)
class SurjectivityReport:
    """Verdict of the four criteria at one modulus r.

    `sample_count` is the number of usable primes (good, odd, q != r) the
    criteria were evaluated on.  With precomputed samples that is all of
    them; otherwise it is the number read from the Frobenius stream before
    the decision: the prefix on which all four criteria first hold, or
    every usable prime up to `sample_bound` when the answer is inconclusive.
    """
    status: str  # certified_surjective | inconclusive
    r: int
    sample_bound: int
    sample_count: int
    criteria: tuple[tuple[str, bool], ...]

    @property
    def certified(self) -> bool:
        return self.status == "certified_surjective"


def frobenius_stream(curve: CurveModel, bound: int, modulus: int = 1):
    """(q, a_q) at every odd prime q <= bound of good reduction with
    q = 1 (mod modulus), lazily, in increasing q; a point count is made only
    when its pair is read.  With modulus r these are the primes that split
    completely in Q(zeta_r).  A bound above the point-count kernel's
    SCAN_BOUND is refused here, before any pair is read, not when the
    stream reaches it."""
    if not curve.is_integral():
        raise ValueError("Frobenius sampling needs an integral model")
    if bound > SCAN_BOUND:
        raise ValueError(f"sample bound {bound} above the {SCAN_BOUND} scan bound")
    disc_num = abs(curve.discriminant().numerator)
    b2, b4, b6 = int(curve.b2), int(curve.b4), int(curve.b6)
    return ((q, q + 1 - count_by_x_scan(b2 % q, b4 % q, b6 % q, q))
            for q in primes_upto(bound)
            if q != 2 and (q - 1) % modulus == 0 and disc_num % q != 0)


def frobenius_samples(curve: CurveModel, bound: int) -> list[tuple[int, int]]:
    """(q, a_q) at every odd prime q <= bound of good reduction."""
    return list(frobenius_stream(curve, bound))


class _CriteriaFold:
    """Running state of the four certification criteria over (trace, det)
    pairs mod r.  Every criterion is upward-closed (an "exists an element"
    test, or "the determinants generate"), so folding in more pairs can
    only turn flags on."""

    __slots__ = ("r", "bits", "units", "dets")

    def __init__(self, r: int):
        self.r = validate_modulus(r)
        self.bits = 0  # Serre's bits (modfield.serre_bits) seen so far
        self.units = False
        self.dets: set[int] = set()

    def update(self, pairs) -> None:
        """Fold the pairs in, in one pass."""
        r = self.r
        table = serre_bits(r)
        bits, dets = self.bits, self.dets
        seen = len(dets)
        for trace, det in pairs:
            det %= r
            if det:
                dets.add(det)
                bits |= table[trace % r * r + det]
        self.bits = bits
        if len(dets) != seen and not self.units:
            self.units = generates_units(dets, r)

    @property
    def certified(self) -> bool:
        return self.bits == SPLIT | NONSPLIT | LARGE_ORDER and self.units

    @property
    def criteria(self) -> tuple[tuple[str, bool], ...]:
        bits = self.bits
        return (
            ("nonsquare_frobenius_disc", bool(bits & NONSPLIT)),
            ("square_frobenius_disc", bool(bits & SPLIT)),
            ("determinants_generate", self.units),
            ("projective_order_above_5", bool(bits & LARGE_ORDER)),
        )


def certificate_criteria(pairs, r: int) -> tuple[tuple[str, bool], ...]:
    """Evaluate the four certification criteria on (trace, det) pairs mod r.

    (i) and (ii) see both quadratic types of maximal torus, (iii) forces a
    surjective determinant, and (iv) rules out the finitely many projective
    images all of whose elements have projective order at most 5.  The same
    rule is applied to subgroup element data by the soundness oracle in the
    test suite, so Frobenius data and group data cannot drift apart.
    """
    fold = _CriteriaFold(r)
    fold.update(pairs)
    return fold.criteria


def _require_certifiable(r: int) -> None:
    validate_modulus(r)
    if r < 5:
        raise ValueError("certification needs r >= 5")


def _report(fold: _CriteriaFold, sample_bound: int, count: int) -> SurjectivityReport:
    if not count:
        raise InsufficientSamples(f"no good primes <= {sample_bound}")
    status = "certified_surjective" if fold.certified else "inconclusive"
    return SurjectivityReport(status, fold.r, sample_bound, count, fold.criteria)


def surjectivity_certificates(curve: CurveModel, moduli, sample_bound: int = SAMPLE_BOUND
                              ) -> dict[int, SurjectivityReport]:
    """Certify the mod-r image for several moduli from one Frobenius stream.

    The stream is read in increasing q and stops as soon as every modulus
    is certified, or at `sample_bound`.  A Frobenius element lies in the
    image whatever the prefix, so stopping early is as sound as reading
    every prime; an inconclusive modulus reads the stream to the bound.
    """
    for r in moduli:
        _require_certifiable(r)
    folds = {r: _CriteriaFold(r) for r in moduli}
    counts = dict.fromkeys(folds, 0)
    pending = list(folds.values())
    for q, a_q in frobenius_stream(curve, sample_bound):
        for fold in pending:
            if q != fold.r:
                counts[fold.r] += 1
                fold.update(((a_q, q),))
        pending = [fold for fold in pending if not fold.certified]
        if not pending:
            break
    return {r: _report(fold, sample_bound, counts[r]) for r, fold in folds.items()}


def surjectivity_certificate(curve: CurveModel, r: int, sample_bound: int = SAMPLE_BOUND,
                             samples=None) -> SurjectivityReport:
    """Certify the mod-r image is all of GL2(F_r), or report inconclusive.

    Certification requires all four sample criteria; the combination is
    sound for every r >= 5 (no proper subgroup can satisfy it), so a
    certified answer is never a false positive.  Precomputed (q, a_q)
    samples may be passed in to share point counting across moduli; they
    are all evaluated.  Without them the primes are read lazily and only
    until the certificate is decided (`surjectivity_certificates`).
    """
    if samples is None:
        return surjectivity_certificates(curve, (r,), sample_bound)[r]
    _require_certifiable(r)
    usable = [(a_q % r, q % r) for q, a_q in samples if q != r]
    fold = _CriteriaFold(r)
    fold.update(usable)
    return _report(fold, sample_bound, len(usable))
