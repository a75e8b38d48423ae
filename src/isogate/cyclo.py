"""Quadratic subfield of Q(zeta_p), the CM discriminant table, and the
decision procedures built on both.

The unique quadratic subfield of the p-th cyclotomic field is
Q(sqrt(p*)) with p* = (-1)^((p-1)/2) * p, so a rational number is a
square in Q(zeta_p) exactly when its squarefree part is 1 or p*.  The
thirteen rational CM j-invariants ship as a checksummed data file; the
table is consulted, never derived.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources

from .errors import NotCmCurve
from .modfield import validate_modulus
from .ratcurves import (
    CubicFactorType,
    curve_from_j,
    is_probable_prime,
    parse_rational_expr,
    squarefree_part,
    two_division_cubic,
)

_CM_TABLE_FILE = "cm_j_invariants.txt"
_CM_TABLE_SHA256 = "7fc1dcc9013dcdf9721357b2ac894bc479c14627df28fdbaf8083af502a623ab"


def quadratic_subfield(p: int) -> int:
    """Return squarefree d with Q(sqrt(d)) the quadratic subfield of Q(zeta_p)."""
    validate_modulus(p)
    return p if p % 4 == 1 else -p


def is_square_in_cyclotomic(q, p: int) -> bool:
    """Whether the rational q is a square in Q(zeta_p)."""
    return squarefree_part(q) in (1, quadratic_subfield(p))


@dataclass(frozen=True)
class CmRecord:
    j: Fraction
    j_expr: str
    field_discriminant: int

    def __post_init__(self) -> None:
        d = self.field_discriminant
        if d >= 0 or d % 4 not in (0, 1):
            raise ValueError(f"not an imaginary quadratic discriminant: {d}")


@cache
def cm_table() -> tuple[CmRecord, ...]:
    blob = resources.files("isogate.data").joinpath(_CM_TABLE_FILE).read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != _CM_TABLE_SHA256:
        raise ValueError(
            f"CM table checksum mismatch: {digest} != {_CM_TABLE_SHA256}"
        )
    records = []
    for line in blob.decode("ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        expr, disc = line.split()
        records.append(CmRecord(parse_rational_expr(expr), expr, int(disc)))
    if len(records) != 13:
        raise ValueError(f"CM table must hold 13 records, found {len(records)}")
    if len({rec.j for rec in records}) != len(records):
        raise ValueError("duplicate j-invariant in CM table")
    return tuple(records)


def cm_field_discriminant(j) -> int | None:
    """The tabulated discriminant -D for a rational CM j-invariant, else None."""
    j = Fraction(j)
    for rec in cm_table():
        if rec.j == j:
            return rec.field_discriminant
    return None


def cm_isogeny_over_cyclotomic(j, r: int) -> bool:
    """Whether the CM curve with invariant j acquires an r-isogeny over Q(zeta_r).

    True exactly when r divides D, for -D the tabulated discriminant.  The
    divisibility is insensitive to the order-versus-field convention at odd
    r because conductors in the table divide 6.
    """
    validate_modulus(r)
    d = cm_field_discriminant(j)
    if d is None:
        raise NotCmCurve(f"{j} is not a rational CM j-invariant")
    return (-d) % r == 0


@dataclass(frozen=True)
class TwoTorsionDecision:
    """Verdict on full 2-torsion over Q(zeta_r), with the cubic evidence.

    verdict is "yes", "no", or "undetermined_cyclic_cubic".  For an
    irreducible 2-division cubic with square discriminant when 3 divides
    r - 1, split_samples records the root count of the cubic modulo the
    first few primes q = 1 (mod r): a sample with fewer than three roots at
    a q prime to the discriminant proves "no", and five samples with three
    roots each leave "undetermined_cyclic_cubic", since sampling cannot
    place the cyclic cubic field inside Q(zeta_r).
    """

    verdict: str
    r: int
    cubic: CubicFactorType
    split_samples: tuple[tuple[int, int], ...] = ()


def _cubic_int_model(j) -> tuple[int, int]:
    # clear denominators of x^3 + Ax + B via x -> x/s^2, preserving roots
    curve = curve_from_j(j)
    s = curve.a4.denominator * curve.a6.denominator
    return int(curve.a4 * s ** 4), int(curve.a6 * s ** 6)


def _split_samples(a: int, b: int, r: int) -> tuple[tuple[int, int], ...]:
    samples = []
    q = 1
    while len(samples) < 5 and q < 10 ** 6:
        q += r
        if not is_probable_prime(q) or a % q == 0 or b % q == 0:
            continue
        roots = sum(1 for x in range(q) if ((x * x + a) * x + b) % q == 0)
        samples.append((q, roots))
    return tuple(samples)


def full_two_torsion_over_cyclotomic(j, r: int) -> TwoTorsionDecision:
    """Decide whether the curve with invariant j has full 2-torsion over Q(zeta_r).

    Case analysis on the 2-division cubic: three rational roots give yes
    outright; one rational root reduces to the discriminant square class
    landing in {1, r*}; an irreducible cubic with nonsquare discriminant has
    S3 splitting field, which no abelian field contains; an irreducible
    cubic with square discriminant cuts out a cyclic cubic, impossible when
    3 does not divide r - 1.  Otherwise a prime q = 1 (mod r) splits
    completely in Q(zeta_r), so in the cubic field if Q(zeta_r) contains
    it, and then, for q prime to the discriminant -4a^3 - 27b^2 of the
    integral model x^3 + ax + b, Dedekind-Kummer gives the cubic three
    roots mod q.  A sampled q prime to the discriminant with fewer roots
    proves "no"; without one the verdict is left undetermined.
    """
    validate_modulus(r)
    cubic = two_division_cubic(j)
    if cubic.shape == "three_rational_roots":
        return TwoTorsionDecision("yes", r, cubic)
    if cubic.shape == "one_rational_root":
        gained = is_square_in_cyclotomic(cubic.disc_class, r)
        return TwoTorsionDecision("yes" if gained else "no", r, cubic)
    if cubic.disc_class != 1:
        return TwoTorsionDecision("no", r, cubic)
    if (r - 1) % 3 != 0:
        return TwoTorsionDecision("no", r, cubic)
    a, b = _cubic_int_model(j)
    disc = -4 * a ** 3 - 27 * b ** 2
    samples = _split_samples(a, b, r)
    excluded = any(n != 3 and disc % q for q, n in samples)
    verdict = "no" if excluded else "undetermined_cyclic_cubic"
    return TwoTorsionDecision(verdict, r, cubic, samples)
