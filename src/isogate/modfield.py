"""Arithmetic in the prime field F_r for small odd moduli.

Residue classes (squares, cubes) are computed by exhaustive enumeration
and cached per modulus.  The supported moduli are the odd primes from
MODULUS_MIN to MODULUS_MAX.
"""

from functools import lru_cache
from math import isqrt, lcm

from .errors import CompositeModulus, ZeroInput

MODULUS_MIN = 3
MODULUS_MAX = 97

_SMALL_PRIMES = tuple(p for p in range(MODULUS_MIN, MODULUS_MAX + 1)
                      if all(p % d for d in range(2, isqrt(p) + 1)))


def validate_modulus(r: int) -> int:
    """Return r if it is a supported odd prime, else raise CompositeModulus."""
    if not isinstance(r, int) or r not in _SMALL_PRIMES:
        raise CompositeModulus(f"modulus must be an odd prime in [{MODULUS_MIN}, {MODULUS_MAX}], got {r!r}")
    return r


def supported_moduli() -> tuple[int, ...]:
    return _SMALL_PRIMES


@lru_cache(maxsize=None)
def _square_set(r: int) -> frozenset:
    return frozenset(x * x % r for x in range(1, r))


@lru_cache(maxsize=None)
def _cube_set(r: int) -> frozenset:
    return frozenset(pow(x, 3, r) for x in range(1, r))


def is_square(a: int, r: int) -> bool:
    """Whether a is a nonzero square mod r.  a = 0 raises ZeroInput."""
    validate_modulus(r)
    if a % r == 0:
        raise ZeroInput(f"residue test needs a unit, got 0 mod {r}")
    return a % r in _square_set(r)


def is_cube(a: int, r: int) -> bool:
    """Whether a is a nonzero cube mod r.  a = 0 raises ZeroInput."""
    validate_modulus(r)
    if a % r == 0:
        raise ZeroInput(f"residue test needs a unit, got 0 mod {r}")
    return a % r in _cube_set(r)


@lru_cache(maxsize=None)
def epsilon(r: int) -> int:
    """Fixed non-residue used to model the quadratic extension of F_r.

    -1 when r = 3 (mod 4), otherwise the smallest non-residue >= 2.
    """
    validate_modulus(r)
    if r % 4 == 3:
        return r - 1
    squares = _square_set(r)
    for c in range(2, r):
        if c not in squares:
            return c
    raise AssertionError("no non-residue found")  # unreachable for prime r > 2


# bits of Serre's three elements (1972, Prop. 19), set per (trace, det)
SPLIT, NONSPLIT, LARGE_ORDER = 1, 2, 4


@lru_cache(maxsize=None)
def serre_bits(r: int) -> bytes:
    """Serre's bits of a matrix by its key trace * r + det; det 0 has no bits.

    SPLIT is set when trace != 0 and trace^2 - 4 det is a nonzero square,
    NONSPLIT when trace != 0 and it is a nonsquare, and LARGE_ORDER when
    u = trace^2 / det is outside {0, 1, 2, 4} and u^2 - 3u + 1 != 0.
    """
    validate_modulus(r)
    squares = _square_set(r)
    table = bytearray(r * r)
    for t in range(r):
        for d in range(1, r):
            disc = (t * t - 4 * d) % r
            u = t * t * pow(d, -1, r) % r
            bits = 0
            if t and disc:
                bits |= SPLIT if disc in squares else NONSPLIT
            if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % r:
                bits |= LARGE_ORDER
            table[t * r + d] = bits
    return bytes(table)


def element_order(a: int, r: int) -> int:
    """Multiplicative order of the unit a mod r."""
    validate_modulus(r)
    a %= r
    if a == 0:
        raise ZeroInput(f"order of 0 mod {r} is undefined")
    k, x = 1, a
    while x != 1:
        x = x * a % r
        k += 1
    return k


@lru_cache(maxsize=None)
def generator(r: int) -> int:
    """Smallest generator of the unit group mod r."""
    validate_modulus(r)
    for g in range(2, r):
        if element_order(g, r) == r - 1:
            return g
    raise AssertionError("no generator found")  # unreachable for prime r


def generates_units(values, r: int) -> bool:
    """Whether the given units together generate the full unit group mod r.

    F_r^* is cyclic, so they do exactly when the lcm of their orders is r-1.
    """
    validate_modulus(r)
    return lcm(*(element_order(v, r) for v in values if v % r)) == r - 1
