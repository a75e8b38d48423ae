"""Point counting over small prime fields, vectorized with numpy.

`count_by_x_scan` scans x and reads off solution counts from a table of
quadratic characters.  It works on the completed-square form
y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, whose solution count matches the long
Weierstrass form point for point.

The coefficients are reduced mod q once; the cubic is evaluated by Horner's
rule on int64 without reducing between steps, and each value is reduced once,
as v - (v // q) * q (numpy's floor division by a scalar is several times
faster than its remainder).  Every Horner value stays below 5 q^3, which is
under 2^63 for q <= SCAN_BOUND = 10^6, so larger primes are refused.  x is
walked in blocks of 2^16 taken from one shared `arange`, built on the first
scan: a prime below the block size scans a view of it, and a larger prime
never holds a q-long int64 array, only its q-long int8 character table.
"""

from functools import lru_cache

import numpy as np

SCAN_BOUND = 10 ** 6  # 5 q^3 < 2^63: the unreduced Horner values fit in int64
_BLOCK = 1 << 16


@lru_cache(maxsize=32)
def primes_upto(n: int) -> tuple[int, ...]:
    if n < 2:
        return ()
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return tuple(int(p) for p in np.nonzero(sieve)[0])


@lru_cache(maxsize=1)
def _x_block() -> np.ndarray:
    """0, 1, ..., _BLOCK - 1, read-only and shared by every scan.  It is built
    on the first scan, so a process that counts no points never holds it."""
    x = np.arange(_BLOCK, dtype=np.int64)
    x.flags.writeable = False
    return x


def _x_blocks(stop: int, shifted: np.ndarray):
    """x = 0, 1, ..., stop - 1 in blocks of at most _BLOCK: the first block is
    a view of the shared block, each later one is it plus its start, written
    into `shifted`."""
    block = _x_block()
    for start in range(0, stop, _BLOCK):
        x = block[:min(_BLOCK, stop - start)]
        yield np.add(x, start, out=shifted[:len(x)]) if start else x


def _reduce(v: np.ndarray, q: int, tmp: np.ndarray) -> np.ndarray:
    """v mod q in place, for 0 <= v < 2^63, as v - (v // q) * q."""
    quot = np.floor_divide(v, q, out=tmp[:len(v)])
    quot *= q
    v -= quot
    return v


def count_by_x_scan(b2: int, b4: int, b6: int, q: int) -> int:
    """Projective point count of y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 over F_q.

    Each x contributes 1 + chi(v(x)) points, chi the quadratic character
    (an int8 table with chi(0) = 0, built from the squares of
    x <= (q - 1) / 2), so the count is q + 1 + sum chi(v).  Refuses
    q > SCAN_BOUND, where the unreduced Horner values could overflow int64.
    """
    if q > SCAN_BOUND:
        raise ValueError(f"prime {q} above the {SCAN_BOUND} scan bound")
    c2, c4, c6 = b2 % q, (2 * b4) % q, b6 % q
    buf, tmp, shifted = np.empty((3, min(q, _BLOCK)), dtype=np.int64)
    chi = np.full(q, -1, dtype=np.int8)
    for x in _x_blocks((q + 1) // 2, shifted):
        chi[_reduce(np.multiply(x, x, out=buf[:len(x)]), q, tmp)] = 1
    chi[0] = 0
    total = q + 1
    for x in _x_blocks(q, shifted):
        v = np.multiply(x, 4, out=buf[:len(x)])
        v += c2
        v *= x
        v += c4
        v *= x
        v += c6
        total += int(chi[_reduce(v, q, tmp)].sum(dtype=np.int64))
    return total
