"""Point counting over small prime fields, vectorized with numpy.

The kernel scans x and reads off solution counts from a table of squares.
It works on the completed-square form y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6,
whose solution count matches the long Weierstrass form point for point.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _primes_upto(n: int) -> tuple[int, ...]:
    if n < 2:
        return ()
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return tuple(int(p) for p in np.nonzero(sieve)[0])


def primes_upto(n: int) -> tuple[int, ...]:
    return _primes_upto(n)


def count_by_x_scan(b2: int, b4: int, b6: int, q: int) -> int:
    """Projective point count of y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 over F_q.

    Each x contributes 1 + chi(v(x)) points, chi the quadratic character
    (an int8 table with chi(0) = 0), so the count is q + 1 + sum chi(v).
    The cubic is evaluated by Horner's rule in one int64 buffer, in place.
    """
    x = np.arange(q, dtype=np.int64)
    v = x * x
    v %= q
    chi = np.full(q, -1, dtype=np.int8)
    chi[v] = 1
    chi[0] = 0
    np.multiply(x, 4, out=v)
    v += b2 % q
    v %= q
    v *= x
    v += (2 * b4) % q
    v %= q
    v *= x
    v += b6 % q
    v %= q
    return q + 1 + int(chi[v].sum(dtype=np.int64))
