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
    """Projective point count of y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 over F_q."""
    x = np.arange(q, dtype=np.int64)
    sq = np.zeros(q, dtype=bool)
    sq[(x * x) % q] = True
    v = (4 * x + b2 % q) % q
    v = (v * x + (2 * b4) % q) % q
    v = (v * x + b6 % q) % q
    zeros = int((v == 0).sum())
    on_squares = int((sq[v] & (v != 0)).sum())
    return 1 + zeros + 2 * on_squares
