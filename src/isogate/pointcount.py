"""Point counting over small prime fields, vectorized with numpy.

`count_by_x_scan` counts the points of the completed-square form
y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, whose solution count matches the long
Weierstrass form point for point.

For q > 3 the cubic f(x) = 4x^3 + c2 x^2 + c4 x + c6 (coefficients reduced
mod q) is first depressed: with s = c2 / 12 mod q and x = t - s,

    f(t - s) = 4t^3 + (c2 - 12 s) t^2 + (12 s^2 - 2 c2 s + c4) t + f(-s)
             = 4t^3 + a t + b,   a = c4 - c2 s,   b = f(-s),

since 12 s = c2 kills the t^2 term and then 12 s^2 - 2 c2 s = -c2 s.
x -> x + s is a bijection of F_q, so t runs over F_q exactly as x does and
the count is unchanged.  At q = 3, where 12 is not invertible, the three
values of f are counted directly.

Each t contributes 1 + chi(g(t)) points, chi the quadratic character, that
is 2 where g(t) is a nonzero square, 1 where it is 0 and 0 elsewhere.  With
a boolean table of the squares of F_q, 0 included, `hits` values on the
table and `zeros` values equal to 0, the count is 1 + 2 hits - zeros (the 1
is the point at infinity).  The table is filled from the squares of
x < (q + 1) / 2, which already give every square.

The cubic is evaluated by Horner's rule, (4 t^2 + a) t + b, on int64 with
no reduction between steps, and each value is reduced once, as
v - (v // q) * q (numpy's floor division by a scalar is several times
faster than its remainder).  With 0 <= t, a, b <= q - 1 every Horner value
is at most 4(q-1)^3 + (q-1)^2 + (q-1) < 5 q^3, which is under 2^63 for
q <= SCAN_BOUND = 10^6, so larger primes are refused; the squares x^2 are
below q^2.

One scan is one stream: the (q + 1) / 2 squares x^2 first, then the q
values g(t), reduced one block at a time.  A prime below 2^16 is one block,
so it pays one reduction and 15 numpy calls per scan; a larger prime is
walked in blocks of 2^16.  The block that ends the squares fills the rest
of the table before its values are looked up, so every lookup sees the
whole table.  The runs 0, 1, 2, ... of x and t are views of one shared
read-only `arange`, sized to the longest run asked for so far (a power of
two, at most 2^16) and grown on demand, so a process that scans only small
primes never holds a large block; a run that starts past 0 is written into
the scan's quotient buffer, which the reduction overwrites only after the
cubic is evaluated.
"""

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np

SCAN_BOUND = 10 ** 6  # 5 q^3 < 2^63: the unreduced Horner values fit in int64
_BLOCK = 1 << 16
_shared_x = None
_sieve_bound, _sieve_primes = 0, None


def prime_array(n: int) -> np.ndarray:
    """The primes <= n, as a read-only int64 view of the one shared sieve.

    The sieve holds the primes below a power of two.  It is rebuilt, up to
    the least power of two above n, only when n is past it, so a process
    that asks only for small bounds never holds a large table.  Only odd
    numbers are sieved.
    """
    global _sieve_bound, _sieve_primes
    if n >= _sieve_bound:
        bound = 1 << max(n, 1).bit_length()
        odd = np.ones(bound // 2, dtype=bool)  # odd[i]: whether 2i + 1 is prime
        for i in range(1, math.isqrt(bound) // 2 + 1):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2::p] = False
        # odd[0] stands for 1, which is not prime: its slot is kept for 2
        primes = np.flatnonzero(odd)
        primes *= 2
        primes += 1
        primes[0] = 2
        primes.flags.writeable = False
        _sieve_bound, _sieve_primes = bound, primes
    # bisect, not np.searchsorted: the first searchsorted call maps about
    # 64 KB of numpy code, which verify --all would pay in peak RSS
    return _sieve_primes[:bisect_right(_sieve_primes, n)]


@lru_cache(maxsize=32)
def primes_upto(n: int) -> tuple[int, ...]:
    """The primes <= n as Python ints: the tuple view of `prime_array`."""
    return tuple(prime_array(n).tolist())


def _x_run(start: int, n: int, out: np.ndarray) -> np.ndarray:
    """start, start + 1, ..., start + n - 1 for n <= _BLOCK: a view of the
    shared block when start is 0, else that view plus start, written into
    `out`.  The shared block is rebuilt, a power of two long, whenever a run
    is longer than it."""
    global _shared_x
    if _shared_x is None or len(_shared_x) < n:
        _shared_x = np.arange(min(_BLOCK, 1 << (n - 1).bit_length()), dtype=np.int64)
        _shared_x.flags.writeable = False
    x = _shared_x[:n]
    return np.add(x, start, out=out[:n]) if start else x


def _reduce(v: np.ndarray, q: int, tmp: np.ndarray) -> np.ndarray:
    """v mod q in place, for 0 <= v < 2^63, as v - (v // q) * q."""
    quot = np.floor_divide(v, q, out=tmp[:len(v)])
    quot *= q
    v -= quot
    return v


def count_by_x_scan(b2: int, b4: int, b6: int, q: int) -> int:
    """Projective point count of y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 over F_q,
    for an odd prime q <= SCAN_BOUND.

    Refuses q = 2, where this form does not describe the curve, and
    q > SCAN_BOUND, where the unreduced Horner values could overflow int64.
    """
    if q > SCAN_BOUND:
        raise ValueError(f"prime {q} above the {SCAN_BOUND} scan bound")
    if q < 3:
        raise ValueError(f"count_by_x_scan needs an odd prime, got {q}: "
                         "y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 does not describe the curve at 2")
    if q == 3:
        # 1 + chi(v) for v = 0, 1, 2: 1 is the only nonzero square mod 3
        return 1 + sum((1, 2, 0)[(4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % 3]
                       for x in range(3))
    c2, c4, c6 = b2 % q, (2 * b4) % q, b6 % q
    s = c2 * pow(12, -1, q) % q
    a = (c4 - c2 * s) % q
    b = (c6 - s * (c4 - s * (c2 - 4 * s))) % q
    half = (q + 1) // 2
    size = half + q if q < _BLOCK else _BLOCK
    buf, tmp = np.empty((2, size), dtype=np.int64)
    squares = np.zeros(q, dtype=bool)
    hits = zeros = 0
    for start in range(0, half + q, size):
        v = buf[:min(size, half + q - start)]
        m = min(max(half - start, 0), len(v))  # squares in this block, ahead of its values
        x = _x_run(start, m, tmp)
        np.multiply(x, x, out=v[:m])
        w = v[m:]
        t = _x_run(start + m - half, len(w), tmp[m:])
        np.multiply(t, t, out=w)
        w *= 4
        w += a
        w *= t
        w += b
        _reduce(v, q, tmp)
        squares[v[:m]] = True
        hits += np.count_nonzero(squares[w])
        zeros += len(w) - np.count_nonzero(w)
    return int(1 + 2 * hits - zeros)  # count_nonzero gives numpy ints
