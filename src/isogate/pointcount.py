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
a table of the squares of F_q, 0 included, `hits` values on the table and
`zeros` values equal to 0, the count is 1 + 2 hits - zeros (the 1 is the
point at infinity).  The table is filled from the squares of
x < (q + 1) / 2, which already give every square.

The table depends on q alone, so a prime q <= SAMPLE_BOUND = 10^4 (the
bound of every default Frobenius stream) has its table built once per
process and kept bit-packed (`np.packbits`, read-only) in an `lru_cache`:
at most the 1,227 primes 5 <= q <= 10^4, 717,657 bytes in all.  A composite
q <= SAMPLE_BOUND is refused before it can become a cache key.  Above the
bound the table is built per call and nothing is kept.

One scan is then one stream of the q values g(t) = a t + 4t^3 + b, reduced
one block at a time and looked up in the table.  A prime below 2^16 is one
block; a larger prime is walked in blocks of 2^16, and its table is built
first, in blocks, through the same two buffers.  The run t = 0, 1, 2, ... is
a view of one shared read-only `arange`, and in a one-block scan so is the
run of 4t^3; each is sized to the longest run asked for so far (a power of
two, at most 2^16) and grown on demand, so a process that scans only small
primes never holds a large block.  A one-block scan thus pays 3 array
operations for its values where Horner's rule, (4t^2 + a) t + b, needs 5.
The blocks of a longer scan have no shared run of 4t^3 to read, and take
Horner's rule; past the first block, t is written into the quotient buffer,
which the reduction overwrites only after the values are summed.

The values are summed on int64 with no reduction between steps, and each
is reduced once, as v - (v // q) * q (numpy's floor division by a scalar is
several times faster than its remainder).  With 0 <= t, a, b <= q - 1 every
value is at most (q-1)^2 + 4(q-1)^3 + (q-1) < 5 q^3, which is under 2^63
for q <= SCAN_BOUND = 10^6, so larger primes are refused; the squares x^2
are below q^2.
"""

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np

SCAN_BOUND = 10 ** 6  # 5 q^3 < 2^63: the unreduced values fit in int64
# default prime bound of the Frobenius readers (the certificates, the claim
# config, the torsion-gcd shortcut and the default torsion primes), and so
# the largest prime whose table of squares is kept
SAMPLE_BOUND = 10 ** 4
_BLOCK = 1 << 16
_shared_x = _shared_cube = np.empty(0, dtype=np.int64)
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
    shared run when start is 0, else that view plus start, written into
    `out`.  The shared run is rebuilt, a power of two long, whenever a run
    is longer than it."""
    global _shared_x
    if len(_shared_x) < n:
        _shared_x = np.arange(min(_BLOCK, 1 << (n - 1).bit_length()), dtype=np.int64)
        _shared_x.flags.writeable = False
    x = _shared_x[:n]
    return np.add(x, start, out=out[:n]) if start else x


def _values(t: np.ndarray, start: int, a: int, b: int, out: np.ndarray) -> np.ndarray:
    """g(t) = a t + 4t^3 + b, unreduced, for the run t = `_x_run(start,
    len(t), ...)`, written into `out`.

    A whole scan of one block (start 0, shorter than a block) reads 4t^3
    from the shared run, rebuilt like the shared run of t: 3 array
    operations.  A block of a longer scan would have to compute its own
    4t^3, so it takes Horner's rule, (4t^2 + a) t + b, in 5; the shared run
    thus never holds more than the largest one-block scan asks for."""
    global _shared_cube
    n = len(t)
    v = out[:n]
    if start or n == _BLOCK:
        np.multiply(t, t, out=v)
        v *= 4
        v += a
        v *= t
    else:
        if len(_shared_cube) < n:
            _shared_cube = _shared_x[:1 << (n - 1).bit_length()] ** 3
            _shared_cube *= 4
            _shared_cube.flags.writeable = False
        np.multiply(t, a, out=v)
        v += _shared_cube[:n]
    v += b
    return v


def _reduce(v: np.ndarray, q: int, tmp: np.ndarray) -> np.ndarray:
    """v mod q in place, for 0 <= v < 2^63, as v - (v // q) * q."""
    quot = np.floor_divide(v, q, out=tmp[:len(v)])
    quot *= q
    v -= quot
    return v


def _square_table(q: int, buf: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The squares of F_q, 0 included, as a boolean table of length q: the
    squares x^2 of x < (q + 1) / 2, in blocks of len(buf) through buf and tmp."""
    half = (q + 1) // 2
    squares = np.zeros(q, dtype=bool)
    for start in range(0, half, len(buf)):
        n = min(len(buf), half - start)
        x = _x_run(start, n, tmp)
        squares[_reduce(np.multiply(x, x, out=buf[:n]), q, tmp)] = True
    return squares


@lru_cache(maxsize=None)
def _cached_squares(q: int) -> np.ndarray:
    """The table of squares of F_q, bit-packed and read-only, for a prime
    5 <= q <= SAMPLE_BOUND; a composite q is refused, so never kept."""
    if prime_array(q)[-1] != q:  # q >= 5: one bisect into the shared sieve
        raise ValueError(f"count_by_x_scan needs an odd prime, got {q}, which is not prime")
    table = np.packbits(_square_table(q, *np.empty((2, (q + 1) // 2), dtype=np.int64)))
    table.flags.writeable = False
    return table


def count_by_x_scan(b2: int, b4: int, b6: int, q: int) -> int:
    """Projective point count of y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 over F_q,
    for an odd prime q <= SCAN_BOUND.

    Refuses q < 3 (q = 2, where this form does not describe the curve, and
    q = 1, 0 or below, which are not primes), a composite q <= SAMPLE_BOUND,
    and q > SCAN_BOUND, where the unreduced values could overflow int64.  A
    composite q above SAMPLE_BOUND is not tested here: `modcurve.count_points`
    is the entry point that validates q.
    """
    if q > SCAN_BOUND:
        raise ValueError(f"prime {q} above the {SCAN_BOUND} scan bound")
    if q < 3:
        why = (": y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 does not describe the curve at 2"
               if q == 2 else "")
        raise ValueError(f"count_by_x_scan needs an odd prime, got {q}{why}")
    if q == 3:
        # 1 + chi(v) for v = 0, 1, 2: 1 is the only nonzero square mod 3
        return 1 + sum((1, 2, 0)[(4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % 3]
                       for x in range(3))
    size = min(q, _BLOCK)
    buf, tmp = np.empty((2, size), dtype=np.int64)
    if q <= SAMPLE_BOUND:
        squares = np.unpackbits(_cached_squares(q), count=q)
    else:
        squares = _square_table(q, buf, tmp)
    c2, c4, c6 = b2 % q, (2 * b4) % q, b6 % q
    s = c2 * pow(12, -1, q) % q
    a = (c4 - c2 * s) % q
    b = (c6 - s * (c4 - s * (c2 - 4 * s))) % q
    hits = zeros = 0
    for start in range(0, q, size):
        n = min(size, q - start)
        v = _values(_x_run(start, n, tmp), start, a, b, buf)
        _reduce(v, q, tmp)
        hits += np.count_nonzero(squares[v])
        zeros += n - np.count_nonzero(v)
    return int(1 + 2 * hits - zeros)  # count_nonzero gives numpy ints
