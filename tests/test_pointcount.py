import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogate.pointcount import SCAN_BOUND, count_by_x_scan, prime_array, primes_upto


def _euler_count(b2, b4, b6, q):
    """Points of y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 over F_q, one x at a time,
    with the quadratic character from Euler's criterion."""
    total = 1
    for x in range(q):
        v = (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % q
        if v == 0:
            total += 1
        elif pow(v, (q - 1) // 2, q) == 1:
            total += 2
    return total


def _square_table_count(b2, b4, b6, q):
    """The earlier kernel: a boolean table of squares and separate zero and
    square tallies of the Horner values."""
    x = np.arange(q, dtype=np.int64)
    sq = np.zeros(q, dtype=bool)
    sq[(x * x) % q] = True
    v = (4 * x + b2 % q) % q
    v = (v * x + (2 * b4) % q) % q
    v = (v * x + b6 % q) % q
    zeros = int((v == 0).sum())
    on_squares = int((sq[v] & (v != 0)).sum())
    return 1 + zeros + 2 * on_squares


def _reference_primes(n):
    """Primes <= n from a plain bytearray sieve over every integer."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if flags[p]]


def test_prime_array_matches_a_plain_sieve_at_every_bound():
    # bounds on both sides of powers of two, asked for in rising and then
    # falling order, so views of a grown sieve are read as well as new ones
    reference = _reference_primes((1 << 21) + 1)
    bounds = [-1, 0, 1, 2, 3, 4, 5, 7, 8, 9, 2000, 2047, 2048, 2049,
              10 ** 4, (1 << 20) - 1, 1 << 20, (1 << 21) - 1, 1 << 21, (1 << 21) + 1]
    for n in bounds + bounds[::-1]:
        expected = [p for p in reference if p <= n]
        primes = prime_array(n)
        assert primes.dtype == np.int64 and not primes.flags.writeable
        assert primes.tolist() == expected, n
        assert primes_upto(n) == tuple(expected)
        assert all(type(p) is int for p in primes_upto(n))


def test_matches_euler_criterion_at_every_odd_prime_to_2000():
    rng = random.Random(2024)
    for q in primes_upto(2000)[1:]:
        b2, b4, b6 = (rng.randrange(-10 ** 20, 10 ** 20) for _ in range(3))
        assert count_by_x_scan(b2, b4, b6, q) == _euler_count(b2, b4, b6, q), (b2, b4, b6, q)


def test_every_form_at_the_smallest_odd_primes():
    # every (b2, b4, b6) mod q: the 3-value count at q = 3, and every shift
    # s = b2 / 12 of the depressed cubic at q = 5, 7, 11
    for q in (3, 5, 7, 11):
        for b2 in range(q):
            for b4 in range(q):
                for b6 in range(q):
                    count = count_by_x_scan(b2, b4, b6, q)
                    # a Python int: a numpy scalar leaks into the a_q and the JSON reports
                    assert type(count) is int and count == _euler_count(b2, b4, b6, q), \
                        (b2, b4, b6, q)


def test_refuses_the_prime_2():
    with pytest.raises(ValueError, match="odd prime"):
        count_by_x_scan(1, 0, 1, 2)


def test_singular_and_degenerate_cubics():
    for q in (3, 5, 7, 101):
        # v = 4x^3 vanishes once and is a square exactly when x is
        assert count_by_x_scan(0, 0, 0, q) == _euler_count(0, 0, 0, q)
        assert count_by_x_scan(q, 2 * q, 5 * q, q) == _euler_count(0, 0, 0, q)


def test_matches_square_table_kernel_at_a_large_prime():
    q = 999_983
    rng = random.Random(7)
    cases = [(0, 0, 1), (1, 0, 0)]
    cases += [tuple(rng.randrange(-10 ** 30, 10 ** 30) for _ in range(3)) for _ in range(2)]
    for b2, b4, b6 in cases:
        assert count_by_x_scan(b2, b4, b6, q) == _square_table_count(b2, b4, b6, q), (b2, b4, b6)


def test_matches_square_table_kernel_at_block_edges():
    # a scan streams (q + 1) / 2 squares, then q values: one block below
    # 2^16 (q = 65,521 is 98,282 entries), and blocks of 2^16 above, where
    # the last squares share a block with the first values (q = 65,537) and
    # q = 131,071 is three blocks less one element
    rng = random.Random(65536)
    for q in (3, 5, 65_521, 65_537, 131_071):
        cases = [(0, 0, 1), (1, 0, 0)]
        cases += [tuple(rng.randrange(-10 ** 30, 10 ** 30) for _ in range(3)) for _ in range(3)]
        for b2, b4, b6 in cases:
            assert count_by_x_scan(b2, b4, b6, q) == _square_table_count(b2, b4, b6, q), \
                (b2, b4, b6, q)


def test_largest_horner_value_stays_in_int64():
    # b2, 2 b4 and b6 all = q - 1 mod q, so at x = q - 1 the unreduced Horner
    # value 5(q-1)^3 + (q-1)^2 + (q-1) is the largest the scan can meet
    q = 999_983
    top = q - 1
    assert (4 * top + top) * top * top + top * top + top < 2 ** 63
    for b2, b4, b6 in ((top, top // 2, top), (-1, top // 2 - 10 ** 20 * q, top + 7 * q)):
        assert (b2 % q, 2 * b4 % q, b6 % q) == (top, top, top)
        assert count_by_x_scan(b2, b4, b6, q) == _square_table_count(b2, b4, b6, q)
    # the depressed cubic 4t^3 + a t + b has its largest Horner value
    # (4 t^2 + a) t + b at a = b = t = q - 1; with b2 = 0 the shift is 0, and
    # with b2 = 12 s the form is 4t^3 + a t + b moved by x = t - s
    assert (4 * top * top + top) * top + top < 2 ** 63
    for s in (0, 1, 12345):
        b2, c4 = 12 * s % q, (top + 12 * s * s) % q
        b6 = (top + s * (c4 - s * (b2 - 4 * s))) % q
        b4 = c4 * pow(2, -1, q) % q
        assert count_by_x_scan(b2, b4, b6, q) == _square_table_count(b2, b4, b6, q)


def test_refuses_primes_above_the_scan_bound():
    assert SCAN_BOUND == 10 ** 6
    assert 5 * SCAN_BOUND ** 3 < 2 ** 63
    with pytest.raises(ValueError, match="scan bound"):
        count_by_x_scan(0, 0, 1, 1_000_003)


_LARGE_PRIMES = [q for q in primes_upto(SCAN_BOUND) if q > 1 << 16]
_COEFF = st.integers(-10 ** 30, 10 ** 30)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_LARGE_PRIMES), _COEFF, _COEFF, _COEFF, st.integers(1, SCAN_BOUND))
def test_quadratic_twist_counts_sum_to_2q_plus_2(q, b2, b4, b6, d):
    # the twist by d has cubic d^3 v(x / d), so a nonsquare d flips every
    # character and #E + #E^d = 2(q + 1); no Euler count is needed
    least_nonsquare = next(n for n in range(2, q) if pow(n, (q - 1) // 2, q) == q - 1)
    d %= q
    if d == 0 or pow(d, (q - 1) // 2, q) == 1:
        d = (d or 1) * least_nonsquare % q
    twisted = count_by_x_scan(d * b2, d * d * b4, d ** 3 * b6, q)
    assert count_by_x_scan(b2, b4, b6, q) + twisted == 2 * q + 2


_SRC = str(Path(__file__).resolve().parents[1] / "src")
_GUARD_SCRIPT = """
import gc, json, tracemalloc
import numpy as np
from isogate.pointcount import count_by_x_scan, primes_upto
tracemalloc.start()
for q in primes_upto(419)[1:]:
    count_by_x_scan(1, -2, 3, q)
gc.collect()
live = tracemalloc.take_snapshot().filter_traces(
    [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
print(json.dumps([t.size for t in live.traces]))
"""


def test_shared_blocks_stay_within_the_largest_scan():
    # verify --all scans primes up to 419 only; every numpy block the scans
    # leave alive must be sized to that (512 int64 entries), not to 2^16
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _GUARD_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    sizes = json.loads(out.stdout)
    assert sizes and max(sizes) <= 8 * 512, sizes
