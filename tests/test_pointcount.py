import random

import numpy as np

from isogate.pointcount import count_by_x_scan, primes_upto


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


def test_matches_euler_criterion_at_every_odd_prime_to_2000():
    rng = random.Random(2024)
    for q in primes_upto(2000)[1:]:
        b2, b4, b6 = (rng.randrange(-10 ** 20, 10 ** 20) for _ in range(3))
        assert count_by_x_scan(b2, b4, b6, q) == _euler_count(b2, b4, b6, q), (b2, b4, b6, q)


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
