import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isogate import ratcurves
from isogate.errors import (InsufficientSamples, SingularCurve, Undecided,
                            ZeroParameter)
from isogate.matgroup import mat_det, mat_trace
from isogate.ratcurves import (CurveModel, _brent_rho, _cubic_shape, _divide_out,
                               _factor_positive, _trial_divide,
                               certificate_criteria,
                               curve_from_j,
                               disc_square_class_of_j,
                               family_membership, format_rational,
                               frobenius_samples, g3_family_j,
                               is_probable_prime, parse_rational_expr,
                               quadratic_twist, rational_roots_cubic,
                               root_free_witness, squarefree_part,
                               surjectivity_certificate,
                               surjectivity_certificates, two_division_cubic,
                               two_torsion_family_j)
from isogate.modcurve import image_bound, named_curve
from isogate.modfield import generates_units, is_square
from isogate.stdgroups import octahedral_group, standard_group
from isogate.subgroup_enum import subgroup_classes


def test_parse_rational_expr():
    assert parse_rational_expr("12") == 12
    assert parse_rational_expr("-2^6") == -64
    assert parse_rational_expr("2^4*17^3") == 16 * 4913
    assert parse_rational_expr("-17*373^3/2^17") == Fraction(-17 * 373 ** 3, 2 ** 17)
    assert parse_rational_expr("-7/9") == Fraction(-7, 9)
    # division folds left to right: a/b/c = a/(b*c)
    assert parse_rational_expr("100/2/5") == 10
    assert parse_rational_expr("−2^15") == -32768  # unicode minus
    # numerators and denominators up to 2^256 are taken
    assert parse_rational_expr("-2^256") == -2 ** 256
    assert parse_rational_expr("3^161/2^256") == Fraction(3 ** 161, 2 ** 256)
    assert parse_rational_expr("1^99999999*0^99999999") == 0


def test_parse_rational_expr_errors():
    for bad in ("", "-", "--5", "(2)", "2^", "*3", "3*", "2**3", "a", "5/0", "1/0^3",
                # an atom, numerator or denominator above 2^256
                "2^257", "2^99999999", "3^162", "9" * 78, "2^200*2^57", "1/2^256/2",
                "1/3^100*3^200",
                # only ASCII digits: not an Arabic-Indic three, not a superscript
                "\u0663", "2\u00b3"):
        with pytest.raises(ValueError):
            parse_rational_expr(bad)


def test_format_rational():
    assert format_rational(Fraction(-7, 9)) == "-7/9"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(5) == "5"


def test_is_probable_prime():
    assert is_probable_prime(2) and is_probable_prime(7717)
    assert not is_probable_prime(1) and not is_probable_prime(7717 * 7717)
    assert is_probable_prime(2 ** 61 - 1)


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(Fraction(-7, 9)) == -7
    assert squarefree_part(-595520890) == -10
    assert -10 * 7717 ** 2 == -595520890
    assert squarefree_part(49) == 1
    assert squarefree_part(Fraction(2, 3)) == 6


def test_curve_model():
    assert CurveModel.short(1, 0).discriminant() == -64
    assert CurveModel.short(0, 1).discriminant() == -432
    assert CurveModel.short(-1, 0).discriminant() == 64
    with pytest.raises(SingularCurve):
        CurveModel.short(0, 0)
    with pytest.raises(SingularCurve):
        CurveModel.short(-3, 2)  # (x-1)^2 (x+2)
    long_model = CurveModel(0, -1, 1, -10, -20)
    assert long_model.discriminant() == -161051  # -11^5
    assert not CurveModel.short(Fraction(1, 2), 1).is_integral()


def test_curve_from_j():
    assert curve_from_j(0).coefficients()[3:] == (0, 1)
    assert curve_from_j(1728).coefficients()[3:] == (1, 0)
    c = curve_from_j(2916)
    assert c.a4 == 3 * 2916 * -1188
    assert c.a6 == 2 * 2916 * 1188 ** 2
    assert c.j_invariant() == 2916


def _random_j(rng):
    if rng.random() < 0.3:
        return Fraction(rng.randint(-10 ** 6, 10 ** 6),
                        rng.randint(1, 10 ** 4))
    return Fraction(rng.randint(-10 ** 9, 10 ** 9))


def test_round_trip_bullet():
    rng = random.Random(200)
    sample = [Fraction(0), Fraction(1728)]
    while len(sample) < 200:
        j = _random_j(rng)
        if j != 0:
            sample.append(j)
    for j in sample:
        assert curve_from_j(j).j_invariant() == j


def test_disc_identity_bullet():
    rng = random.Random(201)
    count = 0
    while count < 200:
        j = _random_j(rng)
        if j in (0, 1728):
            continue
        curve = curve_from_j(j)
        direct = curve.discriminant()
        assert direct == -(2 ** 12) * 3 ** 6 * j * j * (1728 - j) ** 3
        # the 2-division cubic's discriminant, whose class two_division_cubic reads
        cubic_disc = -4 * curve.a4 ** 3 - 27 * curve.a6 ** 2
        assert cubic_disc == (432 * j * (1728 - j)) ** 2 * (j - 1728)
        assert disc_square_class_of_j(j) == squarefree_part(direct)
        count += 1


def test_disc_square_class_examples():
    assert disc_square_class_of_j(parse_rational_expr("-3^3*5^3")) == -7
    assert disc_square_class_of_j(parse_rational_expr("3^3*5^3*17^3")) == 7
    assert disc_square_class_of_j(parse_rational_expr("-17*373^3/2^17")) == -10
    assert disc_square_class_of_j(parse_rational_expr("-17^2*101^3/2")) == -10
    assert disc_square_class_of_j(parse_rational_expr("-7*11^3")) == -5
    assert disc_square_class_of_j(parse_rational_expr("-7*137^3*2083^3")) == -5
    with pytest.raises(ValueError):
        disc_square_class_of_j(1728)


def test_rational_roots_cubic():
    roots = rational_roots_cubic(1, 0, -1, 0)  # x^3 - x
    assert sorted(roots) == [-1, 0, 1]
    assert rational_roots_cubic(1, 0, 0, -8) == [2]
    assert rational_roots_cubic(2, -3, 0, 0) == [0, Fraction(3, 2)]
    assert rational_roots_cubic(1, 0, 1, 1) == []
    # repeated roots: found on the monotone pieces without a squarefree step
    assert rational_roots_cubic(1, 0, -3, 2) == [-2, 1]  # (x-1)^2 (x+2)
    assert rational_roots_cubic(8, -36, 54, -27) == [Fraction(3, 2)]  # (2x-3)^3
    assert family_membership(0) == (-16,)  # (t+16)^3



def _roots_in_cauchy_range(coeffs):
    """The integer-root search as it was with the Cauchy range +-(1 + max|c|), kept as the oracle."""
    bound = 1 + max(abs(c) for c in coeffs)
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
            lo_floor, lo_int = ratcurves._crit_floor(a, d, -1)
            hi_floor, hi_int = ratcurves._crit_floor(a, d, +1)
            lo_ceil = lo_floor if lo_int else lo_floor + 1
            hi_ceil = hi_floor if hi_int else hi_floor + 1
            regions = [(-bound, lo_floor, True),
                       (lo_ceil, hi_floor, False),
                       (hi_ceil, bound, True)]
    roots = set()
    for lo, hi, increasing in regions:
        root = ratcurves._monotone_integer_root(coeffs, lo, hi, increasing)
        if root is not None:
            roots.add(root)
    return sorted(roots)


def _monic_from_roots(roots):
    coeffs = [1]
    for t in roots:
        coeffs = [a - t * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _root_search_cases(rng):
    yield [1]
    for _ in range(3000):
        yield [1] + [rng.randint(-100, 100) for _ in range(rng.randint(1, 3))]
    for _ in range(3000):
        top = 10 ** rng.randint(0, 15)
        roots = [rng.randint(-top, top) for _ in range(rng.randint(1, 3))]
        yield _monic_from_roots(roots)
    for _ in range(1500):
        # one planted root times a random monic factor
        t = rng.randint(-10 ** 15, 10 ** 15)
        rest = [1] + [rng.randint(-10 ** 12, 10 ** 12) for _ in range(rng.randint(0, 2))]
        yield [a - t * b for a, b in zip(rest + [0], [0] + rest)]
    for _ in range(2000):
        yield [1] + [rng.randint(-10 ** 40, 10 ** 40) for _ in range(rng.randint(1, 3))]
    for _ in range(500):
        t = rng.randint(-10 ** rng.randint(0, 15), 10 ** 15)
        yield _monic_from_roots([t, t, t])


def test_integer_roots_match_the_cauchy_range_search():
    rng = random.Random(2507)
    count = 0
    for coeffs in _root_search_cases(rng):
        assert ratcurves._integer_roots(coeffs) == _roots_in_cauchy_range(coeffs), coeffs
        count += 1
    assert count >= 10 ** 4


def test_integer_roots_find_planted_roots():
    rng = random.Random(2508)
    for _ in range(500):
        roots = [rng.randint(-10 ** 15, 10 ** 15) for _ in range(rng.randint(1, 3))]
        assert ratcurves._integer_roots(_monic_from_roots(roots)) == sorted(set(roots))
    for t in (-10 ** 15, -1, 0, 1, 2, 10 ** 15):
        assert ratcurves._integer_roots(_monic_from_roots([t, t, t])) == [t]


def test_curve_model_stores_its_discriminant_outside_the_fields():
    rng = random.Random(2509)
    for _ in range(100):
        a = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(5)]
        try:
            curve = CurveModel(*a)
        except SingularCurve:
            continue
        b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
        assert curve.discriminant() == -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    assert [f.name for f in dataclasses.fields(CurveModel)] == ["a1", "a2", "a3", "a4", "a6"]
    one, two = CurveModel.short(1, 0), CurveModel.short(1, 0)
    assert one == two and hash(one) == hash(two)
    assert one != CurveModel.short(-1, 0)
    assert hash(one) == hash((Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0)))
    assert repr(one) == ("CurveModel(a1=Fraction(0, 1), a2=Fraction(0, 1), a3=Fraction(0, 1), "
                         "a4=Fraction(1, 1), a6=Fraction(0, 1))")
    assert dataclasses.replace(one, a4=-1).discriminant() == 64

def test_factor_positive_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(210)
    cases = [1, 2, 2 ** 40, 3 ** 12 * 11 ** 5, 999983 ** 2, 1000003 ** 2]
    cases += [rng.randrange(1, 10 ** 12) for _ in range(40)]
    # cofactors past the trial-division bound: rho splits, squares, primes
    for _ in range(15):
        p = sympy.nextprime(rng.randrange(10 ** 6, 10 ** 9))
        q = sympy.nextprime(rng.randrange(10 ** 6, 10 ** 9))
        cases += [p * q, p * p * rng.randrange(1, 1000), p]
    # primes between the trial-division table (below 2000) and 10^6, which
    # only Miller-Rabin, the square test and rho see: powers, products of
    # three and four, and those times two primes in [10^9, 2*10^9)
    mids = [2003, 4973, 7717, 11443, 14891, 25561, 999983]
    mids += [int(sympy.nextprime(rng.randrange(2000, 10 ** 6))) for _ in range(8)]
    for p in mids:
        cases += [p ** 3, p ** 5, p ** 7]
    for _ in range(8):
        three = math.prod(rng.sample(mids, 3))
        four = three * rng.choice(mids)
        bigs = [int(sympy.nextprime(rng.randrange(10 ** 9, 2 * 10 ** 9))) for _ in range(2)]
        cases += [three, four, three * math.prod(bigs), four * math.prod(bigs)]
    for n in cases:
        expected = {int(p): e for p, e in sympy.factorint(n).items()}
        assert _factor_positive(n) == expected, n


def test_divide_out_matches_a_plain_loop_and_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(27)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 1999, 2003, 1000003))
        n = rng.randrange(1, 10 ** 6) * p ** rng.randrange(12)
        e = max(k for k in range(n.bit_length() + 1) if n % p ** k == 0)
        assert _divide_out(n, p) == (n // p ** e, e), (n, p)
        assert e == sympy.multiplicity(p, n)


def test_trial_divide_matches_sympy_below_2000():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2000)
    smooth = [1, 2 ** 7, 12, 3 ** 5 * 1999 ** 2, math.prod(sympy.primerange(2, 60))]
    # cofactors that end the division early (1 or a prime below 1999^2,
    # 1999 itself among them) and that leave it running to 2000 (a large
    # prime, a product of two primes past 2000, a square)
    early = [1, 1999, 2003, 1000003, int(sympy.prevprime(1999 ** 2))]
    full = [2003 * 2011, 1000003 * 1000033, 1000000007, 2003 ** 2]
    full += [int(sympy.nextprime(rng.randrange(1999 ** 2, 10 ** 15))) for _ in range(5)]
    outcomes = set()
    for rest in early + full:
        for n in [s * rest for s in smooth + [rng.choice(smooth) * rng.randrange(1, 10 ** 6)]]:
            exponents, cofactor = _trial_divide(n)
            if cofactor < 1999 ** 2:
                # an early stop, or no factor below 2000 left and too small
                # for two above it: either way 1 or a prime
                assert cofactor == 1 or sympy.isprime(cofactor), n
            outcomes.add("one" if cofactor == 1 else "prime" if cofactor < 1999 ** 2 else "large")
            below = {int(p): e for p, e in sympy.factorint(n).items() if p < 2000}
            # a prime cofactor below 2000 is the one factor the early stop leaves
            if cofactor < 2000 and cofactor != 1:
                below.pop(cofactor)
            assert exponents == below, n
            assert cofactor == n // math.prod(p ** e for p, e in below.items()), n
    assert outcomes == {"one", "prime", "large"}
    assert _trial_divide(12 * 1000003) == ({2: 2, 3: 1}, 1000003)
    assert _trial_divide(4 * 1999) == ({2: 2}, 1999)


def _class_from_factors(n):
    return math.prod(p for p, e in _factor_positive(n).items() if e % 2)


# cofactors (no prime factor below 2000) of each shape the square class
# reads without factoring; all but the last are below 2^63.  2097143 is the
# largest prime below 2^21, the prime table's largest bound, and
# 2097143^3 < 2^63 is read with the cube root L = p exactly; p q^2 leaves
# q^2 > L^2 after the division; 3037000453 < 3037000493 < 2^31.5 <
# 3037000507 are consecutive primes, so the last three sit on both sides
# of 2^63
_SQUARE_CLASS_SHAPES = {
    "pq": 1000000007 * 1999999973,
    "pqs": 1000003 * 1000033 * 2000003,
    "pqs, all above 2000": 2003 * 2011 * 2017,
    "p^3 at 2003": 2003 ** 3,
    "p^3 below 2^21": 2097143 ** 3,
    "p^2 q": 10007 ** 2 * 1000000007,
    "p q^2, q past the cube root": 2003 * 1000003 ** 2,
    "p^2 q, q past the cube root": 2011 ** 2 * 1000000007,
    "p^4 q": 2003 ** 4 * 2011,
    "pq below 2^63": 3037000493 * 3037000453,
    "p^2 below 2^63": 3037000493 ** 2,
    "pq above 2^63": 3037000493 * 3037000507,
}


@pytest.mark.parametrize("shape", sorted(_SQUARE_CLASS_SHAPES))
def test_squarefree_part_shapes_match_factoring_and_sympy(shape, monkeypatch):
    sympy = pytest.importorskip("sympy")
    m = _SQUARE_CLASS_SHAPES[shape]
    expected = math.prod(int(p) for p, e in sympy.factorint(m).items() if e % 2)
    assert _class_from_factors(m) == expected
    walked = []
    real = ratcurves._brent_rho

    def counting(n, c, max_iters):
        walked.append(n)
        return real(n, c, max_iters)

    monkeypatch.setattr(ratcurves, "_brent_rho", counting)
    for small, sign in ((1, 1), (12, -1), (2 ** 5 * 1999 ** 3, 1)):
        ratcurves._squarefree_int.cache_clear()
        assert squarefree_part(sign * small * m) == sign * _class_from_factors(small) * expected
        assert squarefree_part(Fraction(sign * m, small)) == sign * _class_from_factors(small) * expected
    # only a cofactor of 2^63 or more is split by rho
    assert bool(walked) == (m >= 1 << 63), walked


def _random_cubic(rng):
    """Coefficients (c3, c2, c1, c0) of a cubic, often with rational roots."""
    def rat():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    kind = rng.randrange(3)
    if kind == 0:
        return [Fraction(rng.randint(-10 ** 6, 10 ** 6)) for _ in range(4)]
    roots = [rat() for _ in range(kind)]
    coeffs = [rat() for _ in range(4 - kind)]  # degree 3 - kind
    coeffs[0] = coeffs[0] or Fraction(1)
    for root in roots:
        coeffs = [a - root * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def test_rational_roots_cubic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(211)
    repeated = [[3, -4, -1, 2], [1, -3, 3, -1], [Fraction(1, 2), 0, 0, 0]]
    for coeffs in repeated + [_random_cubic(rng) for _ in range(200)]:
        coeffs = [Fraction(c) for c in coeffs]
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], x)
        expected = sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())
        assert rational_roots_cubic(*coeffs) == expected, coeffs


def test_root_free_witness():
    assert root_free_witness([1, 0, 1, 1]) is not None
    assert root_free_witness([1, 0, -1, 0]) is None


def test_two_division_cubic():
    assert two_division_cubic(1728).shape == "one_rational_root"
    big = parse_rational_expr("2^4*5*13^4*17^3/3^13")
    shape = two_division_cubic(big)
    assert shape.shape == "irreducible"
    assert shape.witness_prime is not None
    assert two_division_cubic(-64).shape != "irreducible"
    assert two_division_cubic(2916).shape != "irreducible"
    assert two_division_cubic(-121).shape == "irreducible"
    assert two_division_cubic(parse_rational_expr("-17*373^3/2^17")).shape == "irreducible"


def _prime_near(rng, lo):
    n = rng.randrange(lo, 2 * lo) | 1
    while not is_probable_prime(n):
        n += 2
    return n


def _two_large_prime_js(seed, count):
    """Seeded j (ints and fractions, both signs) whose j - 1728 has two
    prime factors in [10^9, 2*10^9)."""
    rng = random.Random(seed)
    js = []
    for i in range(count):
        s = rng.choice((-1, 1)) * rng.choice((1, 2, 3, 6, 7, 10, 12))
        top = s * _prime_near(rng, 10 ** 9) * _prime_near(rng, 10 ** 9)
        den = rng.choice((2, 9, 5 ** 3, 2 ** 17)) if i % 2 else 1
        js.append(1728 + Fraction(top, den))
    return js


def test_two_division_cubic_matches_factored_discriminant():
    # the generic path factors the full discriminant and is the oracle
    rng = random.Random(17)
    js = _two_large_prime_js(91, 6)
    js += [Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4))
           for _ in range(30)]
    js += [0, 1728, 1, -1, 2916, -64, parse_rational_expr("-17*373^3/2^17")]
    for j in js:
        curve = curve_from_j(j)
        assert two_division_cubic(j) == _cubic_shape(1, 0, curve.a4, curve.a6), j
        if j not in (0, 1728):
            assert two_division_cubic(j).disc_class == disc_square_class_of_j(j)


def test_cubic_shape_rejects_a_wrong_disc_class():
    for j in _two_large_prime_js(23, 2) + [Fraction(-7, 9), 2916]:
        curve = curve_from_j(j)
        good = disc_square_class_of_j(j)
        assert _cubic_shape(1, 0, curve.a4, curve.a6, good).disc_class == good
        wrong_classes = [-good] + [good * p if good % p else good // p for p in (2, 5)]
        for wrong in wrong_classes:
            with pytest.raises(AssertionError):
                _cubic_shape(1, 0, curve.a4, curve.a6, wrong)


def test_two_division_cubic_factors_only_j_minus_1728(monkeypatch):
    # j - 1728 has two prime factors near 10^9, and its cofactor is below
    # 2^63, so the class comes from the cube-root trial division: Brent's
    # rho never runs, and the class is computed once per j
    from isogate import ratcurves
    monkeypatch.setattr(ratcurves, "_brent_rho",
                        lambda *args: pytest.fail("walked Brent's rho"))
    for j in _two_large_prime_js(61, 4):
        ratcurves._squarefree_int.cache_clear()
        # an integral j goes in as an int, as the benchmark passes it; the
        # Fraction that two_division_cubic passes on must hit the same cache
        disc_square_class_of_j(j.numerator if j.denominator == 1 else j)
        two_division_cubic(j)
        assert ratcurves._squarefree_int.cache_info().misses == 1, j


def _brent_rho_with_abs(n, c, max_iters):
    """The earlier loop of `_brent_rho`, which multiplied |x - y| into the
    batch product; kept as the reference for the signed product."""
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
                q_acc = q_acc * abs(x - y) % n
            g = math.gcd(q_acc, n)
            k += steps
            iters += steps
        cycle *= 2
        if iters >= max_iters:
            return None
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            iters += 1
            if iters >= max_iters + batch:
                return None
    return g if 1 < g < n else None


def test_brent_rho_signed_product_matches_the_abs_loop():
    # q_acc = +-(the product of |x - y|) mod n, and the sign does not change
    # gcd(q_acc, n): every batch check, and so every result, is the same,
    # including a None at a step cap the walk reaches
    rng = random.Random(1009)
    for _ in range(6):
        p, q = _prime_near(rng, 10 ** 9), _prime_near(rng, 10 ** 9)
        for c in (1, 3):
            for cap in (1024, 8192, 10 ** 6):
                assert _brent_rho(p * q, c, cap) == _brent_rho_with_abs(p * q, c, cap), (p, q, c, cap)
        assert _brent_rho(p * q, 1, 10 ** 6) in (p, q)


_SRC = str(Path(__file__).resolve().parents[1] / "src")
_REGISTRY_SCRIPT = """
import json
from isogate import claims, pointcount, ratcurves
calls = {"rho": 0, "cube_root_table": 0}

def counted(name, f):
    def wrapper(*args):
        calls[name] += 1
        return f(*args)
    return wrapper

ratcurves._brent_rho = counted("rho", ratcurves._brent_rho)
ratcurves.prime_array = counted("cube_root_table", ratcurves.prime_array)
reports = claims.run_all()
calls["passed"] = all(rep.status == "pass" for rep in reports)
calls["sieve_bound"] = pointcount._sieve_bound
print(json.dumps(calls))
"""


def test_registry_reads_square_classes_without_rho_or_the_cube_root_table():
    # every cofactor verify --all meets is 1, a prime or a square; the
    # largest prime bound it asks for is the sample bound 10^4
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _REGISTRY_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    calls = json.loads(out.stdout)
    assert calls == {"rho": 0, "cube_root_table": 0, "passed": True, "sieve_bound": 1 << 14}


def test_two_torsion_family():
    assert two_torsion_family_j(-16) == 0
    assert two_torsion_family_j(-8) == -64
    assert two_torsion_family_j(16) == 2048
    with pytest.raises(ZeroParameter):
        two_torsion_family_j(0)
    assert family_membership(0) == (-16,)
    assert 16 in family_membership(2048)
    assert 2 in family_membership(2916)
    assert family_membership(5) == ()


def test_family_roots_bullet():
    rng = random.Random(202)
    params = [Fraction(n) for n in range(-20, 21) if n != 0]
    params += [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(20)]
    for t in params:
        assert t in family_membership(two_torsion_family_j(t))


def test_g3_family_j():
    assert g3_family_j(0) == 0
    assert g3_family_j(1) == Fraction(5 ** 4 * 16 ** 3 * 12 ** 3 * 379 ** 3,
                                      11 ** 5 * 71 ** 5)
    assert g3_family_j(-1) == Fraction(-(5 ** 4) * 6 ** 3 * 2 ** 3 * 19 ** 3,
                                       11 ** 5)


def test_g3_family_denominators_never_vanish():
    # both denominator factors are monic with constant terms 5 and 25, so
    # any rational zero would be an integer dividing them; none qualifies
    for t in (1, -1, 5, -5, 25, -25):
        assert t * t + 5 * t + 5 != 0
        assert t ** 4 + 5 * t ** 3 + 15 * t * t + 25 * t + 25 != 0


def test_quadratic_twist():
    base = curve_from_j(parse_rational_expr("2^5*7^3"))
    twisted = quadratic_twist(base, 3)
    assert twisted.j_invariant() == base.j_invariant()
    assert twisted.discriminant() == base.discriminant() * 3 ** 6
    with pytest.raises(ValueError):
        quadratic_twist(CurveModel(1, 0, 0, 1, 1), 2)


def test_twist_invariance_bullet():
    rng = random.Random(203)
    for _ in range(20):
        j = _random_j(rng)
        if j in (0, 1728):
            continue
        base = curve_from_j(j)
        d = Fraction(rng.choice([-1, 2, 3, 5, -6, 7, 10]))
        twisted = quadratic_twist(base, d)
        assert twisted.discriminant() == base.discriminant() * d ** 6
        assert (squarefree_part(twisted.discriminant())
                == squarefree_part(base.discriminant()))
    # the 2-division shape and the certification verdict survive twisting
    base = curve_from_j(parse_rational_expr("2^5*7^3"))
    twisted = quadratic_twist(base, 5)
    from isogate.ratcurves import _cubic_shape
    shape_base = _cubic_shape(1, 0, base.a4, base.a6)
    shape_tw = _cubic_shape(1, 0, twisted.a4, twisted.a6)
    assert shape_base.shape == shape_tw.shape
    assert shape_base.disc_class == shape_tw.disc_class
    for r in (7, 11):
        v_base = surjectivity_certificate(base, r, sample_bound=2000)
        v_tw = surjectivity_certificate(twisted, r, sample_bound=2000)
        assert v_base.status == v_tw.status


def test_frobenius_samples():
    samples = frobenius_samples(CurveModel.short(1, 0), 50)
    by_q = dict(samples)
    assert 2 not in by_q
    assert by_q[5] == 5 + 1 - 4
    assert by_q[7] == 0  # supersingular at q = 3 mod 4 for j = 1728
    for q, a_q in samples:
        assert a_q * a_q <= 4 * q
    with pytest.raises(ValueError):
        frobenius_samples(CurveModel.short(Fraction(1, 4), 1), 50)


def _brute_frobenius(model, bound, modulus):
    """(q, a_q) at the odd primes q <= bound, q = 1 (mod modulus), q not
    dividing the discriminant, with a_q = -sum_x (f(x)/q) for
    f = 4x^3 + b2 x^2 + 2 b4 x + b6, by Euler's criterion."""
    b2, b4, b6 = int(model.b2), int(model.b4), int(model.b6)
    disc = int(model.discriminant())
    out = []
    for q in range(3, bound + 1, 2):
        if any(q % p == 0 for p in range(3, math.isqrt(q) + 1, 2)):
            continue
        if (q - 1) % modulus or disc % q == 0:
            continue
        a_q = 0
        for x in range(q):
            v = pow(((4 * x + b2) * x + 2 * b4) * x + b6, (q - 1) // 2, q)
            a_q -= -1 if v == q - 1 else v
        out.append((q, a_q))
    return out


@pytest.mark.parametrize("modulus", (1, 5, 7, 13, 97))
def test_frobenius_stream_matches_brute_force(modulus):
    models = [named_curve(label).model for label in ("X0(11)", "X0(14)", "X0(20)")]
    models += [CurveModel.short(1, 0), curve_from_j(parse_rational_expr("2^5*7^3"))]
    for model in models:
        got = list(ratcurves.frobenius_stream(model, 1000, modulus))
        assert got == _brute_frobenius(model, 1000, modulus)
    if modulus == 97:  # the primes = 1 (mod 97) below 1000
        assert [q for q, _ in got] == [389, 971]


@pytest.mark.parametrize("modulus", (1, 5, 7, 13, 97))
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
       st.integers(-50, 50), st.integers(-50, 50))
def test_frobenius_stream_matches_brute_force_on_random_models(modulus, a1, a2, a3, a4, a6):
    try:
        model = CurveModel(a1, a2, a3, a4, a6)
    except SingularCurve:
        return
    assert list(ratcurves.frobenius_stream(model, 400, modulus)) == \
        _brute_frobenius(model, 400, modulus)


def test_surjectivity_examples():
    x011 = CurveModel(0, -1, 1, -10, -20)
    assert surjectivity_certificate(x011, 5).status == "inconclusive"
    good = curve_from_j(parse_rational_expr("2^5*7^3"))
    report = surjectivity_certificate(good, 11)
    assert report.status == "certified_surjective"
    assert report.certified
    assert all(ok for _, ok in report.criteria)
    cm = CurveModel.short(1, 0)
    assert surjectivity_certificate(cm, 7).status == "inconclusive"
    with pytest.raises(ValueError):
        surjectivity_certificate(good, 3)
    with pytest.raises(InsufficientSamples):
        surjectivity_certificate(good, 11, sample_bound=2)


def _lazy_cases():
    from isogate.claims import FAMILY_J
    from isogate.modcurve import named_curve
    curves = [curve_from_j(parse_rational_expr(j)) for j in FAMILY_J]
    return curves + [named_curve("X0(11)").model, CurveModel.short(1, 0)]


_LAZY_MODULI = (5, 7, 11, 13, 17, 19, 23, 37)


def test_lazy_certificates_match_eager():
    # one stream stopped at the decision gives the verdict of every sample
    for curve in _lazy_cases():
        samples = frobenius_samples(curve, 2000)
        lazy = surjectivity_certificates(curve, _LAZY_MODULI, sample_bound=2000)
        assert list(lazy) == list(_LAZY_MODULI)
        for r in _LAZY_MODULI:
            eager = surjectivity_certificate(curve, r, 2000, samples=samples)
            assert (lazy[r].status, lazy[r].criteria) == (eager.status, eager.criteria)
            assert lazy[r] == surjectivity_certificate(curve, r, sample_bound=2000)
            if not eager.certified:
                assert lazy[r].sample_count == eager.sample_count


def test_lazy_certificate_stops_at_first_decisive_prime():
    certified = 0
    for curve in _lazy_cases():
        samples = frobenius_samples(curve, 2000)
        for r, report in surjectivity_certificates(curve, _LAZY_MODULI, 2000).items():
            if not report.certified:
                continue
            certified += 1
            usable = [(a_q, q) for q, a_q in samples if q != r]
            n = report.sample_count
            assert all(ok for _, ok in certificate_criteria(usable[:n], r))
            assert not all(ok for _, ok in certificate_criteria(usable[:n - 1], r))
    assert certified == 151


def test_stream_stops_once_every_modulus_is_certified(monkeypatch):
    import isogate.ratcurves as ratcurves
    good = curve_from_j(parse_rational_expr("2^5*7^3"))
    samples = frobenius_samples(good, 10 ** 4)
    counted = []
    real = ratcurves.count_by_x_scan

    def counting(b2, b4, b6, q):
        counted.append(q)
        return real(b2, b4, b6, q)

    monkeypatch.setattr(ratcurves, "count_by_x_scan", counting)
    reports = surjectivity_certificates(good, (11, 13, 17, 19))
    assert all(rep.certified for rep in reports.values())
    last = max([q for q, _ in samples if q != r][rep.sample_count - 1]
               for r, rep in reports.items())
    assert counted == [q for q, _ in samples if q <= last]


def test_sample_bound_above_the_scan_bound_is_refused_before_counting(monkeypatch):
    import isogate.ratcurves as ratcurves
    from isogate.pointcount import SCAN_BOUND
    good = curve_from_j(parse_rational_expr("2^5*7^3"))
    counted = []
    monkeypatch.setattr(ratcurves, "count_by_x_scan", lambda *args: counted.append(args[3]))
    too_far = SCAN_BOUND + 1
    for refused in (lambda: ratcurves.frobenius_stream(good, too_far),
                    lambda: frobenius_samples(good, too_far),
                    lambda: surjectivity_certificate(good, 11, too_far),
                    lambda: surjectivity_certificates(good, (11, 13), too_far)):
        with pytest.raises(ValueError, match="scan bound"):
            refused()
    ratcurves.frobenius_stream(good, SCAN_BOUND)  # lazy: accepted, nothing counted
    assert counted == []


def test_certificate_with_samples_reads_them_all():
    good = curve_from_j(parse_rational_expr("2^5*7^3"))
    samples = frobenius_samples(good, 500)
    for r in (5, 11, 37, 41):
        report = surjectivity_certificate(good, r, 500, samples=samples)
        assert report.sample_count == sum(q != r for q, _ in samples)
    assert surjectivity_certificates(good, (11, 13), 500)[11].sample_count < 20


def test_certificate_input_checks():
    good = curve_from_j(parse_rational_expr("2^5*7^3"))
    with pytest.raises(InsufficientSamples):
        surjectivity_certificates(good, (11, 13), sample_bound=2)
    with pytest.raises(ValueError):
        surjectivity_certificates(good, (11, 3))
    with pytest.raises(ValueError):
        surjectivity_certificates(CurveModel.short(Fraction(1, 4), 1), (11,))
    assert surjectivity_certificates(good, ()) == {}


def _group_pairs(group):
    r = group.r
    return [(mat_trace(m, r), mat_det(m, r)) for m in group.elements]


@pytest.mark.parametrize("model, r, wrong", [
    (named_curve("X0(11)").model, 5, "nonsplit_cartan_normalizer"),
    (CurveModel.short(1, 0), 7, "split_cartan_normalizer"),
], ids=["X0(11)@5", "j=1728@7"])
def test_pinned_negatives_stay_inside_their_image_bound(model, r, wrong):
    # the surjectivity claim decides these two from image_bound alone; the
    # full scan to 10^4 is the oracle that the bounding group is right
    samples = frobenius_samples(model, 10 ** 4)
    report = surjectivity_certificate(model, r, 10 ** 4, samples=samples)
    assert report.status == "inconclusive"
    frobenius = {(a_q % r, q % r) for q, a_q in samples if q != r}
    assert frobenius <= set(_group_pairs(standard_group(image_bound(model, r), r)))
    # the check has teeth: the same pairs escape a wrong maximal subgroup
    assert not frobenius <= set(_group_pairs(standard_group(wrong, r)))


def test_certificate_soundness_bullet():
    # no proper subgroup's full (trace, det) pair set may satisfy all four
    # criteria; proper subgroups come from the 2-generator class enumeration
    for r in (5, 7, 11, 13):
        full = None
        from isogate.matgroup import all_gl2, MatrixGroup
        full = MatrixGroup(r, all_gl2(r))
        assert all(ok for _, ok in certificate_criteria(_group_pairs(full), r))
        for cls in subgroup_classes(r, 2).classes:
            flags = certificate_criteria(_group_pairs(cls), r)
            assert not all(ok for _, ok in flags), (r, cls.order)


def test_first_three_criteria_alone_are_insufficient():
    # the order-96 octahedral group is proper in GL2(F_5) yet satisfies the
    # first three criteria; the projective-order criterion is what rejects
    # it, which is why certification requires all four
    flags = dict(certificate_criteria(_group_pairs(octahedral_group(5)), 5))
    assert flags["nonsquare_frobenius_disc"]
    assert flags["square_frobenius_disc"]
    assert flags["determinants_generate"]
    assert not flags["projective_order_above_5"]


@pytest.mark.parametrize("r", (5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
def test_octahedral_preimages_fail_the_criteria(r):
    # the S4 preimage is a proper subgroup at every r >= 5, so no certificate
    # may pass on it: its elements have projective order at most 4, and its
    # determinants generate <delta^2, 2> (det c = 2, det b = 1), all of F_r^*
    # exactly when 2 is a nonsquare, that is when r = +-3 (mod 8)
    flags = dict(certificate_criteria(_group_pairs(octahedral_group(r)), r))
    assert not flags["projective_order_above_5"]
    assert flags["determinants_generate"] == (not is_square(2, r))
    assert flags["determinants_generate"] == (r % 8 not in (1, 7))


def _reference_criteria(pairs, r):
    # the four criteria restated pair by pair, with no table of Serre's bits
    squares = {x * x % r for x in range(1, r)}
    nonsquare = square = excluder = False
    dets = set()
    for trace, det in pairs:
        trace %= r
        det %= r
        if det == 0:
            continue
        dets.add(det)
        if trace == 0:
            continue
        disc = (trace * trace - 4 * det) % r
        if disc != 0:
            if disc in squares:
                square = True
            else:
                nonsquare = True
        u = trace * trace * pow(det, -1, r) % r
        if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % r != 0:
            excluder = True
    return (
        ("nonsquare_frobenius_disc", nonsquare),
        ("square_frobenius_disc", square),
        ("determinants_generate", generates_units(dets, r)),
        ("projective_order_above_5", excluder),
    )


@pytest.mark.parametrize("r", (5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
def test_criteria_match_reference_per_pair(r):
    for t in range(r):
        for d in range(1, r):
            assert certificate_criteria([(t, d)], r) == _reference_criteria([(t, d)], r), (t, d)
    # negative traces and unreduced determinants fold in as their residues
    pairs = [(-3, r + 2), (r + 1, -1), (0, 0), (2 * r - 1, 3)]
    assert certificate_criteria(pairs, r) == _reference_criteria(pairs, r)
