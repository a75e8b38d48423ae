import random
from fractions import Fraction

import pytest

from isogate.cyclo import (CmRecord, cm_field_discriminant, cm_isogeny_over_cyclotomic,
                           cm_table, full_two_torsion_over_cyclotomic,
                           is_square_in_cyclotomic, quadratic_subfield)
from isogate.errors import NotCmCurve
from isogate.modfield import supported_moduli
from isogate.ratcurves import (CurveModel, curve_from_j, parse_rational_expr,
                               quadratic_twist)


def test_quadratic_subfield():
    assert quadratic_subfield(7) == -7
    assert quadratic_subfield(5) == 5
    assert quadratic_subfield(17) == 17
    assert quadratic_subfield(11) == -11


def test_subfield_one_mod_four_bullet():
    for p in supported_moduli():
        d = quadratic_subfield(p)
        assert d % 4 == 1
        assert abs(d) == p


def test_is_square_in_cyclotomic():
    assert is_square_in_cyclotomic(-7, 7)
    assert not is_square_in_cyclotomic(7, 7)
    assert not is_square_in_cyclotomic(-5, 17)
    assert not is_square_in_cyclotomic(-10, 17)
    assert not is_square_in_cyclotomic(-5, 37)
    assert not is_square_in_cyclotomic(-10, 37)
    assert is_square_in_cyclotomic(9, 11)
    assert is_square_in_cyclotomic(Fraction(5, 4), 5)


def test_is_square_in_cyclotomic_zero():
    with pytest.raises(ValueError):
        is_square_in_cyclotomic(0, 7)


def test_square_multiplier_invariance_bullet():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice((5, 7, 17, 37))
        d = Fraction(rng.randint(-40, 40) or 3, rng.randint(1, 12))
        k = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        assert is_square_in_cyclotomic(d * k * k, p) == is_square_in_cyclotomic(d, p)


def test_cm_table_shape():
    recs = cm_table()
    assert len(recs) == 13
    assert len({rec.j for rec in recs}) == 13
    for rec in recs:
        d = rec.field_discriminant
        assert d < 0 and d % 4 in (0, 1)
        assert parse_rational_expr(rec.j_expr) == rec.j


def test_cm_record_rejects_bad_discriminant():
    with pytest.raises(ValueError):
        CmRecord(Fraction(0), "0", -7 * 4 + 2)  # -26 = 2 mod 4
    with pytest.raises(ValueError):
        CmRecord(Fraction(0), "0", 3)


def test_cm_table_subsets_bullet():
    recs = cm_table()
    by_seven = {rec.j_expr: rec.field_discriminant
                for rec in recs if rec.field_discriminant % 7 == 0}
    assert by_seven == {"-3^3*5^3": -7, "3^3*5^3*17^3": -28}

    def only_two_three(n):
        while n % 2 == 0:
            n //= 2
        while n % 3 == 0:
            n //= 3
        return n == 1

    small = {rec.j for rec in recs if only_two_three(-rec.field_discriminant)}
    assert small == {0, 1728, 54000, -12288000, 287496, 8000}
    # the same split seen through the isogeny test at r = 7
    gained = {rec.j_expr for rec in recs if cm_isogeny_over_cyclotomic(rec.j, 7)}
    assert gained == {"-3^3*5^3", "3^3*5^3*17^3"}


def test_cm_field_discriminant():
    assert cm_field_discriminant(parse_rational_expr("-3^3*5^3")) == -7
    assert cm_field_discriminant(0) == -3
    assert cm_field_discriminant(parse_rational_expr("2^5*7^3")) is None
    assert cm_field_discriminant(1728) == -4
    assert cm_field_discriminant(Fraction(1, 7)) is None


def test_cm_isogeny_over_cyclotomic():
    assert cm_isogeny_over_cyclotomic(parse_rational_expr("-3^3*5^3"), 7)
    assert not cm_isogeny_over_cyclotomic(1728, 7)
    assert not cm_isogeny_over_cyclotomic(parse_rational_expr("2^4*3^3*5^3"), 7)
    assert not cm_isogeny_over_cyclotomic(parse_rational_expr("-3^3*5^3"), 11)
    with pytest.raises(NotCmCurve):
        cm_isogeny_over_cyclotomic(parse_rational_expr("2^5*7^3"), 7)


def test_full_two_torsion_decisions():
    yes = full_two_torsion_over_cyclotomic(parse_rational_expr("-3^3*5^3"), 7)
    assert yes.verdict == "yes"
    assert yes.cubic.shape == "one_rational_root"
    assert yes.cubic.disc_class == -7

    no = full_two_torsion_over_cyclotomic(parse_rational_expr("3^3*5^3*17^3"), 7)
    assert no.verdict == "no"
    assert no.cubic.disc_class == 7

    # irreducible with nonsquare discriminant: an S3 splitting field
    s3 = full_two_torsion_over_cyclotomic(-121, 11)
    assert s3.verdict == "no"
    assert s3.cubic.shape == "irreducible"
    assert s3.cubic.disc_class == -1


def test_full_two_torsion_three_roots():
    # y^2 = x(x-1)(x-3) already has all of its 2-torsion rational
    j = CurveModel(0, -4, 0, 3, 0).j_invariant()
    assert j == Fraction(21952, 9)
    d = full_two_torsion_over_cyclotomic(j, 11)
    assert d.verdict == "yes"
    assert d.cubic.shape == "three_rational_roots"


def test_full_two_torsion_one_root_no():
    d = full_two_torsion_over_cyclotomic(1728, 5)
    assert d.verdict == "no"
    assert d.cubic.shape == "one_rational_root"
    assert d.cubic.disc_class == -1


def test_full_two_torsion_undetermined():
    d = full_two_torsion_over_cyclotomic(1729, 13)
    # 53 = 1 (mod 13) is prime to the discriminant and the cubic has no
    # root mod 53, so its cyclic cubic field is not inside Q(zeta_13)
    assert d.verdict == "no"
    assert d.cubic.shape == "irreducible"
    assert d.cubic.disc_class == 1
    # root counts of the cubic mod the first primes q = 1 (mod 13); a cyclic
    # cubic splits completely or not at all, never with exactly one root
    assert d.split_samples == ((53, 0), (79, 0), (131, 0), (157, 3), (313, 3))
    assert all(n in (0, 3) for _, n in d.split_samples)
    # same cubic viewed at r = 5: 3 does not divide r - 1, so the verdict closes
    assert full_two_torsion_over_cyclotomic(1729, 5).verdict == "no"


@pytest.mark.parametrize("j, r", [(1792, 7), (3328, 13)])
def test_full_two_torsion_stays_undetermined_when_every_sample_splits(j, r):
    d = full_two_torsion_over_cyclotomic(j, r)
    assert d.verdict == "undetermined_cyclic_cubic"
    assert (d.cubic.shape, d.cubic.disc_class) == ("irreducible", 1)
    assert len(d.split_samples) == 5
    assert all(q % r == 1 and n == 3 for q, n in d.split_samples)


def test_full_two_torsion_no_only_from_a_sample_prime_to_the_discriminant():
    # the proof needs q prime to -4a^3 - 27b^2; every "no" from a split
    # sample names such a q, where a recount finds fewer than three roots
    from isogate.cyclo import _cubic_int_model
    decided = []
    for j in (1729, 1792, 3328):
        for r in (7, 13, 19):
            d = full_two_torsion_over_cyclotomic(j, r)
            if d.verdict != "no" or not d.split_samples:
                continue
            a, b = _cubic_int_model(j)
            disc = -4 * a ** 3 - 27 * b ** 2
            witnesses = [q for q, _ in d.split_samples if disc % q and q % r == 1
                         and sum((x ** 3 + a * x + b) % q == 0 for x in range(q)) < 3]
            assert witnesses, (j, r)
            decided.append((j, r))
    assert (1729, 13) in decided


def test_twist_invariance_by_construction_bullet():
    # the decision consumes only j, and twisting never moves j
    rng = random.Random(32)
    for j in (Fraction(21952, 9), Fraction(-121), Fraction(1728), Fraction(685)):
        base = full_two_torsion_over_cyclotomic(j, 7)
        for _ in range(3):
            d = rng.choice((-1, 2, -6, 15))
            twisted = quadratic_twist(curve_from_j(j), d)
            assert twisted.j_invariant() == j
            again = full_two_torsion_over_cyclotomic(twisted.j_invariant(), 7)
            assert again.verdict == base.verdict
