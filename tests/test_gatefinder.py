import random

import pytest

from isogate.errors import RangeExceeded
from isogate.gatefinder import (find_gate_groups, plus_minus_related,
                                reducible_sl2_candidates)
from isogate.linaction import fixed_lines
from isogate.matgroup import (IDENT, MatrixGroup, are_conjugate, gl2_order,
                              is_applicable, mat_det, mat_inv, mat_mul,
                              minus_identity, random_gl2)
from isogate.stdgroups import borel, nonsplit_cartan_cubes_extended


def test_r5_single_class():
    result = find_gate_groups(5)
    assert len(result.groups) == 1
    assert result.indices == (30,)
    assert result.groups[0].order == 16
    assert are_conjugate(result.groups[0],
                         nonsplit_cartan_cubes_extended(5)) is not None


def test_r7_pair():
    result = find_gate_groups(7)
    assert sorted(result.indices) == [56, 112]
    assert result.plus_minus_pairs == ((0, 1),)
    big, small = result.groups
    assert big.order == 36 and small.order == 18
    assert plus_minus_related(big, small)
    assert minus_identity(7) in big
    assert minus_identity(7) not in small


def test_soundness_bullet():
    for r in (5, 7):
        result = find_gate_groups(r)
        for g in result.groups:
            assert g.order < gl2_order(r)
            assert is_applicable(g)
            assert fixed_lines(g) == ()
            assert fixed_lines(g.sl2_part()) != ()


def test_index_arithmetic_bullet():
    for r in (5, 7):
        result = find_gate_groups(r)
        for g, idx in zip(result.groups, result.indices):
            assert idx * g.order == (r * r - 1) * (r * r - r)


def test_conjugation_stability_bullet():
    rng = random.Random(41)
    for r in (5, 7):
        reference = find_gate_groups(r)
        m = random_gl2(rng, r)
        moved = find_gate_groups(r, reference_conjugator=m)
        assert moved.indices == reference.indices
        for a, b in zip(reference.groups, moved.groups):
            assert are_conjugate(a, b) is not None


def test_reducible_candidates():
    cands = reducible_sl2_candidates(5)
    for g in cands:
        assert all(mat_det(m, 5) == 1 for m in g.elements)
        assert fixed_lines(g) != ()
    for i, a in enumerate(cands):
        for b in cands[i + 1:]:
            assert are_conjugate(a, b) is None
    orders = {g.order for g in cands}
    assert 1 in orders and 20 in orders  # trivial group and full upper det-1
    with pytest.raises(RangeExceeded):
        reducible_sl2_candidates(17)


def test_range_guard():
    with pytest.raises(RangeExceeded):
        find_gate_groups(17)


def test_plus_minus_related_basic():
    b = borel(5)
    assert plus_minus_related(b, b)  # -I already inside
    half = MatrixGroup.close([(2, 0, 0, 1)], 5)
    doubled = MatrixGroup.close([(2, 0, 0, 1), minus_identity(5)], 5)
    assert plus_minus_related(doubled, half)
    assert not plus_minus_related(half, doubled)


def _reference_subgroups(elements, r):
    """Cyclic subgroups, then tuple closures of pairwise unions to a fixpoint."""
    cyclics = set()
    for m in elements:
        cyc = [IDENT]
        x = m
        while x != IDENT:
            cyc.append(x)
            x = mat_mul(x, m, r)
        cyclics.add(frozenset(cyc))
    subs = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        a = frontier.pop()
        for b in list(subs):
            if a <= b or b <= a:
                continue
            seen = set(a | b)
            work = list(seen)
            while work:
                x = work.pop()
                for g in a | b:
                    y = mat_mul(x, g, r)
                    if y not in seen:
                        seen.add(y)
                        work.append(y)
            if frozenset(seen) not in subs:
                subs.add(frozenset(seen))
                frontier.append(frozenset(seen))
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def _upper_det1_elements(r, conjugator=None):
    elems = [(a, b, 0, pow(a, -1, r)) for a in range(1, r) for b in range(r)]
    if conjugator is not None:
        m, mi = conjugator, mat_inv(conjugator, r)
        elems = [mat_mul(mat_mul(m, x, r), mi, r) for x in elems]
    return elems


def test_candidates_match_reference_lattice():
    """The closed-form candidates are the GL2-classes of subgroups of B, one each."""
    for r, conj in ((5, None), (7, (1, 2, 3, 4)), (11, None), (13, None)):
        classes = []
        for sub in _reference_subgroups(_upper_det1_elements(r, conj), r):
            group = MatrixGroup(r, sub)
            if not any(are_conjugate(group, known) for known in classes):
                classes.append(group)
        cands = reducible_sl2_candidates(r, conj)
        assert len(cands) == len(classes)
        for group in classes:
            assert sum(are_conjugate(group, c) is not None for c in cands) == 1
        divisors = [d for d in range(1, r) if (r - 1) % d == 0]
        assert sorted(c.order for c in cands) == sorted(divisors + [r * d for d in divisors])
