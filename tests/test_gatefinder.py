import random

import pytest

from isogate.errors import RangeExceeded
from isogate.gatefinder import (GateGroupResult, _normalize_plus_minus,
                                _verify_gate_group, find_gate_groups,
                                plus_minus_related)
from isogate.linaction import fixed_lines
from isogate.matgroup import (IDENT, MatrixGroup, _kernel, are_conjugate,
                              gl2_order, is_applicable, is_scalar, mat_det,
                              mat_inv, mat_mul, mat_pow, minus_identity,
                              random_gl2)
from isogate.modfield import generator
from isogate.stdgroups import (borel, nonsplit_cartan_cubes_extended,
                               split_cartan_normalizer)


def _reference_candidates(r, reference_conjugator=None):
    """Reducible subgroups of SL2(F_r) up to GL2-conjugacy: T_d and U x| T_d for d | r-1.

    With a reference conjugator m, each candidate is conjugated by m.
    """
    g = generator(r)
    gen_sets = []
    for d in range(1, r):
        if (r - 1) % d == 0:
            t = pow(g, (r - 1) // d, r)
            torus = (t, 0, 0, pow(t, -1, r))
            gen_sets += [(torus,), ((1, 1, 0, 1), torus)]
    if reference_conjugator is not None:
        m, mi = reference_conjugator, mat_inv(reference_conjugator, r)
        gen_sets = [[mat_mul(mat_mul(m, x, r), mi, r) for x in gens] for gens in gen_sets]
    out = [MatrixGroup(r, MatrixGroup.close(gens, r).elements) for gens in gen_sets]
    out.sort(key=lambda h: (h.order, h.elements))
    return out


def _kernel_normalizer(group):
    """The normalizer of a group in GL2, by a scan of the whole kernel."""
    k = _kernel(group.r)
    hits = k.conjugators([k.code(x) for x in group.generators], group._code_array())
    return {k.gl_mats[i] for i in hits.tolist()}


def _reference_find_gate_groups(r, reference_conjugator=None):
    """The search over every reducible candidate, each with its whole GL2 normalizer."""
    delta = generator(r)
    k = _kernel(r)
    found: dict = {}
    for h_group in _reference_candidates(r, reference_conjugator):
        h_codes = h_group._code_array()
        norm = k.gl[k.conjugators([k.code(x) for x in h_group.generators], h_codes)]
        built = k.mask(h_codes)
        for code in norm[k.trace_det[norm] % r == delta].tolist():
            g = k.gl_mats[k.gl_index[code]]
            if built[code] or mat_pow(g, r - 1, r) not in h_group:
                continue
            cand = MatrixGroup.close(h_group.generators + (g,), r)
            built[cand._code_array()] = True
            if not _verify_gate_group(cand, r):
                continue
            bucket = found.setdefault(cand.fingerprint(), [])
            if not any(are_conjugate(cand, known) for known in bucket):
                bucket.append(cand)
    groups = [g for bucket in found.values() for g in bucket]
    groups.sort(key=lambda g: (-g.order, g.elements))
    groups, pairs = _normalize_plus_minus(groups)
    indices = tuple(gl2_order(r) // g.order for g in groups)
    return GateGroupResult(r, tuple(groups), indices, pairs)


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
    cands = _reference_candidates(5)
    for g in cands:
        assert all(mat_det(m, 5) == 1 for m in g.elements)
        assert fixed_lines(g) != ()
    for i, a in enumerate(cands):
        for b in cands[i + 1:]:
            assert are_conjugate(a, b) is None
    orders = {g.order for g in cands}
    assert 1 in orders and 20 in orders  # trivial group and full upper det-1


def test_search_matches_kernel_reference():
    """Same classes, representatives, generators, indices and pairs as the full scan."""
    rng = random.Random(43)
    for r in (5, 7, 11, 13):
        for conj in (None, random_gl2(rng, r), random_gl2(rng, r)):
            got = find_gate_groups(r, reference_conjugator=conj)
            want = _reference_find_gate_groups(r, conj)
            assert [g.elements for g in got.groups] == [g.elements for g in want.groups]
            assert [g.generators for g in got.groups] == [g.generators for g in want.groups]
            assert got.indices == want.indices
            assert got.plus_minus_pairs == want.plus_minus_pairs


def test_only_large_tori_reach_the_split_cartan_normalizer():
    """T_d (d > 2) fixes the two axes and has normalizer N(C_s); the rest cannot gate."""
    for r in (5, 7, 11, 13):
        normalizer = set(split_cartan_normalizer(r).elements)
        for h_group in _reference_candidates(r):
            if h_group.order % r == 0:  # U x| T_d
                assert len(fixed_lines(h_group)) == 1
            elif h_group.order <= 2:  # T_1, T_2
                assert all(is_scalar(x) for x in h_group)
            else:
                assert len(fixed_lines(h_group)) == 2
                assert _kernel_normalizer(h_group) == normalizer


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
        cands = _reference_candidates(r, conj)
        assert len(cands) == len(classes)
        for group in classes:
            assert sum(are_conjugate(group, c) is not None for c in cands) == 1
        divisors = [d for d in range(1, r) if (r - 1) % d == 0]
        assert sorted(c.order for c in cands) == sorted(divisors + [r * d for d in divisors])
