from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogate.matgroup import (IDENT, MatrixGroup, all_gl2, are_conjugate,
                              gl2_order, is_applicable, is_scalar, mat_det,
                              mat_inv, mat_mul, mat_trace, sl2_order)
from isogate.stdgroups import (borel, nonsplit_cartan_normalizer,
                               octahedral_group_mod5, octahedral_group_mod13,
                               split_cartan_normalizer)
from isogate.subgroup_enum import (_candidate_orbit_reps, _closure_capped,
                                   _dickson_bound, _normalizer_generators,
                                   class_counts, subgroup_classes)


def test_counts_r5():
    # one genuinely 3-generated class appears at level 3; level 4 adds
    # nothing, so every conjugacy class is reachable with 3 generators
    assert class_counts(5, 4) == [15, 46, 47, 47]


def test_counts_r7():
    # stabilizes one level earlier: everything is 2-generated at r = 7
    assert class_counts(7, 3) == [23, 83, 83]


def test_extra_r5_class_is_not_applicable():
    lvl2 = subgroup_classes(5, 2).classes
    lvl3 = subgroup_classes(5, 3).classes
    extra = [g for g in lvl3
             if not any(are_conjugate(g, h) for h in lvl2
                        if h.order == g.order)]
    assert len(extra) == 1
    assert not is_applicable(extra[0])


def test_classes_are_pairwise_nonconjugate():
    classes = subgroup_classes(5, 2).classes
    by_order = {}
    for g in classes:
        by_order.setdefault(g.order, []).append(g)
    for bucket in by_order.values():
        for i, a in enumerate(bucket):
            for b in bucket[i + 1:]:
                assert are_conjugate(a, b) is None


def test_inventory_flags():
    inv = subgroup_classes(5, 2)
    assert inv.count == 46
    assert inv.reaches_full_group
    assert subgroup_classes(5, 1).reaches_full_group is False
    assert all(g.order < 480 for g in inv.classes)
    with pytest.raises(ValueError):
        subgroup_classes(5, 0)


def test_every_class_closed_under_product():
    from isogate.matgroup import mat_mul
    for g in subgroup_classes(5, 1).classes[:10]:
        for a in g.elements[:4]:
            for b in g.elements[:4]:
                assert mat_mul(a, b, 5) in g


# ---- kernel layers against plain tuple references ----

def _reference_normalizer(group):
    r = group.r
    members = set(group.elements)
    out = []
    for z in all_gl2(r):
        zi = mat_inv(z, r)
        if all(mat_mul(mat_mul(z, g, r), zi, r) in members for g in group.generators):
            out.append(z)
    return out


def _reference_orbit_minima(group):
    """Orbit walk over GL2 minus the group; each orbit listed by its minimum."""
    r = group.r
    hgens = [g for g in group.generators if g != IDENT]
    # the orbits depend only on the group the conjugators generate
    norm = _reference_normalizer(group)
    conjugators = [(z, mat_inv(z, r)) for z in norm]
    remaining = set(all_gl2(r)) - set(group.elements)
    minima = []
    while remaining:
        seed = min(remaining)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            moves = [mat_inv(x, r)]
            moves += [mat_mul(x, h, r) for h in hgens]
            moves += [mat_mul(h, x, r) for h in hgens]
            moves += [mat_mul(mat_mul(z, x, r), zi, r) for z, zi in conjugators]
            for y in moves:
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        minima.append(seed)
        remaining -= orbit
    return minima


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((5, 7)), st.lists(st.integers(0, 2015), min_size=1, max_size=2))
def test_orbit_reps_match_reference_minima(r, picks):
    gl = all_gl2(r)
    group = MatrixGroup.close([gl[i % len(gl)] for i in picks], r)
    if group.order == len(gl) or group.order > 96:
        group = MatrixGroup.close([gl[picks[0] % len(gl)]], r)
    assert _candidate_orbit_reps(group) == _reference_orbit_minima(group)
    norm = MatrixGroup.close(_normalizer_generators(group), r)
    assert norm.elements == tuple(_reference_normalizer(group))


def test_counts_r11_r13():
    # ROADMAP's reference counts at the two largest kernel moduli
    assert class_counts(11, 2) == [33, 113]
    assert class_counts(13, 2) == [47, 212]


# ---- level 1 against the label-signature cyclic classes ----

def _element_label(m, r):
    return (mat_trace(m, r), mat_det(m, r), is_scalar(m))


def _cyclic_signature(g, r):
    """Conjugacy-class key for <g>: the labels of its generators."""
    powers = [IDENT]
    x = g
    while x != IDENT:
        powers.append(x)
        x = mat_mul(x, g, r)
    n = len(powers)
    return tuple(sorted(_element_label(powers[k % n], r)
                        for k in range(1, n + 1) if gcd(k, n) == 1))


def _reference_cyclic_classes(r):
    """One <m> per class, m the least generator of a conjugate, as (elements, gens)."""
    label_reps = {}
    for m in all_gl2(r):
        label_reps.setdefault(_element_label(m, r), m)
    by_signature = {}
    for m in label_reps.values():
        sig = _cyclic_signature(m, r)
        if sig not in by_signature:
            by_signature[sig] = MatrixGroup.close([m], r)
    out = sorted(by_signature.values(), key=lambda g: (g.order, g.elements))
    return [(g.elements, () if g.order == 1 else g.generators) for g in out]


@pytest.mark.parametrize("r", (5, 7))
def test_level_one_matches_cyclic_reference(r):
    classes = subgroup_classes(r, 1).classes
    assert [(g.elements, g.generators) for g in classes] == _reference_cyclic_classes(r)
    assert classes[0].generators == ()


# ---- the Dickson early exit ----

@pytest.mark.parametrize("r", (5, 7, 11, 13))
def test_dickson_bound_covers_the_maximal_subgroups(r):
    orders = [borel(r).order, split_cartan_normalizer(r).order,
              nonsplit_cartan_normalizer(r).order]
    octahedral = {5: octahedral_group_mod5, 13: octahedral_group_mod13}.get(r)
    if octahedral is not None:
        orders.append(octahedral().order)
    assert max(orders) <= _dickson_bound(r) < sl2_order(r)


@pytest.mark.parametrize("r, k", ((5, 3), (7, 3), (11, 2)))
def test_classes_past_the_bound_contain_sl2(r, k):
    bound = _dickson_bound(r)
    classes = subgroup_classes(r, k).classes
    assert all(g.sl2_part().order == sl2_order(r) for g in classes if g.order > bound)
    # the bound is attained, so no smaller cap would be sound
    assert any(g.order == bound and g.sl2_part().order < sl2_order(r) for g in classes)


def _lagrange_capped_levels(r, max_generators):
    """The extension step without the early exit: closures capped at |GL2|/2,
    each candidate a MatrixGroup deduplicated by are_conjugate."""
    levels = [([MatrixGroup.close([], r)], False)]
    while len(levels) <= max_generators:
        prev_classes, hit_full = levels[-1]
        older = levels[-2][0] if len(levels) >= 2 else []
        pool = {}
        for g in prev_classes:
            pool.setdefault(g.fingerprint(), []).append(g)
        for h_group in (g for g in prev_classes if g not in older):
            for x in _candidate_orbit_reps(h_group):
                gens = h_group.generators + (x,)
                codes = _closure_capped(gens, r, gl2_order(r) // 2)
                if codes is None:
                    hit_full = True
                    continue
                cand = MatrixGroup._from_codes(r, codes, gens)
                bucket = pool.setdefault(cand.fingerprint(), [])
                if not any(are_conjugate(cand, known) for known in bucket):
                    bucket.append(cand)
        merged = sorted((g for bucket in pool.values() for g in bucket),
                        key=lambda g: (g.order, g.elements))
        levels.append((merged, hit_full))
    return levels


@pytest.mark.parametrize("r, k", ((5, 3), (7, 2)))
def test_extension_step_matches_lagrange_capped_reference(r, k):
    reference = _lagrange_capped_levels(r, k)
    for level in range(1, k + 1):
        inv = subgroup_classes(r, level)
        classes, hit_full = reference[level]
        assert inv.reaches_full_group == hit_full
        assert [(g.order, g.elements, g.generators) for g in inv.classes] == \
            [(g.order, g.elements, g.generators) for g in classes]
