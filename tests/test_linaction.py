import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogate.linaction import (acts_freely, fixed_lines, orbits,
                               projective_image, _line_index, _line_reps)
from isogate.matgroup import MatrixGroup, all_gl2, random_gl2
from isogate.subgroup_enum import subgroup_classes
from isogate.stdgroups import (KINDS, borel, nonsplit_cartan,
                               nonsplit_cartan_cubes_extended,
                               nonsplit_cartan_normalizer,
                               octahedral_group, split_cartan,
                               split_cartan_normalizer, standard_group)

_GROUPS = [borel(5), borel(7), split_cartan(5), split_cartan(7),
           split_cartan_normalizer(5), split_cartan_normalizer(7),
           nonsplit_cartan(5), nonsplit_cartan(13),
           nonsplit_cartan_normalizer(5), nonsplit_cartan_normalizer(13),
           nonsplit_cartan_cubes_extended(5), nonsplit_cartan_cubes_extended(11),
           octahedral_group(5), octahedral_group(13)]


# oracles on tuples: the action on a vector, and the normal form of its line

def _apply(m, v, r):
    return ((m[0] * v[0] + m[1] * v[1]) % r, (m[2] * v[0] + m[3] * v[1]) % r)


def _line_key(v, r):
    x, y = v
    if x != 0:
        return (1, y * pow(x, -1, r) % r)
    return (0, 1)


@pytest.mark.parametrize("r", (3, 5, 7))
def test_line_index_matches_the_vector_action(r):
    reps = _line_reps(r)
    for m in all_gl2(r):
        for v in reps:
            assert reps[_line_index(m, v, r)] == _line_key(_apply(m, v, r), r), (m, v)


def test_partition_bullet():
    for g in _GROUPS:
        dec = orbits(g)
        assert sum(dec.sizes) == g.r * g.r - 1
        assert dec.count == len(dec.orbits)


def test_orbit_stabilizer_bullet():
    for g in _GROUPS:
        dec = orbits(g)
        for size in dec.sizes:
            assert g.order % size == 0
        assert acts_freely(g) == all(size == g.order for size in dec.sizes)


def test_acts_freely_cases():
    assert not acts_freely(borel(5))  # unipotents fix (1, 0)
    assert acts_freely(split_cartan_normalizer(7).sl2_part())
    assert acts_freely(nonsplit_cartan_normalizer(7).sl2_part())


def test_fixed_lines_basic():
    assert set(fixed_lines(split_cartan(5))) == {(1, 0), (0, 1)}
    assert fixed_lines(borel(7)) == ((1, 0),)
    assert fixed_lines(split_cartan_normalizer(5)) == ()
    assert fixed_lines(nonsplit_cartan(7)) == ()


def test_fixed_line_orbit_bound_bullet():
    # a fixed line forces an orbit of length <= r-1; contrapositive:
    # when every orbit is longer than r-1 there can be no fixed line
    for g in _GROUPS:
        dec = orbits(g)
        if min(dec.sizes) > g.r - 1:
            assert fixed_lines(g) == ()
        if fixed_lines(g):
            assert min(dec.sizes) <= g.r - 1
    assert min(orbits(borel(5)).sizes) <= 4


def test_fixed_lines_equivariance_bullet():
    rng = random.Random(17)
    for g in (borel(5), split_cartan(7), split_cartan(13),
              split_cartan_normalizer(5).sl2_part()):
        r = g.r
        for _ in range(5):
            m = random_gl2(rng, r)
            conj = g.conjugate_by(m)
            expected = sorted(_line_key(_apply(m, v, r), r)
                              for v in fixed_lines(g))
            assert sorted(fixed_lines(conj)) == expected


@st.composite
def _group_and_conjugator(draw):
    r = draw(st.sampled_from((3, 5, 7)))
    gl = all_gl2(r)
    picks = st.integers(0, len(gl) - 1)
    gens = [gl[i] for i in draw(st.lists(picks, min_size=1, max_size=2))]
    return MatrixGroup.close(gens, r), gl[draw(picks)]


@settings(max_examples=60, deadline=None)
@given(_group_and_conjugator())
def test_group_predicates_are_conjugation_invariant(case):
    g, m = case
    conj = g.conjugate_by(m)
    assert len(fixed_lines(conj)) == len(fixed_lines(g))
    assert acts_freely(conj) == acts_freely(g)
    assert conj.sl2_part().order == g.sl2_part().order
    image, conj_image = projective_image(g), projective_image(conj)
    assert (conj_image.order, conj_image.kind) == (image.order, image.kind)


def test_cube_extended_mod5_fixed_lines():
    # the sole modulus with 2(r+1)/3 = r-1, so the determinant-1 part is
    # small enough to stabilize both axes; every orbit still has size 4
    part = nonsplit_cartan_cubes_extended(5).sl2_part()
    assert part.order == 4
    assert acts_freely(part)
    assert set(orbits(part).sizes) == {4}
    assert set(fixed_lines(part)) == {(1, 0), (0, 1)}
    for r in (11, 17, 23):
        bigger = nonsplit_cartan_cubes_extended(r).sl2_part()
        assert fixed_lines(bigger) == ()


def _perm_compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_order(p):
    n, k, acc = len(p), 1, p
    ident = tuple(range(n))
    while acc != ident:
        acc = _perm_compose(acc, p)
        k += 1
    return k


def _is_s4_presentation(perms):
    """Independent S4 check: <a, b | a^4 = b^2 = (ab)^3 = 1> of order 24."""
    if len(perms) != 24:
        return False
    ident = tuple(range(len(perms[0])))
    fours = [p for p in perms if _perm_order(p) == 4]
    twos = [p for p in perms if _perm_order(p) == 2]
    for a in fours:
        for b in twos:
            if _perm_order(_perm_compose(a, b)) != 3:
                continue
            seen = {ident}
            frontier = [ident]
            while frontier:
                x = frontier.pop()
                for g in (a, b):
                    y = _perm_compose(x, g)
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if len(seen) == 24:
                return True
    return False


def test_projective_s4_bullet():
    img = projective_image(octahedral_group(5))
    assert (img.order, img.kind) == (24, "S4")
    assert sum(1 for p in img.permutations if _perm_order(p) == 2) == 9
    assert _is_s4_presentation(img.permutations)
    img13 = projective_image(octahedral_group(13))
    assert (img13.order, img13.kind) == (24, "S4")
    assert _is_s4_presentation(img13.permutations)


def test_projective_classification_spread():
    assert projective_image(nonsplit_cartan(7)).kind == "cyclic"
    assert projective_image(nonsplit_cartan(7)).order == 8
    img = projective_image(nonsplit_cartan_normalizer(7))
    assert (img.order, img.kind) == (16, "dihedral")
    full = projective_image(MatrixGroup.full(5))
    assert (full.order, full.kind) == (120, "PGL2")
    sl2 = projective_image(MatrixGroup.full(7).sl2_part())
    assert (sl2.order, sl2.kind) == (168, "PSL2")


# ---- the rule table against the structural classifier ----

def _perm_mul(p, q):
    # apply q first, then p
    return tuple(p[i] for i in q)


def _center_trivial(perms, ident):
    return not any(p != ident and all(_perm_mul(p, q) == _perm_mul(q, p) for q in perms)
                   for p in perms)


def _is_perfect(perms):
    """Whether the permutation group equals its own commutator subgroup."""
    plist = sorted(perms)
    inv = {}
    for p in plist:
        q = [0] * len(p)
        for i, pi in enumerate(p):
            q[pi] = i
        inv[p] = tuple(q)
    comms = {_perm_mul(_perm_mul(p, q), _perm_mul(inv[p], inv[q]))
             for p in plist for q in plist}
    frontier = list(comms)
    while frontier:
        x = frontier.pop()
        for c in list(comms):
            y = _perm_mul(x, c)
            if y not in comms:
                comms.add(y)
                frontier.append(y)
    return len(comms) == len(perms)


def _is_dihedral(perms, orders, n):
    """A cyclic index-2 subgroup inverted by an involution outside it."""
    rotations = [p for p, k in orders.items() if k == n // 2]
    if not rotations:
        return False
    c = rotations[0]
    cyc = {c}
    x = _perm_mul(c, c)
    while x not in cyc:
        cyc.add(x)
        x = _perm_mul(x, c)
    if len(cyc) != n // 2:
        return False
    c_inv = [0] * len(c)
    for i, ci in enumerate(c):
        c_inv[ci] = i
    c_inv = tuple(c_inv)
    return any(k == 2 and s not in cyc and _perm_mul(_perm_mul(s, c), s) == c_inv
               for s, k in orders.items())


def _reference_kind(perms, r):
    """Kind by perfectness, centre, element-order and dihedral tests."""
    ident = tuple(range(r + 1))
    n = len(perms)
    pgl_order = r * (r * r - 1)
    if n == pgl_order:
        return "PGL2"
    if n == pgl_order // 2 and _is_perfect(perms):
        return "PSL2"
    orders = {p: _perm_order(p) for p in perms}
    if n == 60 and _center_trivial(perms, ident):
        return "A5"
    if n == 24 and _center_trivial(perms, ident):
        return "S4"
    if n == 12 and 6 not in orders.values():
        return "A4"
    if max(orders.values()) == n:
        return "cyclic"
    if n % 2 == 0 and _is_dihedral(perms, orders, n):
        return "dihedral"
    return "other"


@pytest.mark.parametrize("r", (3, 5, 7))
def test_projective_kind_matches_reference(r):
    groups = list(subgroup_classes(r, 3).classes) + [MatrixGroup.full(r)]
    for g in groups:
        img = projective_image(g)
        assert img.order == len(img.permutations)
        assert img.kind == _reference_kind(img.permutations, r), g


# ---- orbits on integer codes against the search over tuples ----

def _tuple_orbits(group):
    """The orbit search over vector tuples that orbits() replaced, kept as its oracle."""
    r = group.r
    gens = group.generators
    remaining = {(x, y) for x in range(r) for y in range(r)} - {(0, 0)}
    parts = []
    while remaining:
        seed = min(remaining)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for g in gens:
                w = _apply(g, v, r)
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        parts.append(frozenset(orbit))
        remaining -= orbit
    parts.sort(key=lambda s: (len(s), min(s)))
    return tuple(parts), tuple(len(s) for s in parts)


def _assert_same_orbits(group):
    dec = orbits(group)
    # fields, not the dataclass: a second module copy makes equality fail
    assert (dec.orbits, dec.sizes) == _tuple_orbits(group), (group.r, group.generators)


@pytest.mark.parametrize("kind", KINDS)
def test_orbits_match_the_tuple_search_on_every_kind(kind):
    for r in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if kind == "cube_split" and r % 3 != 1:
            continue
        group = standard_group(kind, r)
        _assert_same_orbits(group)
        _assert_same_orbits(group.sl2_part())


def test_orbits_match_the_tuple_search_on_random_closures():
    rng = random.Random(2025)
    for _ in range(200):
        r = rng.choice((3, 5, 7, 11))
        gens = [random_gl2(rng, r) for _ in range(rng.randint(1, 3))]
        _assert_same_orbits(MatrixGroup.close(gens, r))
