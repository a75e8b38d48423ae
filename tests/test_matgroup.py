import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogate.errors import (CompositeModulus, ModulusMismatch,
                            NonInvertibleMatrix, RangeExceeded)
from isogate.matgroup import (IDENT, MatrixGroup, all_gl2, are_conjugate,
                              format_matrix, gl2_order, is_applicable,
                              is_scalar, mat_det, mat_inv, mat_mul, mat_pow,
                              mat_trace, minus_identity,
                              random_gl2, sl2_order, _generating_subset, _kernel,
                              _trace_det_fingerprint)
from isogate.stdgroups import (borel, nonsplit_cartan,
                               nonsplit_cartan_normalizer, split_cartan,
                               split_cartan_normalizer)


def test_mat_ops():
    m = (2, 1, 3, 4)
    assert mat_mul(IDENT, m, 5) == m
    assert mat_mul(m, IDENT, 5) == m
    assert mat_trace((0, 1, 6, 0), 7) == 0
    assert mat_det((2, 0, 0, 3), 13) == 6
    assert mat_det((1, 2, 3, 6), 7) == 0


def test_mat_inv():
    for m in ((2, 1, 1, 1), (1, 1, 0, 1), (0, 1, 4, 0)):
        assert mat_mul(m, mat_inv(m, 5), 5) == IDENT
    with pytest.raises(NonInvertibleMatrix):
        mat_inv((1, 2, 2, 4), 5)


def test_mat_pow():
    m = (1, 1, 0, 1)
    assert mat_pow(m, 0, 7) == IDENT
    assert mat_pow(m, 7, 7) == IDENT
    assert mat_pow(m, 3, 7) == (1, 3, 0, 1)
    assert mat_pow(m, -1, 7) == mat_inv(m, 7)


def test_parse_format():
    # the CLI prints matrices in this form
    assert format_matrix((2, 1, 3, 4), 5) == "[[2,1],[3,4]] mod 5"


def test_scalars():
    assert is_scalar((3, 0, 0, 3))
    assert not is_scalar((3, 0, 0, 4))
    assert not is_scalar((3, 1, 0, 3))
    assert minus_identity(7) == (6, 0, 0, 6)


def test_orders():
    assert gl2_order(5) == 480
    assert gl2_order(13) == 26208
    assert sl2_order(5) == 120
    assert len(all_gl2(5)) == 480


def test_close_small():
    assert MatrixGroup.close([IDENT], 7).order == 1
    for r in (5, 13, 17):
        assert MatrixGroup.close([], r).elements == (IDENT,)
    k = _kernel(5)
    assert k.decode(k.members(k.closure([], k.mask([k.ident])))) == [IDENT]
    assert MatrixGroup.close([(0, 1, 4, 0)], 5).order == 4
    with pytest.raises(NonInvertibleMatrix):
        MatrixGroup.close([(1, 2, 2, 4)], 5)
    with pytest.raises(CompositeModulus):
        MatrixGroup.close([IDENT], 9)


def test_close_two_generator_examples():
    # both generators are upper triangular, so the closure stays inside
    # the Borel group of order r(r-1)^2 = 80; it comes out to order 20
    g = MatrixGroup.close([(1, 1, 0, 1), (2, 0, 0, 1)], 5)
    assert g.order == 20
    # a pair that does generate the full group
    assert MatrixGroup.close([(2, 0, 0, 1), (4, 1, 4, 0)], 5).order == 480
    assert MatrixGroup.full(5).order == 480


def test_lagrange_bullet():
    rng = random.Random(11)
    for r in (5, 7):
        total = gl2_order(r)
        for _ in range(25):
            gens = [random_gl2(rng, r) for _ in range(rng.randint(1, 2))]
            assert total % MatrixGroup.close(gens, r).order == 0


def test_sl2_part():
    assert MatrixGroup.full(5).sl2_part().order == 120
    assert split_cartan_normalizer(7).sl2_part().order == 12
    assert nonsplit_cartan_normalizer(7).sl2_part().order == 16
    sl2 = MatrixGroup.full(7).sl2_part()
    assert all(mat_det(m, 7) == 1 for m in sl2)


def test_sl2_part_idempotent_monotone_bullet():
    rng = random.Random(23)
    for r in (5, 7):
        for _ in range(10):
            g = MatrixGroup.close([random_gl2(rng, r), random_gl2(rng, r)], r)
            s = g.sl2_part()
            assert s.sl2_part() == s
    chains = [(split_cartan(7), borel(7)),
              (nonsplit_cartan(7), nonsplit_cartan_normalizer(7)),
              (split_cartan(5), split_cartan_normalizer(5))]
    for h, g in chains:
        assert set(h.elements) <= set(g.elements)
        assert set(h.sl2_part().elements) <= set(g.sl2_part().elements)


def test_are_conjugate_examples():
    cs = split_cartan(5)
    transposed = MatrixGroup(5, [(a, c, b, d) for a, b, c, d in cs.elements])
    assert are_conjugate(cs, transposed) is not None
    assert are_conjugate(split_cartan(7), nonsplit_cartan(7)) is None
    rng = random.Random(7)
    for _ in range(5):
        m = random_gl2(rng, 7)
        g = nonsplit_cartan_normalizer(7)
        w = are_conjugate(g, g.conjugate_by(m))
        assert w is not None
    with pytest.raises(ModulusMismatch):
        are_conjugate(split_cartan(5), split_cartan(7))


def test_are_conjugate_equivalence():
    g = split_cartan_normalizer(5)
    assert are_conjugate(g, g) is not None
    h = g.conjugate_by((1, 2, 0, 1))
    w = are_conjugate(g, h)
    assert g.conjugate_by(w) == h
    # symmetry: the inverse witness conjugates back
    assert h.conjugate_by(mat_inv(w, 5)) == g


def _invariants(group):
    r = group.r
    dets = sorted(mat_det(m, r) for m in group.elements)
    traces = sorted(mat_trace(m, r) for m in group.elements)
    return (group.order, tuple(dets), tuple(traces))


def _conjugate_bruteforce(g_group, h_group):
    """Full-set conjugacy scan with no invariant prefiltering."""
    r = g_group.r
    target = set(h_group.elements)
    for m in all_gl2(r):
        mi = mat_inv(m, r)
        image = {mat_mul(mat_mul(m, x, r), mi, r) for x in g_group.elements}
        if image == target:
            return m
    return None


def test_conjugacy_rejector_agreement_bullet():
    # order, determinant multiset, and trace multiset are conjugacy
    # invariants; the fast rejectors inside are_conjugate must agree with
    # an unfiltered full-set scan on 1000 random pairs
    rng = random.Random(2026)
    r = 5
    pool = [MatrixGroup.close([random_gl2(rng, r)], r) for _ in range(80)]
    pool += [MatrixGroup.close([random_gl2(rng, r), random_gl2(rng, r)], r)
             for _ in range(20)]
    pool = [g for g in pool if g.order <= 48]
    checked = 0
    while checked < 1000:
        a, b = rng.choice(pool), rng.choice(pool)
        oracle = _conjugate_bruteforce(a, b)
        fast = are_conjugate(a, b)
        assert (oracle is None) == (fast is None)
        if _invariants(a) != _invariants(b):
            assert oracle is None
        checked += 1


def test_is_applicable():
    assert is_applicable(MatrixGroup.full(7))
    assert not is_applicable(MatrixGroup.full(7).sl2_part())
    assert is_applicable(nonsplit_cartan_normalizer(7))
    assert not is_applicable(nonsplit_cartan(7))


def test_is_applicable_conjugation_invariant_bullet():
    rng = random.Random(5)
    groups = [borel(5), split_cartan(5), split_cartan_normalizer(5),
              nonsplit_cartan(5), nonsplit_cartan_normalizer(5)]
    for g in groups:
        flag = is_applicable(g)
        for _ in range(5):
            assert is_applicable(g.conjugate_by(random_gl2(rng, 5))) == flag


def test_fingerprint_conjugation_invariant():
    rng = random.Random(3)
    g = borel(7)
    for _ in range(5):
        assert g.conjugate_by(random_gl2(rng, 7)).fingerprint() == g.fingerprint()


def test_group_container_protocol():
    g = split_cartan(5)
    assert (2, 0, 0, 3) in g
    assert (1, 1, 0, 1) not in g
    assert len(g) == g.order == 16
    assert g == MatrixGroup(5, g.elements)
    assert g.determinant_set() == frozenset({1, 2, 3, 4})


def test_repeated_elements_are_stored_once():
    minus = minus_identity(5)
    g = MatrixGroup(5, [IDENT, IDENT, minus])
    plain = MatrixGroup(5, [minus, IDENT])
    assert g.elements == (IDENT, minus)
    assert g.order == len(g) == plain.order == 2
    assert g == plain and hash(g) == hash(plain)


# ---- the integer-indexed kernel against plain tuple references ----

def _reference_closure(gens, r):
    """Tuple breadth-first closure."""
    seen = {IDENT}
    frontier = [IDENT]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mat_mul(x, g, r)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _reference_generating_subset(members, r):
    target = set(members)
    gens = []
    seen = {IDENT}
    for m in sorted(target):
        if m in seen:
            continue
        gens.append(m)
        seen = _reference_closure(gens, r)
        if len(seen) == len(target):
            break
    return tuple(gens)


@st.composite
def _generator_sets(draw, max_gens=3):
    r = draw(st.sampled_from((5, 7)))
    gl = all_gl2(r)
    picks = st.integers(0, len(gl) - 1)
    gens = [gl[i] for i in draw(st.lists(picks, min_size=1, max_size=max_gens))]
    return r, gens


@settings(max_examples=60, deadline=None)
@given(_generator_sets())
def test_kernel_closure_matches_reference(case):
    r, gens = case
    reference = _reference_closure(gens, r)
    group = MatrixGroup.close(gens, r)
    assert group.elements == tuple(sorted(reference))
    assert group.generators == tuple(gens)
    k = _kernel(r)
    closed = k.closure([k.code(g) for g in gens], k.mask([k.ident]))
    assert k.decode(k.members(closed)) == sorted(reference)
    expected_gens = _reference_generating_subset(group.elements, r)
    assert _generating_subset(group.elements, r) == expected_gens


@settings(max_examples=40, deadline=None)
@given(_generator_sets())
def test_kernel_closure_extends_a_seeded_mask(case):
    # seeded with H Z, the closure under H's generators and the rest is <H, Z, rest>
    r, gens = case
    h_gens, rest = gens[:1], gens[1:]
    scalars = [(s, 0, 0, s) for s in range(1, r)]
    h = MatrixGroup.close(h_gens, r)
    k = _kernel(r)
    seed = k.mask(k.encode([mat_mul(x, z, r) for x in h.elements for z in scalars]))
    closed = k.closure([k.code(g) for g in h_gens + rest], seed)
    assert closed is seed
    assert k.decode(k.members(closed)) == list(MatrixGroup.close(gens + scalars, r).elements)


@settings(max_examples=40, deadline=None)
@given(_generator_sets(max_gens=2), st.integers(0, 2015), st.booleans())
def test_kernel_are_conjugate_matches_bruteforce(case, index, conjugated):
    r, gens = case
    gl = all_gl2(r)
    a = MatrixGroup.close(gens, r)
    if a.order > 48:
        a = MatrixGroup.close(gens[:1], r)
    other = gl[index % len(gl)]
    b = a.conjugate_by(other) if conjugated else MatrixGroup.close([other], r)
    # the first witness of the generator scan is the first full-set witness
    assert are_conjugate(a, b) == _conjugate_bruteforce(a, b)


@settings(max_examples=60, deadline=None)
@given(_generator_sets())
def test_kernel_fingerprint_matches_dict_count(case):
    r, gens = case
    group = MatrixGroup.close(gens, r)
    counts = Counter((mat_trace(m, r), mat_det(m, r)) for m in group.elements)
    expected = (group.order, tuple(sorted(counts.items())))
    assert group.fingerprint() == expected
    # the form subgroup_enum reads from kernel codes agrees too
    assert _trace_det_fingerprint(_kernel(r).trace_det[group._code_array()], r) == expected


@settings(max_examples=40, deadline=None)
@given(_generator_sets(), st.integers(0, 2015))
def test_generators_close_to_elements(case, index):
    r, gens = case
    group = MatrixGroup.close(gens, r)
    other = all_gl2(r)[index % gl2_order(r)]
    for g in (group, group.sl2_part(), group.conjugate_by(other),
              MatrixGroup(r, group.elements)):
        assert MatrixGroup.close(g.generators, r) == g


def test_generators_close_to_elements_standard_groups():
    from isogate.stdgroups import KINDS, standard_group
    moduli = {"cube_split": (7, 13)}
    for r in (5, 7, 11, 13):
        full = MatrixGroup.full(r)
        assert MatrixGroup.close(full.generators, r) == full
    for kind in KINDS:
        for r in moduli.get(kind, (5, 7, 11, 13)):
            g = standard_group(kind, r)
            assert MatrixGroup.close(g.generators, r) == g, (kind, r)


def test_kernel_tables():
    for r in (3, 5, 7, 13):
        k = _kernel(r)
        # a plain enumeration, independent of the kernel's own gl_mats
        gl = [m for m in itertools.product(range(r), repeat=4) if mat_det(m, r)]
        assert all_gl2(r) == tuple(gl) == k.gl_mats
        assert k.decode(k.gl) == list(gl)
        assert k.encode(gl).tolist() == k.gl.tolist()
        sample = gl[:: max(1, len(gl) // 200)]
        for m in sample:
            code = k.code(m)
            assert k.gl_mats[k.gl_index[k.inv[code]]] == mat_inv(m, r)
            assert k.trace_det[code] == mat_trace(m, r) * r + mat_det(m, r)
            for g in sample[:5]:
                assert k.decode([k.right_map(k.code(g))[code]]) == [mat_mul(m, g, r)]


def test_kernel_tables_and_maps_are_read_only():
    from isogate.matgroup import _kernel_map
    k = _kernel(7)
    g = k.code((3, 1, 0, 2))
    tables = [k.trace_det, k.gl, k.gl_index, k.inv, *k.gl_digits, *k.gl_inv_digits,
              _kernel_map(7, "R", g), _kernel_map(7, "C", g)]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1


def test_exhaustive_entry_points_refuse_large_moduli():
    from isogate.subgroup_enum import subgroup_classes
    for call in (lambda: all_gl2(17), lambda: MatrixGroup.full(17),
                 lambda: subgroup_classes(17, 1), lambda: _kernel(17)):
        with pytest.raises(RangeExceeded):
            call()
    # closure and invariants still work above the kernel's range
    g = MatrixGroup.close([(3, 0, 0, 1), (0, 1, 1, 0)], 17)
    assert g == split_cartan_normalizer(17)
    assert g.fingerprint()[0] == 512
    assert g.sl2_part().order == 32
    with pytest.raises(RangeExceeded):
        are_conjugate(g, g)


def test_registry_builds_one_gl2_kernel():
    # explicit groups close on tuples, and exc-family reads the gate class
    # off the gatefinder classification, so no claim needs the r^4 kernel
    from isogate import claims
    _kernel.cache_clear()
    assert all(rep.status == "pass" for rep in claims.run_all())
    assert _kernel.cache_info().currsize == 0
