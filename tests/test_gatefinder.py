import hashlib
import random

import pytest

from isogate import cli, gatefinder
from isogate.errors import CompositeModulus
from isogate.gatefinder import (GateGroupResult, _verify_gate_group,
                                find_gate_groups, plus_minus_related)
from isogate.linaction import fixed_lines
from isogate.matgroup import (IDENT, MatrixGroup, _kernel, are_conjugate,
                              gl2_order, is_applicable, is_scalar, mat_det,
                              mat_inv, mat_mul, mat_pow, minus_identity,
                              random_gl2)
from isogate.modfield import generator, supported_moduli
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


def _kernel_normalize_plus_minus(groups: list[MatrixGroup]):
    """Pick class representatives so listed pair relations hold on the nose.

    When <-I, groups[j]> is conjugate to groups[i] by m, replacing groups[j]
    with its m-conjugate makes the relation literal set equality.
    """
    groups = list(groups)
    pairs = []
    for i, gi in enumerate(groups):
        for j, gj in enumerate(groups):
            if i == j or gi.order % gj.order != 0:
                continue
            extended = MatrixGroup.close(gj.generators + (minus_identity(gj.r),), gj.r)
            witness = are_conjugate(extended, gi)
            if witness is None:
                continue
            groups[j] = gj.conjugate_by(witness)
            assert plus_minus_related(gi, groups[j])
            pairs.append((i, j))
    return groups, tuple(pairs)


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
            if not _verify_gate_group(cand):
                continue
            bucket = found.setdefault(cand.fingerprint(), [])
            if not any(are_conjugate(cand, known) for known in bucket):
                bucket.append(cand)
    groups = [g for bucket in found.values() for g in bucket]
    groups.sort(key=lambda g: (-g.order, g.elements))
    groups, pairs = _kernel_normalize_plus_minus(groups)
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


def test_search_conjugators_match_kernel_witnesses(monkeypatch):
    """Every conjugacy test of the search gets are_conjugate's GL2 witness from N(C_s)."""
    conjugator_in = gatefinder._conjugator_in
    calls = []

    def checked(normalizer, a_group, b_group):
        got = conjugator_in(normalizer, a_group, b_group)
        assert got == are_conjugate(a_group, b_group)
        calls.append(got is not None)
        return got

    monkeypatch.setattr(gatefinder, "_conjugator_in", checked)
    rng = random.Random(47)
    for r in (5, 7, 11, 13):
        for conj in (None, random_gl2(rng, r)):
            find_gate_groups(r, reference_conjugator=conj)
    # per pass, one witness for each ± pair, (G_6, G_3) at r = 7 and
    # (G_10, G_5) at r = 11; r = 5 and 13 have none
    assert len(calls) == 4 and all(calls)


def _closed_form_divisors(r):
    """The d | r-1 with d > 2 that give a gate class; 4 | d too when r = 1 (mod 4)."""
    return [d for d in range(3, r) if (r - 1) % d == 0 and (r % 4 == 3 or d % 4 == 0)]


def test_search_matches_closed_form_at_every_modulus():
    """One class G_d per admissible d, of index r(r^2-1)/d, paired with G_(d/2) as listed."""
    for r in supported_moduli():
        result = find_gate_groups(r)
        torus = [sum(mat_det(x, r) == 1 for x in g) for g in result.groups]
        assert sorted(torus) == _closed_form_divisors(r)
        assert list(result.indices) == [r * (r * r - 1) // d for d in torus]
        pairs = {(torus[i], torus[j]) for i, j in result.plus_minus_pairs}
        assert len(pairs) == len(result.plus_minus_pairs)
        assert pairs == {(d, d // 2) for d in torus if r % 4 == 3 and d % 4 == 2}
        # |S(G)| = d is a conjugacy invariant and the d above are distinct,
        # so no two listed classes are GL2-conjugate; the fingerprints,
        # which hold |S(G)|, differ as well
        prints = [g.fingerprint() for g in result.groups]
        assert len(set(prints)) == len(prints)


def test_every_extender_gives_the_constructed_class_or_a_reducible_group():
    """The construction's lemma, for every d | r-1 with d > 2 at the primes up to 37.

    An antidiagonal extender g = (0, x, y, 0) of determinant delta is moved
    onto g* = (0, 1, -delta, 0) by diag(1, x), which centralizes T_d; a
    diagonal one leaves the axes fixed.  The search lists exactly the G_d
    that pass the predicates, up to the move of each G_j with G_i = <G_j, -I>.
    """
    for r in (p for p in supported_moduli() if p <= 37):
        delta = generator(r)
        g_star = (0, 1, r - delta, 0)
        result = find_gate_groups(r)
        moved_by_pairs = {j for _, j in result.plus_minus_pairs}
        built = set()
        for d in range(3, r):
            if (r - 1) % d:
                continue
            t = pow(delta, (r - 1) // d, r)
            torus = (t, 0, 0, pow(t, -1, r))
            g_d = MatrixGroup.close([torus, g_star], r)
            if _verify_gate_group(g_d):
                built.add(g_d.elements)
            for x in range(1, r):
                y = -delta * pow(x, -1, r) % r
                moved = MatrixGroup.close([torus, (0, x, y, 0)], r).conjugate_by((1, 0, 0, x))
                assert moved == g_d
                diagonal = MatrixGroup.close([torus, (x, 0, 0, delta * pow(x, -1, r) % r)], r)
                assert set(fixed_lines(diagonal)) >= {(1, 0), (0, 1)}
        assert len(built) == len(result.groups)
        assert {g.elements for j, g in enumerate(result.groups) if j not in moved_by_pairs} <= built


# sha256 of the `search gate-groups --r R --json` file at every supported prime
_SEARCH_JSON_SHA256 = {
    3: "9283571c9aa96c5fb2a35359f3d3a6e2cb940772810202098b85b435119352df",
    5: "5bdf699cb164311186e0fbc29fc5b8e897b55c19150ae85b9db4a6a9c875b775",
    7: "0ab4fc2d4874c35fc3e5e5e7ff2f45d99c64523b469b4671b44aecab7ca4dd85",
    11: "34692d23f22bc4e0b0ffbfcc3925d9d1eea485e4a93fe765e9bf9a2ab8646f02",
    13: "5a497b0a384e917d00463e0f8308eda8c51cdb65853bc988d6c4e5b614fe1a17",
    17: "ad0dae17fc6c9b4cd4d5fcfdf48367b53293cd821d23441c233ded7d713b209a",
    19: "fde6aa387da4a14c180e8ef6a1996fe2b208f0fdfae59501894a2e65938b6e2c",
    23: "81df5137eb0cba6ca20005d1c9ce93bd870f42bf96193ee70edab14450fdf39a",
    29: "bcdfbbb92a6c546e3f818773ee3e8742a2d86eea1264ce608eb310ab4e4402d5",
    31: "ba16c568ce5d3d8cf7e78bbee08e3047a5c6102cb4e35b4a730c2c5ea0f7f5b9",
    37: "2d8906a0d6bad3600432f949cb1b834bc443c9f63e8f797c94353a2adb7689ca",
    41: "77453d21a62df270e40aba313eecba0029a57df5d20d34e5e27a1104a6c597c9",
    43: "5487cdcc9ec4bc853f32deaaf0ca9d334d56dba29a4dd25b3babc10b0ecfd0f6",
    47: "13fea0c39bc4d4c5be79ea99e1a89005179325f3f0a224ec397ea385c911c5cc",
    53: "caa5ba52844816af566a7b4a6ac992cb5a3832fb758e7336f5a8c70564eedf88",
    59: "6e45175ba62d76cb1194af3136c83c69b129d02127c53b733d84acbd7f8bf8d4",
    61: "a8bad08c1f95bf80ba29e5928ecf8c388d22d7e7e9638d149826788ee8691017",
    67: "d839f6a196bdb2dd3fdc49677e0acdbc1dffeb4000add08be1c0b62e20bec718",
    71: "2ad43d7797dd0085b756fdeaa0fb20567fe99f8e5ea54973040b84851f4dc962",
    73: "9be62d6d2bba096b775a129c5166a172d5b6c02cc4a93cb93f7e8620da7dd339",
    79: "904622f1c5444dedae99640677024c367bb6f7d8cb596a16f8ec79eb74daf19f",
    83: "8b4aa77d8dc960ad3003e963e251937c4121ed87ae8271b3d93d05da5e4633d0",
    89: "393eb433ed30f889e2c4aa6254d83d065a51684051fe3adb46a6e84b59b15715",
    97: "e63b4b61c748975be29099db46cd51cc750bb02ba4e3585eabef029fe11c4e0f",
}


def test_search_json_is_frozen_at_every_modulus(tmp_path):
    assert sorted(_SEARCH_JSON_SHA256) == list(supported_moduli())
    for r, want in _SEARCH_JSON_SHA256.items():
        out = tmp_path / f"gate{r}.json"
        assert cli.main(["search", "gate-groups", "--r", str(r), "--json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, r


def _lattice_gate_orbits(r):
    """Gate groups inside N(C_s), in plain tuples, as their N(C_s)-conjugacy orbits.

    Writing diag(delta^x, delta^y) as (x, y), the subgroups A of the split
    Cartan C_s are the lattices spanned by (a, b) and (0, c) mod n = r-1,
    with a, c | n, 0 <= b < c and c | (n/a)b.  A subgroup G of N(C_s) not
    inside C_s is A u wA with A = G n C_s and w antidiagonal: swapping the
    axes preserves A, and w^2, the scalar uv for w = (0, u, v, 0), lies in
    A.  Every such G is tested against the defining predicates directly.
    Each survivor has S(G) = T_d with d > 2, so any GL2-conjugator between
    two survivors lies in N(T_d) = N(C_s), and the orbits are the classes.
    """
    n = r - 1
    delta = generator(r)
    power = [pow(delta, e, r) for e in range(n)]
    lines = [(1, x) for x in range(r)] + [(0, 1)]

    def det(m):
        return (m[0] * m[3] - m[1] * m[2]) % r

    def fixes_a_line(elements):
        return any(all((v[0] * (m[2] * v[0] + m[3] * v[1])
                        - v[1] * (m[0] * v[0] + m[1] * v[1])) % r == 0
                       for m in elements) for v in lines)

    antidiagonal = [(0, u, v, 0) for u in range(1, r) for v in range(1, r)]
    survivors = []
    for a in (a for a in range(1, n + 1) if n % a == 0):
        for c in (c for c in range(1, n + 1) if n % c == 0):
            for b in (b for b in range(c) if (n // a) * b % c == 0):
                exps = {((i * a) % n, (i * b + j * c) % n)
                        for i in range(n // a) for j in range(n // c)}
                if any((y, x) not in exps for x, y in exps):
                    continue
                diag = {(power[x], 0, 0, power[y]) for x, y in exps}
                covered = set()
                for w in antidiagonal:
                    uv = w[1] * w[2] % r
                    if w in covered or (uv, 0, 0, uv) not in diag:
                        continue
                    coset = {mat_mul(w, x, r) for x in diag}
                    covered |= coset
                    group = diag | coset
                    sl2 = [m for m in group if det(m) == 1]
                    if (len(group) < gl2_order(r)
                            and len({det(m) for m in group}) == r - 1
                            and any((m[0] + m[3]) % r == 0 and det(m) == r - 1 for m in group)
                            and not fixes_a_line(group) and fixes_a_line(sl2)):
                        assert len(sl2) > 2 and all(m[1] == m[2] == 0 for m in sl2)
                        survivors.append(frozenset(group))
    moves = [(delta, 0, 0, 1), (1, 0, 0, delta), (0, 1, 1, 0)]
    orbits = []
    for group in survivors:
        if any(group in orbit for orbit in orbits):
            continue
        orbit, todo = {group}, [group]
        while todo:
            g = todo.pop()
            for s in moves:
                si = mat_inv(s, r)
                h = frozenset(mat_mul(mat_mul(s, x, r), si, r) for x in g)
                if h not in orbit:
                    orbit.add(h)
                    todo.append(h)
        orbits.append(orbit)
    return orbits


def test_search_matches_lattice_walk_of_split_cartan_normalizer():
    """Every subgroup of N(C_s) gives the search's classes and ± pairs at the primes 5..37."""
    for r in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        orbits = _lattice_gate_orbits(r)
        result = find_gate_groups(r)
        label = [next(i for i, orbit in enumerate(orbits) if frozenset(g.elements) in orbit)
                 for g in result.groups]
        assert sorted(label) == list(range(len(orbits)))
        neg = minus_identity(r)
        pairs = set()
        for i, orbit_i in enumerate(orbits):
            for j, orbit_j in enumerate(orbits):
                g = next(iter(orbit_j))
                if i != j and g | {mat_mul(neg, x, r) for x in g} in orbit_i:
                    pairs.add((label.index(i), label.index(j)))
        assert pairs == set(result.plus_minus_pairs)


def test_range_guard():
    for r in (15, 101):
        with pytest.raises(CompositeModulus):
            find_gate_groups(r)


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
