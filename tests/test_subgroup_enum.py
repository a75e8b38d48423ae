import hashlib
import json
import os
import subprocess
import sys
from functools import lru_cache
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogate.matgroup import (IDENT, MatrixGroup, _kernel, all_gl2,
                              are_conjugate, gl2_order, is_applicable,
                              is_scalar, mat_det, mat_inv, mat_mul, mat_trace,
                              sl2_order)
from isogate.modfield import serre_bits
from isogate.stdgroups import (borel, nonsplit_cartan_normalizer,
                               octahedral_group, split_cartan_normalizer)
from isogate import subgroup_enum
from isogate.matgroup import _kernel_map, _row_index, _row_tables
from isogate.subgroup_enum import (_BATCH_CODES, FUNNEL_STEPS,
                                   _candidate_orbit_reps, _closures_capped,
                                   _cyclic_generator_table, _det_preimage,
                                   _dickson_bound, _distinct, _level,
                                   _moves, _normalizer_moves, _serre_tables,
                                   subgroup_classes)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_counts_r5():
    # one genuinely 3-generated class appears at level 3; level 4 adds
    # nothing, so every conjugacy class is reachable with 3 generators
    assert [subgroup_classes(5, k).count for k in range(1, 5)] == [15, 46, 47, 47]


def test_counts_r7():
    # stabilizes one level earlier: everything is 2-generated at r = 7
    assert [subgroup_classes(7, k).count for k in range(1, 4)] == [23, 83, 83]


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


@lru_cache(maxsize=None)
def _reference_cyclic_generators(r):
    """Each m in GL2 -> the listed powers m^k, gcd(k, ord m) = 1, that generate <m>."""
    out = {}
    for m in all_gl2(r):
        powers = [m]
        while powers[-1] != IDENT:
            powers.append(mat_mul(powers[-1], m, r))
        n = len(powers)
        out[m] = [powers[k - 1] for k in range(1, n + 1) if gcd(k, n) == 1]
    return out


@pytest.mark.parametrize("r", (5, 7))
def test_cyclic_generator_table_matches_listed_powers(r):
    gl = all_gl2(r)
    index = {m: i for i, m in enumerate(gl)}
    table = _cyclic_generator_table(r)
    generators = _reference_cyclic_generators(r)
    assert table.tolist() == [min(index[g] for g in generators[m]) for m in gl]
    assert not table.flags.writeable


def _reference_orbit_minima(group):
    """Orbit walk over GL2 minus the group; each orbit listed by its minimum."""
    r = group.r
    generators = _reference_cyclic_generators(r)
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
            moves = list(generators[x])  # x^-1 is x^(ord x - 1)
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
    # the moves are taken modulo H Z: with H and the scalars they give N(H)
    scalars = [(s, 0, 0, s) for s in range(1, r)]
    moves = _kernel(r).decode(_normalizer_moves(group))
    norm = MatrixGroup.close(list(group.generators) + scalars + moves, r)
    assert norm.elements == tuple(_reference_normalizer(group))


def test_counts_r11_r13():
    # ROADMAP's reference counts at the two largest kernel moduli
    assert [subgroup_classes(11, k).count for k in (1, 2)] == [33, 113]
    assert [subgroup_classes(13, k).count for k in (1, 2)] == [47, 212]


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
              nonsplit_cartan_normalizer(r).order, octahedral_group(r).order]
    assert max(orders) <= _dickson_bound(r) < sl2_order(r)


@pytest.mark.parametrize("r, k", ((5, 3), (7, 3), (11, 2)))
def test_classes_past_the_bound_contain_sl2(r, k):
    bound = _dickson_bound(r)
    classes = subgroup_classes(r, k).classes
    assert all(g.sl2_part().order == sl2_order(r) for g in classes if g.order > bound)
    # the bound is attained, so no smaller cap would be sound
    assert any(g.order == bound and g.sl2_part().order < sl2_order(r) for g in classes)


def _plain_closure(gens, r):
    """Sorted codes of <gens>: one uncapped kernel closure seeded with the identity."""
    kernel = _kernel(r)
    seed = kernel.mask([kernel.ident])
    return kernel.members(kernel.closure([kernel.code(g) for g in gens], seed))


def _lagrange_capped_levels(r, max_generators):
    """The extension step without the early exits: plain kernel closures,
    any of more than |GL2|/2 elements read as the whole group, each
    candidate a MatrixGroup deduplicated by are_conjugate."""
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
                codes = _plain_closure(gens, r)
                if len(codes) > gl2_order(r) // 2:
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


# ---- SL2 from Serre's three elements ----

def _level_parents(r, level):
    """Each subgroup the extension step extends to build one level, with its candidates."""
    def classes(n):
        return subgroup_classes(r, n).classes if n else (MatrixGroup.close([], r),)
    older = classes(level - 2) if level >= 2 else ()
    for h_group in (g for g in classes(level - 1) if g not in older):
        yield h_group, _candidate_orbit_reps(h_group)


def _level_candidates(r, level):
    """Every generator tuple the extension step closes to build one level."""
    for h_group, xs in _level_parents(r, level):
        for x in xs:
            yield h_group.generators + (x,)


def _assert_matches_plain_closures(h_group, xs, r, cap):
    """Each batched result against its own kernel closure; returns the Serre exits."""
    got = _closures_capped(h_group, xs, cap)
    assert len(got) == len(xs)
    exits = 0
    for x, codes in zip(xs, got):
        gens = h_group.generators + (x,)
        plain = _plain_closure(gens, r)
        if codes is None or codes is False:
            exits += codes is False
            assert len(plain) > cap, gens
        else:
            assert len(plain) <= cap and codes.tolist() == plain.tolist(), gens
            assert codes.dtype == np.int16
    return exits


@pytest.mark.parametrize("r, k", ((5, 3), (7, 3), (11, 2)))
def test_serre_exits_pass_the_dickson_bound(r, k):
    bound = _dickson_bound(r)
    exits = sum(_assert_matches_plain_closures(h_group, xs, r, bound)
                for level in range(1, k + 1) for h_group, xs in _level_parents(r, level))
    assert exits > 0


def _closed_parent(gens, r):
    return MatrixGroup._from_codes(r, _plain_closure(gens, r), gens)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((5, 7, 11, 13)), st.lists(st.integers(0, 26207), min_size=1, max_size=3))
def test_serre_exit_implies_sl2(r, picks):
    gl = all_gl2(r)
    gens = [gl[i % len(gl)] for i in picks]
    if _closures_capped(_closed_parent(gens[:-1], r), gens[-1:], gl2_order(r))[0] is False:
        assert MatrixGroup.close(gens, r).sl2_part().order == sl2_order(r)


# rows per batch of the candidate walk at r = 13
_ROWS_13 = _BATCH_CODES // 13 ** 4


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((3, 5, 7, 11, 13)),
       st.lists(st.integers(0, 26207), min_size=1, max_size=2),
       st.lists(st.integers(0, 26207), min_size=1, max_size=6))
@example(13, [5], list(range(0, 26207, 26207 // (_ROWS_13 + 2)))[:_ROWS_13 + 2])
def test_batched_closures_match_plain_closures(r, parent, picks):
    # random parents and candidates, inside the parent or not; the example
    # at r = 13 holds more candidates than one batch
    gl = all_gl2(r)
    h_group = _closed_parent([gl[i % len(gl)] for i in parent], r)
    xs = [gl[i % len(gl)] for i in picks]
    _assert_matches_plain_closures(h_group, xs, r, _dickson_bound(r))


@pytest.mark.parametrize("r", (5, 7, 11, 13))
def test_serre_tables_miss_each_maximal_subgroup(r):
    by_key, by_code = serre_bits(r), _serre_tables(r)
    groups = [borel(r), split_cartan_normalizer(r), nonsplit_cartan_normalizer(r),
              octahedral_group(r)]
    for group in groups:
        bits = 0
        for m in group.elements:
            bits |= by_key[mat_trace(m, r) * r + mat_det(m, r)]
        assert bits != 7, group
    assert np.bitwise_or.reduce(by_code[_kernel(r).gl]) == 7
    assert not by_code.flags.writeable


def test_det_preimage_is_cached_and_read_only():
    codes, fingerprint = _det_preimage(((4, 0, 0, 1), (1, 1, 0, 1)), 5)
    assert _det_preimage(((3, 0, 0, 1),), 5) is None  # det 3 generates F_5^*
    assert _det_preimage([(0, 1, 1, 0)], 5)[0] is codes  # det 4 again
    assert not codes.flags.writeable
    assert len(codes) == 240 and fingerprint[0] == 240


# ---- frozen levels and the funnel ----

def _level_digest(inv):
    payload = repr(([(g.order, g.elements, g.generators) for g in inv.classes],
                    inv.reaches_full_group))
    return hashlib.sha256(payload.encode()).hexdigest()


# sha256 of every level, computed before the Serre and exact-repeat exits
FROZEN_LEVELS = {
    (5, 1): "f55d98a9a2a4ebb2aaed7c8cf22e66c41d03d3c662a90bc8311981ce6d9d3c3e",
    (5, 2): "13e90eb81add1631e354ca8da0e6cff4e7d74e0d34293ef6e4a462241b972a6d",
    (5, 3): "7a332f512514774728af7e50695610abd5b5de35771b60659fc2df92cb69ebbf",
    (7, 1): "7445a643897f50b08d7de404561e3f9c901da5d00192fb347f0de07b38b1b227",
    (7, 2): "3b4eb36e9738c896f62f44260440249656f452e7b8026c43cb59460122a6385a",
    (7, 3): "3b4eb36e9738c896f62f44260440249656f452e7b8026c43cb59460122a6385a",
    (11, 1): "0d21613f67c190f082d787c279961b1a4a0637ff3556e286eefe451d5b7b9af2",
    (11, 2): "d987d3eff74d2db0999b58d9f9892783ebd4b3a4707f6b5282dd7b8701aefc0b",
    (13, 1): "f1c772578c3f899138c89f6ef0c68aa86d62f553a971ca7130131675abfcf978",
    (13, 2): "2979445cd1c5767a240d59948888f187adeb4c4868c21974476974616f679501",
}


@pytest.mark.parametrize("r, level", sorted(FROZEN_LEVELS))
def test_levels_match_frozen_digests(r, level):
    assert _level_digest(subgroup_classes(r, level)) == FROZEN_LEVELS[r, level]


@pytest.mark.parametrize("r, k", ((5, 3), (7, 3), (11, 2)))
def test_funnel_accounts_for_every_candidate(r, k):
    bound = _dickson_bound(r)
    for level in range(1, k + 1):
        inv = subgroup_classes(r, level)
        funnel = inv.funnel
        assert tuple(funnel) == FUNNEL_STEPS
        assert sum(funnel.values()) == 2 * funnel["candidates"]
        before = subgroup_classes(r, level - 1).classes if level > 1 else \
            (MatrixGroup.close([], r),)
        assert funnel["new_class"] == inv.count - len(before)
        # replay the level with plain kernel closures, compared by size with B(r)
        seen = {g._code_array().tobytes() for g in before}
        tally = {"candidates": 0, "full_group": 0, "sl2": 0, "exact_repeats": 0}
        for gens in _level_candidates(r, level):
            tally["candidates"] += 1
            codes = _plain_closure(gens, r)
            if len(codes) > bound:
                dets = {1}
                while True:
                    more = dets | {d * mat_det(g, r) % r for d in dets for g in gens}
                    if more == dets:
                        break
                    dets = more
                tally["full_group" if len(dets) == r - 1 else "sl2"] += 1
            elif codes.tobytes() in seen:
                tally["exact_repeats"] += 1
            else:
                seen.add(codes.tobytes())
        new_above = sum(g.order > bound for g in inv.classes) - \
            sum(g.order > bound for g in before)
        assert tally == {"candidates": funnel["candidates"], "full_group": funnel["full_group"],
                         "sl2": funnel["sl2_by_words"] + funnel["sl2_by_cap"] + new_above,
                         "exact_repeats": funnel["exact_repeats"]}
    # a proper group over SL2(F_5) has dets in {1, 4}, so u = tr^2/det lies in
    # {0, 1, 4} on it: the words settle none of them, the cap all
    by_words = sum(subgroup_classes(r, level).funnel["sl2_by_words"] for level in range(1, k + 1))
    assert (by_words == 0) == (r == 5)


# one closure per orbit of x -> x^k (gcd(k, ord x) = 1), x -> xh and N(H)
CANDIDATES_PER_LEVEL = {
    (5, 1): 14, (5, 2): 153, (5, 3): 146,
    (7, 1): 22, (7, 2): 376, (7, 3): 344,
    (11, 1): 32, (11, 2): 614,
    (13, 1): 46, (13, 2): 1406,
}


@pytest.mark.parametrize("r, level", sorted(CANDIDATES_PER_LEVEL))
def test_candidates_per_level_are_pinned(r, level):
    assert subgroup_classes(r, level).funnel["candidates"] == CANDIDATES_PER_LEVEL[r, level]


def test_cached_levels_survive_a_mutated_funnel():
    first = subgroup_classes(5, 2)
    kept = dict(first.funnel)
    first.funnel["candidates"] = -1
    misses = _level.cache_info().misses
    again = subgroup_classes(5, 2)
    assert _level.cache_info().misses == misses
    assert again.funnel == kept and again.classes == first.classes


_FUNNEL_SCRIPT = """
import json
from isogate.subgroup_enum import subgroup_classes
print(json.dumps([subgroup_classes(r, k).funnel for r, k in ((5, 1), (5, 3), (7, 2))]))
"""


def test_funnel_repeats_across_cold_runs():
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", _FUNNEL_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout))
    assert runs[0] == runs[1]
    assert runs[0] == [subgroup_classes(r, k).funnel for r, k in ((5, 1), (5, 3), (7, 2))]


_MASKED_SCRIPT = """
import sys
from isogate.subgroup_enum import subgroup_classes
subgroup_classes(7, 2)
print("numpy.ma" in sys.modules)
"""


def test_subgroup_classes_leave_numpy_ma_unimported():
    # np.unique's plain form imports numpy.ma on numpy 2 (about 1 MB of
    # peak RSS per process); the walk and the orbit labels dedupe by sorting
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _MASKED_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-5, 40), max_size=30))
def test_distinct_matches_np_unique(values):
    a = np.array(values, dtype=np.int64)
    assert np.array_equal(_distinct(a), np.unique(a))


# ---- index dtypes and lazy membership sets ----

class _DtypeRecorder:
    """numpy, recording the dtype of the first argument of the named functions."""

    def __init__(self, *names):
        self.dtypes = {name: set() for name in names}

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in self.dtypes:
            return fn

        def recorded(a, *args, **kwargs):
            self.dtypes[name].add(np.asarray(a).dtype)
            return fn(a, *args, **kwargs)
        return recorded


@pytest.mark.parametrize("r", (5, 11))
def test_hot_index_arrays_are_intp(r, monkeypatch):
    # numpy converts any other index dtype to intp on every fancy index,
    # which more than doubles the cost of a gather
    intp = np.dtype(np.intp)
    k = _kernel(r)
    g = k.code((2, 1, 1, 1))
    for table in (k.gl, k.gl_index, k.inv, _kernel_map(r, "R", g), _kernel_map(r, "C", g),
                  _cyclic_generator_table(r), _row_tables([(2, 1, 1, 1), IDENT], r)):
        assert table.dtype == intp
    h_group = MatrixGroup.close([(1, 1, 0, 1)], r)
    assert {move.dtype for move in _moves(h_group)} == {intp}
    # the orbit loop's permutations (empty_like(perm)) and the batched
    # walk's codes (divmod) and rows (repeat, bincount)
    recorder = _DtypeRecorder("empty_like", "divmod", "repeat", "bincount")
    monkeypatch.setattr(subgroup_enum, "np", recorder)
    xs = _candidate_orbit_reps(h_group)
    _closures_capped(h_group, xs, _dickson_bound(r))
    assert recorder.dtypes == dict.fromkeys(("empty_like", "divmod", "repeat", "bincount"), {intp})


@pytest.mark.parametrize("r", (5, 11))
def test_row_index_pair_is_built_once_per_r(r):
    # every row table reads the same (a, b) pair; a caller cannot change it
    a, b = _row_index(r)
    assert _row_index(r)[0] is a and _row_index(r)[1] is b
    assert a.dtype == b.dtype == np.dtype(np.intp)
    assert not a.flags.writeable and not b.flags.writeable
    assert (a * r + b).tolist() == list(range(r * r))
    assert b.min() == 0 and b.max() == r - 1


_LAZY_SET_SCRIPT = """
from isogate.subgroup_enum import subgroup_classes
classes = subgroup_classes(7, 2).classes
before = sum(g._set is not None for g in classes)
g = classes[-1]
inside = g.elements[-1] in g
print(before, type(g._set).__name__, inside)
"""


def test_classes_build_no_membership_set_until_asked():
    # a cold process: other tests may already have used `in` on cached classes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _LAZY_SET_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "frozenset", "True"]
