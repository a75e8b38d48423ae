"""Search for proper applicable subgroups acting irreducibly with reducible SL2-part.

The search is factored through H = S(G): the determinant map G -> F_r^x is
onto with kernel S(G), so G = <H, g> for any single g in G whose determinant
is a fixed generator of the unit group.  Enumerating H over the reducible
subgroups of SL2 (up to conjugacy all live inside the upper-triangular
determinant-1 group) and g over one determinant coset turns "all subgroups
of GL2" into a small (H, g) grid.  Every survivor is re-verified against
the defining predicates independently of how it was found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModulusMismatch, RangeExceeded
from .linaction import fixed_lines
from .matgroup import (IDENT, Mat, MatrixGroup, all_gl2, are_conjugate,
                       gl2_order, is_applicable, mat_det, mat_inv, mat_mul,
                       mat_pow, minus_identity, _generating_subset, _kernel)
from .modfield import generator, validate_modulus

_SEARCH_MODULI = (5, 7, 11, 13)


def _upper_det1_elements(r: int, conjugator: Mat | None = None) -> list[Mat]:
    elems = [(a, b, 0, pow(a, -1, r)) for a in range(1, r) for b in range(r)]
    if conjugator is not None:
        m, mi = conjugator, mat_inv(conjugator, r)
        elems = [mat_mul(mat_mul(m, x, r), mi, r) for x in elems]
    return elems


def _all_subgroups_of(elements: list[Mat], r: int) -> list[frozenset]:
    """Every subgroup of the given small group, as element sets.

    Cyclic subgroups first, then joins with a cyclic subgroup until a
    fixpoint; correct because every subgroup is a join of the cyclic
    subgroups inside it, taken one at a time.  Each subgroup keeps the
    generators it was found with, and a join is the closure of the two
    generator tuples together, searched from the union of the two sets.
    """
    k = _kernel(r)
    member_set = frozenset(k.encode(elements).tolist())

    def close(gens, start=()) -> frozenset:
        seen = k.mask([k.ident, *start])
        return frozenset(np.flatnonzero(k.closure(gens, seen=seen)).tolist())

    subs: dict[frozenset, tuple] = {}
    for code in sorted(member_set):
        subs.setdefault(close((code,)), (code,))
    cyclics = list(subs.items())
    frontier = list(subs)
    while frontier:
        a = frontier.pop()
        for b, b_gens in cyclics:
            if a <= b or b <= a:
                continue
            gens = subs[a] + b_gens
            joined = close(gens, a | b)
            assert joined <= member_set
            if joined not in subs:
                subs[joined] = gens
                frontier.append(joined)
    ordered = sorted(subs, key=lambda s: (len(s), sorted(s)))
    return [frozenset(k.decode(sorted(s))) for s in ordered]


def reducible_sl2_candidates(r: int, reference_conjugator: Mat | None = None) -> list[MatrixGroup]:
    """Reducible subgroups of SL2(F_r) up to GL2-conjugacy.

    A reducible subgroup fixes a line, hence is GL2-conjugate into the
    upper-triangular determinant-1 group; its subgroup lattice is small
    enough to enumerate outright.
    """
    validate_modulus(r)
    if r > 13:
        raise RangeExceeded(f"reducible candidate enumeration supports r <= 13, got {r}")
    base = _upper_det1_elements(r, reference_conjugator)
    classes: dict = {}
    for sub in _all_subgroups_of(base, r):
        group = MatrixGroup(r, sub, _generating_subset(sorted(sub), r))
        bucket = classes.setdefault(group.fingerprint(), [])
        if not any(are_conjugate(group, known) for known in bucket):
            bucket.append(group)
    out = [g for bucket in classes.values() for g in bucket]
    out.sort(key=lambda g: (g.order, g.elements))
    return out


@dataclass(frozen=True)
class GateGroupResult:
    r: int
    groups: tuple[MatrixGroup, ...]
    indices: tuple[int, ...]
    plus_minus_pairs: tuple[tuple[int, int], ...]


def plus_minus_related(g_group: MatrixGroup, h_group: MatrixGroup) -> bool:
    """Whether G equals the group generated by H together with -I."""
    if g_group.r != h_group.r:
        raise ModulusMismatch(f"moduli differ: {g_group.r} vs {h_group.r}")
    r = g_group.r
    neg = minus_identity(r)
    extended = set(h_group.elements)
    extended.update(mat_mul(neg, h, r) for h in h_group.elements)
    return extended == set(g_group.elements)


def _extend_by_coset_generator(h_group: MatrixGroup, g: Mat, r: int) -> MatrixGroup:
    elements = set(h_group.elements)
    coset = list(h_group.elements)
    for _ in range(r - 2):
        coset = [mat_mul(g, x, r) for x in coset]
        elements.update(coset)
    gens = tuple(h_group.generators) + (g,)
    return MatrixGroup(r, elements, gens)


def find_gate_groups(r: int, reference_conjugator: Mat | None = None) -> GateGroupResult:
    """All gate groups up to conjugacy: proper, applicable, irreducible, reducible SL2-part."""
    validate_modulus(r)
    if r not in _SEARCH_MODULI:
        raise RangeExceeded(f"gate search supports r in {_SEARCH_MODULI}, got {r}")
    delta = generator(r)
    coset_gens = [m for m in all_gl2(r) if mat_det(m, r) == delta]
    found: dict = {}
    for h_group in reducible_sl2_candidates(r, reference_conjugator):
        h_set = h_group._set
        h_gens = h_group.generators or (IDENT,)
        seen_sets = set()
        for g in coset_gens:
            gi = mat_inv(g, r)
            if not all(mat_mul(mat_mul(g, h, r), gi, r) in h_set for h in h_gens):
                continue
            if mat_pow(g, r - 1, r) not in h_set:
                continue
            cand = _extend_by_coset_generator(h_group, g, r)
            if cand.elements in seen_sets:
                continue
            seen_sets.add(cand.elements)
            if len(cand) != (r - 1) * len(h_group):
                continue  # coset collapse, not a clean graded extension
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


def _verify_gate_group(group: MatrixGroup, r: int) -> bool:
    """Re-check the defining predicates directly on the element set."""
    if group.order >= gl2_order(r):
        return False
    if not is_applicable(group):
        return False
    if fixed_lines(group):
        return False
    sl2 = group.sl2_part()
    return bool(fixed_lines(sl2))


def _normalize_plus_minus(groups: list[MatrixGroup]):
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
            r = gj.r
            neg = minus_identity(r)
            ext_elements = set(gj.elements)
            ext_elements.update(mat_mul(neg, h, r) for h in gj.elements)
            extended = MatrixGroup(r, ext_elements, tuple(gj.generators) + (neg,))
            witness = are_conjugate(extended, gi)
            if witness is None:
                continue
            groups[j] = gj.conjugate_by(witness)
            assert plus_minus_related(gi, groups[j])
            pairs.append((i, j))
    return groups, tuple(pairs)
