"""Search for proper applicable subgroups acting irreducibly with reducible SL2-part.

The search is factored through H = S(G): the determinant map G -> F_r^x is
onto with kernel S(G), so G = <H, g> for any single g in G whose determinant
is a fixed generator delta of the unit group.  Such a g normalizes H and has
g^(r-1) in H; conversely every such g gives |<H, g>| = (r-1)|H|, since the
cosets g^k H have the distinct determinants delta^k.

A reducible H fixes a line, so it is GL2-conjugate to T_d or to U x| T_d,
where U is the unipotent upper-triangular group and T_d the order-d
subgroup of T = {diag(t, t^-1)}, d | r-1.  Only one of these shapes can
give a gate group G:

- H central (T_1 = {1} or T_2 = {+-I}): G/H is cyclic, so G is abelian.
  An irreducible abelian G lies in a nonsplit Cartan, where trace 0 and
  det -1 force x^2 = I, so x = +-I, of trace +-2; G is not applicable.
- H = U x| T_d: H fixes exactly one line, and G, normalizing H, fixes it
  too; G is reducible.
- H = T_d with d > 2: H fixes exactly the two axes, and its normalizer in
  GL2 is the split Cartan normalizer N(C_s).

So H runs over the T_d with d > 2 and g over the elements of N(C_s) of
determinant delta, and <H, g> is one closure.  Every survivor is
re-verified against the defining predicates independently of how it was
found.

Conjugacy is decided inside N(C_s) as well, with no GL2-wide scan.  Each
candidate G has S(G) = T_d (d > 2), and <G, -I> has S = T_lcm(d, 2).  A
conjugator between two such groups maps the determinant-one part of the
one onto that of the other.  Both are subgroups of the cyclic group T of
the same order, hence the same T_d, so the conjugator lies in
N(T_d) = N(C_s).  Scanning the sorted elements of N(C_s) therefore finds
the lexicographically first witness over all of GL2, and the search runs
at every supported modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModulusMismatch
from .linaction import fixed_lines
from .matgroup import (IDENT, Mat, MatrixGroup, gl2_order, is_applicable,
                       mat_det, mat_inv, mat_mul, mat_pow, minus_identity)
from .modfield import generator, validate_modulus
from .stdgroups import split_cartan_normalizer


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


def find_gate_groups(r: int, reference_conjugator: Mat | None = None) -> GateGroupResult:
    """All gate groups up to conjugacy: proper, applicable, irreducible, reducible SL2-part.

    H runs over T_d = <diag(t, t^-1)>, d | r-1 with d > 2, in increasing d,
    and g over the elements of N(C_s) with determinant delta, in
    lexicographic order; with a reference conjugator m, both are
    conjugated by m.
    """
    validate_modulus(r)
    delta = generator(r)
    m = IDENT if reference_conjugator is None else reference_conjugator
    mi = mat_inv(m, r)
    # elements are stored sorted, so the extenders come in lexicographic order
    normalizer = split_cartan_normalizer(r).conjugate_by(m)
    extenders = [g for g in normalizer if mat_det(g, r) == delta]
    groups: list[MatrixGroup] = []
    for d in range(3, r):
        if (r - 1) % d:
            continue
        t = pow(delta, (r - 1) // d, r)
        torus = mat_mul(mat_mul(m, (t, 0, 0, pow(t, -1, r)), r), mi, r)
        # built from the elements alone, so it carries the greedy generating subset
        h_group = MatrixGroup(r, MatrixGroup.close([torus], r).elements)
        built: set = set()
        for g in extenders:
            if g in built or mat_pow(g, r - 1, r) not in h_group:
                continue
            cand = MatrixGroup.close(h_group.generators + (g,), r)
            built.update(cand.elements)
            if not _verify_gate_group(cand, r):
                continue
            if all(_conjugator_in(normalizer, cand, known) is None for known in groups):
                groups.append(cand)
    groups.sort(key=lambda g: (-g.order, g.elements))
    groups, pairs = _normalize_plus_minus(groups, normalizer)
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


def _conjugator_in(normalizer: MatrixGroup, a_group: MatrixGroup, b_group: MatrixGroup):
    """The least m in the normalizer with m A m^-1 = B, or None.

    Mapping the generators of A into B suffices since both have equal order.
    """
    if a_group.order != b_group.order:
        return None
    r = a_group.r
    for m in normalizer:
        mi = mat_inv(m, r)
        if all(mat_mul(mat_mul(m, g, r), mi, r) in b_group for g in a_group.generators):
            return m
    return None


def _normalize_plus_minus(groups: list[MatrixGroup], normalizer: MatrixGroup):
    """Pick class representatives so listed pair relations hold on the nose.

    When <-I, groups[j]> is conjugate to groups[i] by m, replacing groups[j]
    with its m-conjugate makes the relation literal set equality.  Both
    groups have S = T_d with d > 2, so m is sought in the normalizer N(C_s).
    """
    groups = list(groups)
    pairs = []
    for i, gi in enumerate(groups):
        for j, gj in enumerate(groups):
            if i == j or gi.order % gj.order != 0:
                continue
            extended = MatrixGroup.close(gj.generators + (minus_identity(gj.r),), gj.r)
            witness = _conjugator_in(normalizer, extended, gi)
            if witness is None:
                continue
            groups[j] = gj.conjugate_by(witness)
            assert plus_minus_related(gi, groups[j])
            pairs.append((i, j))
    return groups, tuple(pairs)
