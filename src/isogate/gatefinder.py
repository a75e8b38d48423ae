"""Construct the proper applicable subgroups acting irreducibly with reducible SL2-part.

The groups are factored through H = S(G): the determinant map G -> F_r^x
is onto with kernel S(G), so G = <H, g> for any single g in G whose
determinant is a fixed generator delta of the unit group.  Such a g
normalizes H and has g^(r-1) in H; conversely every such g gives
|<H, g>| = (r-1)|H|, since the cosets g^k H have the distinct
determinants delta^k.

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

So H = T_d with d > 2, and g is an extender: an element of N(C_s) of
determinant delta with g^(r-1) in T_d.  For each d there is at most one
class, and it is built, not searched for:

- A diagonal extender gives <T_d, g> inside C_s, which fixes both axes;
  that group is reducible.
- An antidiagonal extender g = (0, x, y, 0) has -xy = delta, and
  diag(1, x) g diag(1, x)^-1 = (0, 1, -delta, 0).  The split Cartan C_s
  centralizes T_d, so every <T_d, g> is C_s-conjugate to
  G_d = <T_d, g*>, with g* the least antidiagonal extender.  All of them
  have the same g^(r-1), a scalar, so either all pass the test
  g^(r-1) in T_d or none does.
- Distinct d give distinct |S(G_d)| = d, a conjugacy invariant, so the
  G_d are pairwise non-conjugate.

Each G_d is re-verified against the defining predicates, independently of
how it was built; at r = 1 (mod 4) that rejects the d not divisible by 4.

The +-I pairs are read off the element sets.  <G_d, -I> = <T_lcm(d,2), g*>
is G_lcm(d,2) as a set, and a conjugacy between <G_j, -I> and G_i maps
the determinant-one part of one onto the other.  Those are subgroups of
the cyclic group T of the same order, hence equal.  So G_i is conjugate
to <G_j, -I> exactly when G_i = <G_j, -I>, that is when |G_i| = 2|G_j|
and -I lies outside G_j.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linaction import fixed_lines
from .matgroup import (IDENT, Mat, MatrixGroup, gl2_order, is_applicable,
                       mat_inv, mat_mul, mat_pow, minus_identity)
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
    g_group._require_same_modulus(h_group)
    r = g_group.r
    neg = minus_identity(r)
    extended = set(h_group.elements)
    extended.update(mat_mul(neg, h, r) for h in h_group.elements)
    return extended == set(g_group.elements)


def find_gate_groups(r: int, reference_conjugator: Mat | None = None) -> GateGroupResult:
    """All gate groups up to conjugacy: proper, applicable, irreducible, reducible SL2-part.

    One group G_d = <T_d, g*> per d | r-1 with d > 2 that passes the
    predicates, in decreasing d, with g* the least antidiagonal element of
    determinant delta; with a reference conjugator m, T_d and the
    antidiagonals are conjugated by m before g* is picked.  So the indices
    ascend, and each +-I pair (i, j), G_i = <G_j, -I>, has i < j.
    """
    validate_modulus(r)
    delta = generator(r)
    m = IDENT if reference_conjugator is None else reference_conjugator
    mi = mat_inv(m, r)

    def moved(x: Mat) -> Mat:
        return mat_mul(mat_mul(m, x, r), mi, r)

    g_star = min(moved((0, x, -delta * pow(x, -1, r) % r, 0)) for x in range(1, r))
    groups: list[MatrixGroup] = []
    for d in range(r - 1, 2, -1):
        if (r - 1) % d:
            continue
        t = pow(delta, (r - 1) // d, r)
        # built from the elements alone, so it carries the greedy generating subset
        h_group = MatrixGroup(r, MatrixGroup.close([moved((t, 0, 0, pow(t, -1, r)))], r).elements)
        if mat_pow(g_star, r - 1, r) not in h_group:
            continue
        group = MatrixGroup.close(h_group.generators + (g_star,), r)
        if _verify_gate_group(group):
            groups.append(group)
    # G_i = <G_j, -I> already holds as sets (see the module docstring); each
    # such G_j is still moved by the least m in N(C_s) normalizing G_i, which
    # is the least GL2 conjugator of <G_j, -I> onto G_i, so the listed
    # representatives are those a conjugacy search would pick, and the pair
    # stays literal: <m G_j m^-1, -I> = m G_i m^-1 = G_i
    pairs = tuple((i, j) for i, gi in enumerate(groups) for j, gj in enumerate(groups)
                  if gi.order == 2 * gj.order and plus_minus_related(gi, gj))
    if pairs:
        normalizer = split_cartan_normalizer(r).conjugate_by(m)
        for i, j in pairs:
            groups[j] = groups[j].conjugate_by(_conjugator_in(normalizer, groups[i], groups[i]))
    indices = tuple(gl2_order(r) // g.order for g in groups)
    return GateGroupResult(r, tuple(groups), indices, pairs)


def _verify_gate_group(group: MatrixGroup) -> bool:
    """Re-check the defining predicates directly on the element set."""
    if group.order >= gl2_order(group.r):
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
