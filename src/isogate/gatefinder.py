"""Search for proper applicable subgroups acting irreducibly with reducible SL2-part.

The search is factored through H = S(G): the determinant map G -> F_r^x is
onto with kernel S(G), so G = <H, g> for any single g in G whose determinant
is a fixed generator delta of the unit group.  Such a g normalizes H and has
g^(r-1) in H; conversely every such g gives |<H, g>| = (r-1)|H|, since the
cosets g^k H have the distinct determinants delta^k.

A reducible H fixes a line, so it is GL2-conjugate into the upper-triangular
determinant-1 group B = U x| T, where U (the unipotent matrices) has prime
order r and T = {diag(t, t^-1)} is cyclic of order r-1.  By Schur-Zassenhaus
every subgroup of B is conjugate to T_d or to U x| T_d for the order-d
subgroup T_d of T, d | r-1; these 2 tau(r-1) groups are the candidates.
For each, g runs over the normalizer of H on the GL2 kernel, and <H, g> is
one closure.  Every survivor is re-verified against the defining predicates
independently of how it was found.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModulusMismatch, RangeExceeded
from .linaction import fixed_lines
from .matgroup import (Mat, MatrixGroup, are_conjugate, gl2_order, is_applicable,
                       mat_inv, mat_mul, mat_pow, minus_identity, _kernel,
                       _require_kernel_range)
from .modfield import generator, validate_modulus

_SEARCH_MODULI = (5, 7, 11, 13)


def reducible_sl2_candidates(r: int, reference_conjugator: Mat | None = None) -> list[MatrixGroup]:
    """Reducible subgroups of SL2(F_r) up to GL2-conjugacy: T_d and U x| T_d for d | r-1.

    With a reference conjugator m, each candidate is conjugated by m.
    """
    _require_kernel_range(r, "reducible candidate enumeration")
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
    # built from the elements alone, so each carries the greedy generating subset
    out = [MatrixGroup(r, MatrixGroup.close(gens, r).elements) for gens in gen_sets]
    out.sort(key=lambda h: (h.order, h.elements))
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


def find_gate_groups(r: int, reference_conjugator: Mat | None = None) -> GateGroupResult:
    """All gate groups up to conjugacy: proper, applicable, irreducible, reducible SL2-part."""
    validate_modulus(r)
    if r not in _SEARCH_MODULI:
        raise RangeExceeded(f"gate search supports r in {_SEARCH_MODULI}, got {r}")
    delta = generator(r)
    k = _kernel(r)
    found: dict = {}
    for h_group in reducible_sl2_candidates(r, reference_conjugator):
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
            extended = MatrixGroup.close(gj.generators + (minus_identity(gj.r),), gj.r)
            witness = are_conjugate(extended, gi)
            if witness is None:
                continue
            groups[j] = gj.conjugate_by(witness)
            assert plus_minus_related(gi, groups[j])
            pairs.append((i, j))
    return groups, tuple(pairs)
