"""Conjugacy classes of subgroups of GL2(F_r) with few generators.

Exhaustive up-to-conjugacy enumeration of all subgroups generated by at
most k elements.  Level 0 is the trivial group; each level extends every
class that first appeared at the previous level by one more generator, so
level 1 lists the cyclic subgroups.  Used as an independent completeness
oracle for the structured searches elsewhere in the package, not as a
primary search itself.

For the extension step the candidate generator x only matters up to
x -> x^-1, x -> xh (h in the subgroup) and conjugation by the subgroup's
normalizer; x -> hx is (x^-1 h^-1)^-1, so it adds nothing.  One closure
per orbit of those moves suffices.

Each closure stops at Dickson's bound.  By Dickson's classification (Serre
1972, section 2), a proper subgroup of GL2(F_r), r >= 5, that does not
contain SL2 lies in the Borel (order r(r-1)^2), the normalizer of the split
or of the nonsplit Cartan (2(r-1)^2, 2(r^2-1)), a preimage of A4 or S4 (at
most 24(r-1)), or, when r = +-1 mod 5, of A5 (60(r-1)).  A closure larger
than the largest of these, B(r), contains SL2, so it is {m : det m in D}
with D the group the generators' determinants generate: GL2 when D is all
of F_r^*, and otherwise read from the kernel's trace-det table with no
search.  B(5) = 96; for r = 7, 11, 13 it is the Borel's order.

Candidates stay sorted kernel codes through the fingerprint and the
conjugacy scan against their bucket; a MatrixGroup is built only for a
class that is kept.  A candidate past B(r) skips the scan: it is a
duplicate exactly when a class of its order is already known.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .matgroup import (IDENT, Mat, MatrixGroup, gl2_order, mat_det, _kernel,
                       _require_kernel_range, _trace_det_fingerprint)
from .modfield import element_order


def _dickson_bound(r: int) -> int:
    """B(r): every subgroup of GL2(F_r) of larger order contains SL2.

    The largest order on Dickson's list of proper subgroups without SL2
    (see the module docstring).  Below r = 5 that list does not apply, and
    Lagrange's |GL2|/2 stands in: a larger subgroup is GL2 itself.
    """
    if r < 5:
        return gl2_order(r) // 2
    orders = [r * (r - 1) ** 2, 2 * (r - 1) ** 2, 2 * (r * r - 1), 24 * (r - 1)]
    if r % 5 in (1, 4):
        orders.append(60 * (r - 1))
    return max(orders)


def _closure_capped(gens, r: int, cap: int):
    """Close the generators; None once the size passes cap.

    Returns the sorted kernel codes of the closure.
    """
    k = _kernel(r)
    seen = k.closure([k.code(g) for g in gens], cap)
    return None if seen is None else k.members(seen)


def _det_preimage(gens, r: int):
    """Sorted codes of {m : det m in D}, D generated by the generators' determinants.

    None when D is all of F_r^*.  D is cyclic of order n, the lcm of the
    determinants' orders, so it is the set of units with x^n = 1.
    """
    n = lcm(*(element_order(mat_det(g, r), r) for g in gens))
    if n == r - 1:
        return None
    k = _kernel(r)
    in_d = np.array([pow(x, n, r) == 1 for x in range(r)])  # det 0 stays out
    return k.members(in_d[k.trace_det % r])


def _normalizer_generators(group: MatrixGroup) -> tuple[Mat, ...]:
    k = _kernel(group.r)
    norm = k.gl[k.conjugators([k.code(g) for g in group.generators], group._code_array())]
    return tuple(k.decode(k.generating_subset(norm)))


def _candidate_orbit_reps(group: MatrixGroup) -> list[Mat]:
    """One representative per orbit of candidate extra generators.

    Each move is a permutation of GL2, taken on positions in all_gl2(r)
    together with its inverse permutation.  Every element starts labelled
    by its own position; repeatedly taking the least label over each move
    and then the label of the label converges to the least position in
    each orbit, so the representatives are the orbit minima, in increasing
    order, as a walk from each least unvisited element would list them.
    """
    r = group.r
    k = _kernel(r)
    gl, pos = k.gl, k.gl_index
    hgens = [k.code(g) for g in group.generators if g != IDENT]
    ngens = [k.code(z) for z in _normalizer_generators(group)]
    moves = [k.inv[gl]]
    for h in hgens:
        moves.append(k.right_map(h)[gl])
    for z in ngens:
        rz = k.right_map(k.inv[z])
        moves.append(rz[k.inv[rz[k.inv[gl]]]])  # x^-1 z^-1, then z x, then z x z^-1
    perms = []
    for move in moves:
        perm = pos[move]
        back = np.empty_like(perm)
        back[perm] = np.arange(len(perm), dtype=perm.dtype)
        perms += (perm, back)
    label = np.arange(len(gl), dtype=np.int32)
    while True:
        new = label
        for perm in perms:
            new = np.minimum(new, new[perm])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    outside = ~k.mask(group._code_array())[gl]
    return k.decode(gl[np.unique(label[outside])])


@dataclass(frozen=True)
class ClassInventory:
    """Subgroup conjugacy classes reachable with at most max_generators."""
    r: int
    max_generators: int
    classes: tuple[MatrixGroup, ...]
    reaches_full_group: bool

    @property
    def count(self) -> int:
        return len(self.classes)


_LEVEL_CACHE: dict[int, list] = {}


def subgroup_classes(r: int, max_generators: int) -> ClassInventory:
    """All conjugacy classes of proper subgroups with <= max_generators generators.

    The full group GL2 is never listed; reaching it is reported on the flag.
    """
    _require_kernel_range(r, "subgroup enumeration")
    if max_generators < 1:
        raise ValueError("need at least one generator")
    if r not in _LEVEL_CACHE:
        _LEVEL_CACHE[r] = [([MatrixGroup.close([], r)], False)]
    levels = _LEVEL_CACHE[r]
    k = _kernel(r)
    cap = _dickson_bound(r)
    while len(levels) <= max_generators:
        prev_classes, hit_full = levels[-1]
        older = levels[-2][0] if len(levels) >= 2 else []
        fresh = [g for g in prev_classes if g not in older]
        pool: dict = {}
        for g in prev_classes:
            pool.setdefault(g.fingerprint(), []).append(g)
        for h_group in fresh:
            for x in _candidate_orbit_reps(h_group):
                gens = h_group.generators + (x,)
                codes = _closure_capped(gens, r, cap)
                past_bound = codes is None
                if past_bound:  # past B(r): the closure contains SL2
                    codes = _det_preimage(gens, r)
                    if codes is None:
                        hit_full = True
                        continue
                bucket = pool.setdefault(_trace_det_fingerprint(k.trace_det[codes], r), [])
                # a known class of the same order is above B(r) too, so it
                # contains SL2 and is the preimage of its determinants; F_r^*
                # is cyclic, so equal orders give the same determinant group
                # and the same (normal) subgroup: no conjugacy scan needed
                if past_bound and bucket:
                    continue
                # equal fingerprints mean equal orders, so mapping the
                # generators into a known class is a conjugacy witness
                gen_codes = [k.code(g) for g in gens]
                if not any(len(k.conjugators(gen_codes, known._code_array()))
                           for known in bucket):
                    bucket.append(MatrixGroup._from_codes(r, codes, gens))
        merged = sorted((g for bucket in pool.values() for g in bucket),
                        key=lambda g: (g.order, g.elements))
        levels.append((merged, hit_full))
    classes, hit_full = levels[max_generators]
    return ClassInventory(r, max_generators, tuple(classes), hit_full)


def class_counts(r: int, up_to: int) -> list[int]:
    """Class counts at each generator budget from 1 to up_to."""
    return [subgroup_classes(r, k).count for k in range(1, up_to + 1)]
