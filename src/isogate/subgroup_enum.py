"""Conjugacy classes of subgroups of GL2(F_r) with few generators.

Exhaustive up-to-conjugacy enumeration of all subgroups generated by at
most k elements.  Level 0 is the trivial group; each level extends every
class that first appeared at the previous level by one more generator, so
level 1 lists the cyclic subgroups.  Used as an independent completeness
oracle for the structured searches elsewhere in the package, not as a
primary search itself.

For the extension step the candidate generator x only matters up to
x -> x^k for k prime to the order of x (<H, x^k> = <H, x>; k = -1 is the
inverse), x -> xh (h in the subgroup) and conjugation by the subgroup's
normalizer; x -> hx is (x^-1 h^-1)^-1, so it adds nothing.  One closure
per orbit of those moves suffices.  The power moves are read from one
table per r (_cyclic_generator_table), which sends each element to the
least generator of the cyclic group it generates.  Conjugating by a scalar
fixes x, and by h in H is hx followed by x -> xh^-1, so the conjugation
moves are greedy generators of N(H) taken modulo H Z (_normalizer_moves).

All candidates of one subgroup H are closed together (_closures_capped):
each has its own row of codes, seeded with H, whose first frontier is
H x; one breadth-first walk per batch of rows multiplies every frontier
by H's generators and the row's x through per-matrix row tables, with no
r^4 map per candidate.

Each closure stops as soon as it is known to contain SL2.  By Dickson's
classification (Serre 1972, section 2), a proper subgroup of GL2(F_r),
r >= 5, that does not contain SL2 lies in the Borel (order r(r-1)^2), the
normalizer of the split or of the nonsplit Cartan (2(r-1)^2, 2(r^2-1)), a
preimage of A4 or S4 (at most 24(r-1)), or, when r = +-1 mod 5, of A5
(60(r-1)).  Serre's Prop. 19 reads membership off three elements, one
leaving each kind (_serre_tables); they are looked for among H's
elements, then on each frontier of the closure.  Where they do not all
turn up (SL2(F_5) has none of the third kind), the closure stops once it
is larger than the largest group on the list, B(r).  A closure that
contains SL2 is {m : det m in D} with D the group the generators'
determinants generate: GL2 when D is all of F_r^*, and otherwise read
from the kernel's trace-det table with no search, once per (r, |D|).
B(5) = 96; for r = 7, 11, 13 it is the Borel's order.

Candidates stay sorted kernel codes through the fingerprint and the
conjugacy scan against their bucket; a MatrixGroup is built only for a
class that is kept.  A candidate that contains SL2 skips the scan: it is
a duplicate exactly when a class of its order is already known.  So does
a closure whose codes equal a known class's or an earlier candidate's at
the same level.  ClassInventory.funnel counts where the candidates went.

The walk's and the orbit loop's index arrays are intp where they are
built, and arrays are reduced mod r by floor division (see matgroup._Kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm

import numpy as np

from .matgroup import (IDENT, Mat, MatrixGroup, gl2_order, mat_det, _kernel, _mod,
                       _require_kernel_range, _row_tables, _trace_det_fingerprint)
from .modfield import LARGE_ORDER, NONSPLIT, SPLIT, element_order, serre_bits


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


_ALL_THREE = SPLIT | NONSPLIT | LARGE_ORDER


@lru_cache(maxsize=None)
def _serre_tables(r: int) -> np.ndarray:
    """Serre's bits (modfield.serre_bits) per kernel code, read-only.

    A matrix with the LARGE_ORDER bit has u = tr^2 / det outside
    {0, 1, 2, 4} and u^2 - 3u + 1 != 0, so its image in PGL2 has order
    neither 1, 2, 3, 4, 5 nor r.  For r >= 5 a
    subgroup holding all three contains SL2: the Borel and the normalizer
    of the split Cartan have no NONSPLIT element, the normalizer of the
    nonsplit Cartan no SPLIT one (off the Cartan the trace is 0), and the
    A4, S4 and A5 preimages no LARGE_ORDER one.
    """
    by_code = np.frombuffer(serre_bits(r), dtype=np.uint8)[_kernel(r).trace_det]
    by_code.flags.writeable = False
    return by_code


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-D array a, sorted.

    np.unique would give the same, but on numpy 2 its plain form calls
    np.ma.is_masked, and so imports numpy.ma into the process.
    """
    a = np.sort(a)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


# codes per batch of the candidate walk: a batch holds as many rows of r^4
# codes as fit, so its seen mask stays near this size at every r
_BATCH_CODES = 1 << 18


def _closures_capped(group: MatrixGroup, xs, cap: int) -> list:
    """<group, x> for each candidate x, in one breadth-first walk per batch.

    Each candidate has a row of r^4 codes, seeded with the group's codes;
    its first frontier is group * x, and every later one is the last
    frontier times the group's generators and x, deduplicated over
    (row, code).  Per candidate the result is the sorted kernel codes of
    the closure, or, for r >= 5, False as soon as Serre's three elements
    have turned up, first among the group's codes, then on a frontier (the
    closure contains SL2), or None once the size passes cap.  On each
    frontier the Serre stop is checked before the cap.
    """
    r = group.r
    k = _kernel(r)
    h_codes = group._code_array().astype(np.intp)
    goal, stop = _ALL_THREE, None
    if r >= 5:
        stop = _serre_tables(r)
        goal &= ~int(np.bitwise_or.reduce(stop[h_codes]))
        if not goal:
            return [False] * len(xs)
    h_tables = _row_tables([g for g in group.generators if g != IDENT], r)
    rows = max(1, _BATCH_CODES // k.n)
    out: list = []
    for start in range(0, len(xs), rows):
        out += _walk_batch(k, h_codes, h_tables, xs[start:start + rows], goal, stop, cap)
    return out


def _walk_batch(k, h_codes, h_tables, xs, goal: int, stop, cap: int) -> list:
    """One batch of _closures_capped; row i lives on the codes i r^4 + code."""
    n, r2, m = k.n, k.r * k.r, len(xs)
    x_table = _row_tables(xs, k.r).ravel()
    seen = np.zeros(m * n, dtype=bool)
    seen[(np.arange(m)[:, None] * n + h_codes).ravel()] = True
    size = np.full(m, len(h_codes))
    goals = np.full(m, goal, dtype=np.uint8)
    live = np.ones(m, dtype=bool)
    closed = np.zeros(m, dtype=bool)  # rows that end with no new codes
    member = np.repeat(np.arange(m), len(h_codes))
    codes = np.tile(h_codes, m)
    tables = []  # the first frontier is group * x alone
    while live.any():
        row_base, x_rows = member * n, member * r2
        high, low = np.divmod(codes, r2)
        parts = [row_base + t[high] * r2 + t[low] for t in tables]
        parts.append(row_base + x_table[x_rows + high] * r2 + x_table[x_rows + low])
        step = np.concatenate(parts) if len(parts) > 1 else parts[0]
        tables = h_tables
        frontier = _distinct(step[~seen[step]])
        member = frontier // n
        codes = frontier - member * n
        counts = np.bincount(member, minlength=m)
        if stop is not None:
            bits = np.zeros(m, dtype=np.uint8)
            np.bitwise_or.at(bits, member, stop[codes])
            goals &= ~bits
        size += counts
        ended = live & ((counts == 0) | (goals == 0) | (size > cap))
        if ended.any():
            closed |= ended & (counts == 0) & (size <= cap)
            live &= ~ended
            keep = live[member]
            frontier, member, codes = frontier[keep], member[keep], codes[keep]
        seen[frontier] = True
    # a row that ended on a frontier is a Serre stop if its goal is covered,
    # and otherwise passed cap
    return [k.members(seen[i * n:(i + 1) * n]) if closed[i] else (None if goals[i] else False)
            for i in range(m)]


@lru_cache(maxsize=None)
def _det_group_preimage(r: int, n: int):
    """Sorted codes of {m : det m^n = 1} and their fingerprint; read-only."""
    k = _kernel(r)
    in_d = np.array([pow(x, n, r) == 1 for x in range(r)])  # det 0 stays out
    codes = k.members(in_d[k.trace_det % r])
    codes.flags.writeable = False
    return codes, _trace_det_fingerprint(k.trace_det[codes], r)


def _det_preimage(gens, r: int):
    """{m : det m in D}, D generated by the generators' determinants.

    Its sorted codes and fingerprint, cached per (r, |D|); None when D is
    all of F_r^*.  D is cyclic of order n, the lcm of the determinants'
    orders, so it is the set of units with x^n = 1.
    """
    n = lcm(*(element_order(mat_det(g, r), r) for g in gens))
    return None if n == r - 1 else _det_group_preimage(r, n)


def _normalizer_moves(group: MatrixGroup) -> list[int]:
    """Codes of greedy generators of N(H) modulo H Z, Z the scalars.

    Conjugating a candidate by a scalar fixes it, and by h in H is the
    inverse move, a right move by h^-1, the inverse again and a right move
    by h^-1 (x -> x^-1 h^-1 -> h x -> h x h^-1); so with the right and
    power moves, these conjugators reach every N(H)-conjugate.  The greedy walk starts from H Z and repeatedly adds
    the least element of N(H) not yet generated.
    """
    r = group.r
    k = _kernel(r)
    hgens = [k.code(g) for g in group.generators if g != IDENT]
    h_codes = group._code_array()
    norm = k.mask(k.gl[k.conjugators(hgens, h_codes)])
    # H Z, from the int16 digits of H's elements times each scalar
    a, b, c, d = (t[k.gl_index[h_codes], None] for t in k.gl_digits)
    s = np.arange(1, r, dtype=np.int16)
    seen = k.mask(k._encode(a * s, b * s, c * s, d * s))
    moves: list[int] = []
    while True:
        rest = np.flatnonzero(norm & ~seen)
        if not len(rest):
            return moves
        moves.append(int(rest[0]))
        seen[rest[0]] = True
        # seen holds H Z, so its closure under <H, moves> is <H, Z, moves>
        k.closure(hgens + moves, seen)


def _times(u, v, r: int):
    """Entrywise products of two stacks of matrices, given as digit arrays (a, b, c, d)."""
    p, q, s, t = u
    a, b, c, d = v
    return (_mod(p * a + q * c, r), _mod(p * b + q * d, r),
            _mod(s * a + t * c, r), _mod(s * b + t * d, r))


@lru_cache(maxsize=None)
def _cyclic_generator_table(r: int) -> np.ndarray:
    """Position in all_gl2(r) -> least position of a generator of the same cyclic group.

    x^j generates <x> exactly when gcd(j, ord x) = 1, and x^-j with it, so
    the powers up to j = ord(x) / 2 and their inverses list every
    generator.  The order is a class function, and a class of GL2(F_r) is
    fixed by trace, determinant and whether the matrix is scalar, so it is
    found on one representative per class.  Read-only.
    """
    k = _kernel(r)
    pos = k.gl_index
    a, b, c, d = x = k.gl_digits
    key = k.trace_det[k.gl] * 2 + ((b == 0) & (c == 0) & (a == d))
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    reps = tuple(v[first] for v in x)
    rep_order = np.zeros(len(first), dtype=np.int32)
    power, j = reps, 1
    while not rep_order.all():
        rep_order[(k._encode(*power) == k.ident) & (rep_order == 0)] = j
        power, j = _times(power, reps, r), j + 1
    table = np.arange(len(k.gl))
    live, order, power, j = table.copy(), rep_order[cls], x, 1
    while len(live):
        gens = np.gcd(order, j) == 1
        at, codes = live[gens], k._encode(*(v[gens] for v in power))
        table[at] = np.minimum(table[at], np.minimum(pos[codes], pos[k.inv[codes]]))
        j += 1
        keep = order >= 2 * j
        if not keep.all():
            live, order = live[keep], order[keep]
            x, power = [v[keep] for v in x], [v[keep] for v in power]
        power = _times(power, x, r)
    table.flags.writeable = False
    return table


def _moves(group: MatrixGroup):
    """The moves of _candidate_orbit_reps but the power moves, each as the codes of x moved, x in gl."""
    k = _kernel(group.r)
    gl = k.gl
    for h in group.generators:
        if h != IDENT:
            yield k.right_map(k.code(h))[gl]
    for z in _normalizer_moves(group):
        rz = k.right_map(k.inv[z])
        yield rz[k.inv[rz[k.inv[gl]]]]  # x^-1 z^-1, then z x, then z x z^-1


def _candidate_orbit_reps(group: MatrixGroup) -> list[Mat]:
    """One representative per orbit of candidate extra generators.

    Each move is a permutation of GL2, taken on positions in all_gl2(r)
    together with its inverse permutation; the power moves come from
    _cyclic_generator_table.  Every element starts labelled by the least
    generator of its cyclic group; repeatedly taking the least label over
    each move, then over each cyclic group (both ways along the table),
    and then the label of the label converges to the least position in
    each orbit, so the representatives are the orbit minima, in increasing
    order, as a walk from each least unvisited element would list them.
    Each permutation is built from its move as the move is made, so at
    most one move is held at a time.
    """
    r = group.r
    k = _kernel(r)
    gl, pos = k.gl, k.gl_index
    perms = []
    for move in _moves(group):
        perm = pos[move]
        back = np.empty_like(perm)
        back[perm] = np.arange(len(perm), dtype=perm.dtype)
        perms += (perm, back)
    cyc = _cyclic_generator_table(r)
    label = cyc
    while True:
        new = label
        for perm in perms:
            new = np.minimum(new, new[perm])
        new = np.minimum(new, new[cyc])
        np.minimum.at(new, cyc, new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    outside = ~k.mask(group._code_array())[gl]
    return k.decode(gl[_distinct(label[outside])])


# where each candidate of a level was settled, in funnel order
FUNNEL_STEPS = ("candidates", "sl2_by_words", "sl2_by_cap", "full_group",
                "exact_repeats", "conjugate_of_known", "new_class")


@dataclass(frozen=True)
class ClassInventory:
    """Subgroup conjugacy classes reachable with at most max_generators.

    funnel counts the candidates of the top level (one closure each) by
    the step that settled them: it reached GL2 ('full_group'); it contains
    SL2, a class of its order is known, and SL2 was seen from Serre's
    three elements ('sl2_by_words') or from its size passing B(r)
    ('sl2_by_cap'); it repeats a closure already handled at this level
    ('exact_repeats'); a conjugacy scan matched it to a known class
    ('conjugate_of_known'); or it was kept ('new_class').  The six counts
    after 'candidates' sum to it.
    """
    r: int
    max_generators: int
    classes: tuple[MatrixGroup, ...]
    reaches_full_group: bool
    funnel: dict = field(default_factory=dict, compare=False)

    @property
    def count(self) -> int:
        return len(self.classes)


def subgroup_classes(r: int, max_generators: int) -> ClassInventory:
    """All conjugacy classes of proper subgroups with <= max_generators generators.

    The full group GL2 is never listed; reaching it is reported on the flag.
    """
    _require_kernel_range(r, "subgroup enumeration")
    if max_generators < 1:
        raise ValueError("need at least one generator")
    classes, hit_full, funnel = _level(r, max_generators)
    return ClassInventory(r, max_generators, classes, hit_full, dict(funnel))


@lru_cache(maxsize=None)
def _level(r: int, k: int) -> tuple:
    """(classes, reaches GL2, funnel) with <= k generators; level 0 is the trivial group.

    Level k extends by one generator the classes new at level k - 1, those
    that level k - 2 did not already hold.
    """
    if k == 0:
        return (MatrixGroup.close([], r),), False, {}
    prev_classes, hit_full, _ = _level(r, k - 1)
    older = _level(r, k - 2)[0] if k >= 2 else ()
    fresh = [g for g in prev_classes if g not in older]
    kern = _kernel(r)
    cap = _dickson_bound(r)
    pool: dict = {}
    for g in prev_classes:
        pool.setdefault(_trace_det_fingerprint(kern.trace_det[g._code_array()], r), []).append(g)
    # codes of the closures already settled: the known classes, then
    # every closure under B(r) met at this level
    handled = {g._code_array().tobytes() for g in prev_classes}
    funnel = dict.fromkeys(FUNNEL_STEPS, 0)
    for h_group in fresh:
        xs = _candidate_orbit_reps(h_group)
        for x, codes in zip(xs, _closures_capped(h_group, xs, cap)):
            funnel["candidates"] += 1
            gens = h_group.generators + (x,)
            if codes is None or codes is False:  # the closure contains SL2
                route = "sl2_by_cap" if codes is None else "sl2_by_words"
                preimage = _det_preimage(gens, r)
                if preimage is None:
                    hit_full = True
                    funnel["full_group"] += 1
                    continue
                codes, fingerprint = preimage
                bucket = pool.setdefault(fingerprint, [])
                # a known class of the same order is above B(r) too, so it
                # contains SL2 and is the preimage of its determinants;
                # F_r^* is cyclic, so equal orders give the same
                # determinant group and the same (normal) subgroup
                step = route if bucket else "new_class"
            else:
                # the first copy of these codes is a known class, or was
                # kept or matched at this level: either way a duplicate
                key = codes.tobytes()
                if key in handled:
                    funnel["exact_repeats"] += 1
                    continue
                handled.add(key)
                bucket = pool.setdefault(_trace_det_fingerprint(kern.trace_det[codes], r), [])
                # equal fingerprints mean equal orders, so mapping the
                # generators into a known class is a conjugacy witness
                gen_codes = [kern.code(g) for g in gens]
                matched = any(len(kern.conjugators(gen_codes, known._code_array()))
                              for known in bucket)
                step = "conjugate_of_known" if matched else "new_class"
            funnel[step] += 1
            if step == "new_class":
                bucket.append(MatrixGroup._from_codes(r, codes, gens))
    merged = sorted((g for bucket in pool.values() for g in bucket),
                    key=lambda g: (g.order, g.elements))
    return tuple(merged), hit_full, funnel
