"""Matrices over F_r and finite matrix groups built by closure.

A matrix is a plain 4-tuple (a, b, c, d) for [[a, b], [c, d]] with entries
reduced mod r.  The modulus always travels alongside, either as an argument
or on the owning MatrixGroup.  Groups store their elements sorted
lexicographically, so iteration order is canonical.

Explicit groups (closures, normalizers, the gate groups) are closed on
tuples at every supported r.  Only the exhaustive entry points need all
r^4 matrices: all_gl2, MatrixGroup.full, are_conjugate's witness scan and
subgroup_enum.subgroup_classes.  They run on a private integer-indexed
kernel (_Kernel): the matrix (a, b, c, d) is the integer
((a*r+b)*r+c)*r+d, whose order is the lexicographic order of the tuples,
and numpy tables and multiplication maps over all r^4 codes replace
Python-level products.  They refuse r > KERNEL_MAX_R with RangeExceeded
before allocating anything: a group keeps its codes as int16, which holds
r^4 only up to r = 13.  The kernel's index tables are intp, numpy's index
dtype, and its array reductions use floor division, not %; see _Kernel, _mod.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice
from operator import ne

import numpy as np

from .errors import ModulusMismatch, NonInvertibleMatrix, RangeExceeded
from .modfield import validate_modulus

# largest modulus with an integer-indexed kernel: the stored codes of a
# group (r^4 = 28,561 at r = 13) and conjugates_at's unreduced entries
# (4 (r-1)^3 = 6,912) fit int16; the index tables are intp at every r
KERNEL_MAX_R = 13

Mat = tuple[int, int, int, int]

IDENT: Mat = (1, 0, 0, 1)


# ---- elementary matrix algebra ----

def mat_mul(m: Mat, n: Mat, r: int) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % r, (a * f + b * h) % r,
            (c * e + d * g) % r, (c * f + d * h) % r)


def mat_det(m: Mat, r: int) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % r


def mat_trace(m: Mat, r: int) -> int:
    return (m[0] + m[3]) % r


def mat_inv(m: Mat, r: int) -> Mat:
    det = mat_det(m, r)
    if det == 0:
        raise NonInvertibleMatrix(f"{m} has determinant 0 mod {r}")
    u = pow(det, -1, r)
    a, b, c, d = m
    return (d * u % r, -b * u % r, -c * u % r, a * u % r)


def mat_pow(m: Mat, k: int, r: int) -> Mat:
    if k < 0:
        return mat_pow(mat_inv(m, r), -k, r)
    out = IDENT
    base = m
    while k:
        if k & 1:
            out = mat_mul(out, base, r)
        base = mat_mul(base, base, r)
        k >>= 1
    return out


def _mod(v: np.ndarray, r: int) -> np.ndarray:
    """v mod r for an integer array, as v - v // r * r.

    numpy's floor division by a scalar is several times faster than its
    remainder (about five times on int16), and both round toward minus
    infinity, so negative entries agree too.
    """
    return v - v // r * r


def _entries(mats) -> np.ndarray:
    """The entries a, b, c, d of a sequence of matrices, as four int64 arrays."""
    flat = np.fromiter(chain.from_iterable(mats), dtype=np.int64, count=4 * len(mats))
    return flat.reshape(-1, 4).T


def mat_reduce(m, r: int) -> Mat:
    return tuple(int(x) % r for x in m)


def minus_identity(r: int) -> Mat:
    return (r - 1, 0, 0, r - 1)


def is_scalar(m: Mat) -> bool:
    return m[1] == 0 and m[2] == 0 and m[0] == m[3]


def format_matrix(m: Mat, r: int) -> str:
    return f"[[{m[0]},{m[1]}],[{m[2]},{m[3]}]] mod {r}"


# ---- ambient group tables ----

def gl2_order(r: int) -> int:
    validate_modulus(r)
    return (r * r - 1) * (r * r - r)


def sl2_order(r: int) -> int:
    validate_modulus(r)
    return r * (r * r - 1)


def _require_kernel_range(r: int, what: str) -> None:
    validate_modulus(r)
    if r > KERNEL_MAX_R:
        raise RangeExceeded(f"{what} supports r <= {KERNEL_MAX_R}, got {r}")


@lru_cache(maxsize=8)
def all_gl2(r: int) -> tuple[Mat, ...]:
    """All invertible matrices mod r, lexicographically sorted."""
    _require_kernel_range(r, "GL2 enumeration")
    return _kernel(r).gl_mats


def random_gl2(rng, r: int) -> Mat:
    while True:
        m = (rng.randrange(r), rng.randrange(r), rng.randrange(r), rng.randrange(r))
        if mat_det(m, r) != 0:
            return m


# ---- the integer-indexed kernel ----

class _Kernel:
    """GL2(F_r) on integer codes, with numpy tables over all r^4 codes.

    gl lists the invertible codes in increasing (= lexicographic) order,
    gl_mats the same matrices as tuples, and gl_index maps a code to its
    position there, which decodes it.  inv and trace_det (trace * r + det)
    are tables indexed by code; gl_digits and gl_inv_digits hold the
    entries of each m in gl and of m^-1.  Right multiplication maps (left
    products follow from them and inv) and the map m -> m g m^-1 over gl
    are built per generator and kept in one small LRU cache (_kernel_map),
    so the maps of a subgroup's generators are reused.  A right map is
    the r^2-entry row table of its generator (_row_tables) expanded over
    all codes; subgroup_enum closes its candidates through the row tables
    themselves, not these maps.

    gl, gl_index, inv and both maps are intp, as they serve as fancy
    indices: numpy converts any other index dtype to intp on every use,
    which more than doubles the cost of a gather.  The codes a group
    stores (encode, members) and conjugates_at's arithmetic stay int16.
    Every table and map is read-only; _slot is closure's work buffer.
    """

    def __init__(self, r: int):
        _require_kernel_range(r, "the integer-indexed GL2 kernel")
        self.r = r
        self.n = r ** 4
        codes = np.arange(self.n, dtype=np.int16)
        a, b, c, d = codes // r ** 3, codes // (r * r) % r, codes // r % r, codes % r
        det = (a * d - b * c) % r
        self.trace_det = (a + d) % r * r + det
        self.gl = np.flatnonzero(det)
        self.gl_index = np.full(self.n, -1, dtype=np.intp)
        self.gl_index[self.gl] = np.arange(len(self.gl))
        units = np.array([0] + [pow(x, -1, r) for x in range(1, r)], dtype=np.int16)
        u = units[det]
        self.inv = self._encode(d * u, -b * u, -c * u, a * u).astype(np.intp)
        self.inv[det == 0] = -1
        self.gl_digits = tuple(t[self.gl] for t in (a, b, c, d))
        self.gl_inv_digits = tuple(t[self.inv[self.gl]] for t in (a, b, c, d))
        for table in (self.trace_det, self.gl, self.gl_index, self.inv,
                      *self.gl_digits, *self.gl_inv_digits):
            table.flags.writeable = False
        self.ident = self.code(IDENT)
        self.gl_mats = tuple(zip(*(t.tolist() for t in self.gl_digits)))
        self._slot = np.empty(self.n, dtype=np.int32)

    def _encode(self, a, b, c, d) -> np.ndarray:
        r = self.r
        return ((_mod(a, r) * r + _mod(b, r)) * r + _mod(c, r)) * r + _mod(d, r)

    def code(self, m: Mat) -> int:
        r = self.r
        a, b, c, d = m
        return ((a % r * r + b % r) * r + c % r) * r + d % r

    def digits(self, code: int) -> tuple[int, int, int, int]:
        code, d = divmod(int(code), self.r)
        code, c = divmod(code, self.r)
        a, b = divmod(code, self.r)
        return a, b, c, d

    def encode(self, mats) -> np.ndarray:
        return self._encode(*_entries(mats)).astype(np.int16)

    def decode(self, codes) -> list:
        mats = self.gl_mats
        return [mats[i] for i in self.gl_index[codes].tolist()]

    @staticmethod
    def members(mask: np.ndarray) -> np.ndarray:
        """Sorted codes set in a mask, as int16."""
        return np.flatnonzero(mask).astype(np.int16)

    def mask(self, codes) -> np.ndarray:
        out = np.zeros(self.n, dtype=bool)
        out[codes] = True
        return out

    # cached maps

    def right_map(self, code: int) -> np.ndarray:
        """x -> x g over all codes: each row of x is multiplied by g on its own."""
        return _kernel_map(self.r, "R", int(code))

    def conjugates_at(self, code: int, positions) -> np.ndarray:
        """m g m^-1 for the m at the given positions of gl.

        Entries reach at most 4 (r-1)^3 = 6,912 before reduction, so int16
        holds them.
        """
        e, f, g, h = self.digits(code)
        a, b, c, d = (t[positions] for t in self.gl_digits)
        ia, ib, ic, id_ = (t[positions] for t in self.gl_inv_digits)
        p, q, s, t = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        return self._encode(p * ia + q * ic, p * ib + q * id_,
                            s * ia + t * ic, s * ib + t * id_)

    def conjugates(self, code: int) -> np.ndarray:
        """m g m^-1 for every m in gl, in gl order."""
        return _kernel_map(self.r, "C", int(code))

    # group algorithms

    def closure(self, gen_codes, seen: np.ndarray) -> np.ndarray:
        """Extend the mask seen, in place, to its closure under right products by gen_codes.

        Breadth-first search by right multiplication, one frontier at a
        time, starting from every code in seen.
        """
        maps = [self.right_map(g) for g in gen_codes]
        if not maps:
            return seen
        frontier = np.flatnonzero(seen)
        while len(frontier):
            step = maps[0][frontier] if len(maps) == 1 else \
                np.concatenate([m[frontier] for m in maps])
            step = step[~seen[step]]
            if not len(step):
                break
            # keep one copy of each code: one write to its slot survives
            order = np.arange(len(step), dtype=np.int32)
            self._slot[step] = order
            frontier = step[self._slot[step] == order]
            seen[frontier] = True
        return seen

    def conjugators(self, gen_codes, target_codes) -> np.ndarray:
        """Positions in gl of the m with m g m^-1 in the target for every generator g.

        The first generator is conjugated by all of GL2 (and cached); the
        others only by the m that survive the generators before them.
        """
        target = self.mask(target_codes)
        if not len(gen_codes):
            return np.arange(len(self.gl))
        found = np.flatnonzero(target[self.conjugates(gen_codes[0])])
        for g in gen_codes[1:]:
            found = found[target[self.conjugates_at(g, found)]]
        return found


@lru_cache(maxsize=None)
def _kernel(r: int) -> _Kernel:
    return _Kernel(r)


# maps kept across all moduli; a subgroup search needs a handful at a time
@lru_cache(maxsize=8)
def _kernel_map(r: int, kind: str, code: int) -> np.ndarray:
    """The right-multiplication ("R") or conjugation ("C") map of one code, as intp; read-only."""
    k = _kernel(r)
    if kind == "C":
        out = k.conjugates_at(code, slice(None)).astype(np.intp)
    else:
        row = _row_tables([k.digits(code)], r)[0]
        out = (row[:, None] * (r * r) + row[None, :]).ravel()
    out.flags.writeable = False
    return out


def _row_tables(mats, r: int) -> np.ndarray:
    """Row (a, b) times each matrix, with the row p = a r + b: shape (len(mats), r^2), intp.

    A product's rows are its left factor's rows times the right factor, so
    x g for a code x = p r^2 + q is T[p] r^2 + T[q].
    """
    e, f, g, h = (t[:, None] for t in np.array(mats, dtype=np.intp).reshape(-1, 4).T)
    a, b = _row_index(r)
    return _mod(a * e + b * g, r) * r + _mod(a * f + b * h, r)


@lru_cache(maxsize=None)
def _row_index(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries (a, b) of each row p = a r + b, p < r^2, as intp; read-only."""
    p = np.arange(r * r, dtype=np.intp)
    a = p // r
    b = p - a * r
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _closure_tuples(gens, r: int, seen: set) -> set:
    """Extend seen to its closure under right products by gens."""
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mat_mul(x, g, r)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


# ---- groups ----

class MatrixGroup:
    """A subgroup of GL2(F_r), stored as an explicit element set.

    elements holds each element once, sorted, so two groups are equal
    exactly when their element tuples are.  generators always generate the
    elements; when none are given, the greedy _generating_subset of the
    elements is taken.  Closure, the fingerprint and the generating set
    work on the tuples at every r; the kernel codes (_code_array) are made
    only for the exhaustive scans, and the membership set only on the
    first `in`.
    """

    __slots__ = ("r", "elements", "generators", "_set", "_fingerprint", "_codes")

    def __init__(self, r: int, elements, generators=None):
        validate_modulus(r)
        # sorted, a repeated element sits next to its copy; sorting a set
        # instead would cost a full sort of lists that arrive sorted
        elements = sorted(elements)
        if not all(map(ne, elements, islice(elements, 1, None))):
            elements = sorted(set(elements))
        self._init(r, tuple(elements), generators)

    def _init(self, r: int, elements: tuple, generators) -> None:
        self.r = r
        self.elements: tuple[Mat, ...] = elements
        self._set = None
        if generators is None:
            generators = _generating_subset(self.elements, r)
        self.generators: tuple[Mat, ...] = tuple(generators)
        self._fingerprint = None
        self._codes = None

    # construction

    @classmethod
    def close(cls, generators, r: int) -> "MatrixGroup":
        """Subgroup generated by the given matrices, by closure under right products."""
        validate_modulus(r)
        gens = [mat_reduce(g, r) for g in generators]
        for g in gens:
            if mat_det(g, r) == 0:
                raise NonInvertibleMatrix(f"generator {g} has determinant 0 mod {r}")
        return cls(r, _closure_tuples(gens, r, {IDENT}), gens)

    @classmethod
    def _from_codes(cls, r: int, codes: np.ndarray, generators) -> "MatrixGroup":
        """Group on sorted, distinct kernel codes, keeping the codes for later scans.

        The codes decode to the sorted, distinct elements, so neither the
        set nor the sort of __init__ is needed.
        """
        group = cls.__new__(cls)
        group._init(r, tuple(_kernel(r).decode(codes)), generators)
        group._codes = codes
        return group

    @classmethod
    def full(cls, r: int) -> "MatrixGroup":
        from .modfield import generator
        _require_kernel_range(r, "the full group GL2")
        g = generator(r)
        return cls(r, all_gl2(r), ((1, 1, 0, 1), (1, 0, 1, 1), (g, 0, 0, 1)))

    # basic queries

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, m: Mat) -> bool:
        if self._set is None:
            self._set = frozenset(self.elements)
        return m in self._set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixGroup):
            return NotImplemented
        return self.r == other.r and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.r, self.elements))

    def __repr__(self) -> str:
        return f"MatrixGroup(r={self.r}, order={self.order})"

    def _require_same_modulus(self, other: "MatrixGroup") -> None:
        if self.r != other.r:
            raise ModulusMismatch(f"moduli differ: {self.r} vs {other.r}")

    def _code_array(self) -> np.ndarray:
        """Kernel codes of the elements, in element order, for the exhaustive scans."""
        if self._codes is None:
            self._codes = _kernel(self.r).encode(self.elements)
        return self._codes

    # invariants

    def fingerprint(self):
        """Conjugation-invariant key: order plus the (trace, det) multiset."""
        if self._fingerprint is None:
            r = self.r
            a, b, c, d = _entries(self.elements)
            self._fingerprint = _trace_det_fingerprint((a + d) % r * r + (a * d - b * c) % r, r)
        return self._fingerprint

    def determinant_set(self) -> frozenset:
        return frozenset(mat_det(m, self.r) for m in self.elements)

    def sl2_part(self) -> "MatrixGroup":
        """Determinant-1 subgroup, with a generating set recomputed by closure.

        stdgroups.standard_sl2_part builds this from closed forms for the
        Cartan normalizers and g3.
        """
        r = self.r
        return MatrixGroup(r, [m for m in self.elements
                               if (m[0] * m[3] - m[1] * m[2]) % r == 1])

    def conjugate_by(self, m: Mat) -> "MatrixGroup":
        r = self.r
        mi = mat_inv(m, r)
        elems = [mat_mul(mat_mul(m, x, r), mi, r) for x in self.elements]
        gens = tuple(mat_mul(mat_mul(m, g, r), mi, r) for g in self.generators)
        return MatrixGroup(r, elems, gens)


def _trace_det_fingerprint(keys: np.ndarray, r: int):
    """Order plus the (trace, det) multiset, from the elements' keys trace * r + det."""
    counts = np.bincount(keys, minlength=r * r)
    present = np.flatnonzero(counts).tolist()
    return (len(keys), tuple(((key // r, key % r), n)
                             for key, n in zip(present, counts[present].tolist())))


def _generating_subset(members, r: int):
    """Greedy small generating set for an explicit subgroup element list.

    Scans the members in lexicographic order and keeps each one the
    generators so far do not already produce.
    """
    target = set(members)
    gens: list[Mat] = []
    seen = {IDENT}
    for m in sorted(target):
        if m in seen:
            continue
        gens.append(m)
        seen.add(m)
        _closure_tuples(gens, r, seen)
        if len(seen) == len(target):
            break
    return tuple(gens)


# ---- conjugacy and applicability ----

def are_conjugate(g_group: MatrixGroup, h_group: MatrixGroup):
    """Conjugating witness m with m G m^-1 = H, or None.

    Cheap conjugation invariants (order, trace-det fingerprint) run first;
    only on agreement does the full witness scan over GL2 start.  Mapping
    the generators into H suffices since both groups have equal order.
    The scan conjugates each generator by all of GL2 at once and returns
    the lexicographically first witness.
    """
    g_group._require_same_modulus(h_group)
    if g_group.order != h_group.order:
        return None
    if g_group.fingerprint() != h_group.fingerprint():
        return None
    k = _kernel(g_group.r)
    hits = k.conjugators([k.code(g) for g in g_group.generators], h_group._code_array())
    return k.gl_mats[hits[0]] if len(hits) else None


def is_applicable(group: MatrixGroup) -> bool:
    """Determinant surjective, and some element has trace 0 and determinant -1."""
    r = group.r
    if len(group.determinant_set()) != r - 1:
        return False
    return any(mat_trace(m, r) == 0 and mat_det(m, r) == r - 1 for m in group.elements)
