"""Spans and work counters recorded around isogate's public functions.

The tracer wraps functions from outside the package: every public function
of every isogate module, the MatrixGroup methods, and the private kernels
named in KERNELS.  Each wrapper is bound under every name that refers to
the original in any isogate module, so calls that go through a
`from .matgroup import are_conjugate` style import are traced as well;
without that rebinding their time would show up as the caller's self time.

Element-level arithmetic (SKIPPED) runs millions of times per workload; a
span around each call would cost more than the call, so its time stays in
the caller's self time.

A span is (id, parent id, name, start, end) in perf_counter seconds.  Self
time is a span's duration minus the durations of its direct children.
Spans are kept in memory and written once, when the traced run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

SKIPPED = frozenset({
    "isogate.matgroup.mat_mul", "isogate.matgroup.mat_det",
    "isogate.matgroup.mat_trace", "isogate.matgroup.mat_inv",
    "isogate.matgroup.mat_pow", "isogate.matgroup.mat_reduce",
    "isogate.matgroup.is_scalar", "isogate.matgroup.minus_identity",
    "isogate.matgroup.gl2_order", "isogate.matgroup.sl2_order",
    "isogate.subgroup_enum.element_label",
    "isogate.modfield.validate_modulus",
    "isogate.ratcurves.is_probable_prime",
    "isogate.modcurve.add_points", "isogate.modcurve.negate",
    "isogate.modcurve.on_curve",
})

# private kernels that ROADMAP names as optimisation targets
KERNELS = (
    "isogate.matgroup._generating_subset",
    "isogate.subgroup_enum._closure_capped",
    "isogate.subgroup_enum._normalizer_generators",
    "isogate.subgroup_enum._candidate_orbit_reps",
)

_METHODS = ("__init__", "close", "full", "fingerprint", "determinant_set",
            "sl2_part", "conjugate_by", "is_subgroup_of")

ROOT = "workload"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = [ROOT]
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._next_id = 1
        # each frame: [span id, name index, start, time covered by children]
        self._stack = [[0, 0, 0.0, 0.0]]

    def begin(self) -> None:
        """Open the root span."""
        self._stack[0][2] = time.perf_counter()

    def _enter(self, idx: int) -> list:
        frame = [self._next_id, idx, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        """Close a span; return its self time."""
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        dur = end - frame[2]
        parent[3] += dur
        name = self.names[frame[1]]
        self.calls[name] += 1
        own = dur - frame[3]
        self.self_s[name] += own
        self.spans.append((frame[0], parent[0], frame[1], frame[2], end))
        return own

    def wrap(self, name: str, fn, counter=None):
        idx = len(self.names)
        self.names.append(name)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                own = leave(frame)
            if counter is not None:
                counter(self.counts, own, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def finish(self) -> float:
        """Close the root span; return its duration."""
        root = self._stack[0]
        end = time.perf_counter()
        self.calls[ROOT] = 1
        self.self_s[ROOT] = (end - root[2]) - root[3]
        self.spans.append((0, None, 0, root[2], end))
        return end - root[2]

    def write(self, path: str) -> None:
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "columns": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


# ---- work counters, recorded at the same boundaries as the spans ----

def _count_order(key):
    def counter(counts, own, result, args, kwargs):
        counts[key] += len(result)
    return counter


def _count_init(counts, own, result, args, kwargs):
    counts["matgroup.MatrixGroup.elements"] += len(args[0].elements)


def _count_conjugate(counts, own, result, args, kwargs):
    counts["matgroup.are_conjugate.hits"] += result is not None


def _count_classes(counts, own, result, args, kwargs):
    counts["subgroup_enum.subgroup_classes.classes"] += result.count


def _count_scan(counts, own, result, args, kwargs):
    # the scan calls no traced function, so its self time is its time
    # less the speed probe's
    q = args[3]
    counts["pointcount.count_by_x_scan.field_elements"] += q
    if q <= 10 ** 4:
        counts["pointcount.count_by_x_scan.small_q_s"] += own
    elif q > 10 ** 5:
        counts["pointcount.count_by_x_scan.large_q_s"] += own


def _count_certified(counts, own, result, args, kwargs):
    counts["ratcurves.surjectivity_certificate.certified"] += result.certified


def _count_point_search(counts, own, result, args, kwargs):
    h = args[1] if len(args) > 1 else kwargs["height_bound"]
    counts["modcurve.rational_point_search.candidates"] += h * (2 * h + 1)


def _all_gl2_counter(fn):
    def counter(counts, own, result, args, kwargs):
        misses = fn.cache_info().misses
        if misses != counter.misses:
            counter.misses = misses
            counts["matgroup.all_gl2.elements"] += len(result)
    counter.misses = fn.cache_info().misses
    return counter


_COUNTERS = {
    "matgroup.MatrixGroup.close": _count_order("matgroup.MatrixGroup.close.elements"),
    "matgroup.MatrixGroup": _count_init,
    "matgroup.are_conjugate": _count_conjugate,
    "subgroup_enum.subgroup_classes": _count_classes,
    "gatefinder.reducible_sl2_candidates":
        _count_order("gatefinder.reducible_sl2_candidates.candidates"),
    "pointcount.count_by_x_scan": _count_scan,
    "ratcurves.surjectivity_certificate": _count_certified,
    "modcurve.rational_point_search": _count_point_search,
}


def _short(qualname: str) -> str:
    return qualname[len("isogate."):]


def isogate_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "isogate" or name.startswith("isogate."))]


def rebind_everywhere(original, replacement) -> None:
    """Replace the original under every isogate module name and module-level dict value."""
    for mod in isogate_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap and rebind every traced function."""
    for mod in isogate_modules():
        if mod.__name__ == "isogate":
            continue
        for attr, value in list(vars(mod).items()):
            qual = f"{mod.__name__}.{attr}"
            public = not attr.startswith("_") and qual not in SKIPPED
            if not (public or qual in KERNELS) or not callable(value):
                continue
            if isinstance(value, type) or getattr(value, "__module__", None) != mod.__name__:
                continue
            name = _short(qual)
            counter = _COUNTERS.get(name)
            if name == "matgroup.all_gl2":
                counter = _all_gl2_counter(value)
            rebind_everywhere(value, tracer.wrap(name, value, counter))
    from isogate.matgroup import MatrixGroup
    for attr in _METHODS:
        raw = MatrixGroup.__dict__.get(attr)
        if raw is None:
            continue
        name = "matgroup.MatrixGroup" if attr == "__init__" else f"matgroup.MatrixGroup.{attr}"
        counter = _COUNTERS.get(name)
        if isinstance(raw, classmethod):
            setattr(MatrixGroup, attr, classmethod(tracer.wrap(name, raw.__func__, counter)))
        else:
            setattr(MatrixGroup, attr, tracer.wrap(name, raw, counter))
