"""Span tracer wrapped around pptmerge's public functions at run time.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces every
module-level reference to a public function of the traced modules (and
the ``__post_init__`` validators of their dataclasses, and the
eigen/singular-value routines of ``numpy.linalg``) with a wrapper that
records a span ``(name, start, end, parent, op id)``.  ``uninstall``
puts the originals back, so traced and untraced passes can alternate in
one process.

Spans are kept in memory for the current operation only; ``end_op``
folds them into per-name totals (calls, inclusive time, self time =
duration minus the time covered by direct child spans) and clears them.
"""

import importlib
import inspect
import time
from collections import defaultdict

import numpy

TRACED_MODULES = ("core", "measures", "bloch", "families", "classify",
                  "pptopt", "stateio", "cli")
# cli.py has no __all__; its one public entry point is main.
_EXPORTS_OVERRIDE = {"cli": ("main",)}
LINALG_SPANS = {"eigh": "linalg.eig", "eigvalsh": "linalg.eig",
                "eig": "linalg.eig", "eigvals": "linalg.eig",
                "svd": "linalg.svd"}


def _solver_counts(result):
    return {"sweeps": result.iterations, "converged": float(bool(result.converged)),
            "solves": 1.0}


# Counters read off arguments and results, keyed by span name.
COUNTERS = {
    "pptopt.max_overlap_ppt": lambda a, r: _solver_counts(r),
    "pptopt.min_trace_distance_ppt": lambda a, r: _solver_counts(r),
    "pptopt.geometric_distillability_ppt":
        lambda a, r: {"brackets": 1.0, "bracket_width": r.high - r.low},
    "stateio.loads_state": lambda a, r: {"bytes": len(a[0])},
    "stateio.dumps_state": lambda a, r: {"bytes": len(r)},
}


class Tracer:
    """Records spans around library calls and aggregates them per operation."""

    def __init__(self):
        self.active = False  # spans are recorded only while this is set
        self.op_id = None
        self._spans = []
        self._stack = []
        self._patches = []
        self.ops = 0
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.eig_calls_by_dim = defaultdict(int)
        self.ops_by_dim = defaultdict(int)
        self.setup_s = defaultdict(float)

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self._spans, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if counter is not None and self.op_id is not None:
                for key, value in counter(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced functions everywhere pptmerge refers to them."""
        package = importlib.import_module("pptmerge")
        modules = {m: importlib.import_module(f"pptmerge.{m}") for m in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr in _EXPORTS_OVERRIDE.get(short, getattr(mod, "__all__", ())):
                obj = getattr(mod, attr, None)
                if inspect.isclass(obj):
                    post = obj.__dict__.get("__post_init__")
                    if post is not None:
                        self._patch(obj, "__post_init__",
                                    self._wrap(f"{short}.{attr}", post))
                elif callable(obj) and getattr(obj, "__module__", "") == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for attr, name in LINALG_SPANS.items():
            self._patch(numpy.linalg, attr, self._wrap(name, getattr(numpy.linalg, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------

    def _fold(self):
        child_s = defaultdict(float)
        for name, start, end, parent, _ in self._spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals = []
        for idx, (name, start, end, parent, _) in enumerate(self._spans):
            totals.append((name, end - start, end - start - child_s[idx], parent))
        self._spans.clear()
        return totals

    def end_setup(self):
        """Fold spans recorded outside any operation into set-up totals."""
        self.active = False
        for name, dur, _, parent in self._fold():
            if parent < 0:
                self.setup_s[name.split(".")[0]] += dur

    def begin_op(self, op_id):
        self.op_id = op_id
        self.active = True

    def end_op(self, dim):
        """Fold the spans of the operation that just ended."""
        self.ops += 1
        self.ops_by_dim[dim] += 1
        for name, dur, own, _ in self._fold():
            self.calls[name] += 1
            self.incl_s[name] += dur
            self.self_s[name] += own
            if name == "linalg.eig":
                self.eig_calls_by_dim[dim] += 1
        self.op_id = None
        self.active = False
