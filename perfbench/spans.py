"""Span tracer that measures finecert's modules from outside the package.

The tracer wraps a fixed list of public functions per module and replaces
every module-namespace name bound to one of them (``cycle`` imports
``von_neumann_entropy`` from ``numerics``, so both names are swapped).
The package itself carries no instrumentation; ``uninstall`` puts the
original objects back.

A span is ``[key, parent index, start, end, info]``. Spans of one
operation live in memory until ``end_op`` folds them into per-function
call counts, inclusive and self times, and the work counts below. A call
re-entering a function that already has an open span (``render_json``
recursing) is folded into the outer span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: Traced public functions, per layer (= finecert module).
TRACED = {
    "numerics": (
        "hermitian_eig",
        "check_hermitian",
        "check_density_matrix",
        "von_neumann_entropy",
        "shannon_entropy",
        "binary_entropy",
    ),
    "mub": ("mub_family", "verify_mub", "quadratic_basis", "mub_vector"),
    "qubit": (
        "pauli_eigenbasis",
        "pauli_outcome_projector",
        "spin_projector",
        "pair_certainty",
        "pair_bound",
        "state_to_bloch",
        "bloch_to_state",
        "triple_pauli_bound",
        "average_certainty",
    ),
    "bounds": (
        "measurement_ensemble",
        "certainty_operator",
        "zeta_spectral",
        "zeta_gridsearch",
        "mub_pair_ensemble",
        "mub_pair_bound",
        "pauli_pair_ensemble",
        "pauli_triple_ensemble",
        "lhs_value",
        "hyperspherical_state",
    ),
    "cycle": (
        "component_state",
        "component_states",
        "check_layout",
        "cycle_config",
        "chamber_distribution",
        "work_extraction_w1",
        "work_retrieval_w2",
        "singleton_arguments",
        "delta_w",
        "haar_random_basis",
        "scan_bases",
    ),
    "cli": ("main", "build_parser", "render_json", "matrix_pairs", "state_pairs"),
}

#: Name of the pseudo-span covering ``import finecert.cli`` in a traced CLI run.
IMPORT_KEY = "cli.import"
#: Prefix of the span summary a traced CLI child writes as its last stderr line.
MARKER = "PERFBENCH-SPANS "

SCAN = "cycle.scan_bases"
PAIR_ENSEMBLE = "bounds.mub_pair_ensemble"
#: Functions whose returned vectors count as "built" for mub.vectors_built_per_used.
VECTOR_SOURCES = ("mub.mub_family", "mub.quadratic_basis", "mub.mub_vector")
#: Per-sample counts inside scan_bases spans.
EIGENSOLVE = "numerics.hermitian_eig"
VALIDATIONS = ("cycle.cycle_config", "cycle.check_layout")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


#: span info recorded from a call's arguments and result
INFO = {
    SCAN: lambda args, kwargs, result: int(_arg(args, kwargs, 1, "n_samples")),
    "bounds.zeta_gridsearch": lambda args, kwargs, result: int(
        _arg(args, kwargs, 1, "steps_per_angle")
    )
    ** (2 * (_arg(args, kwargs, 0, "ens").dim - 1)),
    # vectors built: all rows of a family, one basis, or one vector
    "mub.mub_family": lambda args, kwargs, result: result.bases.shape[0] * result.bases.shape[1],
    "mub.quadratic_basis": lambda args, kwargs, result: result.shape[0],
    "mub.mub_vector": lambda args, kwargs, result: 1,
}


def function_keys():
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


class Tracer:
    """Wraps the traced functions of an imported finecert package."""

    def __init__(self, package):
        layers = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in TRACED}
        self.modules = [package, *layers.values()]
        self.originals = {
            f"{layer}.{name}": getattr(layers[layer], name)
            for layer, names in TRACED.items()
            for name in names
        }
        self.spans = []
        self._stack = []
        self._open = defaultdict(int)
        self._wrappers = {key: self._wrap(key, fn) for key, fn in self.originals.items()}
        self._key_of = {id(fn): key for key, fn in self.originals.items()}
        self._patched = []

    def _wrap(self, key, fn):
        spans, stack, is_open, clock = self.spans, self._stack, self._open, time.perf_counter
        info = INFO.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_open[key]:
                return fn(*args, **kwargs)
            span = [key, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            is_open[key] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                is_open[key] = 0
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module in self.modules:
            for name, value in list(vars(module).items()):
                key = self._key_of.get(id(value))
                if key is not None and value is self.originals[key]:
                    setattr(module, name, self._wrappers[key])
                    self._patched.append((module, name, value))

    def uninstall(self):
        for module, name, value in self._patched:
            setattr(module, name, value)
        self._patched.clear()

    def begin_op(self):
        self.spans.clear()
        self._stack.clear()

    def end_op(self):
        """Fold this operation's spans into a summary (see ``fold_spans``)."""
        summary = fold_spans(self.spans)
        self.spans.clear()
        return summary


def empty_summary():
    return {
        "calls": defaultdict(int),
        "self_s": defaultdict(float),
        "incl_s": defaultdict(float),
        "counts": defaultdict(int),
    }


def fold_spans(spans):
    """Per-function calls, self and inclusive seconds, and work counts.

    Self time is a span's duration minus the durations of its direct
    children. The counts are: ``samples`` scanned, ``eig_in_scan`` and
    ``validations_in_scan`` calls made inside scan_bases spans,
    ``pair_vectors_used``/``pair_vectors_built`` inside mub_pair_ensemble
    spans (outermost vector sources only), and ``grid_points`` evaluated.
    """
    out = empty_summary()
    child = [0.0] * len(spans)
    in_scan = [False] * len(spans)
    pair = [-1] * len(spans)  # index of the enclosing mub_pair_ensemble span
    in_source = [False] * len(spans)
    built_in_pair = defaultdict(int)
    counts = out["counts"]
    for i, (key, parent, start, end, info) in enumerate(spans):
        duration = end - start
        if parent >= 0:
            child[parent] += duration
            in_scan[i] = in_scan[parent] or spans[parent][0] == SCAN
            pair[i] = parent if spans[parent][0] == PAIR_ENSEMBLE else pair[parent]
            in_source[i] = in_source[parent] or spans[parent][0] in VECTOR_SOURCES
        out["calls"][key] += 1
        out["incl_s"][key] += duration
        if key == SCAN:
            counts["samples"] += info
        elif key == "bounds.zeta_gridsearch":
            counts["grid_points"] += info
        if in_scan[i]:
            if key == EIGENSOLVE:
                counts["eig_in_scan"] += 1
            elif key in VALIDATIONS:
                counts["validations_in_scan"] += 1
        if key in VECTOR_SOURCES and pair[i] >= 0 and not in_source[i]:
            built_in_pair[pair[i]] += info
    for i, (key, parent, start, end, info) in enumerate(spans):
        out["self_s"][key] += (end - start) - child[i]
    counts["pair_vectors_built"] += sum(built_in_pair.values())
    counts["pair_vectors_used"] += 2 * len(built_in_pair)
    return out


def merge(total, summary):
    """Add one operation's summary (as from ``fold_spans`` or JSON) into ``total``."""
    for field in ("calls", "self_s", "incl_s", "counts"):
        for key, value in summary[field].items():
            total[field][key] += value
    return total
