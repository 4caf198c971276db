"""Span tracer that wraps named public functions of weylspecht from outside.

Each wrapped call records a span ``[name, start, end, parent, info]`` in
memory, where ``parent`` is the index of the enclosing wrapped call (or -1)
and ``info`` holds size counters read from the returned public object. A
function is wrapped at every place it is bound, the defining module, every
module that did ``from .x import y`` and the package namespace, so calls
between modules are seen too.

Per-element helpers (``apply_to_root``, ``compose``, ``index_action``,
``act_vector``, ``inner_product``, ``reflect_root``) are deliberately not
wrapped: their cost shows as the self time of their caller.
"""

from __future__ import annotations

import importlib
import sys
from fractions import Fraction
from time import perf_counter

TRACED = (
    "rootsys.build_root_system",
    "weyl.generate_group",
    "weyl.subgroup_generated",
    "weyl.reflection_in",
    "weyl.word_to_element",
    "subsystem.closure_from_simples",
    "subsystem.normalizer",
    "subsystem.normalizer_reps",
    "subsystem.distinguished_reps",
    "subsystem.orthogonal_complement",
    "specht.enumerate_tabloids",
    "specht.polytabloid",
    "specht.build_specht_module",
    "specht.quotient_dimension",
    "specht.matrix_of",
    "specht.character_value",
    "specht.character_norm",
    "specht.specht_report",
    "exactlin.row_reduce",
    "exactlin.contains",
    "exactlin.form_complement",
    "exactlin.intersect",
    "verify.is_useful_subsystem",
    "verify.is_good_subsystem",
    "verify.vanishing_obstruction",
    "verify.submodule_theorem_probe",
    "cli.main",
)

# Spans covering the tracer's own counter reads; their parents' self time excludes them.
COUNTER_SPAN = "trace.counters"


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


def _basis_info(basis, vectors_in: int) -> dict:
    bits = 0
    nnz = 0
    for row in basis.rows:
        nnz += len(row.entries)
        for c in row.entries.values():
            b = _coeff_bits(c)
            if b > bits:
                bits = b
    return {"vectors_in": vectors_in, "nnz": nnz, "bits": bits}


# traced function -> reader of size counters from its returned public object
COUNTERS = {
    "weyl.generate_group": lambda group, _: {"order": len(group)},
    "specht.enumerate_tabloids": lambda space, _: {"tabloids": len(space)},
    "specht.build_specht_module": lambda m, _: {"generators": len(m.generators), "dim": m.dimension},
    "exactlin.row_reduce": _basis_info,
}


class Tracer:
    """Holds the spans of the calls made since the last ``take``."""

    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def take(self) -> list:
        """Return the recorded spans and start a fresh record; call between operations."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def _wrap(self, name: str, fn):
        out = self.spans
        stack = self._stack
        counters = COUNTERS.get(name)
        is_row_reduce = name == "exactlin.row_reduce"

        def wrapper(*args, **kwargs):
            vectors_in = 0
            if is_row_reduce:
                # row_reduce materialises its input itself; doing it here only lets us count it
                args = list(args)
                if len(args) > 1:
                    args[1] = list(args[1])
                    vectors_in = len(args[1])
                elif "vectors" in kwargs:
                    kwargs["vectors"] = list(kwargs["vectors"])
                    vectors_in = len(kwargs["vectors"])
            parent = stack[-1] if stack else -1
            idx = len(out)
            span = [name, perf_counter(), 0.0, parent, None]
            out.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counters:
                span[4] = counters(result, vectors_in)
                out.append([COUNTER_SPAN, span[2], perf_counter(), parent, None])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, names=TRACED) -> None:
        """Wrap each named function; a name that no longer exists is recorded as absent."""
        found = {}
        for name in names:
            mod_name, fn_name = name.split(".")
            try:
                fn = getattr(importlib.import_module("weylspecht." + mod_name), fn_name, None)
            except ImportError:
                fn = None
            if callable(fn):
                found[name] = fn
            else:
                self.absent.append(name)
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "weylspecht" or n.startswith("weylspecht."))
        ]
        for name, fn in found.items():
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
