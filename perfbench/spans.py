"""Spans around the library's layers, installed by the benchmark itself.

A traced pass wraps the public functions of each layer of
``src/rigiditylab`` and aggregates, per span name, the call count, the
total time and the time covered by child spans (so self time = total -
children).  Spans are aggregated in memory rather than logged one by one:
a census pass makes millions of calls.

Every wrapper is installed under each name through which callers look
the function up.  ``from .ff import rank`` gives ``rigidity`` its own
reference, so patching ``ff.rank`` alone would leave that span reading
zero; :func:`install` therefore replaces every reference to the original
object in every ``rigiditylab`` module and in the owning class.
"""

from __future__ import annotations

import functools
import sys
import time

_RAISED = object()


def _mults(counts, args, kwargs, result):
    a, b = args[0], args[1]
    counts["ff.matmul.mults"] += a.rows * b.cols * a.cols


def _closure_elements(counts, args, kwargs, result):
    # A closure that hits its cap raises after building exactly cap
    # elements; the library's callers pass cap as a keyword.
    if result is _RAISED:
        counts["matgrp.closure.elements"] += kwargs.get("cap", 0)
    else:
        counts["matgrp.closure.elements"] += result.size


def _kept_elements(counts, args, kwargs, result):
    counts["matgrp.closure.kept"] += args[0].size


def _evals_bound(counts, args, kwargs, result):
    rs, d = args[0], args[1]
    if d >= 2:
        counts["rootdata.j_scan.evals_bound"] += (
            d ** rs.rank * len(rs.positive_roots))


# (span name, module, attribute path, counter called on exit).  Spans
# sharing a name are counted at their outermost call only, so nested
# eliminations (kernel_dim -> rank -> rank_of_rows) count once.
SPANS = [
    ("cli.main", "cli", "main", None),
    ("ff.matmul", "ff", "Matrix.__matmul__", _mults),
    ("ff.elim", "ff", "rank", None),
    ("ff.elim", "ff", "kernel_dim", None),
    ("ff.elim", "ff", "rank_of_rows", None),
    ("ff.elim", "ff", "row_space_basis", None),
    ("ff.elim", "ff", "Matrix.det", None),
    ("ff.elim", "ff", "Matrix.inverse", None),
    ("ff.field_create", "ff", "field_create", None),
    ("matgrp.generating_pair", "matgrp", "generating_pair", None),
    ("matgrp.closure", "matgrp", "group_closure", _closure_elements),
    ("matgrp.conjugacy_classes", "matgrp",
     "FiniteGroupTable.conjugacy_classes", None),
    ("matgrp.order_of", "matgrp", "FiniteGroupTable.order_of", None),
    ("matgrp.table_inv", "matgrp", "FiniteGroupTable.inv", None),
    ("matgrp.table_mul", "matgrp", "FiniteGroupTable.mul", None),
    ("matgrp.load_tuple", "matgrp", "load_tuple", None),
    ("matgrp.projective_order", "matgrp", "projective_order", None),
    ("matgrp.element_order", "matgrp", "element_order", None),
    ("matgrp.is_absolutely_irreducible", "matgrp",
     "is_absolutely_irreducible", None),
    ("adjoint.ad_matrix", "adjoint", "AdjointRep.ad_matrix", None),
    ("adjoint.class_dim", "adjoint", "AdjointRep.class_dim", None),
    ("adjoint.smoothness_flags", "adjoint", "smoothness_flags", None),
    ("coinv.coinvariant_dim", "coinv", "coinvariant_dim", None),
    ("rigidity.cocycle_spaces", "rigidity", "cocycle_spaces", None),
    ("rigidity.tangent_product_rank", "rigidity", "tangent_product_rank",
     None),
    ("rigidity.central_lift", "rigidity", "central_lift", None),
    ("rigidity.rigidity_verdict", "rigidity", "rigidity_verdict", None),
    ("census.census", "census", "census", _kept_elements),
    ("census.census_to_json", "census", "census_to_json", None),
    ("rootdata.build", "rootdata", "build", None),
    ("rootdata.cartan_det", "rootdata", "cartan_det", None),
    ("rootdata.class_dim_table", "rootdata", "class_dim_table", None),
    ("rootdata.j_scan", "rootdata", "j_scan", _evals_bound),
    ("rootdata.rigid_tuples", "rootdata", "rigid_tuples", None),
]

# Lookups through which callers reach a wrapped function.  Each must hold
# a wrapper after install(), or its span could silently read zero.
CALL_SITES = [
    ("cli", "generating_pair"), ("cli", "group_closure"),
    ("cli", "load_tuple"), ("cli", "rigidity_verdict"),
    ("cli", "coinvariant_dim"),
    ("rigidity", "rank"), ("rigidity", "kernel_dim"),
    ("adjoint", "kernel_dim"), ("rigidity", "coinvariant_dim"),
    ("rigidity", "is_absolutely_irreducible"),
    ("rigidity", "projective_order"), ("rigidity", "element_order"),
    ("adjoint", "element_order"), ("rigidity", "smoothness_flags"),
    ("coinv", "row_space_basis"), ("ff", "rank_of_rows"),
    ("matgrp", "group_closure"), ("rootdata", "j_scan"),
    ("ff", "Matrix.__matmul__"), ("ff", "Matrix.__mul__"),
    ("ff", "Matrix.det"), ("ff", "Matrix.inverse"),
]


class Tracer:
    """Aggregated spans: name -> [calls, total seconds, child seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {
            "ff.matmul.mults": 0, "matgrp.closure.elements": 0,
            "matgrp.closure.kept": 0, "rootdata.j_scan.evals_bound": 0,
        }
        self._stack = [0.0]
        self._active: dict[str, list[int]] = {}
        self.wrappers: set[int] = set()

    def wrap(self, name: str, fn, on_exit=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        active = self._active.setdefault(name, [0])
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = 1
            stack.append(0.0)
            result = _RAISED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                active[0] = 0
                stats[0] += 1
                stats[1] += dt
                stats[2] += stack.pop()
                stack[-1] += dt
                if on_exit is not None:
                    on_exit(counts, args, kwargs, result)

        # wraps() keeps the original's module and name, so a wrapped
        # function still pickles by reference (FiniteField.__reduce__
        # names field_create).
        functools.wraps(fn)(wrapper)
        self.wrappers.add(id(wrapper))
        return wrapper

    def self_total(self) -> float:
        return sum(total - child for _, total, child in self.stats.values())


def _resolve(obj, path: str):
    owner = obj
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(package: str = "rigiditylab") -> Tracer:
    """Wrap every span target of the imported package; return the tracer."""
    modules = {name[len(package) + 1:]: mod
               for name, mod in sys.modules.items()
               if name.startswith(package + ".")}
    tracer = Tracer()
    for name, modname, path, on_exit in SPANS:
        owner, attr = _resolve(modules[modname], path)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, on_exit)
        places = [owner] + list(modules.values())
        for place in places:
            for key, value in list(vars(place).items()):
                if value is original:
                    setattr(place, key, wrapper)
    for modname, path in CALL_SITES:
        owner, attr = _resolve(modules[modname], path)
        if id(vars(owner)[attr]) not in tracer.wrappers:
            raise RuntimeError(f"span not installed at {modname}.{path}")
    return tracer
