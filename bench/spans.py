"""Tracing from outside the program: timing wrappers installed at run time.

``install(tracer)`` replaces public dendrikit functions and methods by
wrappers and ``Tracer.uninstall`` puts the originals back.  Modules that
bind a function with ``from .x import y`` hold their own reference, so a
function is replaced in every dendrikit module whose namespace holds it.

Check-level functions record spans (name, start, end, parent span, operation
id).  Hot methods (``FinAlgebra.multiply``, ``Vec.__init__``,
``Window.contains``, ``iter_box``) only add to counters, because a span per
call would cost more than the call.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field, replace
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    attrs: dict = field(default_factory=dict)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it covered by its child spans.

    Child intervals are merged first, so overlapping children are not
    subtracted twice.
    """
    children = defaultdict(list)
    for idx, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def fastest_spans(tracers: list, op_ids: list, choice: list) -> list:
    """One pass's spans, each operation's taken from ``tracers[choice[i]]``.

    The spans of one operation are contiguous in a tracer (its root span
    first), so a block is copied with its parent indices shifted.
    """
    out = []
    for op_id, r in zip(op_ids, choice):
        block = [(i, s) for i, s in enumerate(tracers[r].spans) if s.op == op_id]
        if not block:
            continue
        base, offset = block[0][0], len(out)
        for _i, s in block:
            out.append(replace(s, parent=None if s.parent is None else s.parent - base + offset))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self._patches: list = []

    # --- recording ------------------------------------------------------------

    def span(self, name: str, fn, attrs=None, on_result=None, on_error=None):
        """Wrap ``fn`` so each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = Span(name, 0.0, 0.0, parent, self.op,
                        attrs(args, kwargs) if attrs else {})
            self.spans.append(span)
            self.stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                self.stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            span.end = perf_counter()
            self.stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def hot(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call only adds to ``name.calls`` and ``name.total_s``."""
        count, total = self.count, self.total
        calls_key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            total[name] += perf_counter() - t0
            count[calls_key] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def hot_generator(self, name: str, fn):
        """Wrap a generator function, counting the items it yields."""
        count = self.count
        key = f"{name}.yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                count[key] += n

        return wrapper

    def root(self, op_id: str):
        """Context manager for the span that covers one whole operation."""
        return _Root(self, op_id)

    # --- patching -------------------------------------------------------------

    def patch_function(self, module, name: str, wrapper_for):
        """Replace ``module.name`` in every dendrikit module that binds it."""
        original = getattr(module, name)
        wrapped = wrapper_for(original)
        for modname, mod in list(sys.modules.items()):
            if modname == "dendrikit" or modname.startswith("dendrikit."):
                if mod is not None and mod.__dict__.get(name) is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def patch_attr(self, owner, name: str, wrapped):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


class _Root:
    def __init__(self, tracer: Tracer, op_id: str):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        t.op = self.op_id
        self.idx = len(t.spans)
        parent = t.stack[-1] if t.stack else None
        self.span = Span("op", 0.0, 0.0, parent, self.op_id)
        t.spans.append(self.span)
        t.stack.append(self.idx)
        self.span.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.span.end = perf_counter()
        self.tracer.stack.pop()
        self.tracer.op = None
        return False


def _dim_attrs(args, kwargs):
    a = args[0] if args else None
    return {"n": getattr(a, "dim", None), "kind": getattr(a, "kind", None)}


def _window_attrs(args, kwargs):
    w = next((a for a in args if hasattr(a, "N")), None)
    return {"N": w.N if w is not None else None}


AFFINE_CHECKS = (
    "check_laurent_perm_axioms",
    "check_graded_form",
    "check_nu_pairing",
    "check_completed_perm_coalgebra",
    "check_affine_associativity",
    "check_completed_asi",
    "check_completed_coassociativity",
)
CONSTRUCTIONS = ("dendriform_to_prelie", "dendriform_to_assoc", "commutator_lie",
                 "tensor_lie", "tensor_assoc")


def install(tracer: Tracer):
    """Wrap the public functions of every dendrikit module."""
    from dendrikit import affinization, algebras, bialgebras, cli, exact, functors, io, ybe
    from outcomes import nonzero_count

    t = tracer
    count = t.count

    # exact
    t.patch_function(exact, "mat_mul", lambda f: t.span("exact.mat_mul", f))
    for cls in (exact.Tensor2, exact.Tensor3):
        for meth in ("__add__", "__sub__", "is_zero", "first_nonzero"):
            t.patch_attr(cls, meth, t.span("exact.tensor_arith", cls.__dict__[meth]))
    t.patch_attr(exact.Vec, "__init__", t.hot("exact.Vec.new", exact.Vec.__dict__["__init__"]))

    # algebras
    def on_axioms(args, kwargs, rep):
        n = args[0].dim
        count["algebras.check_axioms.tuples"] += sum(
            leaf_count(res) // n for res in rep.residuals.values())

    t.patch_function(algebras, "check_axioms",
                     lambda f: t.span("algebras.check_axioms", f, _dim_attrs, on_axioms))
    t.patch_function(algebras, "check_bimodule",
                     lambda f: t.span("algebras.check_bimodule", f))

    def on_multiply(v):
        if not any(v.coords):
            count["algebras.FinAlgebra.multiply.zero"] += 1

    t.patch_attr(algebras.FinAlgebra, "multiply",
                 t.hot("algebras.FinAlgebra.multiply",
                       algebras.FinAlgebra.__dict__["multiply"], on_multiply))
    from_residuals = algebras.CheckReport.__dict__["from_residuals"].__func__

    def counted_from_residuals(subject, residuals):
        count["algebras.residual_nonzero"] += nonzero_count(residuals)
        return from_residuals(subject, residuals)

    t.patch_attr(algebras.CheckReport, "from_residuals",
                 staticmethod(counted_from_residuals))

    # functors
    t.patch_function(functors, "check_square",
                     lambda f: t.span("functors.check_square", f))
    for name in CONSTRUCTIONS:
        t.patch_function(functors, name, lambda f: t.span("functors.constructions", f))

    # bialgebras
    for name in ("check_coalgebra", "check_quadratic_perm_identities"):
        t.patch_function(bialgebras, name,
                         lambda f, name=name: t.span(f"bialgebras.{name}", f))
    t.patch_function(bialgebras, "check_bialgebra",
                     lambda f: t.span("bialgebras.check_bialgebra", f, _dim_attrs))
    for name in ("induce_lie_bialgebra", "induce_asi_bialgebra"):
        t.patch_function(bialgebras, name, lambda f: t.span("bialgebras.induce", f))

    # ybe
    def ybe_attrs(args, kwargs):
        nnz = sum(1 for row in args[1].coeffs for c in row if c != 0)
        count["ybe.ybe_residual.r_pairs"] += nnz * nnz
        return _dim_attrs(args, kwargs)

    def on_ybe(args, kwargs, res):
        count["algebras.residual_nonzero"] += nonzero_count(res.coeffs)

    t.patch_function(ybe, "ybe_residual",
                     lambda f: t.span("ybe.ybe_residual", f, ybe_attrs, on_ybe))
    for name in ("coboundary_coproduct", "check_ooperator"):
        t.patch_function(ybe, name, lambda f, name=name: t.span(f"ybe.{name}", f))
    for name in [n for n in vars(ybe) if n.startswith("transfer_")]:
        t.patch_function(ybe, name, lambda f: t.span("ybe.transfer", f))

    # affinization
    for name in AFFINE_CHECKS:
        def on_affine(args, kwargs, rep, name=name):
            count[f"affinization.{name}.checked"] += rep.checked
            count[f"affinization.{name}.failures"] += len(rep.failures)

        t.patch_function(
            affinization, name,
            lambda f, name=name, cb=on_affine: t.span(f"affinization.{name}", f,
                                                      _window_attrs, cb))

    def on_contains(hit):
        if hit:
            count["affinization.Window.contains.hits"] += 1

    t.patch_attr(affinization.Window, "contains",
                 t.hot("affinization.Window.contains",
                       affinization.Window.__dict__["contains"], on_contains))
    t.patch_function(affinization, "iter_box",
                     lambda f: t.hot_generator("affinization.iter_box", f))

    # io
    def parse_attrs(args, kwargs):
        count["io.parse_algebra.calls"] += 1
        try:
            count["io.parse_algebra.bytes"] += os.path.getsize(args[0])
        except OSError:
            pass
        return {}

    def on_parse_error(exc):
        if isinstance(exc, io.FileFormatError):
            count["io.rejected"] += 1

    t.patch_function(io, "parse_algebra",
                     lambda f: t.span("io.parse_algebra", f, parse_attrs,
                                      on_error=on_parse_error))

    def on_serialize(args, kwargs, text):
        count["io.Report.bytes"] += len(text.encode())

    for meth in ("to_json", "to_text"):
        t.patch_attr(io.Report, meth,
                     t.span("io.Report.serialize", io.Report.__dict__[meth],
                            on_result=on_serialize))

    # cli: the click command callbacks
    for command in cli.main.commands.values():
        t.patch_attr(command, "callback", t.span("cli.command", command.callback))


def leaf_count(x) -> int:
    """Number of scalar leaves in nested tuples (the residual's size)."""
    if isinstance(x, (tuple, list)):
        return sum(leaf_count(v) for v in x)
    return 1
