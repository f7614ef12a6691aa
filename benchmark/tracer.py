"""Span tracing of the biquad layers, installed from outside the package.

``Tracer.install`` replaces every function defined at module level in the
seven layer modules (and every alias another layer module imported of it),
``BiquadraticForm.__post_init__``, ``numpy.linalg.eigh``/``eigvalsh`` and
the ``minimize`` that ``biquad.gram`` imported from scipy with wrappers that
record a span: name, start, end, parent span and op id.  Spans stay in
memory; ``uninstall`` restores every original.  A span's layer is the part
of its name before the first dot; LAPACK eigen-solves count as ``linalg``
whichever module calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "forms", "partsym", "linalg", "gram", "simple", "meig")
HARNESS = "harness"


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# Counters recorded at layer boundaries: span name -> fn(args, kwargs, result, failed)
# returning {counter: increment}.
_COUNTS = {
    "forms.form_from_dict": lambda a, k, r, e: {"forms.terms_parsed": len(a[0].get("terms", ()))},
    "forms.verify_sos": lambda a, k, r, e: {"forms.verify_points": _arg(a, k, 2, "samples", 1000)},
    "partsym.reconstruct": lambda a, k, r, e: {"partsym.dense_bytes": 8 * (a[0].m * a[0].n) ** 2},
    "partsym.sos_decompose_structured": lambda a, k, r, e: {"partsym.factors": 0 if e else len(r)},
    "partsym.sos_decompose_naive": lambda a, k, r, e: {"partsym.factors": 0 if e else len(r)},
    "gram.min_rank_search": lambda a, k, r, e: {"gram.searches": 1, "gram.conclusive": 0 if e else 1},
    "gram.minimize": lambda a, k, r, e: {"gram.nfev": 0 if e else int(r.nfev)},
    "simple.lower_bound_certificate": lambda a, k, r, e: {
        "simple.certificates": 1, "simple.certified": int(bool(not e and r.applicable))},
    "meig.meig_solve": lambda a, k, r, e: {
        "meig.pairs": 0 if e else len(r), "meig.starts": 2 * max(1, _arg(a, k, 1, "restarts", 20))},
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = _COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            failed = True
            result = None
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                record[2] = clock()
                stack.pop()
                if counter is not None:
                    for key, inc in counter(args, kwargs, result, failed).items():
                        counters[key] += inc

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"biquad.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        wrapped[id(modules["gram"].minimize)] = self.wrap("gram.minimize", modules["gram"].minimize)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._replace(module, attr, wrapped[id(obj)])
        form_cls = modules["forms"].BiquadraticForm
        self._replace(form_cls, "__post_init__", self.wrap("forms.form_init", form_cls.__post_init__))
        self._replace(np.linalg, "eigh", self.wrap("linalg.np_eigh", np.linalg.eigh))
        self._replace(np.linalg, "eigvalsh", self.wrap("linalg.np_eigvalsh", np.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span(self, name: str):
        """Context manager recording one harness span (the root of an op)."""
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.record = [self.name, time.perf_counter(), 0.0, t._stack[-1] if t._stack else -1, t.op_id]
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[str, float]:
    """Seconds per layer: each span's duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        out[name.split(".", 1)[0]] += (end - start) - child[idx]
    return out


def inclusive(spans, names) -> float:
    """Seconds inside spans named in ``names``, counting nested ones once."""
    names = set(names)
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def span_count(spans, names) -> int:
    names = set(names)
    return sum(1 for s in spans if s[0] in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass; times in ms.  The caller adds the
    harness-level ones (stdout and file sizes, overhead)."""
    ms = lambda *names: 1e3 * inclusive(spans, names) / passes  # noqa: E731
    per = lambda value: value / passes  # noqa: E731
    selfs = self_times(spans)
    c = counters
    metrics = {f"{layer}.self_ms": 1e3 * selfs.get(layer, 0.0) / passes for layer in LAYERS + (HARNESS,)}
    metrics.update({
        "forms.save_ms": ms("forms.save_decomposition", "forms.save_form", "forms.dump_json"),
        "forms.load_json_ms": ms("forms.load_json"),
        "forms.from_dict_ms": ms("forms.form_from_dict"),
        "forms.terms_parsed": per(c["forms.terms_parsed"]),
        "forms.form_init_ms": ms("forms.form_init"),
        "forms.form_inits": per(span_count(spans, ["forms.form_init"])),
        "forms.verify_sos_ms": ms("forms.verify_sos"),
        "forms.verify_points": per(c["forms.verify_points"]),
        "partsym.reconstruct_ms": ms("partsym.reconstruct"),
        "partsym.detect_ms": ms("partsym.detect_x_symmetric"),
        "partsym.dense_mb": per(c["partsym.dense_bytes"]) / 1e6,
        "partsym.reduce_ms": ms("partsym.reduce_general"),
        "partsym.check_psd_ms": ms("partsym.check_psd_monic"),
        "partsym.decompose_ms": ms("partsym.sos_decompose_structured", "partsym.sos_decompose_naive"),
        "partsym.undo_ms": ms("partsym.undo_reduction"),
        "partsym.factors": per(c["partsym.factors"]),
        "linalg.sym_eig_calls": per(span_count(spans, ["linalg.sym_eig"])),
        "linalg.sym_eig_ms": ms("linalg.sym_eig"),
        "linalg.psd_factor_ms": ms("linalg.psd_factor"),
        "linalg.rank_calls": per(span_count(spans, ["linalg.numerical_rank", "linalg.rank_from_eigenvalues"])),
        "linalg.is_psd_calls": per(span_count(spans, ["linalg.is_psd"])),
        "linalg.lapack_eig_calls": per(span_count(spans, ["linalg.np_eigh", "linalg.np_eigvalsh"])),
        "gram.search_ms": ms("gram.min_rank_search"),
        "gram.searches": per(c["gram.searches"]),
        "gram.conclusive_ratio": _ratio(c["gram.conclusive"], c["gram.searches"]),
        "gram.minimize_calls": per(span_count(spans, ["gram.minimize"])),
        "gram.nfev": per(c["gram.nfev"]),
        "gram.minimize_ms": ms("gram.minimize"),
        "gram.boundary_ms": ms("gram._hit_boundary"),
        "gram.factor_ms": ms("gram.factor_gram"),
        "simple.detect_ms": ms("simple.detect_simple"),
        "simple.certificate_ms": ms("simple.lower_bound_certificate"),
        "simple.certified_ratio": _ratio(c["simple.certified"], c["simple.certificates"]),
        "meig.solve_ms": ms("meig.meig_solve"),
        "meig.pairs": per(c["meig.pairs"]),
        "meig.pairs_per_start": _ratio(c["meig.pairs"], c["meig.starts"]),
    })
    return metrics
