"""Span tracer for the traced benchmark rounds.

`install()` replaces, from outside the program, every public function of
each zetadiff module by a wrapper that records a span, at each name under
which a zetadiff module looks it up (its own module and every module that
imported it by name).  It also wraps `mpmath.zeta` and `mpmath.loggamma`,
so evaluations are counted where the program asks for them.  Untraced
rounds never import this module.

A span is (id, name, start, end, parent id, extra); `extra` is the mp.dps
in force for an evaluation, the binomial terms a difference call sums
(counted from its arguments), or the truncation height a contour result
reports.  Spans stay in memory until `write()`; `layer_metrics()` turns
them into the per-layer metrics listed in README.md.

Threads: a span opened on a pool thread with nothing open on that thread
takes the main thread's innermost open span as its parent, and a span's
self time is its duration minus the union of its children's intervals, so
overlapping children of a threaded batch are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time

import mpmath

LAYERS = ("mpcore", "precision", "differences", "asymptotics", "series", "contour", "cli")

_LOOKUPS = frozenset(
    f"mpcore.{f}" for f in ("zeta_int", "hurwitz_int", "euler_gamma", "digamma_rational")
)
_PREFILLS = frozenset(
    f"mpcore.{f}" for f in ("prefill_zeta_cache", "prefill_hurwitz_cache", "prefill_constant_cache")
)
_RESULTS = frozenset(("contour.rice_integral", "contour.saddle_contour_integral"))


def _terms(name):
    """Binomial terms a difference call sums, from its arguments."""
    first = 1 if name == "c" else 2  # c sums k = 1..n, the others k = 2..n
    method_at = {"delta": 2, "d": 2}.get(name)

    def count(args, kwargs):
        if method_at is not None:
            method = kwargs.get("method", args[method_at] if len(args) > method_at else "binomial")
            if method != "binomial":
                return 0
        return max(0, args[0] - first + 1)

    return count


_ARG_EXTRAS = {f"differences.{f}": _terms(f) for f in ("b", "delta", "A", "d", "c")}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn, arg_extra=None, result_extra=None, dps_extra=False):
        spans, ids, stack_of, main_stack = self.spans, self._ids, self._stack, self._main_stack
        clock = time.perf_counter
        mp = mpmath.mp

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(ids)
            if arg_extra is not None:
                extra = arg_extra(args, kwargs)
            elif dps_extra:
                extra = mp.dps
            else:
                extra = None
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if result_extra is not None and result is not None:
                    extra = result_extra(result)
                spans.append((sid, name, start, end, parent, extra))

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and the mpmath evaluators."""
        modules = [importlib.import_module("zetadiff")]
        names = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"zetadiff.{layer}")
            modules.append(mod)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    names[obj] = f"{layer}.{attr}"
        wrapped = {}
        for fn, name in names.items():
            result_extra = (lambda r: float(r.truncation_height)) if name in _RESULTS else None
            wrapped[fn] = self.wrap(
                name, fn, _ARG_EXTRAS.get(name), result_extra, dps_extra=name == "mpcore.zeta_cx"
            )
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for attr in ("zeta", "loggamma"):
            self._set(mpmath, attr, self.wrap(f"mpmath.{attr}", getattr(mpmath, attr), dps_extra=True))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,extra\n")
            for sid, name, start, end, parent, extra in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{'' if extra is None else extra}\n")


def _self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for _, _, start, end, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        kids = children.get(sid)
        if kids:
            kids.sort()
            lo, hi = kids[0]
            for a, b in kids[1:]:
                if a > hi:
                    covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            covered += hi - lo
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics (see README.md) from one traced round's spans."""
    self_s = _self_times(spans)
    name_of = {sid: name for sid, name, *_ in spans}
    layer_of = lambda name: name.partition(".")[0]
    m = {
        "mpcore.prefill_s": 0.0, "mpcore.harmonic_s": 0.0, "mpcore.lookup_s": 0.0,
        "mpcore.lookup_calls": 0, "mpcore.zeta_evals": 0, "mpcore.zeta_eval_s": 0.0,
        "differences.self_s": 0.0, "differences.terms": 0, "precision.format_s": 0.0,
        "precision.format_calls": 0, "asymptotics.self_s": 0.0, "asymptotics.envelope_calls": 0,
        "series.self_s": 0.0, "contour.self_s": 0.0, "contour.rule_s": 0.0,
        "contour.height_max": 0.0, "contour.loggamma_evals": 0, "cli.self_s": 0.0,
    }
    evals_s, evals_dps, results = [], [], 0
    for sid, name, start, end, parent, extra in spans:
        dur = end - start
        layer = layer_of(name)
        parent_name = name_of.get(parent, "")
        parent_layer = layer_of(parent_name)
        if layer in ("differences", "asymptotics", "series", "contour", "cli"):
            m[f"{layer}.self_s"] += self_s[sid]
        if name in _PREFILLS:
            m["mpcore.prefill_s"] += dur
        elif name == "mpcore.harmonic_mpf":
            m["mpcore.harmonic_s"] += dur
        elif name in _LOOKUPS:
            m["mpcore.lookup_s"] += self_s[sid]
            m["mpcore.lookup_calls"] += 1
        elif name == "precision.format_decimal":
            m["precision.format_s"] += dur
            m["precision.format_calls"] += 1
        elif name == "asymptotics.envelope_bound":
            m["asymptotics.envelope_calls"] += 1
        elif name == "contour.legendre_rule":
            m["contour.rule_s"] += dur
        if name.startswith("differences.") and extra:
            m["differences.terms"] += extra
        if name in _RESULTS:
            if parent_layer != "contour":
                results += 1
            m["contour.height_max"] = max(m["contour.height_max"], extra or 0.0)
        if name == "mpmath.zeta" and parent_layer == "mpcore" and parent_name != "mpcore.zeta_cx":
            m["mpcore.zeta_evals"] += 1
            m["mpcore.zeta_eval_s"] += dur
        if parent_layer == "contour" and name in ("mpmath.zeta", "mpcore.zeta_cx"):
            evals_s.append(dur)
            evals_dps.append(extra)
        if parent_layer == "contour" and name == "mpmath.loggamma":
            m["contour.loggamma_evals"] += 1
    m["differences.terms_per_s"] = (
        m["differences.terms"] / m["differences.self_s"] if m["differences.self_s"] > 0 else 0.0
    )
    m["contour.integrand_evals"] = len(evals_s)
    m["contour.evals_per_result"] = len(evals_s) / results if results else 0.0
    m["contour.eval_s_mean"] = statistics.fmean(evals_s) if evals_s else 0.0
    m["contour.eval_dps_mean"] = statistics.fmean(evals_dps) if evals_dps else 0.0
    return m
