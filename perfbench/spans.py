"""In-memory span recorder wrapped around diracvortex's public functions.

``install`` replaces each traced function, in every ``diracvortex`` module
that bound it (``from .x import y`` copies the name at import), with a
wrapper that records a span: name, start, end and the index of the span
that was open when it began.  Selected wrappers also keep exact counts
(points evaluated, roots found, coefficient bytes, repeated operator keys).
``summary`` reduces the spans to per-name call counts, inclusive and self
times, and is additive, so summaries of several processes can be merged.
Nothing here is imported by an untraced run.
"""

from array import array
from collections import Counter
import functools
import sys
import time

import numpy as np

#: check-group functions of ``verify`` with their metric names
VERIFY_GROUPS = (
    ("clifford_checks", "clifford"), ("laguerre_checks", "laguerre"),
    ("dirac_sweep_check", "dirac_sweep"), ("eigenvalue_checks", "eigenvalue"),
    ("quadrature_checks", "quadrature"), ("commutator_checks", "commutator"),
    ("current_structure_checks", "current_structure"), ("ring_checks", "ring"),
    ("ground_protection_checks", "ground_protection"),
    ("half_integer_checks", "half_integer"), ("gordon_checks", "gordon"),
    ("spectrum_checks", "spectrum"), ("unit_checks", "unit"),
)

QUADRATURE_FUNCTIONS = (
    "integrated_density_quadrature", "integrated_jz_quadrature",
    "r2_moment_quadrature", "gauge_covariant_jz_quadrature",
    "magnetic_moment_quadrature", "reduced_spin_quadrature",
)

CLIFFORD_FUNCTIONS = (
    "gamma", "gamma_lower", "gamma_cylindrical", "sigma_cylindrical",
    "sigma_tensor", "check_sigma_commutator", "clifford_residual",
)

#: span name -> group; a group counts only its outermost spans
GROUPS = {f"observables.{fn}": "observables.quadrature" for fn in QUADRATURE_FUNCTIONS}
GROUPS.update({"polyspinor.commutator_jj_residual": "polyspinor.commutator",
               "polyspinor.commutator_dirac_j_residual": "polyspinor.commutator"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class SpanRecorder:
    """Spans in flat arrays (name id, parent index, start ns, end ns)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.counters = Counter()
        self.gauss_degrees = set()
        self.poly_keys = set()
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None):
        """Wrap fn so that each call records a span; ``after`` sees the call."""
        nid = self._id(name)
        name_of, parent, start, end, stack = (self.name_of, self.parent, self.start,
                                              self.end, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn):
        """Wrap fn with an exact call count and no timing."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch_everywhere(self, module, attr, wrapper_for):
        """Replace module.attr in every diracvortex module that bound it."""
        orig = getattr(module, attr)
        wrapper = wrapper_for(orig)
        for mod in [m for k, m in sys.modules.items()
                    if k == "diracvortex" or k.startswith("diracvortex.")]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))

    def patch_method(self, cls, attr, name, after=None):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.span(name, orig, after))
        self._restore.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # count hooks, run after the wrapped call returns

    def _points(self, key, index, argname):
        counters = self.counters

        def after(args, kwargs, result):
            counters[key] += int(np.size(_arg(args, kwargs, index, argname)))
        return after

    def _roots(self, args, kwargs, result):
        self.counters["laguerre.positive_roots.roots"] += len(result)

    def _gauss(self, args, kwargs, result):
        self.gauss_degrees.add(int(_arg(args, kwargs, 0, "degree")))

    def _poly_init(self, args, kwargs, result):
        obj = args[0]
        coeffs = obj.coeffs
        self.counters["polyspinor.coeff_bytes"] += coeffs.nbytes
        self.counters["polyspinor.coeffs"] += coeffs.size
        self.counters["polyspinor.nonzero"] += int(np.count_nonzero(coeffs))
        key = (obj.energy, obj.kz, obj.mass, obj.scale)
        if key in self.poly_keys:
            self.counters["polyspinor.repeat_keys"] += 1
        else:
            self.poly_keys.add(key)

    def install(self):
        """Wrap every traced function of an already imported diracvortex."""
        from diracvortex import (cli, clifford, laguerre, observables, polyspinor,
                                 states, verify)

        def spans(name, after=None):
            return lambda fn: self.span(name, fn, after)

        self.patch_everywhere(cli, "main", spans("cli.main"))
        self.patch_everywhere(observables, "current_profile", spans(
            "observables.current_profile",
            self._points("observables.current_profile.points", 2, "r")))
        for fn in QUADRATURE_FUNCTIONS:
            self.patch_everywhere(observables, fn, spans(f"observables.{fn}"))
        self.patch_everywhere(observables, "counterflow_rings",
                              spans("observables.counterflow_rings"))
        self.patch_everywhere(states, "evaluate_spinor", spans("states.evaluate_spinor"))
        self.patch_everywhere(states, "energy", spans("states.energy"))
        self.patch_everywhere(laguerre, "eval_laguerre", spans(
            "laguerre.eval_laguerre", self._points("laguerre.eval.points", 2, "x")))
        self.patch_everywhere(laguerre, "positive_roots",
                              spans("laguerre.positive_roots", self._roots))
        self.patch_everywhere(laguerre, "gauss_laguerre_nodes",
                              spans("laguerre.gauss_laguerre_nodes", self._gauss))
        for fn in ("dirac_residual", "commutator_jj_residual",
                   "commutator_dirac_j_residual"):
            self.patch_everywhere(polyspinor, fn, spans(f"polyspinor.{fn}"))
        cls = polyspinor.PolyGaussSpinor
        self.patch_method(cls, "__init__", "polyspinor.__init__", self._poly_init)
        for attr in ("_shift", "__add__", "apply_matrix"):
            self.patch_method(cls, attr, f"polyspinor.{attr}")
        for fn, _ in VERIFY_GROUPS:
            if hasattr(verify, fn):
                self.patch_everywhere(verify, fn, spans(f"verify.{fn}"))
        for fn in CLIFFORD_FUNCTIONS:
            self.patch_everywhere(clifford, fn,
                                  lambda orig: self.counted("clifford.calls", orig))

    def summary(self):
        """Additive reduction: per-name calls, inclusive and self nanoseconds."""
        ids = np.array(self.name_of, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.int64)
               - np.array(self.start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=ids.size)
        self_ns = dur - children
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        selft = np.bincount(ids, weights=self_ns, minlength=k)
        out = {"spans": {name: {"calls": int(calls[i]), "incl_ns": float(incl[i]),
                                "self_ns": float(selft[i])}
                         for i, name in enumerate(self.names)},
               "groups": {}, "counters": dict(self.counters)}
        group_names = sorted(set(GROUPS.values()))
        gid_of_name = np.array([group_names.index(GROUPS[n]) if n in GROUPS else -1
                                for n in self.names] or [-1], dtype=np.int64)
        gid = gid_of_name[ids] if ids.size else ids
        pgid = np.where(nested, gid[np.maximum(parent, 0)], -1) if ids.size else ids
        outer = (gid >= 0) & (pgid != gid)
        for g, gname in enumerate(group_names):
            sel = outer & (gid == g)
            out["groups"][gname] = {"calls": int(np.count_nonzero(sel)),
                                    "incl_ns": float(dur[sel].sum())}
        if "laguerre.positive_roots" in self._ids and "laguerre.eval_laguerre" in self._ids:
            pr = self._ids["laguerre.positive_roots"]
            ev = self._ids["laguerre.eval_laguerre"]
            under = (ids == ev) & nested & (ids[np.maximum(parent, 0)] == pr)
            out["counters"]["laguerre.positive_roots.evals"] = int(np.count_nonzero(under))
        out["counters"]["laguerre.gauss_nodes.distinct"] = len(self.gauss_degrees)
        return out


def merge(a, b):
    """Sum two summaries (or any nested dicts of numbers)."""
    out = dict(a)
    for key, value in b.items():
        if key not in out:
            out[key] = value
        elif isinstance(value, dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = out[key] + value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(s):
    """Per-module metrics from a (merged) summary; absent layers read 0."""
    spans = s.get("spans", {})
    groups = s.get("groups", {})
    c = s.get("counters", {})

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def incl(name):
        return spans.get(name, {}).get("incl_ns", 0.0)

    def per_call(name, scale):
        return _ratio(incl(name), calls(name)) / scale

    def group(name, key):
        return groups.get(name, {}).get(key, 0)

    m = {
        "cli.self_ms": (_ratio(spans.get("cli.main", {}).get("self_ns", 0.0),
                               calls("cli.main")) / 1e6, "ms"),
        "observables.current_profile.ns_per_point": (
            _ratio(incl("observables.current_profile"),
                   c.get("observables.current_profile.points", 0)), "ns"),
        "observables.quadrature.calls": (group("observables.quadrature", "calls"), "count"),
        "observables.quadrature.ms_per_call": (
            _ratio(group("observables.quadrature", "incl_ns"),
                   group("observables.quadrature", "calls")) / 1e6, "ms"),
        "observables.rings.ms_per_call": (per_call("observables.counterflow_rings", 1e6),
                                          "ms"),
        "states.evaluate_spinor.calls": (calls("states.evaluate_spinor"), "count"),
        "states.evaluate_spinor.us_per_call": (per_call("states.evaluate_spinor", 1e3),
                                               "us"),
        "states.energy.calls": (calls("states.energy"), "count"),
        "laguerre.eval.calls": (calls("laguerre.eval_laguerre"), "count"),
        "laguerre.eval.points": (c.get("laguerre.eval.points", 0), "count"),
        "laguerre.eval_s": (incl("laguerre.eval_laguerre") / 1e9, "s"),
        "laguerre.positive_roots.ms_per_call": (per_call("laguerre.positive_roots", 1e6),
                                                "ms"),
        "laguerre.root_evals_per_root": (
            _ratio(c.get("laguerre.positive_roots.evals", 0),
                   c.get("laguerre.positive_roots.roots", 0)), "ratio"),
        "laguerre.gauss_nodes.calls": (calls("laguerre.gauss_laguerre_nodes"), "count"),
        "laguerre.gauss_nodes.distinct_frac": (
            _ratio(c.get("laguerre.gauss_nodes.distinct", 0),
                   calls("laguerre.gauss_laguerre_nodes")), "frac"),
        "polyspinor.dirac_residual.ms_per_call": (
            per_call("polyspinor.dirac_residual", 1e6), "ms"),
        "polyspinor.commutator.ms_per_call": (
            _ratio(group("polyspinor.commutator", "incl_ns"),
                   group("polyspinor.commutator", "calls")) / 1e6, "ms"),
        "polyspinor.objects": (calls("polyspinor.__init__"), "count"),
        "polyspinor.shift.calls": (calls("polyspinor._shift"), "count"),
        "polyspinor.add.calls": (calls("polyspinor.__add__"), "count"),
        "polyspinor.apply_matrix.calls": (calls("polyspinor.apply_matrix"), "count"),
        "polyspinor.coeff_bytes": (c.get("polyspinor.coeff_bytes", 0), "bytes"),
        "polyspinor.nonzero_frac": (_ratio(c.get("polyspinor.nonzero", 0),
                                           c.get("polyspinor.coeffs", 0)), "frac"),
        "polyspinor.repeat_key_frac": (_ratio(c.get("polyspinor.repeat_keys", 0),
                                              calls("polyspinor.__init__")), "frac"),
        "clifford.calls": (c.get("clifford.calls", 0), "count"),
    }
    for fn, short in VERIFY_GROUPS:
        m[f"verify.{short}_s"] = (per_call(f"verify.{fn}", 1e9), "s")
    return m
