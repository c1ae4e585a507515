"""Span tracing from outside the program, for the per-layer metrics.

The program imports functions by name (``from .numerics import ode_solve``),
so a function is looked up through every module that imported it.  Each
traced function is therefore replaced at every module attribute that holds
it.  A span records its name, its parent span, the problem it belongs to,
and its start and end; self time is a span's duration minus the time its
children cover.  Counts are derived only from arguments and return values.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _solve_lp_cells(args, result):
    m, n = np.shape(args["A"])
    return {"cells": (m + 1) * (n + m + 1)}


def _psd_counts(args, result):
    return {"iterations": int(result.iterations),
            "undecided": int(result.status == "undecided")}


def _omegas(args, result):
    return {"omegas": int(result.omegas.size)}


def _ode_steps(args, result):
    steps = int(args["grid"].steps)
    # the error estimate repeats the run at half the step
    return {"steps": 3 * steps if args["error_estimate"] else steps}


# (module, function, count rule); every entry gets .calls, .ms and .self_ms
TRACED = [
    ("cli", "load_problem", None),
    ("cli", "validate_problem", None),
    ("cli", "emit_result", None),
    ("simplex", "solve_lp", _solve_lp_cells),
    ("certificates", "orthant_certificate", None),
    ("certificates", "psd_certificate", _psd_counts),
    ("possys", "exact_l1_gain", None),
    ("possys", "is_hurwitz_metzler", None),
    ("possys", "l1_gain_bisection", None),
    ("possys", "simulate", None),
    ("kyp", "kyp_lmi", None),
    ("kyp", "frequency_condition", _omegas),
    ("kyp", "pointwise_condition", None),
    ("kyp", "iqc_trajectory_condition", None),
    ("kyp", "iqc_integral", None),
    ("numerics", "ode_solve", _ode_steps),
    ("rankone", "decompose", None),
    ("rankone", "synthesize_Q", None),
    ("steering", "psd_steer", None),
    ("steering", "verify_k_controllability", None),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, problem, start, end]
        self.counts = defaultdict(int)
        self._stack = []
        self._problem = None
        self._installed = []

    def install(self, package="conecert"):
        """Wrap every TRACED function at each module attribute that holds it."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == package or name.startswith(package + "."))]
        for modname, fname, rule in TRACED:
            original = getattr(sys.modules[f"{package}.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, rule)
            sites = [mod for mod in modules if getattr(mod, fname, None) is original]
            for mod in sites:
                setattr(mod, fname, wrapper)
                self._installed.append((mod, fname, original))
        return len(self._installed)

    def uninstall(self):
        for mod, fname, original in reversed(self._installed):
            setattr(mod, fname, original)
        self._installed = []

    def problem(self, pid):
        self._problem = pid

    def _wrap(self, name, fn, rule):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, self._problem, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if rule is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in rule(bound.arguments, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def totals(self):
        """Per traced function: inclusive and self seconds summed over spans."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl = defaultdict(float)
        own = defaultdict(float)
        for i, (name, parent, _, start, end) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[i]
        return incl, own
