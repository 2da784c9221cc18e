"""Span tracing of cbsim's layers from outside the package.

The tracer replaces the public functions that cbsim's modules call each
other through with thin wrappers that record one span per call: name,
start, end, parent span and operation id.  It patches every binding of a
function inside the ``cbsim`` package (``from .solver import steady_state``
in ``cbs`` is a binding of its own), so the calls the program makes are the
calls that get timed.  Spans stay in memory until :meth:`Tracer.write`.

An entry point that no longer exists (say ``ResolventSolver.factor`` after
a kernel rewrite) is recorded as absent; its metrics then read 0 and the
summary lists it, instead of the run failing.
"""

import functools
import gzip
import importlib
import os
import sys
from time import perf_counter

#: Span name -> (owner, attribute).  ``owner`` is a module, or
#: ``module:Class`` for a method.
HOOKS = {
    "liouvillian.assemble": ("cbsim.liouvillian", "assemble"),
    "atoms.embed": ("cbsim.atoms", "embed"),
    "solver.steady_state": ("cbsim.solver", "steady_state"),
    "solver.resolvent.factor": ("cbsim.solver:ResolventSolver", "factor"),
    "cbs.sweep_alpha_collect": ("cbsim.cbs", "sweep_alpha_collect"),
    "cbs.cbs_components_isotropic": ("cbsim.cbs", "cbs_components_isotropic"),
    "cbs.cbs_components": ("cbsim.cbs", "cbs_components"),
    "cbs.cbs_spectrum": ("cbsim.cbs", "cbs_spectrum"),
    "cbs.harmonic_extract": ("cbsim.cbs", "harmonic_extract"),
    "dressed.validate_spectrum": ("cbsim.dressed", "validate_spectrum"),
    "cli.write_csv": ("cbsim.cli", "write_csv"),
}

#: Entry calls of the ``cbs`` layer; their self time is ``cbs.self_s``.
CBS_ENTRIES = ("cbs.sweep_alpha_collect", "cbs.cbs_components_isotropic",
               "cbs.cbs_components", "cbs.cbs_spectrum")

SOLVE = "solver.resolvent.solve"
OP = "op"

# Span record fields: name, start, end, parent span index (-1 for a root),
# operation id.
NAME, START, END, PARENT = range(4)


def _resolve_owner(owner):
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


class Tracer:
    """Records spans of traced calls; install with :meth:`install`."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.absent = []
        self._stack = []
        self._patched = []
        self.op = None

    # -- recording ------------------------------------------------------

    def count(self, key, value):
        """Add ``value`` to the counter ``key``."""
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter()
            return after(result, args, kwargs) if after else result

        return traced

    def run_op(self, op_id, fn):
        """Run ``fn()`` as operation ``op_id`` inside a root span."""
        self.op = op_id
        try:
            return self._wrap(OP, fn)()
        finally:
            self.op = None

    # -- per-hook result handlers ----------------------------------------

    def _after_factor(self, solve, args, kwargs):
        counted = False
        traced_solve = self._wrap(SOLVE, solve)

        def solve_and_count(rhs):
            nonlocal counted
            if not counted:
                # Complex LU of an n x n matrix: 8/3 n^3 real flops.
                self.count("solver.resolvent.gflop", 8.0 / 3.0 * len(rhs)**3 * 1e-9)
                counted = True
            return traced_solve(rhs)

        return solve_and_count

    def _after_phase_grid(self, result, args, kwargs):
        self.count("cbs.phase_points",
                   kwargs.get("n_a", 4) * kwargs.get("n_p", 4))
        return result

    def _after_spectrum(self, result, args, kwargs):
        self._after_phase_grid(result, args, kwargs)
        self.count("spectra.omega_points", len(result.background.omega))
        return result

    def _after_write_csv(self, path, args, kwargs):
        self.count("cli.write_csv.bytes", os.path.getsize(path))
        return path

    # -- installation ---------------------------------------------------

    def install(self):
        """Patch every cbsim binding of each hooked function."""
        after = {
            "solver.resolvent.factor": self._after_factor,
            "cbs.cbs_components": self._after_phase_grid,
            "cbs.cbs_spectrum": self._after_spectrum,
            "cli.write_csv": self._after_write_csv,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cbsim" or n.startswith("cbsim."))]
        for name, (owner_path, attr) in HOOKS.items():
            owner = _resolve_owner(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, after.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction ------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its children cover.

        Calls run on one thread, so children of a span never overlap.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def per_op_metrics(self, n_ops):
        """Per-layer metrics averaged over ``n_ops`` traced operations."""
        totals = {}

        def add(key, value):
            totals[key] = totals.get(key, 0.0) + value

        for name in ("liouvillian.assemble", "atoms.embed", "solver.steady_state",
                     "solver.resolvent.factor", "cbs.harmonic_extract",
                     "dressed.validate_spectrum", "cli.write_csv"):
            totals[name + ".calls"] = 0
            totals[name + ".s"] = 0.0
        totals[SOLVE + ".s"] = 0.0
        totals["cbs.self_s"] = 0.0
        for span, own in zip(self.spans, self.self_times()):
            name = span[NAME]
            if name + ".calls" in totals:
                add(name + ".calls", 1)
            add(name + ".s", span[END] - span[START])
            if name in CBS_ENTRIES:
                add("cbs.self_s", own)
        for key in ("cbs.phase_points", "spectra.omega_points",
                    "solver.resolvent.gflop", "cli.write_csv.bytes"):
            totals[key] = 0
        for key, value in self.counts.items():
            add(key, value)
        return {key: value / n_ops for key, value in totals.items()}

    def write(self, path):
        """Write spans as gzipped tab-separated lines with a header."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
