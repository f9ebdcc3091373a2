"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions named in ``LAYERS`` at every
binding inside the ``mathieu_cert`` package (``from .x import f`` copies
included), so a call through any module is recorded.  Nothing under ``src/``
changes.  A name listed here that the package no longer defines raises
``LookupError``: a renamed function must be renamed here, not dropped
silently.

Spans stay in memory as ``(name, start, end, parent, request, work)`` tuples,
where ``parent`` is the index of the enclosing span (``-1`` for none) and
``work`` counts RK4 steps for the integrators.  Spans inside in-program
stages (a ``--trace FILE`` option of the CLI) are a later change.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "mathieu_cert"

# module -> public functions wrapped there
LAYERS = {
    "cli": ("main", "build_certificate", "load_model"),
    "model": ("linearize", "shift_to_zero", "quadratic_remainder_bound", "system_matrix_entries",
              "model_from_dict"),
    "periodic_signal": ("integrate", "sup_norm", "zero_mean_antiderivative"),
    "averaging": ("build_transform", "build_u1", "build_u2_u3", "bogolyubov_condition",
                  "mean_phi_a"),
    "bounds": ("compute_bound_chain",),
    "floquet_lyapunov": ("deviation_matrizant", "matrizant", "spectral_radius_linear_system",
                         "solve_periodic_lyapunov_scaled", "solve_constant_lyapunov",
                         "bvp_residual"),
    "robustness": ("q_of_mu", "envelope_rate_integrals", "decay_envelope",
                   "sample_attraction_boundary", "attraction_certificate", "linear_budget",
                   "nonlinear_budget", "perturbation_from_dict"),
    "simulate": ("integrate", "integrate_batch", "verify_envelope", "nonlinear_system"),
}

REQUEST = "request"  # name of the root span the worker opens per request


def _steps(system, t_end, steps_per_period):
    # the step count of simulate._run
    return max(1, int(round(t_end / (system.period / steps_per_period))))


# name -> function of the bound arguments giving the RK4 steps of one call
WORK = {
    "floquet_lyapunov.deviation_matrizant": lambda a: a["n_steps"],
    "floquet_lyapunov.matrizant": lambda a: a["n_steps"],
    "simulate.integrate": lambda a: _steps(a["system"], a["t_end"], a["steps_per_period"]),
    "simulate.integrate_batch": lambda a: len(a["inits"])
    * _steps(a["system"], a["t_end"], a["steps_per_period"]),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.request = -1

    def _open(self, name: str, work: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request, work])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        work_of = WORK.get(name)
        sig = inspect.signature(fn) if work_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = 0
            if work_of is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                work = work_of(bound.arguments)
            idx = self._open(name, work)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def run_request(self, rid: int, call):
        """Run ``call()`` inside the root span of request ``rid``."""
        self.request = rid
        idx = self._open(REQUEST, 0)
        try:
            return call()
        finally:
            self._close(idx)

    def install(self) -> None:
        """Wrap every function in LAYERS wherever the package binds it."""
        importlib.import_module(PACKAGE)
        for mod in LAYERS:
            importlib.import_module(f"{PACKAGE}.{mod}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod, names in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for name in names:
                fn = getattr(home, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                    raise LookupError(f"{PACKAGE}.{mod}.{name} is not a function defined there")
                wrapper = self.span(f"{mod}.{name}", fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
