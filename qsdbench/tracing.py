"""Spans for the traced benchmark run.

A span is ``[name, start, end, parent, op, fields]``: ``parent`` is the index
of the enclosing span (None at top level), ``op`` the id of the operation
being run (None outside operations) and ``fields`` what the call returned
that exposes inner work.  Spans stay in memory and are written out when the
run ends.

``instrument`` wraps public qsd functions in every qsd module that refers to
them, so calls made inside the library get child spans.  It is used in the
traced run only.  Wrapped functions are only ever called from the calling
thread (the Monte Carlo worker threads run no wrapped code), so one stack
of open spans is enough.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> public functions recorded under it, as (module, attribute)
LAYERS = {
    "optimizer.optimize_general": [("qsd.optimizer", "optimize_general")],
    "optimizer.psk_solve": [("qsd.optimizer", "psk3_solve"), ("qsd.optimizer", "psk4_solve")],
    "ensembles.spectral_factor": [("qsd.ensembles", "spectral_factor")],
    "coupling.build_dilation": [("qsd.coupling", "build_dilation")],
    "coupling.feasibility_residual": [("qsd.coupling", "feasibility_residual")],
    "simulate.run_monte_carlo": [("qsd.simulate", "run_monte_carlo")],
    "closed_form.oracle": [
        ("qsd.closed_form", "helstrom_bound"),
        ("qsd.closed_form", "symmetric_min_error"),
        ("qsd.closed_form", "srm_error_general"),
        ("qsd.closed_form", "srm_error_circulant"),
    ],
}


def _result_fields(name: str, result) -> dict:
    if name == "optimizer.optimize_general":
        return {
            "restarts": result.restarts_used,
            "converged": bool(result.converged),
            "trace_len": len(result.objective_trace),
        }
    if name == "simulate.run_monte_carlo":
        return {"shots": result.shots, "elapsed": result.elapsed}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, {}])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, **fields) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5].update(fields)
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, failed=True)
                raise
            self.end(index, **_result_fields(name, result))
            return result

        return traced

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in a child process under the open span.

        ``time.perf_counter`` reads the system-wide monotonic clock on
        Linux, so child timestamps line up with the parent's.
        """
        parent = self._open[-1] if self._open else None
        base = len(self.spans)
        for name, start, end, up, _, fields in spans:
            self.spans.append(
                [name, start, end, parent if up is None else base + up, self.op, fields]
            )


def instrument(tracer: Tracer, extra: dict | None = None):
    """Wrap the ``LAYERS`` functions (plus ``extra``) in every loaded qsd
    module that refers to them, and ``Ensemble.__init__``.  Returns a
    function that undoes the wrapping."""
    from qsd.ensembles import Ensemble

    modules = [m for key, m in list(sys.modules.items()) if key == "qsd" or key.startswith("qsd.")]
    undo = []
    for name, targets in {**LAYERS, **(extra or {})}.items():
        for module_name, attr in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapped = tracer.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        undo.append((module, key, original))
    init = Ensemble.__init__
    Ensemble.__init__ = tracer.wrap("ensembles.Ensemble", init)
    undo.append((Ensemble, "__init__", init))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span never overlap: they run one after another on the
    thread that opened the parent."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
