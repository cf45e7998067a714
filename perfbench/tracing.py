"""Spans and call counters for the traced run, kept in the benchmark's own code.

Spans sit around calls into each layer's public functions.  The library is
not instrumented: the stage spans come from a stage-by-stage replay of an
experiment through the same public calls that ``run_experiment`` makes, and
the call counts come from class-level wrappers of ``MetricSpec.log_distance``
and ``SelfMapSpec.__call__`` that exist only inside ``Tracer.counting()``.
``Tracer.spanning()`` wraps the functions a module calls for as long as one
traced call runs, for a layer whose own time is too small for a replay.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from pathlib import Path

from mulfix import (
    MetricSpec,
    MulfixError,
    SelfMapSpec,
    Status,
    classify,
    detect_limit_point,
    estimate_constants,
    picard,
    sample_box,
    uniqueness_probe,
    verify_axioms,
    verify_bound,
    verify_reverse_triangle,
)

# Replay spans whose durations add up to the work of run_experiment; what
# run_experiment takes beyond their sum is experiment.unattributed_s.
STAGES = (
    "maps.sample_box", "metrics.verify_axioms", "metrics.verify_reverse_triangle",
    "maps.map_invariant", "conditions.classify", "solver.picard",
    "solver.uniqueness_probe", "solver.verify_bound",
)
STALLED = (Status.MAX_ITER, Status.CYCLE_DETECTED)


class Tracer:
    """In-memory spans (name, start, end, parent, experiment id) and counters.

    Span ends are read from the process's CPU clock, like every time of the
    benchmark (see run.py).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.log_distance_calls = 0
        self.map_calls = 0

    @contextmanager
    def span(self, name: str, exp: str, pass_no: int):
        rec = {"id": len(self.spans), "name": name, "exp": exp, "pass": pass_no,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.process_time()}
        calls0, maps0 = self.log_distance_calls, self.map_calls
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.process_time()
            rec["log_distance_calls"] = self.log_distance_calls - calls0
            rec["map_calls"] = self.map_calls - maps0

    @contextmanager
    def counting(self):
        """Count scalar log_distance and map calls while the block runs."""
        log_distance, call = MetricSpec.log_distance, SelfMapSpec.__call__

        def counted_log_distance(metric, x, y):
            self.log_distance_calls += 1
            return log_distance(metric, x, y)

        def counted_call(T, point):
            self.map_calls += 1
            return call(T, point)

        MetricSpec.log_distance = counted_log_distance
        SelfMapSpec.__call__ = counted_call
        try:
            yield
        finally:
            MetricSpec.log_distance = log_distance
            SelfMapSpec.__call__ = call

    @contextmanager
    def spanning(self, module, names: dict, exp: str, pass_no: int):
        """Span each call that code in ``module`` makes to the named functions.

        ``names`` maps a function's name in the module to its span name.
        """
        originals = {name: getattr(module, name) for name in names}

        def spanned(fn, span_name):
            def call(*args, **kwargs):
                with self.span(span_name, exp, pass_no):
                    return fn(*args, **kwargs)
            return call

        for name, fn in originals.items():
            setattr(module, name, spanned(fn, names[name]))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def replay(tracer: Tracer, config, exp: str, pass_no: int) -> dict:
    """Re-run one experiment stage by stage under spans; returns its counts.

    Mirrors ``run_experiment``: sample, axioms, reverse triangle, map
    invariance, classification, one Picard run per start, the uniqueness
    probe and, when constants are declared, the bound checks.  Constant
    estimation is timed on its own as well, so that classify's self time can
    exclude it.  Each stalled run's first leg is then re-scanned with the
    public ``detect_limit_point``.
    """
    def span(name):
        return tracer.span(name, exp, pass_no)

    metric, T, solver = config.metric, config.map, config.solver
    with span("maps.sample_box"):
        sample = tuple(sample_box(config.domain, config.sample_size, config.seed,
                                  config.sample_scheme))
    with span("metrics.verify_axioms"):
        verify_axioms(metric, sample)
    with span("metrics.verify_reverse_triangle"):
        verify_reverse_triangle(metric, sample)
    with span("maps.map_invariant"):
        for p in sample:
            try:
                if not config.domain.contains(T(p)):
                    break
            except MulfixError:
                break
    with span("conditions.estimate_constants"):
        estimate_constants(metric, T, sample)
    with span("conditions.classify"):
        cls = classify(metric, T, sample, constants=config.constants,
                       phi=config.phi, seed=config.seed)
    domain = config.domain if config.enforce_domain else None
    runs = []
    for start in solver.starts:
        with span("solver.picard"):
            runs.append(picard(metric, T, start, solver, domain))
    finals = [r.point for r in runs if r.status is Status.CONVERGED]
    candidates = list(dict.fromkeys(list(solver.starts) + finals))
    with span("solver.uniqueness_probe"):
        uniqueness_probe(metric, T, candidates, solver.eps)
    if config.constants is not None:
        for r in runs:
            if r.status is Status.CONVERGED:
                with span("solver.verify_bound"):
                    verify_bound(r, config.constants.delta)

    stalled = [(start, r) for start, r in zip(solver.starts, runs)
               if r.restarted_from is not None or r.status in STALLED]
    no_restart = dataclasses.replace(solver, limit_point_restart=False)
    found = 0
    for start, first_leg in stalled:
        if first_leg.restarted_from is not None:
            with span("solver.first_leg"):
                first_leg = picard(metric, T, start, no_restart, domain)
        with span("sequences.detect_limit_point"):
            found += detect_limit_point(first_leg.trace, solver.eps) is not None
    return {
        "pairs": cls.n_pairs, "pairs_skipped": cls.skipped_pairs,
        "records": len(cls.records), "points": cls.n_points,
        "iterations": sum(r.iterations for r in runs),
        "restarts": sum(r.restarted_from is not None for r in runs),
        "stalled_runs": len(stalled), "limit_points_found": found,
    }
