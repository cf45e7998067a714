"""The benchmark's workloads: which experiments run, and how a seed picks them.

A workload is a list of slots.  A slot is one experiment shape with a
fixed cost (metric, sample size, map, starts, iteration cap); its variants
differ only in inputs that leave the amount of work unchanged, such as the
seed of the random half of the sample or the sign of the starts.  The
workload seed picks one variant per slot and the order of the slots, so
runs with different seeds measure the same amount of work on different
inputs.  ``golden.json`` holds the expected outcome of every variant of
every slot, which is what lets any seed be checked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from mulfix import (
    FIXTURE_NAMES,
    Box,
    ExperimentConfig,
    MetricSpec,
    SelfMapSpec,
    SolverConfig,
    ZamfirescuConstants,
)

WORKLOADS = ("fixtures", "stalled_solver")
SCALES = ("full", "tiny")
VARIANTS = 8
EPS = math.exp(1e-9)
# Typical wall-clock time of one untraced pass on the 2-core reference
# sandbox, whose speed varies by up to two times with other tenants' load.
# An untraced run makes seconds // PASS_SECONDS whole passes, so every commit
# measures the same work and the same number of samples.  That keeps
# experiment_s.tail (the highest percentile with ten samples beyond it) at
# one rank: at 40 s, 16 and 20 passes put it on the slowest experiment of
# each list, at about its 35th and 50th percentile.
PASS_SECONDS = {"fixtures": 2.5, "stalled_solver": 2.0}


@dataclass(frozen=True)
class Experiment:
    """One unit of timed work: a CLI fixture call or a pipeline config."""

    id: str
    fixture: Optional[str] = None
    config: Optional[ExperimentConfig] = None


@dataclass(frozen=True)
class Slot:
    name: str
    build: Callable[[int, str], ExperimentConfig]  # (variant, scale) -> config


def _config(metric, T, bounds, n, seed, starts, max_iter=2000,
            constants=None) -> ExperimentConfig:
    return ExperimentConfig(
        metric=metric, map=T, domain=Box(bounds), sample_size=n, seed=seed,
        solver=SolverConfig(eps=EPS, max_iter=max_iter, starts=starts),
        constants=constants, sample_scheme="mixed",
        expectations=("converged", "unique_fixed_point", "axioms_pass"),
    )


# -- stalled_solver ----------------------------------------------------------
# Long scalar orbits under exp_abs(2) with a sample of ten points, so the
# pairwise checks are negligible and solver and sequences dominate.
# scale(0.999) hits max_iter = 500 and pays the quadratic limit-point scan;
# scale(0.98) and scale(0.99) converge in about 930 and 1,800 steps from
# |x0| = 1; negation ends in a detected cycle; permute-restart is the one
# slot whose stalled runs restart from a limit point.  The variant flips the
# sign of the starts, which leaves every iteration count unchanged.

def _stalled(c, max_iter, starts, constants=None, negate=False):
    def build(variant: int, scale: str) -> ExperimentConfig:
        sign = -1.0 if variant % 2 else 1.0
        cap = max_iter if scale == "full" else max_iter // 5
        T = SelfMapSpec.negation() if negate else SelfMapSpec.scale(c)
        return _config(MetricSpec.exp_abs(2.0), T, ((-1.0, 1.0),), 10,
                       201 + variant, tuple((sign * s,) for s in starts),
                       max_iter=cap, constants=constants)
    return build


# A cyclic permutation of three coordinates that zeroes a fourth.  Each
# orbit leaves its start, closes a 3-cycle after four steps and has its
# first cycle point as a detected limit point other than the start, so
# picard restarts from it (and the restarted orbit cycles again).
PERMUTE3 = ((0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))


def _restarted(starts):
    def build(variant: int, scale: str) -> ExperimentConfig:
        sign = -1.0 if variant % 2 else 1.0
        T = SelfMapSpec.affine(PERMUTE3, (0.0,) * 4)
        return _config(MetricSpec.exp_abs(2.0), T, ((-1.0, 1.0),) * 4, 10,
                       201 + variant, tuple(tuple(sign * c for c in s) for s in starts))
    return build


STALLED_SOLVER = (
    Slot("scale-0.999", _stalled(0.999, 500, (1.0,),
                                 constants=ZamfirescuConstants(xi=0.999))),
    Slot("scale-0.98", _stalled(0.98, 2000, (1.0, -0.5),
                                constants=ZamfirescuConstants(xi=0.98))),
    Slot("scale-0.99", _stalled(0.99, 2000, (1.0,))),
    Slot("negation", _stalled(None, 2000, (0.7, -0.3), negate=True)),
    Slot("permute-restart", _restarted(((0.5, -0.25, 0.75, 0.9), (0.1, 0.2, -0.3, -0.6)))),
)


def pool(workload: str, scale: str) -> list[Experiment]:
    """Every experiment the workload can draw, for building the golden file."""
    if workload == "fixtures":
        return [Experiment(f"fixtures/{name}", fixture=name) for name in FIXTURE_NAMES]
    return [Experiment(f"{workload}/{scale}/{slot.name}/v{v}",
                       config=slot.build(v, scale))
            for slot in STALLED_SOLVER for v in range(VARIANTS)]


def plan(workload: str, seed: int, scale: str) -> list[Experiment]:
    """The workload's fixed list of experiments for one seed, in run order.

    The fixtures run at their bundled settings, the paper-reproduction path,
    so the seed only orders them.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fixtures":
        chosen = pool(workload, scale)
    else:
        chosen = []
        for slot in STALLED_SOLVER:
            v = rng.randrange(VARIANTS)
            chosen.append(Experiment(f"{workload}/{scale}/{slot.name}/v{v}",
                                     config=slot.build(v, scale)))
    rng.shuffle(chosen)
    return chosen
