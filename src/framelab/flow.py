"""Norm-preserving gradient flow driving a unit-norm frame toward tightness.

Each step rotates tau_j against the tangential component of S tau_j inside
the plane they span, by the angle t |omega_j|. The rotation preserves norms
exactly in exact arithmetic; in floating point the radial direction is
unstable (per-step error growth factor about 1 + 1/(2d)), so long runs need
the periodic maintenance renormalization offered by FlowConfig. A row whose
|omega_j| is at or below ZERO_THRESHOLD is left bit-unchanged by a step.

A step works on arrays of a few dozen entries, so its cost is numpy call
overhead, not arithmetic: _rotate handles all rows at once, and run_flow's
loop calls the ufuncs and reductions behind np.linalg.norm, np.sum and
np.max directly, which gives the same bits without their Python wrappers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotUnitNorm, StepTooLarge
from .frames import Frame
from .spectral import row_norms

UNIT_TOL_STEP = 1e-9
UNIT_TOL_FINAL = 1e-9
# a vector whose |omega_j| is at or below this is left unchanged by a step
ZERO_THRESHOLD = 1e-14


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of the flow run.

    step_t must satisfy 0 < t < 1/(2n) (checked against the frame at run
    time). renorm_every = 0 disables maintenance renormalization; a positive
    value rescales all rows to unit norm every that many steps, which keeps
    the radial instability at the rounding floor.
    """

    step_t: float
    max_iters: int = 100_000
    stop_defect: float = 1e-6
    renorm_every: int = 0


@dataclass(frozen=True)
class TangentFamily:
    """The tangential components omega_j = S tau_j - <S tau_j, tau_j> tau_j."""

    omegas: np.ndarray

    @property
    def norms(self):
        return row_norms(self.omegas)


@dataclass
class FlowTrace:
    """Per-iteration diagnostics of a flow run; entry k of each list
    belongs to iterate k, for k = 0 .. final_index."""

    unit_defect_hs: list[float] = field(default_factory=list)
    frame_potential: list[float] = field(default_factory=list)
    max_tangent_norm: list[float] = field(default_factory=list)
    termination: str = ""
    final_index: int = 0
    displacement_hs: float = 0.0


def _require_unit(frame):
    dev = float(np.max(np.abs(row_norms(frame.vectors) - 1.0)))
    if dev > UNIT_TOL_STEP:
        raise NotUnitNorm(
            f"norms deviate from 1 by {dev:.3e} (tol {UNIT_TOL_STEP:g})")


def _check_step(config, n):
    if not 0.0 < config.step_t < 1.0 / (2 * n):
        raise StepTooLarge(
            f"step_t {config.step_t} outside (0, 1/(2n)) = (0, {1.0 / (2 * n)})")


def _omegas(v, s):
    """Rows S tau_j - <S tau_j, tau_j> tau_j, given S = v^T v."""
    vs = v @ s
    ip = np.einsum("ij,ij->i", vs, v)
    return vs - ip[:, None] * v


def tangent_family(frame):
    _require_unit(frame)
    v = frame.vectors
    return TangentFamily(omegas=_omegas(v, v.T @ v))


def _rotate(v, omegas, wn, t):
    """Rotate each row of v against its omega by the angle t |omega_j|,
    given the omega norms wn. Rows with |omega_j| at or below
    ZERO_THRESHOLD are returned bit-unchanged; the others get the same
    bits as rotating them one by one."""
    moving = wn > ZERO_THRESHOLD
    every = moving.all()
    if not every:
        # a safe divisor; these rows take v below, whatever their angle
        wn = np.where(moving, wn, 1.0)
    th = (wn * t)[:, None]
    out = np.cos(th) * v - np.sin(th) * (omegas / wn[:, None])
    return out if every else np.where(moving[:, None], out, v)


def flow_step(frame, config):
    """One rotation update; vectors with |omega_j| at or below
    ZERO_THRESHOLD are left unchanged."""
    _check_step(config, frame.n)
    _require_unit(frame)
    v = frame.vectors
    omegas = _omegas(v, v.T @ v)
    return Frame(_rotate(v, omegas, row_norms(omegas), config.step_t))


def run_flow(frame, config):
    """Iterate flow_step until the unit-tightness defect reaches stop_defect
    or max_iters steps have been taken. Returns the final frame and a trace
    recorded at every visited iterate (the initial frame included)."""
    _check_step(config, frame.n)
    _require_unit(frame)
    n, d = frame.n, frame.dim
    target_eye = (n / d) * np.eye(d)
    v = frame.vectors.copy()

    trace = FlowTrace()
    s0 = v.T @ v

    k = 0
    while True:
        s = v.T @ v
        x = (s - target_eye).ravel()
        defect = math.sqrt(x.dot(x))
        omegas = _omegas(v, s)
        wn = row_norms(omegas)

        trace.unit_defect_hs.append(defect)
        trace.frame_potential.append(float(np.add.reduce(s * s, axis=None)))
        trace.max_tangent_norm.append(float(wn.max()))

        if defect <= config.stop_defect:
            trace.termination = "converged"
            break
        if k >= config.max_iters:
            trace.termination = "max_iters"
            break

        v = _rotate(v, omegas, wn, config.step_t)
        k += 1
        if config.renorm_every and k % config.renorm_every == 0:
            v = v / row_norms(v)[:, None]

    trace.final_index = k
    trace.displacement_hs = float(np.linalg.norm(v.T @ v - s0))
    dev = float(np.max(np.abs(row_norms(v) - 1.0)))
    if dev > UNIT_TOL_FINAL:
        raise NotUnitNorm(
            f"cumulative norm drift {dev:.3e} exceeds {UNIT_TOL_FINAL:g}; "
            "rerun with maintenance renormalization (renorm_every)")
    return Frame(v), trace
