"""Norm-preserving gradient flow driving a unit-norm frame toward tightness.

Each step rotates tau_j against the tangential component of S tau_j inside
the plane they span, by the angle t |omega_j|. The rotation preserves norms
exactly in exact arithmetic; in floating point the radial direction is
unstable (per-step error growth factor about 1 + 1/(2d)), so long runs need
the periodic maintenance renormalization offered by FlowConfig. A row whose
|omega_j| is at or below ZERO_THRESHOLD is left bit-unchanged by a step.

A step works on arrays of a few dozen entries, so its cost is numpy call
overhead, not arithmetic: _rotate handles all rows at once and tests them
with one reduction, run_flow's loop calls the ufuncs and reductions behind
numpy's norm, sum and max directly, which gives the same bits without their
Python wrappers, and the frame potentials, which only the finished trace
reads, are reduced once per batch of _POTENTIAL_BATCH iterates with the bits
of reducing each iterate alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitNorm, ShapeMismatch, StepTooLarge
from .frames import Frame
from .spectral import frobenius_norm, require_integer, row_norms

# how far a row norm may stray from 1, at the start and at the end of a run
UNIT_TOL = 1e-9
# a vector whose |omega_j| is at or below this is left unchanged by a step
ZERO_THRESHOLD = 1e-14
# run_flow reduces the frame potentials of this many iterates in one call;
# no output depends on it, and it bounds the extra memory of a run
_POTENTIAL_BATCH = 256


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of the flow run.

    step_t must satisfy 0 < t < 1/(2n) (checked against the frame at run
    time). renorm_every = 0 disables maintenance renormalization; a positive
    value rescales all rows to unit norm every that many steps, which keeps
    the radial instability at the rounding floor. A negative max_iters or
    renorm_every, or a stop_defect that is not >= 0 (NaN included), raises
    ShapeMismatch, and so does a max_iters or renorm_every that is not an
    integer (a bool or a float included; numpy integers are accepted).
    """

    step_t: float
    max_iters: int = 100_000
    stop_defect: float = 1e-6
    renorm_every: int = 0

    def __post_init__(self):
        for field in ("max_iters", "renorm_every"):
            value = getattr(self, field)
            require_integer(field, value)
            if value < 0:
                raise ShapeMismatch(
                    f"{field} must be non-negative, got {value}")
        if not self.stop_defect >= 0.0:
            raise ShapeMismatch(
                f"stop_defect must be non-negative, got {self.stop_defect}")


@dataclass(frozen=True)
class FlowTrace:
    """Diagnostics of a flow run, built once when the run ends.

    Entry k of each list belongs to iterate k, for k = 0 .. final_index:
    the unit-tightness defect |S - (n/d) I|_F, the frame potential
    tr(S^2) and the largest |omega_j|; run_flow reduces the potentials
    per batch of _POTENTIAL_BATCH iterates, each with the bits of
    np.add.reduce(s * s, axis=None) on its own S. termination is
    "converged" when the defect reached stop_defect, else "stalled" when
    every |omega_j| is at or below ZERO_THRESHOLD, so that no step can
    move a row, else "max_iters". displacement_hs is |S_end - S_0|_F.
    """

    unit_defect_hs: list[float]
    frame_potential: list[float]
    max_tangent_norm: list[float]
    termination: str
    final_index: int
    displacement_hs: float


def _require_unit(frame):
    dev = float(np.max(np.abs(row_norms(frame.vectors) - 1.0)))
    if dev > UNIT_TOL:
        raise NotUnitNorm(
            f"norms deviate from 1 by {dev:.3e} (tol {UNIT_TOL:g})")


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
    """The (n, d) array of the tangential components omega_j = S tau_j -
    <S tau_j, tau_j> tau_j of a unit-norm frame (else NotUnitNorm)."""
    _require_unit(frame)
    v = frame.vectors
    return _omegas(v, v.T @ v)


def _rotate(v, omegas, wn, t):
    """Rotate each row of v against its omega by the angle t |omega_j|,
    given the omega norms wn. Rows with |omega_j| at or below
    ZERO_THRESHOLD are returned bit-unchanged; the others get the same
    bits as rotating them one by one. One reduction tells whether every
    row moves; only when one does not are the mask and divisor built."""
    every = np.minimum.reduce(wn) > ZERO_THRESHOLD
    if not every:
        moving = wn > ZERO_THRESHOLD
        # a safe divisor; these rows take v below, whatever their angle
        wn = np.where(moving, wn, 1.0)
    th = (wn * t)[:, None]
    out = np.cos(th) * v - np.sin(th) * (omegas / wn[:, None])
    return out if every else np.where(moving[:, None], out, v)


def flow_step(frame, config):
    """One rotation update; vectors with |omega_j| at or below
    ZERO_THRESHOLD are left unchanged."""
    _check_step(config, frame.n)
    omegas = tangent_family(frame)
    return Frame(_rotate(frame.vectors, omegas, row_norms(omegas),
                         config.step_t))


def _potentials(grams):
    """tr(S^2) of each S in grams, as floats: one reduction over the
    stacked rows, which has the bits of np.add.reduce(s * s, axis=None)
    on each S alone, since both sum the same contiguous d^2 entries."""
    st = np.stack(grams).reshape(len(grams), -1)
    return np.add.reduce(st * st, axis=1).tolist()


def run_flow(frame, config):
    """Iterate flow_step until the unit-tightness defect reaches stop_defect,
    no row can move any more or max_iters steps have been taken. Returns
    the final frame and its FlowTrace, which records every visited
    iterate (the initial frame included). The frame potentials are
    reduced per batch of _POTENTIAL_BATCH iterates, and once more at the
    end, from the S = V^T V the step computes anyway; each gets the bits
    of reducing its S alone. Raises NotUnitNorm when the rows of the
    final frame drift from unit norm by more than UNIT_TOL."""
    _check_step(config, frame.n)
    _require_unit(frame)
    n, d = frame.n, frame.dim
    target_eye = (n / d) * np.eye(d)
    v = frame.vectors.copy()
    s0 = v.T @ v
    defects, potentials, tangents = [], [], []
    grams = []  # the S of each iterate whose potential is not reduced yet

    k = 0
    while True:
        s = v.T @ v
        x = (s - target_eye).ravel()
        defect = math.sqrt(x.dot(x))
        omegas = _omegas(v, s)
        wn = row_norms(omegas)

        defects.append(defect)
        grams.append(s)
        if len(grams) == _POTENTIAL_BATCH:
            potentials += _potentials(grams)
            grams = []
        max_tangent = float(np.maximum.reduce(wn))
        tangents.append(max_tangent)

        if defect <= config.stop_defect:
            termination = "converged"
            break
        if max_tangent <= ZERO_THRESHOLD:
            termination = "stalled"
            break
        if k >= config.max_iters:
            termination = "max_iters"
            break

        v = _rotate(v, omegas, wn, config.step_t)
        k += 1
        if config.renorm_every and k % config.renorm_every == 0:
            v = v / row_norms(v)[:, None]

    if grams:
        potentials += _potentials(grams)
    dev = float(np.max(np.abs(row_norms(v) - 1.0)))
    if dev > UNIT_TOL:
        raise NotUnitNorm(
            f"cumulative norm drift {dev:.3e} exceeds {UNIT_TOL:g}; "
            "rerun with maintenance renormalization (renorm_every)")
    return Frame(v), FlowTrace(
        unit_defect_hs=defects, frame_potential=potentials,
        max_tangent_norm=tangents, termination=termination, final_index=k,
        displacement_hs=frobenius_norm(v.T @ v - s0))
