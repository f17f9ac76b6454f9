import itertools
import math

import numpy as np
import pytest

from framelab import Frame, PNormSpace, lab
from framelab.asf import (
    ASF,
    analyze_asf,
    asf_dist,
    generate_asf,
    norming_functional,
    pnorm,
)
from framelab.frames import analyze_frame, frame_dist
from framelab.projections import AuerbachSystem
from framelab.spectral import ball_displacements

ROOT3 = np.sqrt(3.0)


@pytest.fixture
def mb():
    """The three unit vectors at mutual 120 degrees in the plane."""
    return Frame(np.array([
        [0.0, 1.0],
        [-ROOT3 / 2.0, -0.5],
        [ROOT3 / 2.0, -0.5],
    ]))


def auerbach_system(u, p=2.0):
    """The basis u (one vector per row) paired with itself: an Auerbach
    system of l^p for an orthonormal u at p = 2 and for the coordinate
    basis at every p."""
    return AuerbachSystem(space=PNormSpace(len(u), p), basis_vectors=u,
                          dual_functionals=u)


def random_frame(seed, d, n):
    rng = np.random.default_rng(seed)
    return Frame(rng.standard_normal((n, d)))


def exact_dist_sq_2_4(v0):
    """Squared distance from 4 vectors in R^2 to the nearest equal-norm
    Parseval frame, exactly.

    With the rows as complex numbers z_j, an ENP frame has rows w_j of
    modulus 1/sqrt(2) and sum_j w_j^2 = 0 (Parseval). Four unit complex
    numbers w_j^2 / |w_j|^2 that sum to 0 form two antipodal pairs, so
    w_b = +-i w_a on each pair (a, b), and the nearest w_a turns the
    pair's cost into |z_a|^2 + |z_b|^2 + 1 - sqrt(2) max(|z_a - i z_b|,
    |z_a + i z_b|). The best of the three pairings wins.
    """
    z = v0[:, 0] + 1j * v0[:, 1]
    best = max(
        sum(max(abs(z[a] - 1j * z[b]), abs(z[a] + 1j * z[b]))
            for a, b in pairs)
        for pairs in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))))
    return float(np.sum(np.abs(z) ** 2)) + 2.0 - np.sqrt(2.0) * best


def exact_dist_sq_next(v0):
    """Squared distance from n = d + 1 vectors in R^d to the nearest
    equal-norm Parseval frame, exactly.

    The Naimark complement of an ENP frame is the 1-dim ENP frame s /
    sqrt(n), s in {+-1}^n, so the ENP frames are U_s Q with U_s an
    orthonormal basis of s^perp and Q orthogonal. The nearest Q is a
    polar factor, which leaves |V0|^2 + d - 2 |(I - s s^T / n) V0|_*;
    s and -s give the same frames, so s_0 = 1.
    """
    n, d = v0.shape
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        s = np.array((1.0,) + signs)
        proj = v0 - np.outer(s, s @ v0) / n
        best = max(best, np.linalg.norm(proj, "nuc"))
    return float(np.sum(v0 * v0)) + d - 2.0 * best


def exact_dist_sq_scaled(d, eps):
    """Squared distance from c V, V an equal-norm Parseval frame in R^d
    and c = sqrt(1 + eps), to the nearest equal-norm Parseval frame,
    exactly: every such W has |W|^2 = d and <V, W> <= d, so |cV - W|^2 =
    c^2 d + d - 2c <V, W> >= d (c - 1)^2, with equality at W = V."""
    return d * (math.sqrt(1.0 + eps) - 1.0) ** 2


# The re-seeding instance generators that lab's draw-once generators
# replace, kept as a bit-for-bit reference: every retune re-creates the
# RNG from the seed and draws again at half the radius, and perturbed_asf
# gives up after this many seed bumps.
REFERENCE_SEED_BUMPS = 32


def reference_instance(spec):
    """The bundle the re-seeding generator builds for a perturbed_enp or
    perturbed_asf spec, or None where it finds no instance."""
    if spec.kind == "perturbed_enp":
        return _reference_perturbed_enp(spec)
    return _reference_perturbed_asf(spec)


def _reference_perturbed_enp(spec):
    base = lab._harmonic_base(spec.d, spec.n)
    eps = spec.epsilon_target
    delta = 0.5 * eps * math.sqrt(spec.d / spec.n)
    for _ in range(lab.MAX_RETUNES):
        inst = Frame(base.vectors + ball_displacements(
            np.random.default_rng(spec.seed), spec.n, spec.d, delta))
        rep = analyze_frame(inst)
        if lab._within((rep.eps_parseval, rep.eps_equal_norm), eps):
            return lab._bundle(spec, inst, frame_dist(inst, base) ** 2, rep)
        delta *= 0.5
    return None


def _reference_perturbed_asf(spec):
    d, n, p = spec.d, spec.n, spec.p
    eps = spec.epsilon_target
    base_dirs = np.eye(d)[np.arange(n) % d]
    r0 = math.sqrt(d / n)
    space = PNormSpace(dim=d, p=p)
    base = generate_asf("repeated_basis", space, n)
    for bump in range(REFERENCE_SEED_BUMPS):
        eff_seed = spec.seed + lab.SEED_BUMP_STRIDE * bump
        delta = eps / 2.0
        rho_scale = eps / 2.5
        for _ in range(lab.MAX_RETUNES):
            rng = np.random.default_rng(eff_seed)
            w = base_dirs + np.concatenate(
                [ball_displacements(rng, 1, d, delta, p) for _ in range(n)])
            u = w / pnorm(w, p)[:, None]
            rho = rng.uniform(-rho_scale, rho_scale, size=n)
            r = r0 * np.sqrt(1.0 + rho)
            tau = r[:, None] * u
            f = r[:, None] * norming_functional(u, p)
            inst = ASF(space=space, functionals=f, vectors=tau)
            rep = analyze_asf(inst, tol=lab.SEARCH_CERTIFY_TOL)
            if not rep.spectrum_real:
                break
            if lab._within((rep.eps_parseval, rep.eps_equal_norm), eps):
                return lab._bundle(spec, inst, asf_dist(inst, base) ** 2, rep)
            delta *= 0.5
            rho_scale *= 0.5
    return None


def assert_same_bundle(got, want):
    """got and want hold the same instance, certificates and base
    distance, bit for bit."""
    assert got.spec == want.spec
    for side in ("vectors", "functionals"):
        if hasattr(want.instance, side):
            a, b = getattr(got.instance, side), getattr(want.instance, side)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for field in ("eps_parseval", "eps_equal_norm", "base_dist_sq"):
        assert getattr(got, field).hex() == getattr(want, field).hex()
