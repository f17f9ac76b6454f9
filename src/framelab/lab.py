"""Experiment engine: instance generation, nearest equal-norm-Parseval
solvers, and the empirical ceiling study.

Every perturbed or scaled instance carries its distance to the
equal-norm Parseval base it came from, and that base competes with the
solver output; a solve that certifies no point reports the base distance,
uncertified, instead of poisoning the sweep. A reported distance is an
upper bound on the true infimum only as far as its certificate goes: a
Hilbert record certifies at FRAMELAB_TOL, but a perturbed_asf record at
1e-6 or above, so its point may sit up to that residual off the ENP set
and its distance below the infimum.

The Hilbert solver (nearest_enp_alternating) takes one alternating
round at n = d, which gives the orthogonal polar factor, the global
nearest point. At n > d it polishes: a Newton polish of the input
(_kkt_polish), proved globally nearest when its final multipliers make
the Lagrangian convex, else the nearest of it and the polishes of seeded
restarts, or no point when no polish certifies. The polish runs over a
stack of same-shape inputs and gives each item the bits of that item
polished alone: estimate_paulsen polishes all trials of a grid spec as
one stack, and a solve its restarts. The Banach search is a penalized
local search by L-BFGS-B on the exact gradient of one row-vectorized
kernel, stopped at its first certified penalty round (later rounds only
trade distance for feasibility); it certifies to the residual it is
given. scipy.optimize loads on the first Banach search, so the Hilbert,
flow and check commands start without it.
"""

import functools
import math
import os
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .asf import (
    ASF,
    PNormSpace,
    analyze_asf,
    asf_dist,
    generate_asf,
    norming_functional,
    pnorm,
)
from .errors import (
    BoundViolation,
    Infeasible,
    ShapeMismatch,
    SingularOperator,
    UnsupportedExponent,
    UnsupportedShape,
)
from .frames import (
    Frame,
    analyze_frame,
    enp_defects,
    frame_dist,
    generate,
    rescale_rows,
)
from .spectral import PSD_FLOOR, ball_displacements, inv_sqrt_from_eig, sym_eig

HILBERT_KINDS = ("perturbed_enp", "scaled_enp")
ASF_KINDS = ("perturbed_asf",)
INSTANCE_KINDS = HILBERT_KINDS + ASF_KINDS

CHAIN_TOL = 1e-9
MAX_RETUNES = 24
MAX_SEED_BUMPS = 512
SEED_BUMP_STRIDE = 100_000

# Nearest-ENP polish and its restarts (see nearest_enp_alternating).
RESTARTS = 12
RESTART_ROUNDS = 5
RESTART_KICK = 0.3
POLISH_STEPS = 16
MAX_HALVINGS = 8
MERIT_GROWTH = 4.0
CONVERGED = 1e-13
STATIONARY_TOL = 1e-10

# Penalized Banach search (see nearest_enp_asf_search): mu runs from MU0 up
# by MU_FACTOR per outer round until a round certifies or mu passes MU_MAX.
MU0 = 1.0
MU_FACTOR = 10.0
MU_MAX = 1e13
SEARCH_MAX_ITERS = 400
# the floor of the residual perturbed_asf records are certified at
SEARCH_CERTIFY_TOL = 1e-6


def default_certify_tol():
    """1e-8 unless the FRAMELAB_TOL environment variable overrides it."""
    raw = os.environ.get("FRAMELAB_TOL")
    if raw is None:
        return 1e-8
    try:
        v = float(raw)
    except ValueError:
        raise ShapeMismatch(f"FRAMELAB_TOL = {raw!r} is not a number") from None
    if not 0.0 < v < 1.0:
        raise ShapeMismatch(f"FRAMELAB_TOL must be in (0, 1), got {v}")
    return v


def pair_error(kind, d, n):
    """Why no instance of kind has n vectors in R^d, or None when one can."""
    if d < 1 or n < d:
        return f"need 1 <= d <= n, got d = {d}, n = {n}"
    if kind in ASF_KINDS and n % d != 0:
        return f"perturbed_asf needs d | n, got d = {d}, n = {n}"
    return None


@dataclass(frozen=True)
class InstanceSpec:
    """One point of the experiment grid."""

    kind: str
    d: int
    n: int
    epsilon_target: float
    p: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in INSTANCE_KINDS:
            raise ShapeMismatch(
                f"kind must be one of {INSTANCE_KINDS}, got {self.kind!r}")
        reason = pair_error(self.kind, self.d, self.n)
        if reason is not None:
            raise Infeasible(reason)
        if not 0.0 < self.epsilon_target < 1.0:
            raise Infeasible(
                f"epsilon_target must be in (0, 1), got {self.epsilon_target}")
        if self.seed < 0:
            raise Infeasible(f"seed must be non-negative, got {self.seed}")
        if self.kind in HILBERT_KINDS:
            if self.p != 2.0:
                raise Infeasible(
                    f"kind {self.kind} lives in l2; p = {self.p} applies "
                    f"only to perturbed_asf")
        elif not 1.0 < self.p < math.inf:
            # the only exponents nearest_enp_asf_search solves
            raise Infeasible(
                f"perturbed_asf needs 1 < p < inf, got p = {self.p}")


@dataclass(frozen=True)
class InstanceBundle:
    """A generated instance, its measured certificate, and its squared
    distance to the equal-norm Parseval base it was drawn around."""

    spec: InstanceSpec
    instance: object
    base_dist_sq: float
    eps_parseval: float
    eps_equal_norm: float


def _within(rep, eps):
    """The retune acceptance rule: both certificates present, both <= eps."""
    return (rep.eps_parseval is not None and rep.eps_parseval <= eps
            and rep.eps_equal_norm is not None and rep.eps_equal_norm <= eps)


def _bundle(spec, inst, base_dist_sq, rep):
    return InstanceBundle(spec=spec, instance=inst, base_dist_sq=base_dist_sq,
                          eps_parseval=rep.eps_parseval,
                          eps_equal_norm=rep.eps_equal_norm)


@functools.lru_cache(maxsize=None)
def _harmonic_base(d, n):
    """The harmonic frame of n vectors in R^d, built once per shape; one
    read-only Frame serves as the base of every instance of that shape."""
    return generate("harmonic", d, n)


def _gen_perturbed_enp(spec):
    """The harmonic frame with each vector displaced inside a ball drawn
    once from spec.seed, the displacement halved until both certificates
    are within the target. Halving is exact, so each retune has the bits
    of a fresh draw from spec.seed at half the radius."""
    base = _harmonic_base(spec.d, spec.n)
    eps = spec.epsilon_target
    disp = ball_displacements(np.random.default_rng(spec.seed), spec.n,
                              spec.d, 0.5 * eps * math.sqrt(spec.d / spec.n))
    for _ in range(MAX_RETUNES):
        inst = Frame(base.vectors + disp)
        rep = analyze_frame(inst)
        if _within(rep, eps):
            return _bundle(spec, inst, frame_dist(inst, base) ** 2, rep)
        disp = 0.5 * disp
    raise Infeasible(
        f"could not tune a perturbation below epsilon = {eps} for {spec}")


def _gen_scaled_enp(spec):
    """The harmonic frame times sqrt(1 + eps), so S = (1 + eps) I."""
    base = _harmonic_base(spec.d, spec.n)
    inst = Frame(np.sqrt(1.0 + spec.epsilon_target) * base.vectors)
    return _bundle(spec, inst, frame_dist(inst, base) ** 2,
                   analyze_frame(inst))


def _gen_perturbed_asf(spec):
    """Perturbed repeated-basis ASF with the norm triple preserved exactly.

    The base is generate_asf's repeated_basis ASF. Each pair is a radius
    r_j times a unit direction u_j and its norming functional, so
    |tau|_p^2 = f(tau) = |f|_q^2 = r_j^2 holds to rounding. The direction
    displacements and the radius offsets are drawn once per seed and
    halved until both certificates are within the target, as in
    _gen_perturbed_enp; seeds whose frame operator picks up complex
    spectrum are skipped by a deterministic seed bump, because the
    offending sign pattern is invariant under shrinking the perturbation.
    """
    d, n, p = spec.d, spec.n, spec.p
    eps = spec.epsilon_target
    r0 = math.sqrt(d / n)
    space = PNormSpace(dim=d, p=p)
    base = generate_asf("repeated_basis", space, n)
    base_dirs = base.vectors / r0  # exactly 1.0 and 0.0

    for bump in range(MAX_SEED_BUMPS):
        rng = np.random.default_rng(spec.seed + SEED_BUMP_STRIDE * bump)
        # one draw per row keeps the direction and radius draws of each
        # row adjacent in the stream
        disp = np.concatenate(
            [ball_displacements(rng, 1, d, eps / 2.0, p) for _ in range(n)])
        rho = rng.uniform(-eps / 2.5, eps / 2.5, size=n)
        for _ in range(MAX_RETUNES):
            w = base_dirs + disp
            u = w / pnorm(w, p)[:, None]
            r = r0 * np.sqrt(1.0 + rho)
            tau = r[:, None] * u
            f = r[:, None] * norming_functional(u, p)
            inst = ASF(space=space, functionals=f, vectors=tau)
            rep = analyze_asf(inst, tol=CHAIN_TOL)
            if not rep.spectrum_real:
                break
            if _within(rep, eps):
                return _bundle(spec, inst, asf_dist(inst, base) ** 2, rep)
            disp, rho = 0.5 * disp, 0.5 * rho
    raise Infeasible(
        f"no real-spectrum perturbation found near seed {spec.seed} for {spec}")


def generate_instance(spec):
    if spec.kind == "perturbed_enp":
        return _gen_perturbed_enp(spec)
    if spec.kind == "scaled_enp":
        return _gen_scaled_enp(spec)
    return _gen_perturbed_asf(spec)


@functools.lru_cache(maxsize=None)
def _polish_layout(n, d):
    """Index layout of _kkt_polish's KKT system for n vectors in R^d,
    built once per shape. Returns (half, upper, lower, block, a_dst,
    a_src), all read-only:
    - half: the weights of the m Parseval constraints, one per entry of
      the upper triangle of a d x d matrix in np.triu_indices order (1/2
      on the diagonal);
    - upper, lower: the flat positions of those entries, and of their
      transposes, in a d x d matrix;
    - block: the flat positions, in the (nd + k) x (nd + k) KKT matrix, of
      the n diagonal d x d blocks of the Hessian, block after block;
    - a_dst, a_src: the flat (nd, k) constraint Jacobian holds
      v.ravel()[a_src] at a_dst and zeros elsewhere.
    """
    rows, cols = np.triu_indices(d)
    m = rows.size
    nd, k = n * d, m + n - 1
    col = np.arange(m)
    en = np.arange(n - 1)  # the rows with an equal-norm constraint
    # column i < m of the Jacobian is the gradient V E_i: v[:, rows[i]] in
    # column cols[i] of each row's block and v[:, cols[i]] in column
    # rows[i] (the second wins on the diagonal, where both are equal);
    # column m + j is e_j v_j^T
    src = np.full((n, d, k), -1)
    vi = np.arange(nd).reshape(n, d)
    src[:, cols, col] = vi[:, rows]
    src[:, rows, col] = vi[:, cols]
    src[en, :, m + en] = vi[:-1]
    a_dst = np.flatnonzero(src >= 0)
    # the blocks off the diagonal are zero and stay so in the KKT matrix
    block = np.arange(nd).reshape(n, d)
    block = block[:, :, None] * (nd + k) + block[:, None, :]
    layout = (np.where(rows == cols, 0.5, 1.0), rows * d + cols,
              cols * d + rows, block.ravel(), a_dst, src.ravel()[a_dst])
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _dots(x, y):
    """The dot products x[i] @ y[i] of two (b, N) stacks, each with the
    bits of the 1-D product (matmul takes BLAS's dot for every item)."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _kkt_polish(v0, v, tol):
    """Newton's method on the KKT system of the nearest-ENP problem, over a
    stack of b same-shape inputs.

    For each item, minimizes |V - V0|^2 / 2 subject to the halved
    constraints <E_k, V^T V - I> / 2 = 0 over the symmetric basis E_k of
    the upper triangle (gradient V E_k) and (|v_j|^2 - d/n) / 2 = 0
    (gradient e_j v_j^T), from the start v. The last equal-norm constraint
    is dropped because the trace identity implies it, so the KKT matrix is
    invertible at regular points of the ENP set; near its singular points
    it is nearly singular, and a step that multiplies the KKT residual by
    more than MERIT_GROWTH is halved. An item stops stepping when its KKT
    matrix is singular, when MAX_HALVINGS halvings do not bring the step
    under that test, or when its residual falls to CONVERGED relative to
    |V - V0|. v0 and v have shape (b, n, d). Returns a list of b entries:
    (V, gap) when the item's end point V holds both certificates at tol
    and V - V0 lies in the normal space there within STATIONARY_TOL
    (relative), otherwise None.

    Every ENP frame W has |W - V0|^2 >= |V - V0|^2 - gap. The final
    multipliers give Lambda and mu, and the Hessian of the Lagrangian has
    the blocks (1 - mu_j) I - Lambda. When margin = 1 - max_j mu_j -
    lambda_max(Lambda) is positive, the Lagrangian is convex (the
    Lagrangian sufficiency theorem), and gap = 2 |mult . c| + |r|^2 /
    margin, with c and r the final constraint and stationarity residuals.
    Otherwise gap is inf.

    Each step works on the items still stepping as one stack, so an item's
    result has the bits of that item polished alone: every stacked call
    (matmul, solve, eigvalsh, row sums) gives each item the bits of its
    2-D call. The index layout comes from _polish_layout's per-shape
    cache: the Jacobian is one flat scatter from v, and the Hessian blocks
    and the multipliers of Lambda are scattered in.
    """
    b, n, d = v.shape
    half, upper, lower, block, a_dst, a_src = _polish_layout(n, d)
    m = half.size
    nd, k = n * d, m + n - 1
    size = nd + k
    eye_d = np.eye(d)

    def residual(v0, v, mult):
        s = len(v)
        a = np.zeros((s, nd * k))
        a[:, a_dst] = v.reshape(s, nd)[:, a_src]
        a = a.reshape(s, nd, k)
        gram = (v.transpose(0, 2, 1) @ v - eye_d).reshape(s, d * d)
        c = np.concatenate([half * gram[:, upper],
                            0.5 * (np.sum(v[:, :-1] ** 2, axis=2) - d / n)],
                           axis=1)
        r = (v - v0).reshape(s, nd) - (a @ mult[:, :, None])[:, :, 0]
        return r, c, a, np.sqrt(_dots(r, r) + _dots(c, c))

    def lambdas(mult):
        # the symmetric Lambda of each item's Parseval multipliers
        lam = np.empty((len(mult), d * d))
        lam[:, upper] = lam[:, lower] = mult[:, :m]
        return lam.reshape(-1, d, d)

    def mus(mult):
        # the equal-norm multipliers, with 0 for the dropped constraint
        return np.concatenate([mult[:, m:], np.zeros((len(mult), 1))], axis=1)

    v = v.copy()  # accepted steps are written into their rows
    mult = np.zeros((b, k))
    r, c, a, f_norm = residual(v0, v, mult)
    live = np.arange(b)  # the items still stepping
    for _ in range(POLISH_STEPS):
        if not live.size:
            break
        s = live.size
        mult_s, a_s = mult[live], a[live]
        # Hessian of the Lagrangian: block j is (1 - mu_j) I - Lambda
        kkt = np.zeros((s, size * size))
        kkt[:, block] = ((1.0 - mus(mult_s))[:, :, None, None] * eye_d
                         - lambdas(mult_s)[:, None]).reshape(s, -1)
        kkt = kkt.reshape(s, size, size)
        kkt[:, :nd, nd:] = -a_s
        kkt[:, nd:, :nd] = a_s.transpose(0, 2, 1)
        rhs = -np.concatenate([r[live], c[live]], axis=1)[:, :, None]
        try:
            step = np.linalg.solve(kkt, rhs)[:, :, 0]
            pos = np.arange(s)
        except np.linalg.LinAlgError:
            # one singular item fails the whole call: solve item by item,
            # and only the singular items stop
            step = np.empty((s, size))
            solved = np.ones(s, dtype=bool)
            for i in range(s):
                try:
                    step[i] = np.linalg.solve(kkt[i], rhs[i])[:, 0]
                except np.linalg.LinAlgError:
                    solved[i] = False
            pos = np.flatnonzero(solved)
        stepped = []
        for _ in range(MAX_HALVINGS):
            idx = live[pos]
            v_new = v[idx] + step[pos, :nd].reshape(-1, n, d)
            mult_new = mult[idx] + step[pos, nd:]
            t_r, t_c, t_a, t_f = residual(v0[idx], v_new, mult_new)
            ok = t_f <= MERIT_GROWTH * f_norm[idx]
            acc = idx[ok]
            v[acc], mult[acc] = v_new[ok], mult_new[ok]
            r[acc], c[acc], a[acc] = t_r[ok], t_c[ok], t_a[ok]
            f_norm[acc] = t_f[ok]
            stepped.append(acc)
            pos = pos[~ok]
            if not pos.size:
                break
            step[pos] *= 0.5
        # the items left in pos failed every halving and stop
        stepped = np.concatenate(stepped)
        diff = (v[stepped] - v0[stepped]).reshape(-1, nd)
        live = stepped[f_norm[stepped]
                       > CONVERGED * np.sqrt(_dots(diff, diff))]
    diff = (v - v0).reshape(b, nd)
    dist = np.sqrt(_dots(diff, diff))
    spectra = np.linalg.eigvalsh(v.transpose(0, 2, 1) @ v)
    norms_sq = np.sum(v * v, axis=2)
    r_norm = np.sqrt(_dots(r, r))
    held = []
    for i in range(b):
        eps_p, dev_en = enp_defects(spectra[i], norms_sq[i])
        if eps_p <= tol and dev_en <= tol \
                and r_norm[i] <= STATIONARY_TOL * dist[i]:
            held.append(i)
    out = [None] * b
    if not held:
        return out
    # The Lagrangian |V - V0|^2 / 2 - mult . c(V) is a quadratic with
    # gradient r at v and Hessian blocks (1 - mu_j) I - Lambda, so at
    # least margin I. On the ENP set (c = 0) it is |W - V0|^2 / 2, and it
    # is nowhere below its value at v minus |r|^2 / (2 margin).
    mult, r, c = mult[held], r[held], c[held]
    margin = (1.0 - mus(mult).max(axis=1)
              - np.linalg.eigvalsh(lambdas(mult))[:, -1])
    for i, mg, mc, rr in zip(held, margin, _dots(mult, c), _dots(r, r)):
        out[i] = (v[i], math.inf if mg <= 0.0 else 2.0 * abs(mc) + rr / mg)
    return out


def _enp_certificate(v, tol):
    """sym_eig of the frame operator V^T V; whether v is ENP within tol."""
    dec = sym_eig(v.T @ v)
    eps_p, dev_en = enp_defects(dec.eigenvalues, np.sum(v * v, axis=1))
    return dec, eps_p <= tol and dev_en <= tol


def _alternating_round(v, dec):
    """The closest Parseval map, then the closest equal-norm map, from v
    and the sym_eig of its frame operator; None if that is singular."""
    if dec.eigenvalues[0] <= PSD_FLOOR:
        return None
    w = v @ inv_sqrt_from_eig(dec.eigenvalues, dec.eigenvectors)
    return rescale_rows(w, math.sqrt(v.shape[1] / len(v)))[0]


def nearest_enp_alternating(frame, polished=None):
    """Nearest equal-norm Parseval (ENP) frame: one alternating round at
    n = d, else Newton polishes from the input and from seeded restarts.

    With tol = default_certify_tol() (FRAMELAB_TOL), in order:
    1. a certified input comes back unchanged;
    2. at n = d, where the ENP set is O(d), one alternating round gives
       the polar factor, the global nearest (Fan-Hoffman); it raises
       SingularOperator at a singular frame operator;
    3. at n > d, the input's polish comes back if its gap is within the
       slack 2 sqrt(dist_sq d) tol, which proves it globally nearest;
    4. otherwise RESTARTS starts v0 + RESTART_KICK sqrt(d/n) G, G from
       default_rng(0) and each pushed by RESTART_ROUNDS alternating rounds
       (dropped if its frame operator turns singular), polish as one
       stack; the nearest certified polish, the input's too, comes back.

    Returns (frame, dist_sq, rounds), the frame certified at tol and
    rounds counting every alternating round run: 0 at exits 1 and 3, 1 at
    exit 2, RESTARTS * RESTART_ROUNDS at exit 4. When the round of exit 2
    or every polish of exit 4 fails the certificate, frame and dist_sq
    are None. polished is the input's polish, this frame's _kkt_polish
    entry (estimate_paulsen's stack passes it); None polishes here.
    """
    tol = default_certify_tol()
    v0 = frame.vectors
    n, d = v0.shape
    if n < d:
        raise UnsupportedShape(f"need n >= d, got ({d}, {n})")

    def dist_sq(v):
        return float(np.sum((v - v0) ** 2))

    dec, certified = _enp_certificate(v0, tol)
    if certified:
        return frame, 0.0, 0
    if n == d:
        v = _alternating_round(v0, dec)
        if v is None:
            raise SingularOperator("frame operator is singular")
        if _enp_certificate(v, tol)[1]:
            return Frame(v), dist_sq(v), 1
        return None, None, 1
    if polished is None:
        polished = _kkt_polish(v0[None], v0[None], tol)[0]
    if polished is not None:
        ds = dist_sq(polished[0])
        if polished[1] <= 2.0 * math.sqrt(ds * d) * tol:
            return Frame(polished[0]), ds, 0
    kicks = np.random.default_rng(0).standard_normal((RESTARTS, n, d))
    starts, rounds = [], 0
    for start in v0 + RESTART_KICK * math.sqrt(d / n) * kicks:
        for _ in range(RESTART_ROUNDS):
            start = _alternating_round(start, sym_eig(start.T @ start))
            if start is None:
                break
            rounds += 1
        else:
            starts.append(start)
    if starts:
        starts = _kkt_polish(np.broadcast_to(v0, (len(starts), n, d)),
                             np.stack(starts), tol)
    points = [p[0] for p in [polished, *starts] if p is not None]
    if not points:
        return None, None, rounds
    point = min(points, key=dist_sq)  # the first on a tie
    return Frame(point), dist_sq(point), rounds


def _sq_pnorm_rows(x, p):
    """Squared row p-norms of x and their gradient
    2 |x|_p^(2-p) sign(x) |x|^(p-1), which is 0 on a zero row."""
    norms = pnorm(x, p)
    scale = 2.0 * np.where(norms > 0.0, norms, 1.0) ** (2.0 - p)
    return norms ** 2, scale[:, None] * np.sign(x) * np.abs(x) ** (p - 1.0)


def _search_terms(z, mu, f_in, tau_in, p, q):
    """Distance part, feasibility residual and the exact gradient of
    dist + mu * resid_sq at z = (f, tau), all row-vectorized.

    dist = sum_j (|tau_j - tau_in_j|_p^2 + |f_j - f_in_j|_q^2) / 2 and
    resid_sq = |G|^2 + sum_j (a_j^2 + b_j^2 + c_j^2) with G = tau^T f - I,
    a_j = |tau_j|_p^2 - d/n, b_j = |f_j|_q^2 - d/n, c_j = f_j tau_j - d/n.
    Each exponent takes one row-wise norm pass over stacked rows.
    """
    n, d = f_in.shape
    t = d / n
    f, tau = z[: n * d].reshape(n, d), z[n * d:].reshape(n, d)
    tau_sq, tau_grad = _sq_pnorm_rows(np.concatenate([tau - tau_in, tau]), p)
    f_sq, f_grad = _sq_pnorm_rows(np.concatenate([f - f_in, f]), q)
    g = tau.T @ f
    g.ravel()[:: d + 1] -= 1.0  # minus I in place, without building np.eye
    a, b = tau_sq[n:] - t, f_sq[n:] - t
    c = np.einsum("ij,ij->i", f, tau) - t
    dist = 0.5 * float(np.sum(tau_sq[:n] + f_sq[:n]))
    resid_sq = float(np.sum(g * g) + a @ a + b @ b + c @ c)
    grad_f = 0.5 * f_grad[:n] + 2.0 * mu * (
        tau @ g + b[:, None] * f_grad[n:] + c[:, None] * tau)
    grad_tau = 0.5 * tau_grad[:n] + 2.0 * mu * (
        f @ g.T + a[:, None] * tau_grad[n:] + c[:, None] * f)
    return dist, resid_sq, np.concatenate([grad_f.ravel(), grad_tau.ravel()])


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call: the Banach
    search is its only user, and every other command starts without it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def nearest_enp_asf_search(asf, certify_tol):
    """Penalized local search for the nearest equal-norm Parseval ASF.

    Minimizes squared distance plus mu times the feasibility residual by
    L-BFGS-B on the exact gradient of _search_terms, mu increasing by
    MU_FACTOR per outer round, up to the first round whose residual is at
    most certify_tol: as mu grows the distance part of the penalty
    minimizer does not fall (Nocedal-Wright, Numerical Optimization 17.1),
    so later rounds are no nearer. Failing that by MU_MAX, the most
    feasible round comes back uncertified. Returns (asf, dist_sq,
    certified, rounds), rounds counting the outer rounds before the stop.
    """
    p = asf.space.p
    if p == 1 or p == math.inf:
        raise UnsupportedExponent(
            "the smooth search needs 1 < p < inf; certification still "
            "supports the endpoint exponents")
    d, n = asf.space.dim, asf.n
    if n % d != 0:
        raise Infeasible(f"equal-norm Parseval target needs d | n, "
                         f"got d = {d}, n = {n}")
    q = asf.space.q
    f_in, tau_in = asf.functionals, asf.vectors

    def objective(z, mu):
        dist, resid_sq, grad = _search_terms(z, mu, f_in, tau_in, p, q)
        return dist + mu * resid_sq, grad

    z = np.concatenate([f_in.ravel(), tau_in.ravel()])
    best = (math.inf, 0.0, z)  # (resid, dist_sq, z) of the most feasible round
    mu = MU0
    rounds = 0
    while mu <= MU_MAX:
        res = minimize(objective, z, args=(mu,), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": SEARCH_MAX_ITERS,
                                "ftol": 1e-15, "gtol": 1e-12})
        z = res.x
        ds, resid_sq, _ = _search_terms(z, 0.0, f_in, tau_in, p, q)
        resid = math.sqrt(resid_sq)
        if resid < best[0]:
            best = (resid, ds, z)
        if resid <= certify_tol:
            break
        mu *= MU_FACTOR
        rounds += 1

    resid, ds, z = best
    out = ASF(space=asf.space, functionals=z[: n * d].reshape(n, d),
              vectors=z[n * d:].reshape(n, d))
    return out, ds, resid <= certify_tol, rounds


@dataclass(frozen=True)
class ExperimentRecord:
    """One solved instance: measured eps, distance, certificate, ceilings."""

    spec: InstanceSpec
    measured_eps_parseval: float
    measured_eps_equal_norm: float
    achieved_dist_sq: float
    certified: bool
    iterations: int
    bound_hm: float
    bound_bc: float


def _bounds_for(spec, eps_p, eps_en):
    """The Hamilton-Moitra and Bodmann-Casazza ceilings on dist_sq."""
    eps = max(eps_p, eps_en)
    d, n = spec.d, spec.n
    bound_hm = 20.0 * eps * d * d
    bound_bc = (29.0 / 8.0) * d * d * n * (n - 1) ** 8 * eps
    return bound_hm, bound_bc


def record_to_row(rec):
    return {
        "d": rec.spec.d,
        "n": rec.spec.n,
        "p": rec.spec.p,
        "kind": rec.spec.kind,
        "eps_target": rec.spec.epsilon_target,
        "eps_measured_parseval": rec.measured_eps_parseval,
        "eps_measured_equalnorm": rec.measured_eps_equal_norm,
        "dist_sq": rec.achieved_dist_sq,
        "certified": rec.certified,
        "rounds": rec.iterations,
        "bound_hm": rec.bound_hm,
        "bound_bc": rec.bound_bc,
    }


@dataclass(frozen=True)
class SummaryRow:
    d: int
    n: int
    p: float
    eps_target: float
    records: int
    frac_certified: float
    max_dist_sq: float
    mean_dist_sq: float
    median_dist_sq: float
    max_ratio_hm: float
    max_ratio_bc: float


def _solve_one(bundle, polished):
    """Solver output guarded by the base point as a feasible competitor;
    a solve that certifies no point reports the base distance uncertified.
    polished is a Hilbert instance's input polish, or None, as
    nearest_enp_alternating takes it."""
    if isinstance(bundle.instance, Frame):
        out, ds, rounds = nearest_enp_alternating(bundle.instance, polished)
        certified = out is not None
    else:
        _, ds, certified, rounds = nearest_enp_asf_search(
            bundle.instance,
            certify_tol=max(default_certify_tol(), SEARCH_CERTIFY_TOL))
    base_ds = bundle.base_dist_sq
    return (min(ds, base_ds) if certified else base_ds), certified, rounds


def estimate_paulsen(grid, trials):
    """Solve every grid spec for each trial and aggregate per (d, n, p,
    eps).

    Per-trial seeds are spec.seed + trial index. At n > d the input
    polishes of a spec's Hilbert trials run as one _kkt_polish stack, and
    each trial's solve takes its own entry. Hilbert records are certified
    at default_certify_tol (FRAMELAB_TOL), perturbed_asf records at
    max(FRAMELAB_TOL, SEARCH_CERTIFY_TOL), so never below 1e-6. Certified
    Hilbert records are asserted against the 20 eps d^2 ceiling. Returns
    (records, summary).
    """
    grid = list(grid)
    if not grid:
        raise ShapeMismatch("grid must contain at least one spec")
    if trials < 1:
        raise ShapeMismatch(f"trials must be positive, got {trials}")

    records = []
    for spec in grid:
        bundles = [generate_instance(replace(spec, seed=spec.seed + trial))
                   for trial in range(trials)]
        polished = [None] * trials
        if spec.kind in HILBERT_KINDS and spec.n > spec.d:
            v0 = np.stack([b.instance.vectors for b in bundles])
            polished = _kkt_polish(v0, v0, default_certify_tol())
        for bundle, first in zip(bundles, polished):
            t_spec = bundle.spec
            ds, certified, rounds = _solve_one(bundle, first)
            bound_hm, bound_bc = _bounds_for(
                t_spec, bundle.eps_parseval, bundle.eps_equal_norm)
            if certified and t_spec.kind in HILBERT_KINDS and ds > bound_hm:
                raise BoundViolation(
                    f"certified record at {t_spec} achieved {ds} above the "
                    f"ceiling {bound_hm}")
            records.append(ExperimentRecord(
                spec=t_spec,
                measured_eps_parseval=bundle.eps_parseval,
                measured_eps_equal_norm=bundle.eps_equal_norm,
                achieved_dist_sq=ds,
                certified=certified,
                iterations=rounds,
                bound_hm=bound_hm,
                bound_bc=bound_bc,
            ))

    summary = summarize_records(records)
    return records, summary


def summarize_records(records):
    groups = {}
    for rec in records:
        key = (rec.spec.d, rec.spec.n, rec.spec.p, rec.spec.epsilon_target)
        groups.setdefault(key, []).append(rec)
    out = []
    for key in sorted(groups):
        recs = groups[key]
        dists = [r.achieved_dist_sq for r in recs]
        out.append(SummaryRow(
            *key,
            records=len(recs),
            frac_certified=sum(r.certified for r in recs) / len(recs),
            max_dist_sq=max(dists),
            mean_dist_sq=statistics.fmean(dists),
            median_dist_sq=statistics.median(dists),
            max_ratio_hm=max(r.achieved_dist_sq / r.bound_hm for r in recs),
            max_ratio_bc=max(r.achieved_dist_sq / r.bound_bc for r in recs),
        ))
    return out
