"""Experiment engine: instance generation, nearest equal-norm-Parseval
solvers, and the empirical ceiling study.

Every perturbed or scaled instance carries its distance to the
equal-norm Parseval base it came from, and that base competes with the
solver output; a solve that certifies no point reports the base distance
instead of poisoning the sweep, certified only when the base is proved
globally nearest (Hilbert side). A reported distance is an
upper bound on the true infimum only as far as its certificate goes: a
Hilbert record certifies at FRAMELAB_TOL, but a perturbed_asf record at
1e-6 or above, so its point may sit up to that residual off the ENP set
and its distance below the infimum.

The Hilbert solver (nearest_enp_alternating) takes one alternating
round at n = d, which gives the orthogonal polar factor, the global
nearest point. At n > d it polishes: a Newton polish of the input
(_kkt_polish), proved globally nearest when its final multipliers make
the Lagrangian convex, else the nearest of it and the polishes of seeded
restarts, or no point when no polish certifies. One kernel,
_lagrangian_gaps, certifies every candidate and bounds its gap: each
polish under Newton's final multipliers, and the harmonic base under
least-squares ones when no polish certifies. Its spectra come from
numpy's eigh, as sym_eig's do, so a candidate is certified exactly when
frame_certificate would certify it. One test, _proved, proves a
candidate globally nearest from its gap. This module only composes
the acceptance rules: frames.enp_certificates says when a certificate
exists, spectral.inv_sqrt_from_eig when a frame operator is singular,
and _within compares certificates with a tolerance. The polish runs over
a stack of same-shape inputs and gives each item the bits of that item
polished alone: estimate_paulsen polishes all trials of a grid spec as
one stack, and a solve its restarts. While every item steps and takes
its full step, the step runs on the state arrays as they are; rows are
gathered and scattered only for items that halve, have no step or stop.
Its Newton step (_kkt_step) solves the k x k Schur complement of the
block-diagonal Hessian, k = d(d+1)/2 + n - 1, after one d x d eigh of
the Parseval multipliers: O(n d k^2 + k^3) per item, not the
O((nd + k)^3) of a dense KKT solve. An item whose Hessian has a pivot at
or below spectral.PSD_FLOOR stops polishing. A perturbed_enp instance is
certified once: the FrameCertificate that accepted the generator's draw
travels in its bundle to the solver, which certifies only the frames it
makes itself. The Banach search returns an input it certifies as it
is, and otherwise is a penalized local search by L-BFGS-B on the exact
gradient of one row-vectorized kernel, stopped at its first certified
penalty round (later rounds only trade distance for feasibility); it
certifies to the residual it is given. That kernel
(_SearchTerms) is built once per search: it keeps its work arrays
between evaluations and writes each pass into them, and it takes the
rows of both exponents through one stacked pass; only its powers run
per exponent, because np.power with a scalar exponent has exact fast
paths (at 2, 0.5 and -1) that an array of exponents lacks, and the
search's bits rest on them. It keeps the mu-free parts of the last point
it evaluated, so a point that the search asks for twice in a row (the
input check and round 1's first evaluation, each round's certificate
check and the next round's first evaluation) is evaluated once.
scipy.optimize
loads on the first Banach search, and it is the only scipy module that
framelab loads: the Hilbert, flow and check commands run without scipy.
"""

import functools
import math
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
    FrameCertificate,
    analyze_frame,
    default_certify_tol,
    enp_certificates,
    frame_certificate,
    frame_dist,
    generate,
    rescale_rows,
)
from .spectral import (
    _TINY,
    PSD_FLOOR,
    ball_displacements,
    inv_sqrt_from_eig,
    require_integer,
    sym_eig,
)

HILBERT_KINDS = ("perturbed_enp", "scaled_enp")
ASF_KINDS = ("perturbed_asf",)
INSTANCE_KINDS = HILBERT_KINDS + ASF_KINDS

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


def pair_error(kind, d, n):
    """Why no instance of kind has n vectors in R^d, or None when one can."""
    if d < 1 or n < d:
        return f"need 1 <= d <= n, got d = {d}, n = {n}"
    if n == 1:
        # the (n - 1)^8 factor makes the Bodmann-Casazza ceiling 0
        return "need n >= 2: the Bodmann-Casazza ceiling is 0 at n = 1"
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
        for name in ("d", "n", "seed"):
            require_integer(name, getattr(self, name))
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
    """A generated instance, its squared distance to the equal-norm
    Parseval base it was drawn around, and the report that accepted it,
    with its eps: a FrameCertificate (perturbed_enp; its solve reuses it),
    FrameReport (scaled_enp) or ASFReport (perturbed_asf)."""

    spec: InstanceSpec
    instance: object
    base_dist_sq: float
    report: object


def _within(certs, eps):
    """Whether both certificates of the pair (eps_parseval,
    eps_equal_norm) are present and <= eps: the retune acceptance rule,
    and the Hilbert solver's one test of a frame or candidate at tol."""
    eps_p, eps_en = certs
    return (eps_p is not None and eps_p <= eps
            and eps_en is not None and eps_en <= eps)


@functools.lru_cache(maxsize=None)
def _harmonic_base(d, n):
    """The harmonic frame of n vectors in R^d, built once per shape; one
    read-only Frame serves as the base of every instance of that shape."""
    return generate("harmonic", d, n)


def _gen_perturbed_enp(spec):
    """The harmonic frame with each vector displaced inside a ball drawn
    once from spec.seed, the displacement halved until both certificates
    are within the target. Halving is exact, so each retune has the bits
    of a fresh draw from spec.seed at half the radius. Each draw costs one
    frame_certificate, and the bundle keeps the accepted one."""
    base = _harmonic_base(spec.d, spec.n)
    eps = spec.epsilon_target
    disp = ball_displacements(np.random.default_rng(spec.seed), spec.n,
                              spec.d, 0.5 * eps * math.sqrt(spec.d / spec.n))
    for _ in range(MAX_RETUNES):
        inst = Frame(base.vectors + disp)
        cert = frame_certificate(inst)
        if _within((cert.eps_parseval, cert.eps_equal_norm), eps):
            return InstanceBundle(spec, inst, frame_dist(inst, base) ** 2,
                                  cert)
        disp = 0.5 * disp
    raise Infeasible(
        f"could not tune a perturbation below epsilon = {eps} for {spec}")


def _gen_scaled_enp(spec):
    """The harmonic frame times sqrt(1 + eps), so S = (1 + eps) I."""
    base = _harmonic_base(spec.d, spec.n)
    inst = Frame(np.sqrt(1.0 + spec.epsilon_target) * base.vectors)
    return InstanceBundle(spec, inst, frame_dist(inst, base) ** 2,
                          analyze_frame(inst))


def _gen_perturbed_asf(spec):
    """Perturbed repeated-basis ASF with the norm triple preserved exactly.

    The base is generate_asf's repeated_basis ASF. Each pair is a radius
    r_j times a unit direction u_j and its norming functional, so
    |tau|_p^2 = f(tau) = |f|_q^2 = r_j^2 holds to rounding. The direction
    displacements and the radius offsets are drawn once per seed and
    halved until both certificates are within the target, as in
    _gen_perturbed_enp, at SEARCH_CERTIFY_TOL; seeds whose frame operator
    picks up complex spectrum are skipped by a deterministic seed bump,
    because the offending sign pattern is invariant under shrinking the
    perturbation.
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
            rep = analyze_asf(inst, tol=SEARCH_CERTIFY_TOL)
            if not rep.spectrum_real:
                break
            if _within((rep.eps_parseval, rep.eps_equal_norm), eps):
                return InstanceBundle(spec, inst,
                                      asf_dist(inst, base) ** 2, rep)
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
    """Index layout of _kkt_polish's constraints for n vectors in R^d,
    built once per shape. Returns (half, upper, sym, a_dst, a_src), all
    read-only:
    - half: the weights of the m Parseval constraints, one per entry of
      the upper triangle of a d x d matrix in np.triu_indices order (1/2
      on the diagonal);
    - upper: the flat positions of those entries in a d x d matrix;
    - sym: for each flat position of a d x d matrix, the constraint of its
      entry or of its transpose's, so mult.take(sym) is Lambda;
    - a_dst, a_src: the flat (nd, k) constraint Jacobian holds
      v.ravel()[a_src] at a_dst and zeros elsewhere.
    """
    rows, cols = np.triu_indices(d)
    m = rows.size
    k = m + n - 1
    col = np.arange(m)
    en = np.arange(n - 1)  # the rows with an equal-norm constraint
    # column i < m of the Jacobian is the gradient V E_i: v[:, rows[i]] in
    # column cols[i] of each row's block and v[:, cols[i]] in column
    # rows[i] (the second wins on the diagonal, where both are equal);
    # column m + j is e_j v_j^T
    src = np.full((n, d, k), -1)
    vi = np.arange(n * d).reshape(n, d)
    src[:, cols, col] = vi[:, rows]
    src[:, rows, col] = vi[:, cols]
    src[en, :, m + en] = vi[:-1]
    a_dst = np.flatnonzero(src >= 0)
    sym = np.empty(d * d, dtype=np.intp)
    sym[rows * d + cols] = sym[cols * d + rows] = col
    layout = (np.where(rows == cols, 0.5, 1.0), rows * d + cols, sym,
              a_dst, src.ravel()[a_dst])
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _dots(x, y):
    """The dot products x[i] @ y[i] of two (b, N) stacks, each with the
    bits of the 1-D product (matmul takes BLAS's dot for every item)."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _residual(v0, v, mult):
    """The stationarity residuals r = V - V0 - A mult, the halved
    constraints c, the Jacobians A (one flat scatter from v) and the KKT
    norms |(r, c)| of a stack of points v with multipliers mult."""
    b, n, d = v.shape
    half, upper, _, a_dst, a_src = _polish_layout(n, d)
    k = mult.shape[1]
    a = np.zeros((b, n * d * k))
    a[:, a_dst] = v.reshape(b, n * d).take(a_src, axis=1)
    a = a.reshape(b, n * d, k)
    gram = (v.transpose(0, 2, 1) @ v).reshape(b, d * d)
    gram[:, :: d + 1] -= 1.0  # minus I in place
    c = np.concatenate(
        [half * gram.take(upper, axis=1),
         0.5 * (np.add.reduce(v[:, :-1] ** 2, axis=2) - d / n)], axis=1)
    r = (v - v0).reshape(b, n * d) - (a @ mult[:, :, None])[:, :, 0]
    return r, c, a, np.sqrt(_dots(r, r) + _dots(c, c))


def _lambda_mu(mult, n, d):
    """Each item's symmetric Lambda of Parseval multipliers, and its
    equal-norm multipliers mu with 0 for the dropped constraint."""
    half, _, sym = _polish_layout(n, d)[:3]
    mu = np.zeros((len(mult), n))
    mu[:, :-1] = mult[:, half.size:]
    return mult.take(sym, axis=1).reshape(-1, d, d), mu


def _lagrangian_gaps(v0, w, mult, r, c, tol):
    """The certificate of a stack of candidate ENP frames w for the
    inputs v0, one entry per item: None unless the item is stationary and
    _within holds at tol on its enp_certificates, else a gap such that
    every ENP frame W has |W - V0|^2 >= |w - v0|^2 - gap. The spectra
    come from one stacked eigh, which gives each frame operator the bits
    of sym_eig's, so the verdict is frame_certificate's, bit for bit.

    r and c are _residual's at (w, mult), which the polish has at hand.
    mult may be any multipliers: the bound holds for each. The
    Lagrangian |V - V0|^2 / 2 - mult . c(V) is a quadratic with gradient
    r at w and Hessian blocks (1 - mu_j) I - Lambda, so at least margin
    I with margin = 1 - max_j mu_j - lambda_max(Lambda). On the ENP set
    (c = 0) it is |W - V0|^2 / 2, and when margin > 0 it is nowhere
    below its value at w minus |r|^2 / (2 margin) (the Lagrangian
    sufficiency theorem). So gap = 2 |mult . c| + |r|^2 / margin, or inf
    when margin <= 0. Each gap is a Python float, and every stacked call
    gives each item the bits of its 2-D call.
    """
    b, n, d = w.shape
    diff = (w - v0).reshape(b, n * d)
    lam, mu = _lambda_mu(mult, n, d)
    # one stacked eigh, eigenvalues kept: the spectra of the frame
    # operators, then those of Lambda (eigvalsh's differ from sym_eig's
    # in the last bits)
    spectra = np.linalg.eigh(
        np.concatenate([w.transpose(0, 2, 1) @ w, lam]))[0]
    margin = 1.0 - mu.max(axis=1) - spectra[b:, -1]
    r_sq = _dots(r, r)
    # stationarity keeps out Newton iterates short of a KKT point: a
    # 1e-8-feasible one can undercut the true minimum, as on scaled_enp
    # (4, 6) eps 0.2 (0.03643907988904813 against the exact
    # 0.036439079917342125) with the test removed
    stationary = np.sqrt(r_sq) <= STATIONARY_TOL * np.sqrt(_dots(diff, diff))
    gaps = []
    for eig, norms_sq, st, mg, mc, rr in zip(
            spectra[:b], np.sum(w * w, axis=2), stationary, margin,
            _dots(mult, c), r_sq):
        if not (st and _within(enp_certificates(eig, norms_sq), tol)):
            gaps.append(None)
        else:
            gaps.append(math.inf if mg <= 0.0
                        else float(2.0 * abs(mc) + rr / mg))
    return gaps


def _proved(gap, ds, d, tol):
    """Whether a candidate at squared distance ds from its input in R^d,
    certified at tol with _lagrangian_gaps gap, is proved the globally
    nearest ENP frame: gap is within the slack 2 sqrt(ds d) tol, the
    amount by which a point certified at tol may undercut the ENP set."""
    return gap <= 2.0 * math.sqrt(ds * d) * tol


def _kkt_step(r, c, a, mult, n, d):
    """Newton steps of a stack of s KKT systems [H, -A; A^T, 0] (dv,
    dmult) = -(r, c), through the Schur complement of H. Returns (pos, dv,
    dmult): pos the ascending positions of the items that have a step,
    dv (len(pos), n, d) and dmult (len(pos), k) their steps.

    H is block diagonal with blocks H_j = (1 - mu_j) I - Lambda, which
    share Lambda, so one eigh Lambda = Q diag(w) Q^T inverts them all:
    H_j^-1 = Q diag(1 / (1 - mu_j - w)) Q^T. Then dmult solves the k x k
    system (A^T H^-1 A) dmult = A^T H^-1 r - c, and dv = H^-1 (A dmult -
    r). An item with a pivot |1 - mu_j - w_i| at or below PSD_FLOOR has
    no step, nor one whose Schur complement is singular. Each stacked
    call gives each item the bits of its own call.
    """
    s, nd, k = a.shape
    lam, mu = _lambda_mu(mult, n, d)
    w, q = np.linalg.eigh(lam)
    # the eigenvalues of H: entry (j, i) is 1 - mu_j - w_i
    piv = (1.0 - mu)[:, :, None] - w[:, None, :]
    pos = np.arange(s)
    if not np.abs(piv).min() > PSD_FLOOR:
        pos = np.flatnonzero(
            np.abs(piv).reshape(s, -1).min(axis=1) > PSD_FLOOR)
        r, c, a, q, piv = r[pos], c[pos], a[pos], q[pos], piv[pos]
    inv = 1.0 / piv.reshape(-1, nd, 1)
    # A and r with each vector's d coordinates in the eigenbasis of Lambda
    a_t = (q.transpose(0, 2, 1)[:, None] @ a.reshape(-1, n, d, k)).reshape(
        -1, nd, k)
    r_t = (r.reshape(-1, n, d) @ q).reshape(-1, nd, 1)
    h_a = inv * a_t  # H^-1 A
    schur = a_t.transpose(0, 2, 1) @ h_a
    rhs = h_a.transpose(0, 2, 1) @ r_t - c[:, :, None]
    try:
        dmult = np.linalg.solve(schur, rhs)
    except np.linalg.LinAlgError:
        # one singular item fails the whole call; a slogdet sign of 0 marks a
        # zero pivot of LAPACK's LU (getrf), which solve uses too
        solved = np.linalg.slogdet(schur)[0] != 0
        pos, a_t, r_t, inv, q = (x[solved] for x in (pos, a_t, r_t, inv, q))
        dmult = np.linalg.solve(schur[solved], rhs[solved])
    dv = (inv * (a_t @ dmult - r_t)).reshape(-1, n, d) @ q.transpose(0, 2, 1)
    return pos, dv, dmult[:, :, 0]


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
    more than MERIT_GROWTH is halved. An item stops stepping when _kkt_step
    gives it no step (a Hessian pivot at or below PSD_FLOOR, or a singular
    Schur complement), when MAX_HALVINGS halvings do not bring the step
    under that test, or when its residual falls to CONVERGED relative to
    |V - V0|. v0 and v have shape (b, n, d). Returns a list of b entries
    (V, gap): the item's end point and its _lagrangian_gaps gap under
    Newton's final multipliers, gap None where the point is uncertified.

    A step costs O(n d k^2 + k^3) per item, with k = d(d+1)/2 + n - 1
    multipliers: one d x d eigh, the k x k Schur complement and its
    solve, where a dense KKT solve costs O((nd + k)^3). Each step works
    on the items still stepping (live, ascending) as one stack, so an
    item's result has the bits of that item polished alone: every stacked
    call (matmul, solve, eigh, row sums) gives each item the
    bits of its 2-D call. While every item is live, the step, the trial
    point, its _residual and the merit test run on the whole stack, and
    when every item passes the trial arrays become the state. Once an item
    has stopped, halves or has no step, the step gathers the rows it works
    on and scatters the accepted ones. The index layout comes from
    _polish_layout's per-shape cache: the Jacobian is one flat scatter
    from v, and the multipliers of Lambda are scattered in.
    """
    b, n, d = v.shape
    nd = n * d
    k = _polish_layout(n, d)[0].size + n - 1

    def rows(x, idx):
        # idx is ascending, so b entries are every item in order
        return x if idx.size == b else x[idx]

    v = v.copy()  # accepted steps are written into their rows
    mult = np.zeros((b, k))
    r, c, a, f_norm = _residual(v0, v, mult)
    live = np.arange(b)  # the items still stepping, ascending
    for _ in range(POLISH_STEPS):
        if not live.size:
            break
        pos, dv, dmult = _kkt_step(rows(r, live), rows(c, live),
                                   rows(a, live), rows(mult, live), n, d)
        idx = live[pos]
        stepped = np.zeros(b, dtype=bool)
        for _ in range(MAX_HALVINGS):
            v_new, mult_new = rows(v, idx) + dv, rows(mult, idx) + dmult
            trial = _residual(rows(v0, idx), v_new, mult_new)
            ok = trial[3] <= MERIT_GROWTH * rows(f_norm, idx)
            if idx.size == b and ok.all():
                # the common step: the trial arrays become the state
                (r, c, a, f_norm), v, mult = trial, v_new, mult_new
                stepped[:] = True
                break
            acc = idx[ok]
            v[acc], mult[acc] = v_new[ok], mult_new[ok]
            r[acc], c[acc], a[acc], f_norm[acc] = (t[ok] for t in trial)
            stepped[acc] = True
            fail = ~ok
            idx, dv, dmult = idx[fail], 0.5 * dv[fail], 0.5 * dmult[fail]
            if not idx.size:
                break
        # the items left in idx failed every halving and stop
        diff = (v - v0).reshape(b, nd)
        live = np.flatnonzero(
            stepped & (f_norm > CONVERGED * np.sqrt(_dots(diff, diff))))
    return list(zip(v, _lagrangian_gaps(v0, v, mult, r, c, tol)))


def _alternating_round(v, dec):
    """The closest Parseval map, then the closest equal-norm map, from v
    and the sym_eig of its frame operator; inv_sqrt_from_eig raises
    SingularOperator, naming the eigenvalue, if that is singular."""
    w = v @ inv_sqrt_from_eig(dec)
    return rescale_rows(w, math.sqrt(v.shape[1] / len(v)))[0]


def nearest_enp_alternating(frame, polished=None, certificate=None):
    """Nearest equal-norm Parseval (ENP) frame: one alternating round at
    n = d, else Newton polishes from the input and from seeded restarts.

    With tol = default_certify_tol() (FRAMELAB_TOL), a frame is certified
    when _within holds at tol on its frame_certificate's pair, and a
    polish when _lagrangian_gaps gives it a gap under Newton's final
    multipliers (the same rule, and stationary). In order:
    1. a certified input comes back unchanged;
    2. at n = d, where the ENP set is O(d), one alternating round gives
       the polar factor, the global nearest (Fan-Hoffman); at a singular
       frame operator inv_sqrt_from_eig's SingularOperator propagates;
    3. at n > d, the input's polish comes back if _proved holds on its
       gap, which proves it globally nearest;
    4. otherwise RESTARTS starts v0 + RESTART_KICK sqrt(d/n) G, G from
       default_rng(0) and each pushed by RESTART_ROUNDS alternating rounds
       (dropped on SingularOperator), polish as one stack; the nearest
       certified polish, the input's too, comes back, proved or not.

    Returns (frame, dist_sq, rounds), the frame certified at tol and
    rounds counting the alternating rounds that ran: 0 at exits 1 and 3,
    1 at exit 2, at most RESTARTS * RESTART_ROUNDS at exit 4, fewer once
    a start is dropped. When the round of exit 2 or every polish of exit
    4 fails the certificate, frame and dist_sq are None, and _solve_one
    judges the base. polished is the input's polish, this frame's
    _kkt_polish entry (point, gap), gap None when the point is
    uncertified (estimate_paulsen's stack passes it); None polishes here.
    certificate is the input's frame_certificate (estimate_paulsen passes
    the generator's, whose decomposition the round of exit 2 reuses); None
    certifies here. Either way the result has the same bits.
    """
    tol = default_certify_tol()
    v0 = frame.vectors
    n, d = v0.shape
    if n < d:
        raise UnsupportedShape(f"need n >= d, got ({d}, {n})")

    def dist_sq(v):
        return float(np.sum((v - v0) ** 2))

    if certificate is None:
        certificate = frame_certificate(frame)
    if _within((certificate.eps_parseval, certificate.eps_equal_norm), tol):
        return frame, 0.0, 0
    if n == d:
        out = Frame(_alternating_round(v0, certificate.decomposition))
        cert = frame_certificate(out)
        if _within((cert.eps_parseval, cert.eps_equal_norm), tol):
            return out, dist_sq(out.vectors), 1
        return None, None, 1
    if polished is None:
        polished, = _kkt_polish(v0[None], v0[None], tol)
    point, gap = polished
    if gap is not None:
        ds = dist_sq(point)
        if _proved(gap, ds, d, tol):
            return Frame(point), ds, 0
    kicks = np.random.default_rng(0).standard_normal((RESTARTS, n, d))
    starts, rounds = [], 0
    for start in v0 + RESTART_KICK * math.sqrt(d / n) * kicks:
        try:
            for _ in range(RESTART_ROUNDS):
                start = _alternating_round(start, sym_eig(start.T @ start))
                rounds += 1
        except SingularOperator:
            continue  # the start is dropped
        starts.append(start)
    if starts:
        starts = _kkt_polish(np.broadcast_to(v0, (len(starts), n, d)),
                             np.stack(starts), tol)
    points = [p for p, gap in [polished, *starts] if gap is not None]
    if not points:
        return None, None, rounds
    point = min(points, key=dist_sq)  # the first on a tie
    return Frame(point), dist_sq(point), rounds


class _SearchTerms:
    """The Banach search's objective kernel, built once per search from
    the input's (2, n, d) stack z_in = [f_in; tau_in] and the exponents p
    and q.

    Called at z = (f, tau), the flat (2, n, d) stack of functionals and
    vectors, it returns the mu-free parts of the penalty dist + mu *
    resid_sq: dist, resid_sq, half the gradient of dist and the gradient
    of resid_sq, both flat like z. penalty(z, mu) puts them together as
    L-BFGS-B's value and gradient.

    dist = sum_j (|tau_j - tau_in_j|_p^2 + |f_j - f_in_j|_q^2) / 2 and
    resid_sq = |G|^2 + sum_j (a_j^2 + b_j^2 + c_j^2) with G = tau^T f - I,
    a_j = |tau_j|_p^2 - d/n, b_j = |f_j|_q^2 - d/n, c_j = f_j tau_j - d/n.
    The squared row norms and their gradients 2 |x|_r^(2-r) sign(x)
    |x|^(r-1) (0 on a zero row) take one pass over the (4n, d) stack
    [f - f_in; f; tau - tau_in; tau], r = q on its first half and p on
    its second, written into work arrays that the kernel keeps between
    calls. Only the powers run per half: np.power with a scalar exponent
    takes exact paths at 2, 0.5 and -1, which an array of exponents does
    not. When a power sum overflows, or underflows on a nonzero row, each
    half's norms are pnorm's, which rescales those rows; otherwise every
    power sum is at least _TINY and no norm is 0.

    The kernel keeps the parts of the last point it evaluated and gives
    them again for a z with the same bits, so a point asked for twice in
    a row is evaluated once. The arrays it returns are never its work
    arrays.
    """

    def __init__(self, z_in, p, q):
        _, n, d = z_in.shape
        h = 2 * n
        self._z_in = z_in
        self._t = d / n
        x, ax, pw, rows = np.empty((4, 2 * h, d))
        s, norms, scale, sq = np.empty((4, 2 * h))
        x4, rows4 = x.reshape(2, 2, n, d), rows.reshape(2, 2, n, d)
        g = np.empty((2, d, d))  # [G; G^T]
        # the work arrays and the views _evaluate writes through, unpacked
        # there in this order
        self._work = (x, ax, pw, rows, s, norms, scale, scale[:, None], sq,
                      sq.reshape(2, 2, n), x4[:, 0], x4[:, 1], rows4[:, 0],
                      rows4[:, 1], g, g[0], g[1], g[0].ravel()[:: d + 1],
                      np.empty((2, n, d)))
        # each exponent block's rows in the work arrays, and r, 1/r,
        # 2 - r and r - 1: the q block, then the p block
        self._blocks = tuple(
            (x[k], ax[k], pw[k], s[k], norms[k], scale[k],
             r, 1.0 / r, 2.0 - r, r - 1.0)
            for k, r in ((slice(0, h), q), (slice(h, 2 * h), p)))
        self._key = None
        self._parts = None

    def __call__(self, z):
        key = z.tobytes()
        if key != self._key:
            self._parts = self._evaluate(z)
            self._key = key
        return self._parts

    def penalty(self, z, mu):
        """dist + mu * resid_sq and its flat gradient at z."""
        dist, resid_sq, half_dist_grad, resid_grad = self(z)
        return dist + mu * resid_sq, half_dist_grad + 2.0 * mu * resid_grad

    def _evaluate(self, z):
        (x, ax, pw, rows, s, norms, scale, scale_col, sq, sq4, x_diff,
         x_self, rows_diff, rows_self, g, g0, g1, g_diag, tmp) = self._work
        blocks, z_in, t = self._blocks, self._z_in, self._t
        fz = z.reshape(z_in.shape)
        f, tau = fz[0], fz[1]
        np.subtract(fz, z_in, out=x_diff)
        np.copyto(x_self, fz)
        np.abs(x, out=ax)
        for _, ax_k, pw_k, _, _, _, r, _, _, _ in blocks:
            np.power(ax_k, r, out=pw_k)
        np.add.reduce(pw, axis=1, out=s)
        sums = s.tolist()
        # a total below inf rules out an inf or NaN power sum; a total of
        # finite ones that overflows only takes pnorm's path, which gives
        # rows with normal power sums the same bits
        if sum(sums) < math.inf and min(sums) >= _TINY:
            for _, _, _, s_k, norms_k, scale_k, _, inv_r, e, _ in blocks:
                np.power(s_k, inv_r, out=norms_k)
                np.power(norms_k, e, out=scale_k)
        else:
            for x_k, _, _, _, norms_k, _, r, _, _, _ in blocks:
                norms_k[...] = pnorm(x_k, r)
            scale[...] = np.where(norms > 0.0, norms, 1.0)
            for _, _, _, _, _, scale_k, _, _, e, _ in blocks:
                np.power(scale_k, e, out=scale_k)
        for _, ax_k, pw_k, _, _, _, _, _, _, e in blocks:
            np.power(ax_k, e, out=pw_k)
        np.multiply(scale, 2.0, out=scale)
        np.sign(x, out=rows)
        np.multiply(scale_col, rows, out=rows)
        np.multiply(rows, pw, out=rows)
        np.square(norms, out=sq)
        np.matmul(tau.T, f, out=g0)
        g_diag -= 1.0  # G = tau^T f - I
        np.copyto(g1, g0.T)
        ba = sq4[:, 1] - t  # the norm residuals of f, then of tau
        b, a = ba[0], ba[1]
        c = np.einsum("ij,ij->i", f, tau) - t
        dist = 0.5 * float(np.add.reduce(sq4[1, 0] + sq4[0, 0]))
        resid_sq = float(np.add.reduce(g0 * g0, axis=None)
                         + a @ a + b @ b + c @ c)
        # [tau; f] @ [G; G^T] and the rest, f's rows first as in z
        swapped = fz[::-1]
        resid_grad = swapped @ g
        resid_grad += np.multiply(ba[:, :, None], rows_self, out=tmp)
        resid_grad += np.multiply(c[:, None], swapped, out=tmp)
        return (dist, resid_sq, (0.5 * rows_diff).ravel(),
                resid_grad.ravel())


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call: the Banach
    search is its only user, and every other command starts without it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def nearest_enp_asf_search(asf, certify_tol):
    """Penalized local search for the nearest equal-norm Parseval ASF.

    An input with residual at most certify_tol comes back as it is, as
    (asf, 0.0, True, 0). Otherwise minimizes squared distance plus mu
    times the feasibility residual by L-BFGS-B on the exact gradient of
    _SearchTerms, mu increasing by MU_FACTOR per outer round, up to the
    first round whose residual is at most certify_tol: as mu grows the
    distance part of the penalty minimizer does not fall (Nocedal-Wright,
    Numerical Optimization 17.1), so later rounds are no nearer. Failing
    that by MU_MAX, the most feasible round comes back uncertified.
    Returns (asf, dist_sq, certified, rounds), rounds counting the outer
    rounds before the stop.

    The input's (2, n, d) stack and its _SearchTerms kernel are built
    once per search. Each evaluation takes its four row families through
    one stacked pass of the kernel, with the powers split per exponent
    block so that np.power keeps its exact fast paths: the same bits as
    one norm pass per family. The input check and round 1's first
    L-BFGS-B evaluation land on the input, and each round's certificate
    check and the next round's first evaluation on that round's point;
    the second call of each pair takes the kernel's stored mu-free parts,
    so the point is evaluated once.
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
    z_in = np.stack([asf.functionals, asf.vectors])
    terms = _SearchTerms(z_in, p, asf.space.q)
    z = z_in.ravel()
    if math.sqrt(terms(z)[1]) <= certify_tol:
        return asf, 0.0, True, 0
    best = (math.inf, 0.0, z)  # (resid, dist_sq, z) of the most feasible round
    mu = MU0
    rounds = 0
    while mu <= MU_MAX:
        res = minimize(terms.penalty, z, args=(mu,), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": SEARCH_MAX_ITERS,
                                "ftol": 1e-15, "gtol": 1e-12})
        z = res.x
        ds, resid_sq = terms(z)[:2]
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


def _base_proved(bundle):
    """Whether a Hilbert bundle's harmonic base is proved the globally
    nearest ENP frame to its instance: _proved holds on its
    _lagrangian_gaps gap at tol = default_certify_tol().
    The multipliers solve W - V0 = A(W) mult by least squares. At a
    rank-deficient base, such as the harmonic frame at (2, 4), they are
    not unique, and lstsq's minimum-norm ones are only one valid choice:
    the bound holds for each."""
    spec, tol = bundle.spec, default_certify_tol()
    v0 = bundle.instance.vectors[None]
    w = _harmonic_base(spec.d, spec.n).vectors[None]
    k = _polish_layout(spec.n, spec.d)[0].size + spec.n - 1
    # c and A do not depend on the multipliers, so one _residual at zero
    # multipliers gives them and r = W - V0, and r - A mult is the
    # residual at mult
    r, c, a, _ = _residual(v0, w, np.zeros((1, k)))
    mult = np.linalg.lstsq(a[0], r[0], rcond=None)[0][None]
    r = r - (a @ mult[:, :, None])[:, :, 0]
    gap, = _lagrangian_gaps(v0, w, mult, r, c, tol)
    return gap is not None and _proved(gap, bundle.base_dist_sq, spec.d, tol)


def _solve_one(bundle, polished):
    """Solver output guarded by the base point as a feasible competitor.
    A Hilbert solve that certifies no point reports the base distance,
    certified when _base_proved proves the base; a Banach search that
    certifies no point reports it uncertified. polished is a Hilbert
    instance's input polish, or None, as nearest_enp_alternating takes
    it; a perturbed_enp bundle's report, a FrameCertificate, goes with it,
    so that input is not certified again."""
    base_ds = bundle.base_dist_sq
    if isinstance(bundle.instance, Frame):
        cert = bundle.report
        out, ds, rounds = nearest_enp_alternating(
            bundle.instance, polished,
            cert if isinstance(cert, FrameCertificate) else None)
        if out is None:
            return base_ds, _base_proved(bundle), rounds
        certified = True
    else:
        _, ds, certified, rounds = nearest_enp_asf_search(
            bundle.instance,
            certify_tol=max(default_certify_tol(), SEARCH_CERTIFY_TOL))
    return (min(ds, base_ds) if certified else base_ds), certified, rounds


def estimate_paulsen(grid, trials):
    """Solve every grid spec for each trial and aggregate per (d, n, p,
    eps).

    Per-trial seeds are spec.seed + trial index. At n > d the input
    polishes of a spec's Hilbert trials run as one _kkt_polish stack, and
    each trial's solve takes its own entry and its bundle's report.
    Hilbert records are certified at default_certify_tol (FRAMELAB_TOL),
    perturbed_asf records at max(FRAMELAB_TOL, SEARCH_CERTIFY_TOL), so
    never below 1e-6. Certified Hilbert records are asserted against the
    20 eps d^2 ceiling. Returns (records, summary).
    """
    grid = list(grid)
    if not grid:
        raise ShapeMismatch("grid must contain at least one spec")
    require_integer("trials", trials)
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
            t_spec, rep = bundle.spec, bundle.report
            ds, certified, rounds = _solve_one(bundle, first)
            bound_hm, bound_bc = _bounds_for(
                t_spec, rep.eps_parseval, rep.eps_equal_norm)
            if certified and t_spec.kind in HILBERT_KINDS and ds > bound_hm:
                raise BoundViolation(
                    f"certified record at {t_spec} achieved {ds} above the "
                    f"ceiling {bound_hm}")
            records.append(ExperimentRecord(
                spec=t_spec,
                measured_eps_parseval=rep.eps_parseval,
                measured_eps_equal_norm=rep.eps_equal_norm,
                achieved_dist_sq=ds,
                certified=certified,
                iterations=rounds,
                bound_hm=bound_hm,
                bound_bc=bound_bc,
            ))

    summary = summarize_records(records)
    return records, summary


def _ratio(rec, ceiling):
    """rec's dist_sq over one of its ceilings. An exactly ENP instance has
    eps 0 and so zero ceilings: its ratio is 0 at dist_sq 0, else inf."""
    if ceiling == 0.0:
        return 0.0 if rec.achieved_dist_sq == 0.0 else math.inf
    return rec.achieved_dist_sq / ceiling


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
            max_ratio_hm=max(_ratio(r, r.bound_hm) for r in recs),
            max_ratio_bc=max(_ratio(r, r.bound_bc) for r in recs),
        ))
    return out
