"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible under pytest -rA). Lines report the measured quantities so a red
run documents itself.
"""

import itertools
import math

import numpy as np
import pytest

from framelab import (
    FlowConfig,
    Frame,
    InstanceSpec,
    PNormSpace,
    analyze_asf,
    analyze_frame,
    asf_dist,
    closest_equal_norm,
    closest_parseval,
    estimate_paulsen,
    flow_step,
    frame_dist,
    frame_operator,
    from_hilbert,
    generate,
    generate_asf,
    generate_instance,
    naimark_complement,
    nearest_enp_alternating,
    nearest_enp_asf_search,
    record_to_row,
    sweep_csv_text,
    tangent_family,
)
from framelab.projections import certify_projection, chordal_distance
from conftest import ROOT3, random_frame


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rescaled_random_frame(rng, d, n):
    # scale so the spectrum straddles 1, making the nearly-Parseval
    # certificate present for any invertible draw
    while True:
        v = rng.standard_normal((n, d))
        lam = np.linalg.eigvalsh(v.T @ v)
        if lam[0] > 1e-6:
            return Frame(v / math.sqrt(0.5 * (lam[0] + lam[-1])))


SWEEP_GRID = [
    InstanceSpec(kind="perturbed_enp", d=d, n=n, epsilon_target=eps, seed=977)
    for d in range(2, 6)
    for n in range(d, 11)
    for eps in (0.01, 0.05, 0.1, 0.2)
]


@pytest.fixture(scope="module")
def hm_sweep():
    records, summary = estimate_paulsen(SWEEP_GRID, trials=20)
    return records, summary, sweep_csv_text([record_to_row(r)
                                             for r in records])


class TestCriterion1:
    def test_golden_three_vector_suite(self, mb):
        op_gap = float(np.max(np.abs(frame_operator(mb) - 1.5 * np.eye(2))))
        _, dist_sq = closest_parseval(mb)
        ds_exact = 3.0 * (1.0 - math.sqrt(2.0 / 3.0)) ** 2
        shrunk = Frame(math.sqrt(2.0 / 3.0) * mb.vectors)
        fd = frame_dist(mb, shrunk)
        fd_exact = ROOT3 * (1.0 - math.sqrt(2.0 / 3.0))
        ok = (op_gap <= 1e-14
              and abs(dist_sq - ds_exact) <= 1e-9
              and abs(fd - fd_exact) <= 1e-9)
        _report(1, ok,
                f"operator gap {op_gap:.2e}, parseval dist_sq "
                f"{dist_sq!r} vs {ds_exact!r}, scaled-copy distance "
                f"{fd!r} (reference 0.3178372... = sqrt(3)(1-sqrt(2/3)))")


class TestCriterion2:
    def test_parseval_distance_ceilings(self):
        rng = np.random.default_rng(20202)
        worst_slack = math.inf
        quarter_violations = 0
        checked = 0
        ok = True
        for _ in range(200):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(d, 3 * d + 1))
            frame = _rescaled_random_frame(rng, d, n)
            rep = analyze_frame(frame)
            eps = rep.eps_parseval
            if eps is None:
                continue
            _, ds = closest_parseval(frame)
            ceiling = d * (2.0 - eps - 2.0 * math.sqrt(1.0 - eps))
            ok = ok and ds <= ceiling + 1e-9 and ds <= d * eps * eps
            worst_slack = min(worst_slack, ceiling + 1e-9 - ds)
            if ds > d * eps * eps / 4.0:
                quarter_violations += 1
            checked += 1
        ok = ok and checked == 200
        _report(2, ok,
                f"{checked} frames within both ceilings, min slack "
                f"{worst_slack:.2e}; d*eps^2/4 exceeded on "
                f"{quarter_violations} (reported only, bound known too "
                f"tight by a factor 4)")


class TestCriterion3:
    def test_optimality_oracles(self):
        rng = np.random.default_rng(30303)
        ok = True
        min_margin_p = math.inf
        for n in (2, 3, 4):
            for _ in range(2):
                frame = _rescaled_random_frame(rng, 2, n)
                _, ds = closest_parseval(frame)
                for k in range(2000):
                    comp = generate("random_parseval", d=2, n=n,
                                    seed=int(rng.integers(0, 2**31)))
                    cd = frame_dist(frame, comp) ** 2
                    ok = ok and cd >= ds - 1e-12
                    min_margin_p = min(min_margin_p, cd - ds)
        min_margin_e = math.inf
        for n in (3, 4):
            frame = Frame(rng.standard_normal((n, 2)))
            out, ds = closest_equal_norm(frame)
            dirs = out.vectors / np.linalg.norm(out.vectors, axis=1)[:, None]
            c_star = float(np.linalg.norm(out.vectors[0]))
            for _ in range(1000):
                u = rng.standard_normal((n, 2))
                u = u / np.linalg.norm(u, axis=1)[:, None]
                c = abs(float(rng.standard_normal())) + 0.1
                cd = frame_dist(frame, Frame(c * u)) ** 2
                ok = ok and cd >= ds - 1e-12
                min_margin_e = min(min_margin_e, cd - ds)
            for c_prime in np.linspace(max(c_star - 0.5, 1e-3),
                                       c_star + 0.5, 101):
                cd = frame_dist(frame, Frame(c_prime * dirs)) ** 2
                ok = ok and cd >= ds - 1e-12
        _report(3, ok,
                f"closest maps undefeated; worst parseval competitor margin "
                f"{min_margin_p:.2e}, equal-norm margin {min_margin_e:.2e}")


class TestCriterion4:
    def test_complement_identities(self):
        rng = np.random.default_rng(40404)
        max_gram = 0.0
        max_norm = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 2 * d + 3))
            frame = generate("random_parseval", d=d, n=n,
                             seed=int(rng.integers(0, 2**31)))
            comp = naimark_complement(frame)
            gram_sum = frame.vectors @ frame.vectors.T \
                + comp.vectors @ comp.vectors.T
            max_gram = max(max_gram, float(np.max(np.abs(
                gram_sum - np.eye(n)))))
            norms_gap = np.abs(np.sum(comp.vectors ** 2, axis=1)
                               - (1.0 - np.sum(frame.vectors ** 2, axis=1)))
            max_norm = max(max_norm, float(np.max(norms_gap)))
        ok = max_gram <= 1e-9 and max_norm <= 1e-9
        _report(4, ok,
                f"100 complements: Gram-sum gap {max_gram:.2e}, "
                f"norm-complement gap {max_norm:.2e}")


def _flow_corpus():
    pairs = [(d, n) for d in range(2, 6) for n in range(d + 1, 11)
             if math.gcd(d, n) == 1]
    runs = [(d, n, 1234 + i) for (d, n) in pairs for i in range(4)]
    return list(itertools.islice(runs, 50))


def _run_flow_with_per_step_checks(d, n, seed):
    rng = np.random.default_rng(seed)
    v = generate("harmonic", d=d, n=n).vectors * math.sqrt(n / d)
    v = v + 0.01 * rng.standard_normal(v.shape)
    v = v / np.linalg.norm(v, axis=1)[:, None]
    config = FlowConfig(step_t=1.0 / (4 * n), renorm_every=25)
    target = n / d
    eye = np.eye(d)
    max_drift = 0.0
    max_tan = 0.0
    max_rise = 0.0
    prev_pot = None
    converged = None
    k = 0
    while k <= 100_000:
        s = v.T @ v
        pot = float(np.sum(s * s))
        if prev_pot is not None:
            max_rise = max(max_rise, pot - prev_pot)
        prev_pot = pot
        if float(np.linalg.norm(s - target * eye)) <= 1e-6:
            converged = k
            break
        omegas = tangent_family(Frame(v))
        max_tan = max(max_tan, float(np.max(np.abs(
            np.einsum("ij,ij->i", omegas, v)))))
        before = np.linalg.norm(v, axis=1)
        v = flow_step(Frame(v), config).vectors
        drift = np.abs(np.linalg.norm(v, axis=1) - before)
        max_drift = max(max_drift, float(np.max(drift)))
        k += 1
        if k % 25 == 0:
            v = v / np.linalg.norm(v, axis=1)[:, None]
    return converged, max_drift, max_tan, max_rise


class TestCriterion5:
    def test_flow_corpus(self):
        corpus = _flow_corpus()
        assert len(corpus) == 50
        converged_count = 0
        drift = 0.0
        tan = 0.0
        rise = 0.0
        worst_iters = 0
        for d, n, seed in corpus:
            conv, md, mt, mr = _run_flow_with_per_step_checks(d, n, seed)
            if conv is not None:
                converged_count += 1
                worst_iters = max(worst_iters, conv)
            drift = max(drift, md)
            tan = max(tan, mt)
            rise = max(rise, mr)
        fixed_ok = True
        for d, n in ((2, 3), (3, 4), (4, 5), (2, 5)):
            v = generate("harmonic", d=d, n=n).vectors * math.sqrt(n / d)
            out = flow_step(Frame(v), FlowConfig(step_t=1.0 / (4 * n)))
            fixed_ok = fixed_ok and np.array_equal(out.vectors, v)
        ok = (drift <= 1e-12 and tan <= 1e-12 and rise <= 1e-10
              and converged_count >= 48 and fixed_ok)
        _report(5, ok,
                f"{converged_count}/50 converged (worst {worst_iters} "
                f"iters), per-step drift {drift:.2e}, tangency {tan:.2e}, "
                f"potential rise {rise:.2e}, tight inputs fixed: {fixed_ok}")


class TestCriterion6:
    def test_hamilton_moitra_ceiling(self, hm_sweep):
        records, _, _ = hm_sweep
        worst_hm = 0.0
        worst_bc = 0.0
        ok = True
        for rec in records:
            if not rec.certified:
                ok = False
                continue
            worst_hm = max(worst_hm, rec.achieved_dist_sq / rec.bound_hm)
            worst_bc = max(worst_bc, rec.achieved_dist_sq / rec.bound_bc)
            ok = ok and rec.achieved_dist_sq <= rec.bound_hm
            ok = ok and rec.achieved_dist_sq <= rec.bound_bc
        _report(6, ok,
                f"{len(records)} records, max achieved/20*eps*d^2 ratio "
                f"{worst_hm:.3e}, max Bodmann-Casazza ratio {worst_bc:.3e}")


class TestCriterion7:
    def test_banach_reduction(self):
        rng = np.random.default_rng(70707)
        max_gap = 0.0
        ok = True
        for _ in range(100):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(d, d + 5))
            frame = random_frame(int(rng.integers(0, 2**31)), d, n)
            h = analyze_frame(frame)
            b = analyze_asf(from_hilbert(frame), tol=1e-8)
            for hv, bv in ((h.eps_parseval, b.eps_parseval),
                           (h.eps_equal_norm, b.eps_equal_norm)):
                if (hv is None) != (bv is None):
                    ok = False
                elif hv is not None:
                    gap = abs(hv - bv)
                    max_gap = max(max_gap, gap)
                    ok = ok and gap <= 1e-10
        max_star_excess = -math.inf
        max_p2_gap = 0.0
        for k in range(1000):
            p = (1.0, 1.5, 2.0, 3.0, math.inf)[k % 5]
            space = PNormSpace(3, p)
            a = generate_asf("random", space, n=5, seed=2 * k)
            b = generate_asf("random", space, n=5, seed=2 * k + 1)
            default = asf_dist(a, b)
            star = asf_dist(a, b, "star")
            ok = ok and star <= default + 1e-12
            max_star_excess = max(max_star_excess, star - default)
            gap2 = abs(asf_dist(a, b, 2.0) - default)
            max_p2_gap = max(max_p2_gap, gap2)
            ok = ok and gap2 <= 1e-12
        _report(7, ok,
                f"100 lifts certificate gap {max_gap:.2e}; star-default max "
                f"excess {max_star_excess:.2e} over 1000 pairs; p=2 variant "
                f"gap {max_p2_gap:.2e}")


class TestCriterion8:
    def test_chordal_oracle(self):
        rng = np.random.default_rng(80808)
        max_gap = 0.0
        symmetric = True
        ok = True
        for _ in range(200):
            d = int(rng.integers(2, 7))
            rank = int(rng.integers(1, d))
            qa, _ = np.linalg.qr(rng.standard_normal((d, d)))
            qb, _ = np.linalg.qr(rng.standard_normal((d, d)))
            ba, bb = qa[:, :rank], qb[:, :rank]
            pa = certify_projection(ba @ ba.T)
            pb = certify_projection(bb @ bb.T)
            cosines = np.linalg.svd(ba.T @ bb, compute_uv=False)
            oracle_sq = max(0.0, rank - float(np.sum(cosines ** 2)))
            cd = chordal_distance(pa, pb)
            gap = abs(cd * cd - oracle_sq)
            max_gap = max(max_gap, gap)
            ok = ok and gap <= 1e-9
            symmetric = symmetric and cd == chordal_distance(pb, pa)
            ok = ok and chordal_distance(pa, pa) == 0.0
        ok = ok and symmetric
        _report(8, ok,
                f"200 pairs, principal-angle gap {max_gap:.2e}, "
                f"symmetry exact: {symmetric}")


class TestCriterion9:
    def test_banach_estimator_smoke(self):
        certified_counts = {}
        guard_ok = True
        for p in (1.5, 3.0):
            certified = 0
            for i in range(5):
                spec = InstanceSpec(kind="perturbed_asf", d=2, n=4,
                                    epsilon_target=0.05, p=p, seed=7 + i)
                bundle = generate_instance(spec)
                _, ds, cert, _ = nearest_enp_asf_search(
                    bundle.instance, certify_tol=1e-6)
                if cert:
                    certified += 1
                    guard_ok = guard_ok and \
                        ds <= bundle.base_dist_sq + 1e-6
            certified_counts[p] = certified
        gaps = []
        for i in range(5):
            spec = InstanceSpec(kind="perturbed_asf", d=2, n=4,
                                epsilon_target=0.05, p=2.0, seed=7 + i)
            bundle = generate_instance(spec)
            frame = Frame(bundle.instance.vectors)
            _, alt_ds, _ = nearest_enp_alternating(frame)
            _, search_ds, _, _ = nearest_enp_asf_search(
                bundle.instance, certify_tol=1e-6)
            gaps.append(search_ds - alt_ds)
        agree = sum(1 for g in gaps if abs(g) <= 1e-6)
        clause1 = all(v >= 4 for v in certified_counts.values())
        clause3 = agree == 5
        ok = clause1 and guard_ok and clause3
        _report(9, ok,
                f"certified {certified_counts[1.5]}/5 at p=1.5 and "
                f"{certified_counts[3.0]}/5 at p=3, base guard ok: "
                f"{guard_ok}; p=2 solver gaps "
                f"{[f'{g:+.1e}' for g in gaps]} ({agree}/5 within 1e-6)")


class TestCriterion10:
    def test_sweep_determinism(self, hm_sweep):
        _, _, first_text = hm_sweep
        records, _ = estimate_paulsen(SWEEP_GRID, trials=20)
        second_text = sweep_csv_text([record_to_row(r) for r in records])
        ok = first_text == second_text
        _report(10, ok,
                f"repeated sweep CSV identical: {ok} "
                f"({len(first_text.splitlines()) - 1} rows)")
