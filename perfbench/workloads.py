"""The four workloads: seeded inputs, the timed op, and the output gate.

Each workload builds its inputs from the seed alone, then exposes a list of
ops. The runner cycles through that list until the run's time is up, so
an op index seen twice must give the same result (criterion 10 as a
benchmark check). ``keep`` stores what the gate needs from one op; it
runs inside the timed window but outside the op's latency. ``gate`` runs
after the window with tracing off and returns the outcome counters.

Why each workload exists, and what each layer metric should move, is in
README.md beside this file.
"""

import dataclasses
import hashlib
import math
import os

import numpy as np

from framelab import asf, documents, errors, flow, frames, lab, projections

# A field that is measured time, not output, and so stays out of digests.
_TIMING_FIELDS = {"wall_time"}


def fingerprint(obj):
    """sha256 of an object's exact bits: arrays, floats, dataclasses."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, x):
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            if f.name not in _TIMING_FIELDS:
                h.update(f.name.encode())
                _feed(h, getattr(x, f.name))
    elif isinstance(x, (list, tuple)):
        h.update(b"(")
        for v in x:
            _feed(h, v)
        h.update(b")")
    elif isinstance(x, (float, np.floating)):
        h.update(float(x).hex().encode())
    else:
        h.update(repr(x).encode())
    h.update(b";")


@dataclasses.dataclass
class Outcome:
    """What the gate found, after the timed window."""

    fail_frac: float
    dist_ratio_mean: float | None
    broken_ops: set  # op indices that broke an output invariant
    counters: dict
    nondeterministic: list = dataclasses.field(default_factory=list)


def _share(part, whole):
    """part / whole; 0 when no op completed (every op raised)."""
    return part / whole if whole else 0.0


def _mean(values):
    return float(np.mean(values)) if values else None


class Workload:
    """Defaults shared by the workloads: digest the whole result, keep the
    first result of each op index, nothing to do at the end of a round."""

    def __init__(self):
        self.results = {}

    def digest(self, result):
        return fingerprint(result)

    def keep(self, i, result, digest):
        self.results.setdefault(i, result)

    def end_round(self):
        pass


class HilbertSweep(Workload):
    """The criterion-6 corpus, one op per grid cell of TRIALS trials."""

    name = "hilbert_sweep"
    default_seed = 977
    # Four trials average out most of the cost that differs by seed, and
    # a run still repeats every cell five to ten times.
    TRIALS = 4
    MAX_ROUNDS = 1000  # estimate_paulsen's default solver budget

    def __init__(self, seed, workdir):
        grid = [lab.InstanceSpec(kind="perturbed_enp", d=d, n=n,
                                 epsilon_target=eps, seed=seed)
                for d in range(2, 6)
                for n in range(d, 11)
                for eps in (0.01, 0.05, 0.1, 0.2)]
        # A seeded order. Timings use complete rounds only, so the order
        # moves no metric, only which cells an unfinished last round reaches.
        order = np.random.default_rng(seed).permutation(len(grid))
        self.ops = [grid[i] for i in order]
        super().__init__()
        self.round_rows = []
        self.csv_digests = []

    def op(self, i):
        records, _ = lab.estimate_paulsen([self.ops[i]], trials=self.TRIALS)
        return records

    def keep(self, i, records, digest):
        super().keep(i, records, digest)
        self.round_rows.extend(lab.record_to_row(r) for r in records)

    def end_round(self):
        """The sweep's CSV of the round just finished, as a user writes it."""
        text = documents.sweep_csv_text(self.round_rows)
        self.csv_digests.append(hashlib.sha256(text.encode()).hexdigest())
        self.round_rows = []

    def gate(self):
        broken, ratios = set(), []
        n_records = fallbacks = rounds = 0
        for i, records in sorted(self.results.items()):
            for rec in records:
                base = lab.generate_instance(rec.spec).base_dist_sq
                ds = rec.achieved_dist_sq
                if not (ds <= rec.bound_hm and ds <= rec.bound_bc
                        and ds <= base):
                    broken.add(i)
                n_records += 1
                rounds += rec.iterations
                fallbacks += rec.iterations >= self.MAX_ROUNDS
                ratios.append(ds / base)
        csv_digests = sorted(set(self.csv_digests))
        return Outcome(
            fail_frac=_share(fallbacks, n_records),
            dist_ratio_mean=_mean(ratios),
            broken_ops=broken,
            counters={"records": n_records, "solver_rounds": rounds,
                      "fallbacks": fallbacks,
                      "complete_rounds": len(self.csv_digests),
                      "sweep_csv_sha256": csv_digests},
            nondeterministic=(["sweep CSV differs between rounds"]
                              if len(csv_digests) > 1 else []))


class BanachSearch(Workload):
    """Perturbed l^p ASFs, d = 2, n = 2, one penalized search per op."""

    name = "banach_search"
    default_seed = 7
    D, N, EPS = 2, 2, 0.05
    CERTIFY_TOL = 1e-6
    # Solve times differ by instance (0.3-0.75 s), so a run needs many
    # distinct instances for steady figures, and few enough that the list
    # still comes round once in a slow phase of the machine.
    INSTANCES = 12

    def __init__(self, seed, workdir):
        self.ops = [lab.InstanceSpec(kind="perturbed_asf", d=self.D, n=self.N,
                                     epsilon_target=self.EPS, p=p,
                                     seed=seed + i)
                    for i in range(self.INSTANCES) for p in (1.5, 3.0)]
        super().__init__()

    def op(self, i):
        bundle = lab.generate_instance(self.ops[i])
        out, ds, certified, rounds = lab.nearest_enp_asf_search(
            bundle.instance, certify_tol=self.CERTIFY_TOL)
        return bundle.base_dist_sq, out, ds, certified, rounds

    def _recertifies(self, out):
        """The search's own residual, recomputed from analyze_asf."""
        rep = asf.analyze_asf(out, tol=self.CERTIFY_TOL)
        t = out.space.dim / out.n
        resid_sq = (np.sum((rep.S - np.eye(out.space.dim)) ** 2)
                    + np.sum((rep.norms_p_sq - t) ** 2)
                    + np.sum((rep.norms_q_sq - t) ** 2)
                    + np.sum((rep.pairings - t) ** 2))
        return math.sqrt(resid_sq) <= self.CERTIFY_TOL * (1 + 1e-9)

    def gate(self):
        broken, ratios = set(), []
        failed = certified_count = outer_rounds = 0
        for i, (base, out, ds, certified, rounds) in sorted(
                self.results.items()):
            outer_rounds += rounds
            if certified:
                certified_count += 1
                if not (self._recertifies(out) and ds <= base + 1e-6):
                    broken.add(i)
            if not certified or base < ds:
                failed += 1
                ratios.append(1.0)
            else:
                ratios.append(ds / base)
        n = len(self.results)
        return Outcome(
            fail_frac=_share(failed, n),
            dist_ratio_mean=_mean(ratios),
            broken_ops=broken,
            counters={"solves": n, "certified": certified_count,
                      "outer_rounds": outer_rounds,
                      "outputs_sha256": fingerprint(
                          [self.results[i] for i in sorted(self.results)])})


def _coprime_pairs():
    return [(d, n) for d in range(2, 7) for n in range(d + 1, 17)
            if math.gcd(d, n) == 1]


class FlowTighten(Workload):
    """Harmonic unit frames kicked by noise, flowed to tightness."""

    name = "flow_tighten"
    default_seed = 1234
    KICKS = 2
    DELTA = 0.01
    STOP_DEFECT = 1e-10
    RENORM_EVERY = 25
    UNIT_TOL = 1e-9

    def __init__(self, seed, workdir):
        self.ops = []
        k = 0
        for d, n in _coprime_pairs():
            base = frames.generate("harmonic", d=d, n=n).vectors
            base = base * math.sqrt(n / d)
            for _ in range(self.KICKS):
                rng = np.random.default_rng(seed + k)
                v = base + self.DELTA * rng.standard_normal(base.shape)
                v = v / np.linalg.norm(v, axis=1)[:, None]
                config = flow.FlowConfig(step_t=1.0 / (4 * n),
                                         stop_defect=self.STOP_DEFECT,
                                         renorm_every=self.RENORM_EVERY)
                self.ops.append((frames.Frame(v), config))
                k += 1
        super().__init__()

    def op(self, i):
        """The final frame with what the gate needs of the trace."""
        frame, config = self.ops[i]
        final, trace = flow.run_flow(frame, config)
        return final.vectors, trace.final_index, trace.termination

    def gate(self):
        broken = set()
        not_converged = steps = 0
        for i, (v, final_index, termination) in sorted(self.results.items()):
            dev = float(np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)))
            if dev > self.UNIT_TOL:
                broken.add(i)
            not_converged += termination != "converged"
            steps += final_index
        n = len(self.results)
        return Outcome(
            fail_frac=_share(not_converged, n),
            dist_ratio_mean=None,
            broken_ops=broken,
            counters={"runs": n, "flow_steps": steps,
                      "converged": n - not_converged})


def _oblique_projection(rng, d, m):
    a = rng.standard_normal((d, m))
    b = rng.standard_normal((d, m))
    return a @ np.linalg.solve(b.T @ a, b.T)


def _signed_permutation(rng, d):
    """An Auerbach basis for every p: unit in all norms, self-dual."""
    signs = rng.choice([-1.0, 1.0], size=d)
    return signs[:, None] * np.eye(d)[rng.permutation(d)]


class CertifyDocs(Workload):
    """Pre-written documents read, certified and written back, as the CLI
    subcommands do, but called directly on the library."""

    name = "certify_docs"
    default_seed = 11
    EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)
    # Enough documents that the mix of sizes, and so the figures, differ
    # little between seeds.
    FRAMES = 72
    ASFS_PER_P = 18
    PROJECTION_PAIRS = 72
    TOL = 1e-8

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.in_dir = os.path.join(workdir, "in")
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(self.in_dir, exist_ok=True)
        os.makedirs(self.out_dir, exist_ok=True)
        self.ops = []
        for k in range(self.FRAMES):
            d = 2 + k % 4
            n = d + int(rng.integers(0, 7))
            src = frames.Frame(rng.standard_normal((n, d)))
            path = self._path(f"frame{k}")
            documents.write_frame_doc(src, path)
            self.ops.append(("frame", (path,), (src,)))
        for p in self.EXPONENTS:
            for k in range(self.ASFS_PER_P):
                d = 2 + k % 2
                n = d * (1 + int(rng.integers(1, 4)))
                space = asf.PNormSpace(dim=d, p=p)
                base = asf.generate_asf("repeated_basis", space, n=n)
                src = asf.generate_asf("perturb", space, base=base,
                                       delta=0.1,
                                       seed=int(rng.integers(2 ** 31)))
                path = self._path(f"asf{len(self.ops)}")
                documents.write_asf_doc(src, path)
                self.ops.append(("asf", (path,), (src, base)))
        for k in range(self.PROJECTION_PAIRS):
            p = self.EXPONENTS[k % len(self.EXPONENTS)]
            pa, pb, sys_ = self._projection_pair(rng, 3 + k % 3, p)
            paths = tuple(self._path(f"proj{k}{tag}") for tag in "abs")
            documents.write_projection_doc(pa, paths[0])
            documents.write_projection_doc(pb, paths[1])
            documents.write_auerbach_doc(sys_, paths[2])
            self.ops.append(("projection", paths, (pa, pb, sys_)))
        # The in-memory sources certified once, for the gate to compare.
        certs = [self._certify(kind, objs) for kind, _, objs in self.ops]
        self.expected = [fingerprint(c) for c in certs]
        self.expected_out = [c[-1] for c in certs]
        super().__init__()
        self.mismatched = set()

    def _path(self, stem):
        return os.path.join(self.in_dir, stem + ".json")

    def _projection_pair(self, rng, d, p):
        """Two certified rank-m idempotents whose chordal distance exists;
        oblique pairs whose radicand goes negative are drawn again."""
        space = asf.PNormSpace(dim=d, p=p)
        u = _signed_permutation(rng, d)
        sys_ = projections.AuerbachSystem(space=space, basis_vectors=u,
                                          dual_functionals=u)
        while True:
            m = int(rng.integers(1, d))
            pa = _oblique_projection(rng, d, m)
            pb = _oblique_projection(rng, d, m)
            try:
                self._certify("projection", (pa, pb, sys_))
            except (errors.NotIdempotent, errors.NegativeChordal,
                    errors.RankMismatch):
                continue
            return pa, pb, sys_

    @staticmethod
    def _certify(kind, objs):
        """The certificates of one document; the last item is what the op
        writes back."""
        if kind == "frame":
            (frame,) = objs
            closest, dist_sq = frames.closest_parseval(frame)
            return (frame.vectors, frames.analyze_frame(frame), dist_sq,
                    closest.vectors)
        if kind == "asf":
            a, base = objs
            return (a, asf.analyze_asf(a, tol=CertifyDocs.TOL),
                    asf.asf_dist(a, base), a)
        ma, mb, sys_ = objs
        pa = projections.certify_projection(ma)
        pb = projections.certify_projection(mb)
        return (sys_, pa, pb,
                projections.balance_epsilon_banach(pa, sys_,
                                                   tol=CertifyDocs.TOL),
                projections.chordal_distance(pa, pb),
                projections.projection_pair_distance(pa, pb, sys_),
                pa.matrix)

    def op(self, i):
        kind, paths, objs = self.ops[i]
        out_path = os.path.join(self.out_dir, f"{i}.json")
        if kind == "frame":
            read = (documents.read_frame_doc(paths[0]),)
        elif kind == "asf":
            read = (documents.read_asf_doc(paths[0]), objs[1])
        else:
            read = (documents.read_projection_doc(paths[0]),
                    documents.read_projection_doc(paths[1]),
                    documents.read_auerbach_doc(paths[2]))
        cert = self._certify(kind, read)
        if kind == "frame":
            documents.write_frame_doc(frames.Frame(cert[-1]), out_path)
        elif kind == "asf":
            documents.write_asf_doc(cert[-1], out_path)
        else:
            documents.write_projection_doc(cert[-1], out_path)
        return cert

    def keep(self, i, result, digest):
        """Only whether the read and its certificates matched is kept."""
        if digest != self.expected[i]:
            self.mismatched.add(i)
        self.results[i] = None

    def gate(self):
        """Every read matched its source and in-memory certificates (checked
        in keep); every written document reads back bit for bit."""
        broken = set(self.mismatched)
        for i in self.results:
            kind = self.ops[i][0]
            path = os.path.join(self.out_dir, f"{i}.json")
            if kind == "frame":
                back = documents.read_frame_doc(path).vectors
            elif kind == "asf":
                back = documents.read_asf_doc(path)
            else:
                back = documents.read_projection_doc(path)
            if fingerprint(back) != fingerprint(self.expected_out[i]):
                broken.add(i)
        return Outcome(
            fail_frac=_share(len(broken), len(self.results)),
            dist_ratio_mean=None,
            broken_ops=broken,
            counters={"documents": len(self.results),
                      "certificates_sha256": fingerprint(
                          [self.expected[i] for i in sorted(self.results)])})


WORKLOADS = {w.name: w for w in (HilbertSweep, BanachSearch, FlowTighten,
                                 CertifyDocs)}
