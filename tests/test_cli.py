import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import framelab
from framelab.asf import ASF, ASFReport, PNormSpace, from_hilbert
from framelab.cli import run_cli
from framelab.documents import (
    SWEEP_COLUMNS,
    read_frame_doc,
    sweep_csv_text,
    write_asf_doc,
    write_auerbach_doc,
    write_frame_doc,
    write_projection_doc,
)
from framelab.flow import FlowConfig, run_flow
from framelab.frames import FrameReport, naimark_complement
from framelab.lab import InstanceSpec, estimate_paulsen, record_to_row
from conftest import ROOT3, auerbach_system


@pytest.fixture
def mb_doc(tmp_path, mb):
    path = tmp_path / "mb.json"
    write_frame_doc(mb, path)
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv):
    """python with this framelab on its path, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(framelab.__file__)))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def run_module(*argv):
    """The command line as `python -m framelab.cli` in a fresh process."""
    return run_python("-m", "framelab.cli", *argv)


class TestCheck:
    def test_report(self, capsys, mb_doc):
        code, out, _ = run(capsys, "check", mb_doc)
        assert code == 0
        doc = json.loads(out)
        assert doc["frame_bounds"] == pytest.approx([1.5, 1.5])
        assert doc["is_frame"] is True
        assert doc["eps_parseval"] == pytest.approx(0.5)
        assert doc["frame_potential"] == pytest.approx(4.5)

    def test_key_layout(self, capsys, mb_doc):
        # frame_bounds, is_frame, then the other report fields in order
        _, out, _ = run(capsys, "check", mb_doc)
        fields = [f.name for f in dataclasses.fields(FrameReport)]
        assert fields[0] == "frame_bounds"
        assert list(json.loads(out)) == [fields[0], "is_frame", *fields[1:]]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 1
        assert "error:" in err


class TestNearest:
    def test_parseval_value_and_doc(self, capsys, mb_doc, tmp_path, mb):
        out_path = tmp_path / "out.json"
        code, out, _ = run(capsys, "nearest", "parseval", mb_doc,
                           "--out", str(out_path))
        assert code == 0
        assert float(out) == pytest.approx(3.0 * (1.0 - math.sqrt(2.0 / 3.0)) ** 2)
        back = read_frame_doc(out_path)
        assert np.allclose(back.vectors, math.sqrt(2.0 / 3.0) * mb.vectors,
                           atol=1e-14)

    def test_equalnorm_with_target(self, capsys, tmp_path):
        from framelab import Frame
        path = tmp_path / "f.json"
        write_frame_doc(Frame(np.array([[1.0, 0.0], [0.0, 2.0]])), path)
        code, out, _ = run(capsys, "nearest", "equalnorm", str(path),
                           "--target", "1.0")
        assert code == 0
        assert float(out) == pytest.approx(1.0)

    @pytest.mark.parametrize("first_row, printed", [
        # every row is rescaled; only the squared distance overflows
        ([1e200, 0.0], math.inf),
        # far above ZERO_NORM_FLOOR, though its squared norm underflows
        ([1e-170, 0.0], 4.0 + 1.0 + (2.0 - math.sqrt(2.0)) ** 2),
    ])
    def test_equalnorm_at_extreme_row_scales(self, capsys, tmp_path,
                                             first_row, printed):
        from framelab import Frame
        path, out_path = tmp_path / "f.json", tmp_path / "out.json"
        write_frame_doc(Frame(np.array([first_row, [0.0, 1.0], [1.0, 1.0]])),
                        path)
        code, out, _ = run(capsys, "nearest", "equalnorm", str(path),
                           "--target", "2", "--out", str(out_path))
        assert code == 0
        assert float(out) == pytest.approx(printed)
        for row in read_frame_doc(out_path).vectors:
            assert math.hypot(*row) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("command", [["check"], ["nearest", "parseval"]])
    def test_overflowing_frame_operator_is_one_error_line(self, tmp_path,
                                                          command):
        # finite entries whose frame operator S overflows: the error names
        # S, not the entries, and no numpy warning precedes it
        from framelab import Frame
        path = tmp_path / "f.json"
        write_frame_doc(Frame(np.array([[1e200, 0.0], [0.0, 1.0],
                                        [1.0, 1.0]])), path)
        proc = run_module(*command, str(path))
        assert proc.returncode == 1
        assert proc.stderr == "error: frame operator S = V^T V overflows\n"

    def test_equalnorm_mean_of_huge_rows(self, tmp_path):
        # the norms sum past the largest float, their mean does not
        from framelab import Frame
        path, out_path = tmp_path / "f.json", tmp_path / "out.json"
        write_frame_doc(Frame(np.array([[1.5e308, 0.0], [1.5e308, 0.0],
                                        [0.0, 1.0]])), path)
        proc = run_module("nearest", "equalnorm", str(path),
                          "--out", str(out_path))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert float(proc.stdout) == math.inf
        for row in read_frame_doc(out_path).vectors:
            assert math.hypot(*row) == pytest.approx(1e308, rel=1e-15)

    def test_singular_input_fails_cleanly(self, capsys, tmp_path):
        from framelab import Frame
        path = tmp_path / "bad.json"
        write_frame_doc(Frame(np.array([[1.0, 0.0], [2.0, 0.0]])), path)
        code, _, err = run(capsys, "nearest", "parseval", str(path))
        assert code == 1
        assert "error:" in err


class TestFlow:
    def test_tight_input_terminates_immediately(self, capsys, tmp_path):
        from framelab import Frame
        v = np.array([[1.0, 0.0], [-0.5, ROOT3 / 2], [-0.5, -ROOT3 / 2]])
        path = tmp_path / "mb.json"
        write_frame_doc(Frame(v), path)
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "flow", str(path), "--t", "0.08",
                           "--trace", str(trace_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["termination"] == "converged"
        assert doc["iterations"] == 0
        assert trace_path.read_text().splitlines()[0].startswith("iter,")

    def test_step_gate_is_usage_error(self, capsys, mb_doc):
        code, _, err = run(capsys, "flow", mb_doc, "--t", "0.5")
        assert code == 2
        assert "usage error:" in err

    def test_missing_t_flag(self, capsys, mb_doc):
        code, _, _ = run(capsys, "flow", mb_doc)
        assert code == 2

    def test_out_doc_is_the_final_frame(self, capsys, tmp_path):
        from framelab import Frame
        angles = np.array([0.0, 0.3, 1.2, 2.0])
        frame = Frame(np.column_stack([np.cos(angles), np.sin(angles)]))
        path, out_path = tmp_path / "f.json", tmp_path / "out.json"
        write_frame_doc(frame, path)
        code, _, _ = run(capsys, "flow", str(path), "--t", "0.05",
                         "--max-iters", "40", "--out", str(out_path))
        assert code == 0
        final, _ = run_flow(frame, FlowConfig(step_t=0.05, max_iters=40))
        assert read_frame_doc(out_path).vectors.tobytes() == \
            final.vectors.tobytes()
        assert not np.array_equal(final.vectors, frame.vectors)


class TestNaimark:
    def test_stdout_doc(self, capsys, tmp_path, mb):
        from framelab import Frame
        path = tmp_path / "p.json"
        write_frame_doc(Frame(math.sqrt(2.0 / 3.0) * mb.vectors), path)
        code, out, _ = run(capsys, "naimark", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "hilbert_frame"
        assert doc["dim"] == 1
        assert [abs(row[0]) for row in doc["vectors"]] == pytest.approx(
            [1.0 / ROOT3] * 3)

    def test_stdout_is_the_frame_doc(self, capsys, tmp_path, mb):
        from framelab import Frame
        frame = Frame(math.sqrt(2.0 / 3.0) * mb.vectors)
        path = tmp_path / "p.json"
        write_frame_doc(frame, path)
        _, out, _ = run(capsys, "naimark", str(path))
        doc_path = tmp_path / "comp.json"
        write_frame_doc(naimark_complement(frame), doc_path)
        assert out == doc_path.read_text(encoding="utf-8")

    def test_non_parseval_rejected(self, capsys, mb_doc):
        code, _, err = run(capsys, "naimark", mb_doc)
        assert code == 1
        assert "error:" in err

    def test_too_few_vectors_is_one_error_line(self, capsys, tmp_path):
        from framelab import Frame
        path = tmp_path / "f.json"
        write_frame_doc(Frame(np.eye(3)[:2]), path)
        code, out, err = run(capsys, "naimark", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: a complement needs n > d, got n = 2, d = 3\n"

    def test_out_doc_is_the_complement(self, capsys, tmp_path, mb):
        from framelab import Frame
        frame = Frame(math.sqrt(2.0 / 3.0) * mb.vectors)
        path, out_path = tmp_path / "p.json", tmp_path / "comp.json"
        write_frame_doc(frame, path)
        code, out, _ = run(capsys, "naimark", str(path),
                           "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert read_frame_doc(out_path).vectors.tobytes() == \
            naimark_complement(frame).vectors.tobytes()


class TestChordal:
    def test_quarter_turn(self, capsys, tmp_path):
        pa = tmp_path / "p.json"
        qa = tmp_path / "q.json"
        write_projection_doc(np.diag([1.0, 0.0]), pa)
        write_projection_doc(np.full((2, 2), 0.5), qa)
        code, out, _ = run(capsys, "chordal", str(pa), str(qa))
        assert code == 0
        assert float(out) == pytest.approx(math.sqrt(0.5))

    def test_rank_mismatch(self, capsys, tmp_path):
        pa = tmp_path / "p.json"
        qa = tmp_path / "q.json"
        write_projection_doc(np.diag([1.0, 0.0]), pa)
        write_projection_doc(np.eye(2), qa)
        code, _, err = run(capsys, "chordal", str(pa), str(qa))
        assert code == 1
        assert "error:" in err


class TestASFCheck:
    def test_lifted_frame_report(self, capsys, tmp_path, mb):
        path = tmp_path / "asf.json"
        write_asf_doc(from_hilbert(mb), path)
        code, out, _ = run(capsys, "asf", "check", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["invertible"] is True
        assert doc["eps_parseval"] == pytest.approx(0.5)
        assert doc["tight_lambda"] == pytest.approx(1.5)
        assert doc["norm_triple_defect"] <= 1e-12

    def test_large_exponent_norms(self, tmp_path):
        # 3^1000 overflows a float; the norms are still 3, and numpy's
        # overflow warning from the first pass stays off stderr
        path = tmp_path / "asf.json"
        write_asf_doc(ASF(PNormSpace(2, 1000.0), 3.0 * np.eye(2),
                          3.0 * np.eye(2)), path)
        proc = run_module("asf", "check", str(path))
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["norms_p_sq"] == [9.0, 9.0]
        assert doc["norm_triple_defect"] == 0.0

    def test_overflowing_operator_is_one_error_line(self, tmp_path):
        # finite entries whose frame operator S overflows: S is checked
        # before anything else reads it, so no numpy warning precedes the
        # typed error
        path = tmp_path / "asf.json"
        write_asf_doc(ASF(PNormSpace(2, 2.0), 1e200 * np.eye(2),
                          1e200 * np.eye(2)), path)
        proc = run_module("asf", "check", str(path))
        assert proc.returncode == 1
        assert proc.stderr == "error: matrix entries must be finite\n"

    def test_key_layout(self, capsys, tmp_path, mb):
        path = tmp_path / "asf.json"
        write_asf_doc(from_hilbert(mb), path)
        _, out, _ = run(capsys, "asf", "check", str(path))
        assert list(json.loads(out)) == [
            f.name for f in dataclasses.fields(ASFReport)]


class TestProjectionBalance:
    def test_identity_balanced(self, capsys, tmp_path):
        p_path = tmp_path / "p.json"
        s_path = tmp_path / "s.json"
        write_projection_doc(np.eye(2), p_path)
        write_auerbach_doc(auerbach_system(np.eye(2), 1.5), s_path)
        code, out, _ = run(capsys, "projection", "balance", str(p_path),
                           "--system", str(s_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 2
        assert doc["eps"] == pytest.approx(0.0, abs=1e-12)
        assert doc["failures"] == []


def sweep_bytes(grid, trials):
    records, _ = estimate_paulsen(grid, trials=trials)
    return sweep_csv_text([record_to_row(r) for r in records]).encode()


class TestEstimate:
    def test_csv_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "estimate", "--d", "2", "--n", "3",
                           "--eps", "0.1", "--trials", "3",
                           "--seed", "42", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 4
        assert out == (
            "d=2 n=3 p=2 eps=0.1 records=3 certified=1.00 max=0.00217511 "
            "mean=0.00170523 median=0.00196352 ratio_hm=4.272e-04 "
            "ratio_bc=3.069e-06\n")
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1, seed=42)
        assert out_path.read_bytes() == sweep_bytes([spec], 3)

    def test_bad_shape_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "--d", "3", "--n", "2",
                           "--eps", "0.1", "--trials", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "error: need 1 <= d <= n, got d = 3, n = 2" in err

    def test_grid_matches_nested_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "estimate", "--d", "2", "3",
                           "--n", "2", "3", "4", "--eps", "0.05", "0.1",
                           "--trials", "2", "--seed", "5",
                           "--out", str(out_path))
        assert code == 0
        grid = [InstanceSpec(kind="perturbed_enp", d=d, n=n,
                             epsilon_target=eps, seed=5)
                for d in (2, 3) for n in (2, 3, 4) if n >= d
                for eps in (0.05, 0.1)]
        assert out_path.read_bytes() == sweep_bytes(grid, 2)
        # one summary line per cell; the pair (3, 2) is skipped
        cells = [line.split(" records=")[0] for line in out.splitlines()]
        assert cells == [f"d={d} n={n} p=2 eps={eps}"
                         for d, n in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]
                         for eps in (0.05, 0.1)]

    def test_asf_grid_skips_pairs_without_divisibility(self, capsys,
                                                      tmp_path):
        out_path = tmp_path / "asf.csv"
        code, out, _ = run(capsys, "estimate", "--kind", "perturbed_asf",
                           "--d", "2", "3", "--n", "4", "6", "--eps", "0.1",
                           "--trials", "1", "--seed", "3",
                           "--out", str(out_path))
        assert code == 0
        # (3, 4) is skipped: perturbed_asf needs d | n
        cells = [line.split(" records=")[0] for line in out.splitlines()]
        assert cells == [f"d={d} n={n} p=2 eps=0.1"
                         for d, n in [(2, 4), (2, 6), (3, 6)]]
        assert len(out_path.read_text().splitlines()) == 4

    def test_exponent_list_nests_inside_pairs(self, capsys, tmp_path):
        out_path = tmp_path / "asf.csv"
        code, out, _ = run(capsys, "estimate", "--kind", "perturbed_asf",
                           "--d", "2", "--n", "2", "4", "--p", "1.5", "3",
                           "--eps", "0.1", "--trials", "1",
                           "--out", str(out_path))
        assert code == 0
        grid = [InstanceSpec(kind="perturbed_asf", d=2, n=n, p=p,
                             epsilon_target=0.1)
                for n in (2, 4) for p in (1.5, 3.0)]
        assert out_path.read_bytes() == sweep_bytes(grid, 1)
        cells = [line.split(" records=")[0] for line in out.splitlines()]
        assert cells == [f"d=2 n={n} p={p} eps=0.1"
                         for n in (2, 4) for p in (1.5, 3)]

    def test_grid_without_pair_is_domain_error(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "estimate", "--d", "3", "4",
                             "--n", "1", "2", "--eps", "0.1",
                             "--trials", "1", "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert "error: need 1 <= d <= n" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("kind", ["perturbed_enp", "scaled_enp",
                                      "perturbed_asf"])
    def test_negative_seed_is_domain_error(self, tmp_path, kind):
        out_path = tmp_path / "x.csv"
        proc = run_module("estimate", "--kind", kind, "--d", "2", "--n", "4",
                          "--eps", "0.1", "--trials", "1", "--seed", "-1",
                          "--out", str(out_path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: seed must be non-negative, got -1\n"
        assert not out_path.exists()

    def test_module_form_matches_run_cli(self, capsys, tmp_path):
        args = ["estimate", "--d", "2", "--n", "2", "3", "--eps", "0.1",
                "--trials", "2", "--seed", "5"]
        code, out, _ = run(capsys, *args, "--out", str(tmp_path / "a.csv"))
        assert code == 0
        proc = run_module(*args, "--out", str(tmp_path / "b.csv"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out
        assert (tmp_path / "b.csv").read_bytes() == \
            (tmp_path / "a.csv").read_bytes()


# run in a fresh process: pytest and test_lab import scipy.optimize here
FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
import framelab.cli
def loaded():
    return "scipy.optimize" in sys.modules
steps = [loaded()]
doc, out = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [framelab.cli.run_cli(args) for args in [
        ["estimate", "--d", "2", "3", "--n", "3", "4", "--eps", "0.05",
         "--trials", "2", "--seed", "977", "--out", out],
        ["flow", doc, "--t", "0.05", "--renorm-every", "25"]]]
    steps.append(loaded())
    codes.append(framelab.cli.run_cli(
        ["estimate", "--kind", "perturbed_asf", "--d", "2", "--n", "2",
         "--p", "1.5", "--eps", "0.05", "--trials", "1", "--seed", "7",
         "--out", out]))
steps.append(loaded())
print(json.dumps({"codes": codes, "loaded": steps}))
"""


class TestImportFootprint:
    def test_scipy_optimize_loads_with_the_first_banach_search(
            self, tmp_path):
        from framelab import Frame
        v = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        doc = tmp_path / "frame.json"
        write_frame_doc(Frame(v), doc)
        proc = run_python("-c", FOOTPRINT_SCRIPT, str(doc),
                          str(tmp_path / "x.csv"))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0, 0, 0]
        # absent after the import, after a Hilbert grid and a flow run;
        # present after a perturbed_asf estimate
        assert result["loaded"] == [False, False, True]


class TestParsing:
    def test_no_command(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "mystify")
        assert code == 2
