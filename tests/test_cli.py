import dataclasses
import errno
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

    def test_frame_near_the_float_limit(self, tmp_path):
        # S = diag(1e308, 1e308) is finite: its bounds are printed as
        # numbers, in strict JSON, and nothing goes to stderr
        from framelab import Frame
        path = tmp_path / "f.json"
        write_frame_doc(Frame(np.array([[1e154, 0.0], [0.0, 1e154],
                                        [0.0, 0.0]])), path)
        proc = run_module("check", str(path))
        assert proc.returncode == 0
        assert proc.stderr == ""

        def no_constant(name):
            raise AssertionError(f"{name} in the report")

        doc = json.loads(proc.stdout, parse_constant=no_constant)
        assert doc["frame_bounds"] == [1e308, 1e308]
        assert doc["is_frame"] is True
        # tr S and the entries of S - 1.5 I squared overflow, the two
        # defects do not
        assert doc["tightness_defect_hs"] == 0.0
        assert doc["unit_defect_hs"] == pytest.approx(
            math.sqrt(2.0) * 1e308, rel=1e-15)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 1
        assert "error:" in err

    # integer literals beyond the float range and past int()'s digit limit
    @pytest.mark.parametrize("command, text, message", [
        (["check"], '{"kind": "hilbert_frame", "dim": 2, "vectors": [[1'
         + "0" * 400 + ', 0], [0, 1], [1, 1]]}',
         ": vectors[0][0] must be finite"),
        (["asf", "check"], '{"kind": "asf", "p": 1' + "0" * 400
         + ', "dim": 1, "functionals": [[1.0]], "vectors": [[1.0]]}',
         ": 'p' must be finite"),
        (["check"], '{"kind": "hilbert_frame", "dim": 1, "vectors": [['
         + "1" * 5000 + ']]}', " is not valid JSON: "),
    ], ids=["huge-int-entry", "huge-int-p", "int-past-digit-limit"])
    def test_huge_integer_is_one_error_line(self, tmp_path, command, text,
                                            message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = run_module(*command, str(path))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}{message}")


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

    def test_parseval_near_the_float_limit(self, tmp_path):
        # S = diag(1e308, 1e308) factors without overflow; only the squared
        # distance, about 2e308, overflows to inf
        from framelab import Frame
        path, out_path = tmp_path / "f.json", tmp_path / "out.json"
        write_frame_doc(Frame(np.array([[1e154, 0.0], [0.0, 1e154],
                                        [0.0, 0.0]])), path)
        proc = run_module("nearest", "parseval", str(path),
                          "--out", str(out_path))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert float(proc.stdout) == math.inf
        assert np.allclose(read_frame_doc(out_path).vectors,
                           [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                           rtol=0.0, atol=1e-15)

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

    def test_equalnorm_target_near_the_float_limit(self, tmp_path):
        # c / |v_j| overflows for the rows of norm below 1
        from framelab import Frame
        path, out_path = tmp_path / "f.json", tmp_path / "out.json"
        write_frame_doc(Frame(np.array([[0.5, 0.0], [0.3, 0.4],
                                        [0.0, 1.0]])), path)
        proc = run_module("nearest", "equalnorm", str(path),
                          "--target", "1e308", "--out", str(out_path))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert float(proc.stdout) == math.inf
        for row in read_frame_doc(out_path).vectors:
            assert math.hypot(*row) == pytest.approx(1e308, rel=1e-15)

    def test_equalnorm_infinite_target_is_one_error_line(self, mb_doc):
        proc = run_module("nearest", "equalnorm", mb_doc, "--target", "inf")
        assert proc.returncode == 1
        assert proc.stderr == "error: target norm must be finite, got inf\n"

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-iters", "-3", "max_iters must be non-negative, got -3"),
        ("--renorm-every", "-1", "renorm_every must be non-negative, got -1"),
        ("--stop", "nan", "stop_defect must be non-negative, got nan"),
    ])
    def test_bad_setting_is_one_error_line(self, capsys, mb_doc, flag,
                                           value, message):
        code, out, err = run(capsys, "flow", mb_doc, "--t", "0.05", flag,
                             value)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

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


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", [
        ["estimate", "--d", "2", "--n", "3", "--eps", "0.1", "--trials", "1",
         "--out"],
        ["flow", "{doc}", "--t", "0.05", "--trace"],
        ["nearest", "parseval", "{doc}", "--out"],
    ], ids=["estimate-out", "flow-trace", "nearest-out"])
    def test_missing_directory_is_one_error_line(self, tmp_path, mb_doc,
                                                 command):
        path = tmp_path / "missing" / "x.csv"
        proc = run_module(*(a.format(doc=mb_doc) for a in command),
                          str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: cannot write {path}: [Errno 2] No such file or "
            f"directory: '{path}'"]


    def test_directory_is_one_error_line(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "--d", "2", "--n", "3",
                           "--eps", "0.1", "--trials", "1",
                           "--out", str(tmp_path))
        assert code == 1
        assert err.splitlines() == [
            f"error: cannot write {tmp_path}: [Errno {errno.EISDIR}] "
            f"{os.strerror(errno.EISDIR)}: '{tmp_path}'"]

    def test_disk_full_partway_is_one_error_line(self, capsys, tmp_path,
                                                  mb_doc, monkeypatch):
        path = tmp_path / "out.json"
        real_write, calls = os.write, []

        def write(fd, data):
            # half the bytes on the first call, then the disk is full
            calls.append(len(data))
            if len(calls) == 1:
                return real_write(fd, data[:len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(os, "write", write)
        code, out, err = run(capsys, "nearest", "parseval", mb_doc,
                             "--out", str(path))
        monkeypatch.undo()
        assert (code, out, len(calls)) == (1, "", 2)
        assert err.splitlines() == [
            f"error: cannot write {path}: [Errno {errno.ENOSPC}] "
            f"{os.strerror(errno.ENOSPC)}"]


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_estimate_out_null_device(capsys):
    # /dev/null has size 0, so the writer never truncates it: ftruncate
    # fails with EINVAL on a character device
    code, out, err = run(capsys, "estimate", "--d", "2", "--n", "3",
                         "--eps", "0.1", "--trials", "1",
                         "--out", os.devnull)
    assert (code, err) == (0, "")
    assert out.startswith("d=2 n=3 ")


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

    @pytest.mark.parametrize("args, ratios", [
        # the harmonic base at (2, 8) survives a 1e-20 perturbation, and
        # the scaled bases at (1, 4) and (1, 16) a factor sqrt(1 + 1e-300),
        # bit for bit: eps 0, both ceilings 0 and dist_sq 0
        (["--d", "2", "--n", "8", "--eps", "1e-20", "--trials", "2"],
         ["ratio_hm=0.000e+00 ratio_bc=0.000e+00"]),
        (["--kind", "scaled_enp", "--d", "1", "--n", "4", "16",
          "--eps", "1e-300", "--trials", "1"],
         ["ratio_hm=0.000e+00 ratio_bc=0.000e+00"] * 2),
        # the (2, 2) ASF input is certified (residual 3.9e-11), so the
        # Banach search returns it at dist_sq 0 under the zero ceilings
        (["--kind", "perturbed_asf", "--d", "2", "--n", "2", "--p", "1.5",
          "--eps", "1e-20", "--trials", "1"],
         ["ratio_hm=0.000e+00 ratio_bc=0.000e+00"]),
    ], ids=["perturbed_enp", "scaled_enp", "perturbed_asf"])
    def test_zero_ceilings_summarize(self, capsys, tmp_path, args, ratios):
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "estimate", *args, "--out",
                             str(out_path))
        assert (code, err) == (0, "")
        assert [line[line.index("ratio_hm="):]
                for line in out.splitlines()] == ratios
        rows = out_path.read_text().splitlines()[1:]
        assert all(row.endswith(",0.0,0.0") for row in rows)

    def test_bad_shape_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "--d", "3", "--n", "2",
                           "--eps", "0.1", "--trials", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "error: need 1 <= d <= n, got d = 3, n = 2" in err

    def test_single_vector_is_one_error_line(self, tmp_path):
        # the Bodmann-Casazza ceiling is 0 at n = 1, so its ratio would
        # divide by zero
        out_path = tmp_path / "x.csv"
        proc = run_module("estimate", "--d", "1", "--n", "1", "--eps", "0.1",
                          "--trials", "1", "--out", str(out_path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("error: need n >= 2: the Bodmann-Casazza "
                               "ceiling is 0 at n = 1\n")
        assert not out_path.exists()

    def test_single_vector_pair_is_skipped(self, capsys, tmp_path):
        code, out, _ = run(capsys, "estimate", "--d", "1", "2",
                           "--n", "1", "2", "--eps", "0.1", "--trials", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert [line.split(" records=")[0] for line in out.splitlines()] \
            == ["d=1 n=2 p=2 eps=0.1", "d=2 n=2 p=2 eps=0.1"]

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


# run in a fresh process: pytest and test_lab import scipy here
FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
import framelab.cli
def loaded():
    return {"scipy": sorted(m for m in sys.modules
                            if m.partition(".")[0] == "scipy"),
            "optimize": "scipy.optimize" in sys.modules}
steps = [loaded()]
doc, out = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [framelab.cli.run_cli(args) for args in [
        ["estimate", "--d", "2", "3", "--n", "3", "4", "--eps", "0.05",
         "--trials", "2", "--seed", "977", "--out", out],
        ["flow", doc, "--t", "0.05", "--renorm-every", "25"],
        ["check", doc]]]
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
        assert result["codes"] == [0, 0, 0, 0]
        # no scipy module after the import, nor after a Hilbert grid, a
        # flow run and a check, whose certificate runs sym_eig; a
        # perturbed_asf estimate loads scipy.optimize
        first, hilbert, banach = result["loaded"]
        assert first == hilbert == {"scipy": [], "optimize": False}
        assert banach["optimize"]


class TestParsing:
    def test_no_command(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "mystify")
        assert code == 2
