import contextlib
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biquad
from biquad import cli, forms, gram, linalg, meig, partsym
from biquad.cli import main
from biquad.errors import InvalidInput
from biquad.partsym import XSymmetricData, random_psd_instance, reconstruct
from biquad.simple import gen_simple, to_form
from conftest import BOUNDARY_MARGINS, boundary_form, boundary_forms, tiny_line_form, xsym_forms


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def plain_xsym(tmp_path):
    return write(tmp_path / "plain.json", {"m": 2, "d": [1, 1], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]})


@pytest.fixture
def indefinite_xsym(tmp_path):
    return write(tmp_path / "bad.json", {"m": 2, "d": [1, 1], "A": [[0, 2], [2, 0]], "B": [[0, 0], [0, 0]]})


COUPLED = {"m": 2, "d": [1, 1], "A": [[0, 1], [1, 0]], "B": [[0, 0], [0, 0]]}
LINE = {"m": 1, "d": [1, 1], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]}  # x1^2 (y1^2 + y2^2)


@pytest.fixture
def coupled_xsym(tmp_path):
    return write(tmp_path / "coupled.json", COUPLED)


@pytest.fixture
def p223_file(tmp_path):
    path = tmp_path / "p223.json"
    forms.save_form(to_form(gen_simple(2, 2, 3)), str(path))
    return str(path)


@pytest.fixture
def p224_file(tmp_path):
    path = tmp_path / "p224.json"
    forms.save_form(to_form(gen_simple(2, 2, 4)), str(path))
    return str(path)


@pytest.fixture
def x1sq_y1y2_file(tmp_path):
    # x1^2 y1 y2: no PSD Gram matrix, and P = -1/2 at x = 1, y = (1, -1)/sqrt(2)
    raw = np.zeros((1, 2, 1, 2))
    raw[0, 0, 0, 1] = 1.0
    path = tmp_path / "nopsd.json"
    forms.save_form(forms.symmetrize(raw), str(path))
    return str(path)


@pytest.fixture
def choi_file(tmp_path):
    # Choi's PSD form that is not a sum of squares of bilinear forms
    raw = np.zeros((3, 3, 3, 3))
    for i in range(3):
        j = (i + 1) % 3
        raw[i, i, i, i] = 1.0
        raw[i, j, i, j] = 2.0
        raw[i, i, j, j] = -2.0
    path = tmp_path / "choi.json"
    forms.save_form(forms.symmetrize(raw), str(path))
    return str(path)


# The keys of every NotPSD payload: check-psd's, decompose's and the
# negativity probe's of sos-rank and reduce-rank.
NOT_PSD_KEYS = {"m", "n", "verdict", "q_eigenvalues", "r_eigenvalues", "witness", "reason"}


# sos-rank's exit-4 envelope for Choi's form at the default seed and restarts.
CHOI_ENVELOPE = """{
  "command": "sos-rank",
  "payload": {
    "note": "no PSD Gram point found; the form may be PSD but not SOS, or another seed may find one",
    "restarts": 20,
    "seed": 0
  },
  "status": "inconclusive"
}
"""


def assert_not_psd_envelope(data, path):
    """check-psd's NotPSD envelope, with a witness negative on the form."""
    assert data["status"] == "not-psd"
    payload = data["payload"]
    assert payload["verdict"] == "NotPSD"
    assert set(payload) == NOT_PSD_KEYS
    witness = payload["witness"]
    form = forms.load_form(path)
    value = forms.evaluate(form, np.array(witness["x"]), np.array(witness["y"]))
    assert value == witness["value"] < 0.0


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_summary(capsys, argv):
    """Exit code and human summary of a run without --json: the lines after
    the first, which carries the timing."""
    code = main(argv)
    head, *summary = capsys.readouterr().out.splitlines()
    assert head.startswith(f"[{argv[0]}] ")
    return code, summary


def not_psd_summary(payload):
    return [f"NotPSD: {payload['reason']}; witness value {payload['witness']['value']:.6g}"]


class TestCheckPsd:
    def test_plain_psd(self, capsys, plain_xsym):
        code, data = run_json(capsys, ["check-psd", plain_xsym])
        assert code == 0
        assert data["status"] == "ok"
        assert data["payload"]["verdict"] == "PSD"

    def test_not_psd_witness(self, capsys, indefinite_xsym):
        code, data = run_json(capsys, ["check-psd", indefinite_xsym])
        assert code == 2
        assert data["status"] == "not-psd"
        witness = data["payload"]["witness"]
        assert witness["value"] < -1e-10
        assert data["payload"]["reason"] == "Q = D + B - A is not PSD"
        assert run_summary(capsys, ["check-psd", indefinite_xsym]) == (2, not_psd_summary(data["payload"]))

    def test_not_x_symmetric_exit_3(self, capsys, p223_file):
        code, data = run_json(capsys, ["check-psd", p223_file])
        assert code == 3
        assert data["status"] == "error"
        assert "sos-rank" in data["payload"]["error"]

    def test_missing_file(self, capsys, tmp_path):
        code, data = run_json(capsys, ["check-psd", str(tmp_path / "nope.json")])
        assert code == 1
        assert data["status"] == "error"

    def test_parse_failure(self, capsys, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        code, data = run_json(capsys, ["check-psd", str(bad)])
        assert code == 1

    def test_transpose_flag(self, capsys, tmp_path):
        # y-symmetric form: swap roles first, then the x-symmetric test applies
        form = forms.FormCells.of(to_form(gen_simple(3, 2, 6))).transpose().to_form()
        path = tmp_path / "ysym.json"
        forms.save_form(form, str(path))
        code, data = run_json(capsys, ["check-psd", str(path), "--transpose"])
        assert code == 0 and data["payload"]["verdict"] == "PSD"


class TestDecompose:
    def test_writes_verified_decomposition(self, capsys, coupled_xsym, tmp_path):
        out = tmp_path / "dec.json"
        code, data = run_json(capsys, ["decompose", coupled_xsym, str(out)])
        assert code == 0
        assert data["payload"]["factor_count"] == 2
        dec = forms.load_decomposition(str(out))
        assert len(dec) == 2

    def test_not_psd_exit_2(self, capsys, indefinite_xsym, tmp_path):
        code, _ = run_json(capsys, ["decompose", indefinite_xsym, str(tmp_path / "x.json")])
        assert code == 2
        # Q = 2I passes and only R = -I fails; nothing is written.
        r_fails = write(tmp_path / "r.json", {"m": 3, "d": [1, 1], "A": [[-1, 0], [0, -1]], "B": [[0, 0], [0, 0]]})
        argv = ["decompose", r_fails, str(tmp_path / "x.json")]
        code, data = run_json(capsys, argv)
        assert code == 2 and data["payload"]["reason"] == "R = D + B + (m-1)A is not PSD"
        assert run_summary(capsys, argv) == (2, not_psd_summary(data["payload"]))
        assert not (tmp_path / "x.json").exists()

    def test_not_x_symmetric(self, capsys, p223_file, tmp_path):
        code, _ = run_json(capsys, ["decompose", p223_file, str(tmp_path / "x.json")])
        assert code == 3

    def test_eigen_solves_q_and_r_once(self, capsys, tmp_path, monkeypatch):
        shapes = []
        sym_eig = linalg.sym_eig

        def counting(s):
            shapes.append(np.shape(s))
            return sym_eig(s)

        monkeypatch.setattr(linalg, "sym_eig", counting)
        data = random_psd_instance(5, 4, np.random.default_rng(8))
        path = write(tmp_path / "data.json", data_record(data))
        code, envelope = run_json(capsys, ["decompose", path, str(tmp_path / "dec.json")])
        assert code == 0 and envelope["payload"]["factor_count"] == 4 + 4 * 4
        assert shapes == [(4, 4), (4, 4)]

    @pytest.mark.parametrize("record", [
        {"m": 3, "d": [0, 0], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]},
        {"m": 3, "n": 2, "terms": []},
    ], ids=["data", "terms"])
    def test_zero_form_is_psd_with_no_factors(self, capsys, tmp_path, record):
        # No y index is left, so the zero form is PSD with 0 factors and its
        # record is format 2, like every other decompose output.
        path = write(tmp_path / "zero.json", record)
        code, check = run_json(capsys, ["check-psd", path])
        assert code == 0 and check["payload"]["verdict"] == "PSD"
        assert check["payload"]["q_eigenvalues"] == check["payload"]["r_eigenvalues"] == []
        out = tmp_path / "dec.json"
        code, dec = run_json(capsys, ["decompose", path, str(out)])
        assert code == 0 and dec["payload"]["factor_count"] == 0
        saved = json.loads(out.read_text())
        assert saved["format"] == 2 and [g["y"] for g in saved["groups"]] == [[], []]
        assert len(forms.load_decomposition(str(out))) == 0

    def test_large_m_writes_tags_not_rows(self, capsys, tmp_path, monkeypatch):
        def no_rows(m):
            raise AssertionError("the Helmert rows were built")

        monkeypatch.setattr(forms, "helmert_basis", no_rows)
        monkeypatch.setattr(partsym, "helmert_basis", no_rows)
        data = random_psd_instance(300, 20, np.random.default_rng(31))
        path = write(tmp_path / "data.json", data_record(data))
        out = tmp_path / "dec.json"
        code, envelope = run_json(capsys, ["decompose", path, str(out)])
        assert code == 0 and envelope["payload"]["factor_count"] == 20 + 299 * 20
        assert out.stat().st_size < 50_000
        assert [g["x"] for g in json.loads(out.read_text())["groups"]] == ["ones", "helmert"]


class TestGenSimple:
    def test_writes_form_and_reports_exact_rank(self, capsys, tmp_path):
        out = tmp_path / "form.json"
        code, data = run_json(capsys, ["gen-simple", "3", "2", "4", str(out)])
        assert code == 0
        assert data["payload"]["sos_rank"] == 4
        assert data["payload"]["exact"] is True
        assert data["payload"]["support"]["pairs"] == [[1, 1], [2, 2], [3, 1], [1, 2]]
        form = forms.load_form(str(out))
        assert (form.m, form.n) == (3, 2)

    def test_rectangle_case_upper_bound(self, capsys, tmp_path):
        code, data = run_json(capsys, ["gen-simple", "2", "2", "4", str(tmp_path / "f.json")])
        assert code == 0
        assert data["payload"]["sos_rank"] is None
        assert data["payload"]["upper_bound"] == 4

    def test_invalid_arguments(self, capsys, tmp_path):
        code, data = run_json(capsys, ["gen-simple", "2", "3", "2", str(tmp_path / "f.json")])
        assert code == 1


class TestSosRank:
    def test_p224_upper_bound_two(self, capsys, p224_file):
        code, data = run_json(capsys, ["sos-rank", p224_file, "--restarts", "5"])
        assert code == 0
        assert data["payload"]["upper_bound"] == 2
        assert data["payload"]["lower_bound"] == 2
        assert data["payload"]["exact"] is True
        assert data["payload"]["universal_bound"] == 3

    def test_p336_exact(self, capsys, tmp_path):
        path = tmp_path / "p336.json"
        forms.save_form(to_form(gen_simple(3, 3, 6)), str(path))
        code, data = run_json(capsys, ["sos-rank", str(path), "--restarts", "8"])
        assert code == 0
        assert data["payload"]["upper_bound"] == 6
        assert data["payload"]["lower_bound"] == 6
        assert data["payload"]["exact"] is True

    def test_p425_exact_five(self, capsys, tmp_path):
        path = tmp_path / "p425.json"
        forms.save_form(to_form(gen_simple(4, 2, 5)), str(path))
        code, data = run_json(capsys, ["sos-rank", str(path), "--restarts", "8"])
        assert code == 0
        assert data["payload"]["exact"] is True
        assert data["payload"]["upper_bound"] == 5

    @pytest.mark.parametrize("m, s, upper", [(4, 10, 10), (5, 15, 15)])
    def test_simple_form_with_rectangles_gets_a_lower_bound(self, capsys, tmp_path, m, s, upper):
        # Rectangles leave swap directions free; the x- and y-lines still
        # give a floor of 3 squares.
        path = tmp_path / "simple.json"
        forms.save_form(to_form(gen_simple(m, m, s)), str(path))
        code, data = run_json(capsys, ["sos-rank", str(path), "--restarts", "1"])
        assert code == 0
        assert data["payload"]["lower_bound"] == 3 <= data["payload"]["upper_bound"] == upper
        assert data["payload"]["exact"] is False
        summary = [f"SOS rank <= {upper} (heuristic upper bound; universal bound {m * m - 1}), >= 3; seed 0"]
        assert run_summary(capsys, ["sos-rank", str(path), "--restarts", "1"]) == (0, summary)

    def test_fitted_points_are_factored_once(self, capsys, monkeypatch, tmp_path):
        # Three planted 3 x 2 squares: no dead row, so the start is the base,
        # which is not PSD.  It is eigen-solved once for its PSD test, and
        # the one fit that succeeds (3 squares, the floor) once for its test,
        # its factors and the emitted factorization; the rank is the fit's
        # factor count.
        w = np.random.default_rng(0).standard_normal((3, 3, 2))
        form = forms.symmetrize(np.einsum("pij,pkl->ijkl", w, w))
        assert not linalg.is_psd(gram.build_family(form).base)[0]
        calls = []
        sym_eig = linalg.sym_eig
        monkeypatch.setattr(linalg, "sym_eig", lambda s: calls.append(np.shape(s)) or sym_eig(s))
        path = tmp_path / "planted32.json"
        forms.save_form(form, str(path))
        code, data = run_json(capsys, ["sos-rank", str(path)])
        assert code == 0 and data["payload"]["upper_bound"] == 3
        assert len(calls) <= 2

    def test_p426_exact_without_a_fit_of_three(self, capsys, monkeypatch, tmp_path):
        # P_(4,2,6)'s dead rows leave one free direction, and both ends of its
        # segment of PSD Gram matrices have rank 4: the search starts at one,
        # whose rank meets the floor, so no fit is tried at all.
        squares = []
        fit = gram._fit
        monkeypatch.setattr(gram, "_fit", lambda family, start, tol: squares.append(len(start)) or fit(family, start, tol))
        path = tmp_path / "p426.json"
        forms.save_form(to_form(gen_simple(4, 2, 6)), str(path))
        code, data = run_json(capsys, ["sos-rank", str(path)])
        payload = data["payload"]
        assert code == 0
        assert (payload["lower_bound"], payload["upper_bound"], payload["exact"]) == (4, 4, True)
        assert squares == []

    def test_negative_2x2_diagonal_is_exit_2_without_warnings(self, capsys, tmp_path):
        # -x1^2 y1^2 + x1^2 y2^2 + x2^2 y1^2 + x2^2 y2^2 + x1 x2 y1 y2: no PSD
        # Gram matrix has a negative diagonal entry, so the one free
        # direction's segment is not searched and nothing warns.
        coeffs = np.zeros((2, 2, 2, 2))
        coeffs[0, 0, 0, 0], coeffs[0, 1, 0, 1], coeffs[1, 0, 1, 0], coeffs[1, 1, 1, 1] = -1.0, 1.0, 1.0, 1.0
        coeffs[0, 0, 1, 1] = 1.0
        path = tmp_path / "negative.json"
        forms.save_form(forms.symmetrize(coeffs), str(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_json(capsys, ["sos-rank", str(path), "--restarts", "2"])
        assert code == 2
        assert not caught

    def test_byte_identical_json(self, capsys, p224_file, tmp_path):
        code1 = main(["sos-rank", p224_file, "--restarts", "4", "--seed", "3", "--json"])
        out1 = capsys.readouterr().out
        code2 = main(["sos-rank", p224_file, "--restarts", "4", "--seed", "3", "--json"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        # Dead rows pin every direction of P_(3,3,5) and P_(6,2,7) to 0: the
        # printed gamma is +0.0 throughout, never -0.0.
        for m, n, s in [(3, 3, 5), (6, 2, 7)]:
            path = tmp_path / f"p{m}{n}{s}.json"
            forms.save_form(to_form(gen_simple(m, n, s)), str(path))
            for command, key in [("sos-rank", "gram_point"), ("reduce-rank", None)]:
                assert main([command, str(path), "--json"]) == 0
                out = capsys.readouterr().out
                payload = json.loads(out)["payload"]
                gamma = (payload[key] if key else payload)["gamma"]
                assert "-0.0" not in out and gamma == [0.0] * (m * (m - 1) // 2 * n * (n - 1) // 2)
                assert all(math.copysign(1.0, g) == 1.0 for g in gamma)

    def test_zero_form_rank_zero(self, capsys, tmp_path):
        path = write(tmp_path / "zero.json", {"m": 2, "n": 3, "terms": []})
        code, data = run_json(capsys, ["sos-rank", path])
        assert code == 0
        assert data["payload"]["upper_bound"] == 0

    def test_inconclusive_exit_4(self, capsys, choi_file):
        # PSD but not SOS: no Gram point exists and no negative value either
        code, data = run_json(capsys, ["sos-rank", choi_file, "--restarts", "2"])
        assert code == 4
        assert data["status"] == "inconclusive"
        summary = ["inconclusive: no PSD Gram point found"]
        assert run_summary(capsys, ["sos-rank", choi_file, "--restarts", "2"]) == (4, summary)

    def test_pinned_choi_form_fits_nothing(self, capsys, monkeypatch, choi_file):
        # Choi's dead rows pin every swap direction, and the one member that
        # could be PSD is not: sos-rank and reduce-rank reach exit 4 without
        # a single fit.
        fits = []
        monkeypatch.setattr(gram, "_fit", lambda *args: fits.append(args))
        assert main(["sos-rank", choi_file, "--json"]) == 4
        assert main(["reduce-rank", choi_file, "--json"]) == 4
        capsys.readouterr()
        assert fits == []

    def test_inconclusive_payload_bytes(self, capsys, choi_file):
        # Choi's form has no PSD Gram matrix: the search still ends in exit
        # 4, and the payload carries no lower bound.
        assert main(["sos-rank", choi_file, "--json"]) == 4
        assert capsys.readouterr().out == CHOI_ENVELOPE

    def test_not_psd_exit_2_with_witness(self, capsys, x1sq_y1y2_file):
        code, data = run_json(capsys, ["sos-rank", x1sq_y1y2_file, "--restarts", "2"])
        assert_not_psd_envelope(data, x1sq_y1y2_file)
        assert code == 2
        assert data["payload"]["reason"] == "min-seeking M-eigen starts found P(x, y) < 0"
        summary = not_psd_summary(data["payload"])
        assert run_summary(capsys, ["sos-rank", x1sq_y1y2_file, "--restarts", "2"]) == (2, summary)

    def test_universal_bound_3x2_and_2x3(self, capsys, tmp_path):
        # 3 x 2 and 2 x 3 PSD forms are sums of 4 squares, not mn - 1 = 5
        w = np.random.default_rng(2026).standard_normal((3, 3, 2))
        path = tmp_path / "planted32.json"
        forms.save_form(forms.symmetrize(np.einsum("pij,pkl->ijkl", w, w)), str(path))
        for extra in ([], ["--transpose"]):
            code, data = run_json(capsys, ["sos-rank", str(path), "--restarts", "5"] + extra)
            assert code == 0
            assert data["payload"]["universal_bound"] == 4
            assert data["payload"]["upper_bound"] <= 4

    def test_overflowing_fits_leave_stderr_empty(self, tmp_path):
        # Failing fits on this form try steps that overflow; with every
        # RuntimeWarning an error, the command still ends in exit 0.
        path = str(tmp_path / "tiny-line.json")
        forms.save_form(tiny_line_form(723), path)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "biquad.cli", "sos-rank", path,
             "--restarts", "2", "--json"],
            env=_fresh_env(), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["payload"]["upper_bound"] == 4

    @pytest.mark.parametrize("seed, margin", enumerate(BOUNDARY_MARGINS))
    @pytest.mark.parametrize("m, n, bound", [(2, 2, 3), (3, 2, 4), (2, 3, 4), (4, 2, 5)])
    def test_paper_bounds_at_the_psd_boundary(self, capsys, tmp_path, m, n, bound, seed, margin):
        # A PSD m x 2 form is SOS (Calderon 1973), in at most 3 squares at
        # 2 x 2 and 4 at 3 x 2 and 2 x 3, also with a zero, where the Gram
        # spectrahedron has no interior: sos-rank must find it.  At 4 x 2 the
        # search finds m + 1 = 5 squares: evidence, not a theorem, so the
        # universal bound stays mn - 1.
        path = str(tmp_path / "boundary.json")
        forms.save_form(boundary_form(seed, m, n, margin), path)
        code, data = run_json(capsys, ["sos-rank", path])
        payload = data["payload"]
        assert code == 0 and payload["lower_bound"] <= payload["upper_bound"] <= bound
        assert payload["max_residual"] <= payload["residual_bound"]
        code, data = run_json(capsys, ["reduce-rank", path])
        assert code == 0 and data["payload"]["max_residual"] <= data["payload"]["residual_bound"]

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(case=boundary_forms())
    def test_paper_bounds_over_boundary_forms(self, tmp_path_factory, case):
        # The property form of the test above, over seeds, margins and
        # scales 10^U(-8, 8).
        form, bound = case
        path = str(tmp_path_factory.getbasetemp() / "boundary-property.json")
        forms.save_form(form, path)
        payloads = []
        for command in ("sos-rank", "reduce-rank"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main([command, path, "--json"]) == 0
            payloads.append(json.loads(out.getvalue())["payload"])
        assert payloads[0]["lower_bound"] <= payloads[0]["upper_bound"] <= bound
        for payload in payloads:
            assert payload["max_residual"] <= payload["residual_bound"]


class TestGramCap:
    @pytest.mark.parametrize("command", ["sos-rank", "reduce-rank"])
    @pytest.mark.parametrize("flags", [[], ["--transpose"]])
    def test_cap_checked_before_densifying(self, capsys, monkeypatch, tmp_path, command, flags):
        # Without the cap this file asks for 1.8e9 cells and a 26.8 GiB tensor.
        def densified(*args, **kwargs):
            raise AssertionError("cells or dense tensor built above the cap")

        monkeypatch.setattr(forms.FormCells, "x_symmetric", densified)
        monkeypatch.setattr(forms.FormCells, "to_form", densified)
        path = write(tmp_path / "tall.json", {"m": 60000, "d": [1], "A": [[0]], "B": [[0]]})
        code, out = run_json(capsys, [command, path, *flags])
        size = "1 x 60000" if flags else "60000 x 1"
        assert code == 1 and out["status"] == "error"
        assert out["payload"]["error"] == f"form size {size} gives Gram order 60000, above the cap 100"

    def test_ten_by_ten_is_within_the_cap(self):
        gram.check_size(10, 10)
        with pytest.raises(InvalidInput, match="above the cap 100"):
            gram.check_size(101, 1)


class TestReduceRank:
    def test_p224(self, capsys, p224_file, tmp_path):
        out = tmp_path / "point.json"
        code, data = run_json(capsys, ["reduce-rank", p224_file, "--out", str(out)])
        assert code == 0
        assert data["payload"]["rank"] <= 3
        saved = json.loads(out.read_text())
        assert set(saved) == {"gamma", "rank"}

    def test_eigen_solves_each_matrix_once(self, capsys, monkeypatch, p224_file):
        # The start is a rank-2 end of P_(2,2,4)'s segment of PSD members,
        # eigen-solved once for its PSD test, its rank and its factors; being
        # on the boundary already, it is the result.
        shapes = []
        sym_eig = linalg.sym_eig
        monkeypatch.setattr(linalg, "sym_eig", lambda s: shapes.append(np.shape(s)) or sym_eig(s))
        code, data = run_json(capsys, ["reduce-rank", p224_file])
        assert code == 0 and data["payload"]["rank"] == 2
        assert shapes == [(4, 4)]

    def test_no_directions_is_error(self, capsys, tmp_path):
        raw = np.zeros((1, 2, 1, 2))
        raw[0, 0, 0, 0] = 1.0
        raw[0, 1, 0, 1] = 1.0
        path = tmp_path / "m1.json"
        forms.save_form(forms.symmetrize(raw), str(path))
        code, data = run_json(capsys, ["reduce-rank", str(path)])
        assert code == 1

    @pytest.mark.parametrize("scale", [1e-3, 1e-6])
    def test_small_scale_full_rank_start(self, capsys, tmp_path, scale):
        # All nine x_i^2 y_j^2 start from the identity Gram matrix, so the
        # step to the boundary runs; its end point must verify at small scales.
        form = to_form(gen_simple(3, 3, 9))
        path = tmp_path / "p339.json"
        forms.save_form(forms.BiquadraticForm(3, 3, scale * form.coeffs), str(path))
        code, data = run_json(capsys, ["reduce-rank", str(path)])
        assert code == 0
        assert data["payload"]["rank"] == 8

    def test_not_psd_exit_2_with_witness(self, capsys, x1sq_y1y2_file):
        code, data = run_json(capsys, ["reduce-rank", x1sq_y1y2_file])
        assert_not_psd_envelope(data, x1sq_y1y2_file)
        assert code == 2

    def test_inconclusive_exit_4(self, capsys, choi_file):
        code, data = run_json(capsys, ["reduce-rank", choi_file])
        assert code == 4
        assert data["status"] == "inconclusive"
        assert run_summary(capsys, ["reduce-rank", choi_file]) == (4, ["inconclusive: no PSD starting point"])

    def test_full_rank_start_is_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "p339.json"
        forms.save_form(to_form(gen_simple(3, 3, 9)), str(path))
        out = tmp_path / "point.json"
        runs = []
        for _ in range(2):
            assert main(["reduce-rank", str(path), "--out", str(out), "--json"]) == 0
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1]


# Forms above meig's cap of 8: a 60 x 9 data file and a 9 x 2 terms file.
BIG_DATA = {"m": 60, "d": [1.0] * 9, "A": np.zeros((9, 9)).tolist(), "B": np.zeros((9, 9)).tolist()}
BIG_TERMS = {"m": 9, "n": 2, "terms": [{"i": 9, "j": 2, "k": 9, "l": 2, "c": 1.0}]}


class TestMeigCommand:
    def test_p223(self, capsys, p223_file):
        code, data = run_json(capsys, ["meig", p223_file, "--restarts", "6"])
        assert code == 0
        values = [p["lambda"] for p in data["payload"]["pairs"]]
        assert values == sorted(values)
        assert min(values) == pytest.approx(0.0, abs=1e-9)

    def test_tol_reaches_the_solver(self, capsys, monkeypatch, p223_file):
        seen = []
        monkeypatch.setattr(meig, "meig_solve", lambda form, **kwargs: seen.append(kwargs) or [])
        run_json(capsys, ["meig", p223_file])
        run_json(capsys, ["meig", p223_file, "--tol", "1e-6"])
        assert "tol" not in seen[0]
        assert seen[1]["tol"] == 1e-6

    def test_cap_exceeded(self, capsys, tmp_path):
        raw = np.zeros((9, 1, 9, 1))
        for i in range(9):
            raw[i, 0, i, 0] = 1.0
        path = tmp_path / "big.json"
        forms.save_form(forms.symmetrize(raw), str(path))
        code, _ = run_json(capsys, ["meig", str(path)])
        assert code == 1

    def test_tol_help_names_the_residual_bound(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["meig", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--tol TOL eigenpair residual bound, relative to max|c| (default 1e-10)" in text
        assert "rank/PSD" not in text

    @pytest.mark.parametrize("record, flags, size", [
        (BIG_DATA, [], "60 x 9"),
        (BIG_DATA, ["--transpose"], "9 x 60"),
        (BIG_TERMS, [], "9 x 2"),
        (BIG_TERMS, ["--transpose"], "2 x 9"),
    ])
    def test_cap_checked_before_densifying(self, capsys, monkeypatch, tmp_path, record, flags, size):
        def densified(*args, **kwargs):
            raise AssertionError("dense tensor built above the cap")

        monkeypatch.setattr(partsym, "reconstruct", densified)
        monkeypatch.setattr(forms.FormCells, "to_form", densified)
        code, out = run_json(capsys, ["meig", write(tmp_path / "big.json", record), *flags])
        assert code == 1 and out["status"] == "error"
        assert out["payload"]["error"] == f"form size {size} exceeds the cap 8"


class TestTolerancePlumbing:
    def test_default_tol_rejects_the_edge(self, capsys, tmp_path):
        # a matrix with eigenvalue -1e-7 passes only under a loose tolerance
        path = write(
            tmp_path / "edge.json",
            {"m": 2, "d": [1, 1], "A": [[0, 0], [0, 0]], "B": [[0, (1 + 1e-7)], [(1 + 1e-7), 0]]},
        )
        code, _ = run_json(capsys, ["check-psd", path])
        assert code == 2

    @pytest.mark.parametrize("command", ["check-psd", "sos-rank", "meig"])
    def test_non_positive_tol_rejected(self, capsys, plain_xsym, command):
        code, out = run_json(capsys, [command, plain_xsym, "--tol", "0"])
        assert code == 1 and "strictly positive" in out["payload"]["error"]

    def test_tol_flag_overrides(self, capsys, tmp_path):
        path = write(
            tmp_path / "edge2.json",
            {"m": 2, "d": [1, 1], "A": [[0, 0], [0, 0]], "B": [[0, (1 + 1e-7)], [(1 + 1e-7), 0]]},
        )
        code, _ = run_json(capsys, ["check-psd", path, "--tol", "1e-3"])
        assert code == 0


def data_record(data):
    return {"m": data.m, "d": data.d.tolist(), "A": data.A.tolist(), "B": data.B.tolist()}


def scaled_psd(seed, m, n):
    """Non-monic PSD data with weight 0 on the last y index."""
    rng = np.random.default_rng(seed)
    base = random_psd_instance(m, n - 1, rng, rank_q=n - 2)
    roots = np.sqrt(rng.uniform(0.5, 2.0, n - 1))
    d, a, b = np.zeros(n), np.zeros((n, n)), np.zeros((n, n))
    d[:-1] = roots * roots
    a[:-1, :-1] = base.A * np.outer(roots, roots)
    b[:-1, :-1] = base.B * np.outer(roots, roots)
    np.fill_diagonal(b, 0.0)
    return XSymmetricData(m, d, a, b)


SWAP = [[0.0, 1.0], [1.0, 0.0]]
# One input per outcome the x-symmetric route can reach.  With A = a I and
# m = 3, Q = (1 - a) I + B and R = (1 + 2a) I + B, so a picks which fails.
KINDS = {
    "psd": lambda: scaled_psd(20, 5, 4),
    "fail-q": lambda: XSymmetricData(3, np.array([1.0, 2.0]), 1.5 * np.eye(2), 0.1 * np.array(SWAP)),
    "fail-r": lambda: XSymmetricData(3, np.array([2.0, 1.0]), -1.0 * np.eye(2), 0.1 * np.array(SWAP)),
    "zero-violation": lambda: XSymmetricData(2, np.array([1.0, 0.0]), np.zeros((2, 2)), np.array(SWAP)),
    "m1": lambda: XSymmetricData(1, np.array([1.0, 2.0]), np.array([[5.0, 0.0], [0.0, -3.0]]),
                                 0.5 * np.array(SWAP)),
}


class TestStructureNative:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("command", ["check-psd", "decompose"])
    def test_data_and_terms_files_agree(self, capsys, tmp_path, kind, command):
        data = KINDS[kind]()
        dense = reconstruct(data)
        data_path = write(tmp_path / "data.json", data_record(data))
        terms_path = tmp_path / "terms.json"
        forms.save_form(dense, str(terms_path))
        results = []
        for path in (data_path, str(terms_path)):
            argv = [command, path] + ([str(tmp_path / "dec.json")] if command == "decompose" else [])
            results.append(run_json(capsys, argv))
        (code_data, out_data), (code_terms, out_terms) = results
        assert code_data == code_terms == (0 if kind in ("psd", "m1") else 2)
        p_data, p_terms = out_data["payload"], out_terms["payload"]
        assert p_data.get("verdict") == p_terms.get("verdict")
        assert p_data.get("factor_count") == p_terms.get("factor_count")
        if code_data == 2:
            for payload in (p_data, p_terms):
                assert set(payload) == NOT_PSD_KEYS
                w = payload["witness"]
                assert forms.evaluate(dense, np.array(w["x"]), np.array(w["y"])) < 0.0

    def test_data_file_with_transpose_swaps_x_and_y(self, capsys, tmp_path):
        plain = write(tmp_path / "plain.json", {"m": 2, "d": [1, 1], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]})
        skew = write(tmp_path / "skew.json", {"m": 3, "d": [1, 2], "A": [[0, 0.3], [0.3, 0]], "B": [[0, 0], [0, 0]]})
        out = str(tmp_path / "dec.json")
        assert run_json(capsys, ["check-psd", plain, "--transpose"])[0] == 0
        assert run_json(capsys, ["decompose", plain, out, "--transpose"])[0] == 0
        assert run_json(capsys, ["check-psd", skew, "--transpose"])[0] == 3
        assert run_json(capsys, ["decompose", skew, out, "--transpose"])[0] == 3

    def test_output_format_follows_method(self, capsys, tmp_path):
        data = scaled_psd(21, 4, 3)
        path = write(tmp_path / "data.json", data_record(data))
        out = tmp_path / "structured.json"
        code, payload = run_json(capsys, ["decompose", path, str(out)])
        assert code == 0
        assert json.loads(out.read_text()).get("format") == 2
        dec = forms.load_decomposition(str(out))
        assert len(dec) == payload["payload"]["factor_count"]
        assert forms.verify_sos(reconstruct(data), dec)[0]

    @pytest.mark.parametrize("record", [
        {"m": 2, "d": [1, -0.5], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]},
        {"m": 2, "d": [1, 0], "A": [[0, 0], [0, 0]], "B": SWAP},
        data_record(KINDS["fail-q"]()),
        "not-x-symmetric",
    ], ids=["negative-weight", "zero-weight-violation", "fail-q", "not-x-symmetric"])
    def test_check_psd_and_decompose_agree_before_decomposing(self, capsys, tmp_path, p223_file, record):
        # Both commands run the same load, x-symmetry and Q/R test steps, so
        # every input that ends there gives the same envelope.
        path = p223_file if record == "not-x-symmetric" else write(tmp_path / "data.json", record)
        code_check, check = run_json(capsys, ["check-psd", path])
        code_dec, dec = run_json(capsys, ["decompose", path, str(tmp_path / "dec.json")])
        assert code_check == code_dec in (2, 3)
        assert check["status"] == dec["status"]
        assert check["payload"] == dec["payload"]

    def test_data_file_never_builds_a_dense_tensor(self, capsys, monkeypatch, tmp_path):
        def densified(*args, **kwargs):
            raise AssertionError("dense tensor or cells built for a data file")

        monkeypatch.setattr(partsym, "reconstruct", densified)
        monkeypatch.setattr(forms.BiquadraticForm, "__post_init__", densified)
        monkeypatch.setattr(XSymmetricData, "cells", densified)
        path = write(tmp_path / "data.json", data_record(scaled_psd(22, 6, 4)))
        assert run_json(capsys, ["check-psd", path])[0] == 0
        code, out = run_json(capsys, ["decompose", path, str(tmp_path / "dec.json")])
        assert code == 0 and out["payload"]["factor_count"] > 0
        bad = write(tmp_path / "bad.json", data_record(KINDS["fail-q"]()))
        assert run_json(capsys, ["decompose", bad, str(tmp_path / "bad-dec.json")])[0] == 2
        # With --transpose a data file stays as (d, A, B): its transpose is
        # read off by XSymmetricData.transposed, without its cells.  A
        # y-symmetric one (constant d and off-diagonal B, A = a0 I + a1 (11' - I))
        # is x-symmetric once transposed; the generic one above is not, and
        # verify against the y-symmetric one's grouped file is exit 3 for it.
        n, off = 5, np.ones((5, 5)) - np.eye(5)
        ysym = write(tmp_path / "ysym.json", {"m": 3, "d": [2.0] * n, "A": (0.5 * np.eye(n) + 0.2 * off).tolist(),
                                               "B": (0.3 * off).tolist()})
        dec = str(tmp_path / "ysym-dec.json")
        for argv in (["check-psd", ysym], ["decompose", ysym, dec], ["verify", ysym, dec]):
            assert run_json(capsys, argv + ["--transpose"])[0] == 0
        assert json.loads((tmp_path / "ysym-dec.json").read_text()).get("format") == 2
        none = str(tmp_path / "none.json")
        for argv in (["check-psd", path], ["decompose", path, none], ["verify", path, dec]):
            code, out = run_json(capsys, argv + ["--transpose"])
            assert code == 3 and out["payload"]["error"].startswith("form is not x-symmetric")
        assert not os.path.exists(none)


class TestMalformedDataFiles:
    @pytest.mark.parametrize("record, message", [
        ({"m": "abc", "d": [1, 1], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]}, "malformed"),
        ({"m": None, "d": [1, 1], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]}, "malformed"),
        ({"m": 2.5, "d": [1, 1], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]}, "malformed"),
        ({"m": 2, "d": [1, 1], "A": [[0, 0], [0]], "B": [[0, 0], [0, 0]]}, "malformed"),
        ({"m": 2, "d": ["one", 1], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]}, "malformed"),
        ({"m": 2, "d": [1, 1], "A": [[0, 0], [0, 0]], "B": {"x": 1}}, "malformed"),
        ({"m": 2, "d": [1, float("nan")], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]}, "finite"),
        ({"m": 2, "d": [1, 1], "A": [[0, float("inf")], [float("inf"), 0]], "B": [[0, 0], [0, 0]]}, "finite"),
    ])
    @pytest.mark.parametrize("command", ["check-psd", "decompose", "sos-rank"])
    def test_exit_1_with_envelope(self, capsys, tmp_path, record, message, command):
        path = write(tmp_path / "bad.json", record)
        argv = [command, path] + ([str(tmp_path / "dec.json")] if command == "decompose" else [])
        code, out = run_json(capsys, argv)
        assert code == 1
        assert out["status"] == "error" and message in out["payload"]["error"]

    @pytest.mark.parametrize("command, flags", [
        ("check-psd", []), ("check-psd", ["--transpose"]), ("decompose", []), ("verify", []),
    ])
    def test_empty_d_is_exit_1(self, capsys, tmp_path, command, flags):
        path = write(tmp_path / "empty.json", {"m": 2, "d": [], "A": [], "B": []})
        dec = tmp_path / "dec.json"
        if command == "verify":
            forms.save_decomposition(forms.GroupedSOSDecomposition(2, 1, ()), str(dec))
        files = [] if command == "check-psd" else [str(dec)]
        code, out = run_json(capsys, [command, path, *files, *flags])
        assert code == 1
        assert out["status"] == "error" and out["payload"]["error"] == "m and n must be positive"
        assert dec.exists() == (command == "verify")  # decompose writes no file

    def test_non_finite_term(self, capsys, tmp_path):
        path = write(tmp_path / "nan.json", {"m": 1, "n": 1, "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "c": float("nan")}]})
        code, out = run_json(capsys, ["check-psd", path])
        assert code == 1 and "not finite" in out["payload"]["error"]


class TestDecoder:
    def test_utf8_bom_is_json_parse_failure(self, capsys, tmp_path):
        text = '\ufeff{"m": 1, "n": 1, "terms": []}'
        path = tmp_path / "bom.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        code, out = run_json(capsys, ["check-psd", str(path)])
        assert code == 1
        assert out["payload"]["error"] == f"parse failure: {expected.value}"

    def test_written_files_skip_the_stdlib_decoder(self, tmp_path, monkeypatch):
        data = random_psd_instance(4, 3, np.random.default_rng(1))
        terms = str(tmp_path / "terms.json")
        forms.save_form(reconstruct(data), terms)
        xsym = write(tmp_path / "xsym.json", data_record(data))
        dense = str(tmp_path / "dense.json")
        forms.save_decomposition(forms.SOSDecomposition(2, 2, (np.eye(2),)), dense)

        def refuse(*args, **kwargs):
            raise AssertionError("json.load called")

        monkeypatch.setattr(json, "load", refuse)
        for path in (terms, xsym):
            out = str(tmp_path / "dec.json")
            assert main(["check-psd", path]) == 0
            assert main(["decompose", path, out]) == 0
            assert isinstance(forms.load_decomposition(out), forms.GroupedSOSDecomposition)
        assert len(forms.load_decomposition(dense)) == 1


class TestFailureTable:
    def test_directory_is_exit_1(self, capsys, tmp_path):
        code, out = run_json(capsys, ["check-psd", str(tmp_path)])
        assert code == 1 and out["status"] == "error"

    def test_non_utf8_file_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"m": 1, "n": 1, "terms": [], "note": "\xe9"}')
        code, out = run_json(capsys, ["check-psd", str(path)])
        assert code == 1 and out["status"] == "error"

    @pytest.mark.parametrize("command", ["decompose", "gen-simple", "reduce-rank"])
    def test_write_errors_name_the_destination(self, capsys, plain_xsym, p224_file, tmp_path, command):
        # A missing directory and a directory as target: the error names the
        # path asked for, never the temporary file, and repeats byte for byte.
        argv = {
            "decompose": ["decompose", plain_xsym, "OUT"],
            "gen-simple": ["gen-simple", "2", "2", "3", "OUT"],
            "reduce-rank": ["reduce-rank", p224_file, "--out", "OUT"],
        }[command]
        missing, directory = str(tmp_path / "missing" / "out.json"), str(tmp_path)
        outputs = []
        for out in (missing, missing, directory):
            code = main([out if a == "OUT" else a for a in argv] + ["--json"])
            outputs.append(capsys.readouterr().out)
            message = json.loads(outputs[-1])["payload"]["error"]
            assert code == 1 and repr(out) in message and ".tmp" not in message
        assert outputs[0] == outputs[1]
        assert "Is a directory" in json.loads(outputs[2])["payload"]["error"]
        assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in (plain_xsym, p224_file))

    def test_parse_failure_prefix(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, out = run_json(capsys, ["sos-rank", str(path)])
        assert code == 1 and out["payload"]["error"].startswith("parse failure:")

    @pytest.mark.parametrize("argv", [
        ["sos-rank", "FORM", "--restarts", "-5"],
        ["sos-rank", "FORM", "--restarts", "0"],
        ["meig", "FORM", "--restarts", "0"],
    ])
    def test_counts_below_one_rejected(self, capsys, p224_file, argv):
        code, out = run_json(capsys, [p224_file if a == "FORM" else a for a in argv])
        assert code == 1
        assert out["status"] == "error" and "at least 1" in out["payload"]["error"]

    @pytest.mark.parametrize("argv", [
        ["sos-rank", "FORM", "--restarts", "abc"],
        ["sos-rank", "FORM", "--bogus"],
        ["decompose", "FORM", "OUT", "--method", "naive"],
        ["check-psd", "FORM", "--seed", "3"],
        ["decompose", "FORM", "OUT", "--seed", "3"],
        ["bench", "--trials", "1"],
        [],
    ])
    def test_usage_error_is_exit_1(self, capsys, p224_file, tmp_path, argv):
        # argparse's own code for a usage error, 2, is the CLI's "not PSD"
        argv = [{"FORM": p224_file, "OUT": str(tmp_path / "dec.json")}.get(a, a) for a in argv]
        assert main(argv + ["--json"]) == 1
        captured = capsys.readouterr()
        envelope = json.loads(captured.out)
        assert envelope["command"] == (argv[0] if argv else None)
        assert envelope["status"] == "error"
        assert envelope["payload"]["error"].startswith("usage error: ")
        assert "usage: biquad" in captured.err
        assert not (tmp_path / "dec.json").exists()

    def test_usage_error_without_json_keeps_stdout_empty(self, capsys, p224_file):
        assert main(["sos-rank", p224_file, "--restarts", "abc"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: biquad sos-rank" in captured.err
        assert "invalid int value: 'abc'" in captured.err

    @pytest.mark.parametrize("extra", [["--js"], ["--js", "--restarts", "abc"]])
    def test_abbreviated_json_is_not_json(self, capsys, p224_file, extra):
        # Options are matched in full, so "--js" is a usage error, not "--json".
        assert main(["sos-rank", p224_file] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: biquad" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["sos-rank", "--help"]])
    def test_help_is_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: biquad" in capsys.readouterr().out

    def test_non_integral_term_index(self, capsys, tmp_path):
        path = write(tmp_path / "frac.json", {"m": 2, "n": 2, "terms": [{"i": 1.7, "j": 1, "k": 1, "l": 1, "c": 1.0}]})
        code, out = run_json(capsys, ["check-psd", path])
        assert code == 1 and "integer" in out["payload"]["error"]

    @pytest.mark.parametrize("as_json", [True, False])
    def test_unexpected_exception_is_exit_1(self, capsys, monkeypatch, tmp_path, as_json):
        def broken(args):
            raise KeyError("missing")

        monkeypatch.setattr(cli, "cmd_gen_simple", broken)
        argv = ["gen-simple", "2", "2", "3", str(tmp_path / "form.json")]
        code = main(argv + ["--json"] * as_json)
        out = capsys.readouterr().out
        assert code == 1 and "Traceback" not in out
        if as_json:
            data = json.loads(out)
            assert data["status"] == "error"
            assert data["payload"]["error"] == "internal error: KeyError: 'missing'"
        else:
            assert "error: internal error: KeyError: 'missing'" in out

    @pytest.mark.parametrize("command", ["check-psd", "sos-rank"])
    def test_dimensions_beyond_an_index_are_exit_1(self, capsys, tmp_path, command):
        # (m(m+1)/2)(n(n+1)/2) overflows intp; nothing is allocated.
        path = write(tmp_path / "huge.json", {"m": 100000, "n": 100000, "terms": []})
        code, out = run_json(capsys, [command, path])
        assert code == 1 and out["status"] == "error"
        assert out["payload"]["error"].startswith("form too large: m = 100000, n = 100000 give 25000500002500000000")

    def test_dense_data_beyond_an_index_is_exit_1(self, capsys, tmp_path):
        path = write(tmp_path / "huge.json", {"m": 4 * 10**9, "d": [1.0], "A": [[0.0]], "B": [[0.0]]})
        code, out = run_json(capsys, ["check-psd", path, "--transpose"])
        assert code == 1 and out["payload"]["error"].startswith("form too large: m = 4000000000, n = 1 give")

    def test_cells_beyond_an_array_in_bytes_are_exit_1(self, capsys, tmp_path):
        # m(m+1)/2 = 2e18 + 1e9 cells index fine, but their 8 bytes each do not.
        path = write(tmp_path / "huge.json", {"m": 2 * 10**9, "d": [1.0], "A": [[0.0]], "B": [[0.0]]})
        code, out = run_json(capsys, ["check-psd", path, "--transpose"])
        assert code == 1 and out["payload"]["error"].startswith("form too large: m = 2000000000, n = 1 give ")

    @pytest.mark.parametrize("as_json", [True, False])
    def test_memory_error_is_exit_1(self, capsys, monkeypatch, tmp_path, as_json):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        data = random_psd_instance(3, 2, np.random.default_rng(4))
        path = write(tmp_path / "terms.json", forms.form_to_dict(reconstruct(data)))
        monkeypatch.setattr(forms, "_accumulate_cells", exhausted)
        code = main(["check-psd", path] + ["--json"] * as_json)
        out = capsys.readouterr().out
        assert code == 1 and "Traceback" not in out
        message = "out of memory: Unable to allocate 8.00 EiB for an array"
        if as_json:
            assert json.loads(out) == {"command": "check-psd", "status": "error", "payload": {"error": message}}
        else:
            assert f"error: {message}" in out


def _fresh_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(biquad.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestImportGraph:
    def test_no_function_has_two_module_level_names(self):
        # benchmark/tracer.py names each span after the module attribute it
        # wraps and wraps each function object once: a second name bound to
        # a function would rename that function's spans.
        for layer in ("cli", "forms", "partsym", "linalg", "gram", "simple", "meig"):
            module = importlib.import_module(f"biquad.{layer}")
            names = {}
            for name, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    names.setdefault(value, []).append(name)
            assert [group for group in names.values() if len(group) > 1] == [], layer

    def test_cli_does_not_load_scipy_optimize(self):
        code = (
            "import sys, biquad.cli, biquad.gram\n"
            "assert 'orjson' in sys.modules, 'orjson not loaded'\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'\n"
            "import scipy.optimize\n"
            "assert biquad.gram.minimize is scipy.optimize.minimize\n"
        )
        subprocess.run([sys.executable, "-c", code], env=_fresh_env(), check=True, timeout=120)

    def test_module_entry_point_checks_terms_file(self, tmp_path):
        path = str(tmp_path / "terms.json")
        forms.save_form(reconstruct(random_psd_instance(4, 3, np.random.default_rng(0))), path)
        proc = subprocess.run(
            [sys.executable, "-m", "biquad.cli", "check-psd", path, "--json"],
            env=_fresh_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        envelope = json.loads(proc.stdout)
        assert envelope["command"] == "check-psd" and envelope["status"] == "ok"
        assert envelope["payload"]["verdict"] == "PSD"


class TestParseMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
    def test_terms_parse_peak_is_bounded_by_file_size(self, tmp_path):
        # A 40x10 terms file of 45,100 terms, 2.8 MB as json.dumps writes it.
        # The child reports its peak resident size (VmHWM) after the import
        # and after the command: ru_maxrss would start at this process's
        # own size, which it inherits across fork and exec.
        data = random_psd_instance(40, 10, np.random.default_rng(2026))
        path = write(tmp_path / "terms.json", forms.form_to_dict(reconstruct(data)))
        code = (
            "import contextlib, io, sys\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return int(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
            "import biquad.cli\n"
            "before = peak_kib()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert biquad.cli.main(['check-psd', sys.argv[1]]) == 0\n"
            "print(before, peak_kib())\n"
        )
        done = subprocess.run([sys.executable, "-c", code, path], env=_fresh_env(), check=True,
                              capture_output=True, text=True, timeout=120)
        before, after = map(int, done.stdout.split())
        # The whole-file decode added about 8.5x the file size, the chunked one 3.5x.
        assert (after - before) * 1024 < 5 * os.path.getsize(path)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc")
    @pytest.mark.parametrize("command", ["check-psd", "decompose", "verify"])
    def test_transposed_2000x50_data_is_exit_3_at_once(self, tmp_path, command):
        # Its 2.55e9 canonical cells would take 20 GB; its transpose is read
        # off (d, A, B) and found not x-symmetric.  The child may map 1 GiB
        # beyond its size after the import, so a cells detour fails at once.
        rng = np.random.default_rng(7)
        a, b = rng.uniform(-1.0, 1.0, (2, 50, 50))
        b = b + b.T
        np.fill_diagonal(b, 0.0)
        path = write(tmp_path / "wide.json", {"m": 2000, "d": rng.uniform(1.0, 2.0, 50).tolist(),
                                              "A": (a + a.T).tolist(), "B": b.tolist()})
        code = (
            "import resource, sys\n"
            "from biquad.cli import main\n"
            "size = next(int(v.split()[1]) for v in open('/proc/self/status') if v.startswith('VmSize'))\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "limit = (size << 10) + (1 << 30)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit if hard < 0 else min(limit, hard), hard))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        files = [] if command == "check-psd" else [str(tmp_path / "dec.json")]
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code, command, path, *files, "--transpose", "--json"],
                              env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 3, done.stdout + done.stderr
        assert not (tmp_path / "dec.json").exists()


class TestGeneralWitnessProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(
        m=st.integers(2, 3),
        n=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
    )
    def test_sos_rank_witness_and_meig_values(self, tmp_path_factory, m, n, seed, shift):
        # Planted squares minus shift times one more square: SOS for a small
        # shift, not PSD for a large one.
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((int(rng.integers(1, m * n)), m, n))
        v = rng.standard_normal((m, n))
        form = forms.symmetrize(np.einsum("pij,pkl->ijkl", w, w) - shift * np.einsum("ij,kl->ijkl", v, v))
        path = str(tmp_path_factory.getbasetemp() / "general.json")
        forms.save_form(form, path)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["sos-rank", path, "--restarts", "2", "--json"])
        if code == 2:
            witness = json.loads(out.getvalue())["payload"]["witness"]
            assert forms.evaluate(form, np.array(witness["x"]), np.array(witness["y"])) < 0.0
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["meig", path, "--restarts", "3", "--json"]) == 0
        bound = 1e-8 * forms.max_abs_coeff(form)
        for pair in json.loads(out.getvalue())["payload"]["pairs"]:
            value = forms.evaluate(form, np.array(pair["x"]), np.array(pair["y"]))
            assert abs(value - pair["lambda"]) <= bound


class TestTolRange:
    @pytest.mark.parametrize("tol", ["1", "10", "inf"])
    @pytest.mark.parametrize("command", ["check-psd", "decompose", "sos-rank", "reduce-rank", "meig"])
    def test_tol_at_or_above_one_rejected(self, capsys, tmp_path, indefinite_xsym, command, tol):
        # Q has eigenvalue -2: not PSD by default, "PSD" under any eps >= 1.
        out = [str(tmp_path / "dec.json")] if command == "decompose" else []
        code, envelope = run_json(capsys, [command, indefinite_xsym, *out, "--tol", tol])
        assert code == 1 and envelope["status"] == "error"
        assert "below 1" in envelope["payload"]["error"]
        if command == "check-psd":
            assert run_json(capsys, [command, indefinite_xsym])[0] == 2


class TestSharedParser:
    def test_calls_in_one_process_match_fresh_parsers(self, capsys, monkeypatch, tmp_path, p223_file):
        data = KINDS["psd"]()
        ysym = str(tmp_path / "ysym.json")
        forms.save_form(data.cells().transpose().to_form(), ysym)
        dec = tmp_path / "dec.json"
        calls = [
            ["sos-rank", p223_file, "--restarts", "abc", "--json"],
            ["check-psd", ysym, "--transpose", "--tol", "1e-6", "--json"],
            ["sos-rank", p223_file, "--json"],
            ["decompose", ysym, str(dec), "--transpose", "--json"],
            ["check-psd", ysym, "--json"],
        ]

        def run_all():
            results = []
            for argv in calls:
                code = main(argv)
                results.append((code, capsys.readouterr().out, dec.read_bytes() if dec.exists() else None))
            return results

        shared = run_all()
        dec.unlink()
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        assert run_all() == shared
        codes = [code for code, _, _ in shared]
        # No option carries over: sos-rank runs with its defaults, and the
        # y-symmetric file read without --transpose is not x-symmetric.
        assert codes == [1, 0, 0, 0, 3]
        payload = json.loads(shared[2][1])["payload"]
        assert (payload["seed"], payload["restarts"]) == (0, 20)
        assert cli.build_parser() is not cli.build_parser()


def xsym_routes(tmp_path, name, data=None, record=None):
    """The three files of one x-symmetric form: its data file (from
    ``data``), its terms file and the terms file of its y-symmetric
    transpose (from ``data`` or the terms ``record``), each with the argv
    suffix that analyses the form itself."""
    dense = reconstruct(data) if record is None else forms.form_from_dict(record)
    routes = []
    if data is not None:
        routes.append((write(tmp_path / f"{name}-data.json", data_record(data)), []))
    terms = str(tmp_path / f"{name}-terms.json")
    forms.dump_json(record or forms.form_to_dict(dense), terms)
    ysym = str(tmp_path / f"{name}-ysym.json")
    forms.save_form(forms.FormCells.of(dense).transpose().to_form(), ysym)
    return routes + [(terms, []), (ysym, ["--transpose"])]


def run_routes(tmp_path, routes):
    """check-psd and decompose on every route: per command, a list of
    (exit code, payload, decomposition bytes)."""
    out = tmp_path / "dec.json"
    results = {"check-psd": [], "decompose": []}
    for command, outcomes in results.items():
        for path, suffix in routes:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main([command, path, *([str(out)] if command == "decompose" else []), *suffix, "--json"])
            written = out.read_bytes() if command == "decompose" and code == 0 else None
            outcomes.append((code, json.loads(stdout.getvalue())["payload"], written))
            if out.exists():
                out.unlink()
    return results


def assert_routes_agree(results, scale):
    """Equal exit codes, verdicts, eigenvalue bytes, factor counts and
    decomposition bytes; NotPSD witnesses negative and within
    1e-12 * max|c| of each other."""
    for outcomes in results.values():
        code, first, written = outcomes[0]
        for other_code, payload, other_written in outcomes[1:]:
            assert other_code == code and other_written == written
            for key in ("verdict", "q_eigenvalues", "r_eigenvalues", "factor_count"):
                assert json.dumps(payload.get(key)) == json.dumps(first.get(key))
        if code == 2:
            values = [payload["witness"]["value"] for _, payload, _ in outcomes]
            assert max(values) < 0.0
            assert max(values) - min(values) <= 1e-12 * scale


class TestTermsRoute:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(data=xsym_forms(), off_row=st.booleans(), y_pair=st.integers(0, 14))
    def test_data_terms_and_transposed_terms_agree(self, tmp_path_factory, data, off_row, y_pair):
        tmp_path = tmp_path_factory.mktemp("routes")
        scale = data.max_abs_coeff()
        results = run_routes(tmp_path, xsym_routes(tmp_path, "plain", data))
        assert_routes_agree(results, scale)
        if data.m == 1 or scale == 0.0:
            return
        # One orbit off by 0.5x or 1.5x of the match tolerance, in a block
        # that (d, A, B) are not read from: (0, 2) or (m-1, m-1).
        i, k = (0, 2) if off_row and data.m >= 3 else (data.m - 1, data.m - 1)
        j, l = (int(v) for v in np.transpose(np.triu_indices(data.n))[y_pair % (data.n * (data.n + 1) // 2)])
        orbit = (2.0 if i < k else 1.0) * (2.0 if j < l else 1.0)
        for ratio in (0.5, 1.5):
            record = forms.form_to_dict(reconstruct(data))
            delta = {"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "c": orbit * ratio * 1e-10 * scale}
            record["terms"].append(delta)
            perturbed = run_routes(tmp_path, xsym_routes(tmp_path, f"r{ratio}", record=record))
            if ratio == 1.5:
                assert [code for outcomes in perturbed.values() for code, _, _ in outcomes] == [3] * 4
            else:
                assert_routes_agree({c: results[c] + perturbed[c] for c in results}, scale)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (4, 1)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_single_sided_shapes(self, tmp_path, m, n, sign):
        rng = np.random.default_rng(m * 10 + n)
        d = sign * rng.uniform(0.5, 2.0, n)
        a = np.full((n, n), 0.25) if m >= 2 else np.zeros((n, n))
        b = 0.1 * (np.ones((n, n)) - np.eye(n))
        data = XSymmetricData(m, d, a, b)
        results = run_routes(tmp_path, xsym_routes(tmp_path, "edge", data))
        assert_routes_agree(results, data.max_abs_coeff())
        assert results["check-psd"][0][0] == (0 if sign > 0 else 2)

    @pytest.mark.parametrize("suffix", [[], ["--transpose"]])
    def test_empty_term_list(self, capsys, tmp_path, suffix):
        path = write(tmp_path / "empty.json", {"m": 3, "n": 2, "terms": []})
        code, out = run_json(capsys, ["check-psd", path, *suffix])
        assert code == 0 and out["payload"]["verdict"] == "PSD"
        code, out = run_json(capsys, ["decompose", path, str(tmp_path / "dec.json"), *suffix])
        assert code == 0 and out["payload"]["factor_count"] == 0

    def test_terms_file_never_builds_a_dense_tensor(self, capsys, monkeypatch, tmp_path):
        routes = xsym_routes(tmp_path, "psd", KINDS["psd"]())[1:]
        routes += xsym_routes(tmp_path, "fail", KINDS["fail-q"]())[1:]

        def densified(*args, **kwargs):
            raise AssertionError("dense tensor built for a terms file")

        monkeypatch.setattr(partsym, "reconstruct", densified)
        monkeypatch.setattr(forms.BiquadraticForm, "__post_init__", densified)
        results = run_routes(tmp_path, routes)
        assert [code for code, _, _ in results["check-psd"]] == [0, 0, 2, 2]
        assert [code for code, _, _ in results["decompose"]] == [0, 0, 2, 2]


def contract_record(m=60, n=4, planted=2e-8):
    """A monic data file whose Q has the eigenvalue -planted and whose R has
    m + (m - 1) * planted: check-psd accepts it, because eps * scale is about
    6e-8, and dropping the eigenvalue moves coefficients by about 2e-8."""
    q = np.diag([1.0] * (n - 1) + [-planted])
    r = np.diag([1.0] * (n - 1) + [m + (m - 1) * planted])
    b = (r + (m - 1) * q) / m - np.eye(n)
    np.fill_diagonal(b, 0.0)
    return {"m": m, "d": [1.0] * n, "A": ((r - q) / m).tolist(), "B": b.tolist()}


def wrong_copy(path, out):
    """The decomposition at ``path`` with every y row scaled by 1.001."""
    dec = forms.load_decomposition(path)
    forms.save_decomposition(
        forms.GroupedSOSDecomposition(dec.m, dec.n, tuple((x, 1.001 * y) for x, y in dec.groups)), out)
    return out


VERIFY_KEYS = {"verified", "max_residual", "residual_bound", "factor_count"}


class TestVerifyCommand:
    def test_decomposition_file_verifies(self, capsys, coupled_xsym, tmp_path):
        out = str(tmp_path / "dec.json")
        _, made = run_json(capsys, ["decompose", coupled_xsym, out])
        code, checked = run_json(capsys, ["verify", coupled_xsym, out])
        assert code == 0 and checked["status"] == "ok"
        assert set(checked["payload"]) == VERIFY_KEYS and checked["payload"]["verified"] is True
        for key in ("max_residual", "residual_bound", "factor_count"):
            assert checked["payload"][key] == made["payload"][key]
        assert made["payload"]["max_residual"] <= made["payload"]["residual_bound"]

    def test_contract_file(self, capsys, tmp_path):
        # check-psd accepts this form; decompose used to fail its own
        # re-verification with residual 1.918e-08 against 1e-8 * max|c|.
        path = write(tmp_path / "c60x4.json", contract_record())
        out = str(tmp_path / "dec.json")
        assert run_json(capsys, ["check-psd", path])[0] == 0
        code, made = run_json(capsys, ["decompose", path, out])
        assert code == 0
        assert 1e-8 * 60 / 59 < made["payload"]["max_residual"] <= made["payload"]["residual_bound"]
        assert run_json(capsys, ["verify", path, out])[0] == 0
        code, failed = run_json(capsys, ["verify", path, wrong_copy(out, str(tmp_path / "wrong.json"))])
        assert code == 1 and failed["status"] == "error" and "re-verification" in failed["payload"]["error"]

    def test_general_form_is_compared_on_cells(self, capsys, p223_file, tmp_path):
        # x1^2 y1^2 + x1^2 y2^2 + x2^2 y2^2 is not x-symmetric: a dense
        # record is checked against its cells, with no slack.
        dec = forms.SOSDecomposition(2, 2, tuple(np.eye(4)[p].reshape(2, 2) for p in (0, 1, 3)))
        out = str(tmp_path / "dense.json")
        forms.save_decomposition(dec, out)
        code, checked = run_json(capsys, ["verify", p223_file, out])
        assert code == 0 and checked["payload"]["factor_count"] == 3
        assert checked["payload"]["residual_bound"] == 1e-8
        forms.save_decomposition(forms.SOSDecomposition(2, 2, dec.factors[:2]), out)
        assert run_json(capsys, ["verify", p223_file, out])[0] == 1

    @pytest.mark.parametrize("form, record, message", [
        (COUPLED, {"m": 2, "n": 2, "factors": 5}, "malformed decomposition record"),
        (COUPLED, {"m": 2, "n": 2, "factors": [["a", 1, 2, 3]]}, "malformed decomposition record"),
        (COUPLED, {"format": 2, "m": 0, "n": 2, "groups": [{"x": "helmert", "y": [[1, 2]]}]},
         "malformed decomposition record"),
        (COUPLED, {"m": 2, "n": 2, "factors": [[1, 0, 0, float("nan")]]}, "malformed decomposition record"),
        (COUPLED, {"format": 2, "m": 3, "n": 2, "groups": [{"x": "ones", "y": [[1, 0]]}]}, "dimensions differ"),
        # Factors too large to square: an infinite residual, and no numpy
        # overflow warning on stderr, on the cell route and the grouped one.
        (LINE, {"m": 1, "n": 2, "factors": [[1e200, 1.0]]}, "failed re-verification: residual inf"),
        (LINE, {"format": 2, "m": 1, "n": 2, "groups": [{"x": "ones", "y": [[1e200, 1.0]]}]},
         "failed re-verification: residual inf"),
    ])
    def test_bad_decomposition_file_is_exit_1(self, capsys, tmp_path, form, record, message):
        form_path = write(tmp_path / "form.json", form)
        path = write(tmp_path / "dec.json", record)
        code = main(["verify", form_path, path, "--json"])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert code == 1 and out["status"] == "error" and message in out["payload"]["error"]
        assert captured.err == ""

    def test_no_sampling_and_no_dense_tensor(self, capsys, monkeypatch, tmp_path):
        routes = xsym_routes(tmp_path, "psd", KINDS["psd"]())

        def refuse(*args, **kwargs):
            raise AssertionError("sampled or densified")

        monkeypatch.setattr(meig, "_unit_rows", refuse)
        monkeypatch.setattr(forms.GroupedSOSDecomposition, "factors", property(refuse))
        monkeypatch.setattr(partsym, "reconstruct", refuse)
        out = str(tmp_path / "dec.json")
        for path, suffix in routes:
            assert run_json(capsys, ["decompose", path, out, *suffix])[0] == 0
            assert run_json(capsys, ["verify", path, out, *suffix])[0] == 0

    def test_general_form_builds_no_dense_tensor(self, capsys, monkeypatch, p223_file, tmp_path):
        def densified(*args, **kwargs):
            raise AssertionError("densified")

        monkeypatch.setattr(forms.FormCells, "to_form", densified)
        dec = forms.SOSDecomposition(2, 2, tuple(np.eye(4)[p].reshape(2, 2) for p in (0, 1, 3)))
        out = str(tmp_path / "dense.json")
        forms.save_decomposition(dec, out)
        code, checked = run_json(capsys, ["verify", p223_file, out])
        assert code == 0 and checked["payload"]["max_residual"] == 0.0

    def test_payloads_carry_the_residual_bound(self, capsys, p224_file):
        # The Gram factorizations are checked on the dense form, with no slack.
        for command in ("sos-rank", "reduce-rank"):
            code, out = run_json(capsys, [command, p224_file])
            assert code == 0 and out["payload"]["residual_bound"] == 1e-8
            assert out["payload"]["max_residual"] <= 1e-8


def planted_record(m, n, seed, q_frac, r_frac):
    """An x-symmetric data file whose Q and R each have one eigenvalue
    planted at the given fraction of eps * scale, eps = 1e-9, the others of
    order 1 to m n; the weights are within rounding of 1."""
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal((2, n, n))
    f[:, -1] = g[:, -1] = 0.0  # rank n - 1, so each has a null direction
    q0, r0 = f @ f.T, g @ g.T
    s = 1.0 / np.sqrt(np.diag(r0 + (m - 1) * q0) / m)
    q0, r0 = q0 * np.outer(s, s), r0 * np.outer(s, s)
    scale = max(np.abs(np.linalg.eigvalsh(r0)).max(), np.abs(np.linalg.eigvalsh(q0)).max() if m >= 2 else 0.0)
    q, r = q0.copy(), r0.copy()
    for mat, frac in ((q, q_frac), (r, r_frac)):
        null = np.linalg.eigh(mat)[1][:, 0]
        mat += frac * 1e-9 * scale * np.outer(null, null)
    base = (r + (m - 1) * q) / m
    d = np.diag(base).copy()
    return {"m": m, "d": d.tolist(), "A": ((r - q) / m).tolist(), "B": (base - np.diag(d)).tolist()}


# Planted eigenvalues as fractions of eps * scale: at and near the PSD
# cutoff, inside it, and beyond it (not PSD).
PLANTED = st.sampled_from([-1.0, -0.99, 0.99, 1.0]) | st.floats(-1.2, 1.0)


class TestVerdictContract:
    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(
        m=st.sampled_from([1, 2, 40, 80]) | st.integers(1, 80),
        n=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        q_frac=PLANTED,
        r_frac=PLANTED,
        flags=st.sampled_from([[], ["--tol", "1e-7"]]),
    )
    def test_psd_verdict_decomposes_and_verifies(self, tmp_path_factory, m, n, seed, q_frac, r_frac, flags):
        tmp_path = tmp_path_factory.mktemp("contract")
        path = write(tmp_path / "planted.json", planted_record(m, n, seed, q_frac, r_frac))
        out, wrong = str(tmp_path / "dec.json"), str(tmp_path / "wrong.json")
        codes = []
        for argv in (["check-psd", path], ["decompose", path, out], ["verify", path, out]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv + flags))
            if codes[0] != 0:
                break
        assert codes in ([0, 0, 0], [2])
        if codes[0] == 0 and json.loads(open(out).read())["groups"][0]["y"]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["verify", path, wrong_copy(out, wrong), *flags]) == 1


def _psd_part(data):
    """The structured decomposition of a PSD form, and for any other form
    that of its Q and R with the negative eigenvalues dropped."""
    cert = partsym.check_psd_monic(data)
    return partsym.sos_decompose_structured(data, cert=replace(cert, psd=True)), cert.slack


def _moved(data, entry, delta):
    """data with d_j, A_jl or B_jl (and its mirror) moved by delta."""
    kind, j, l = entry
    d, a, b = data.d.copy(), data.A.copy(), data.B.copy()
    if kind == "d":
        d[j] += delta
    else:
        target = a if kind == "A" else b
        target[j, l] += delta
        if j != l:
            target[l, j] += delta
    return XSymmetricData(data.m, d, a, b)


def verify_routes(data, dec, slack):
    """verify_sos on the data, and on its dense tensor with the grouped and
    the dense factors."""
    dense = reconstruct(data)
    return [
        forms.verify_sos(data, dec, slack=slack),
        forms.verify_sos(dense, dec, slack=slack),
        forms.verify_sos(dense, forms.SOSDecomposition(data.m, data.n, dec.factors), slack=slack),
    ]


class TestVerifierRoutes:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=xsym_forms(), pick=st.integers(0, 2**16), ratio=st.sampled_from([0.5, 2.0]))
    def test_every_route_gives_one_verdict(self, data, pick, ratio):
        dec, slack = _psd_part(data)
        scale = data.max_abs_coeff()
        results = verify_routes(data, dec, slack)
        assert len({ok for ok, _ in results}) == 1
        resids = [r for _, r in results]
        assert max(resids) - min(resids) <= 1e-12 * scale
        bound = forms.residual_bound(data, slack)
        if not results[0][0] or bound == 0.0:
            return
        assert results[0][1] <= 0.25 * bound
        n = data.n
        entries = [("d", j, j) for j in range(n)] + [("B", j, l) for j in range(n) for l in range(j + 1, n)]
        if data.m >= 2:
            entries += [("A", j, l) for j in range(n) for l in range(j, n)]
        moved = _moved(data, entries[pick % len(entries)], ratio * bound)
        verdicts = {ok for ok, _ in verify_routes(moved, dec, slack)}
        assert verdicts == {ratio < 1.0}
