import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biquad
from biquad import cli, forms, linalg, meig, partsym
from biquad.cli import main
from biquad.partsym import XSymmetricData, random_psd_instance, reconstruct
from biquad.simple import gen_simple, to_form


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def plain_xsym(tmp_path):
    return write(tmp_path / "plain.json", {"m": 2, "d": [1, 1], "A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]})


@pytest.fixture
def indefinite_xsym(tmp_path):
    return write(tmp_path / "bad.json", {"m": 2, "d": [1, 1], "A": [[0, 2], [2, 0]], "B": [[0, 0], [0, 0]]})


@pytest.fixture
def coupled_xsym(tmp_path):
    return write(tmp_path / "coupled.json", {"m": 2, "d": [1, 1], "A": [[0, 1], [1, 0]], "B": [[0, 0], [0, 0]]})


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
        form = forms.transpose_xy(to_form(gen_simple(3, 2, 6)))
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
        assert data["payload"]["lower_bound"] is None
        assert data["payload"]["exact"] is False
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

    def test_byte_identical_json(self, capsys, p224_file):
        code1 = main(["sos-rank", p224_file, "--restarts", "4", "--seed", "3", "--json"])
        out1 = capsys.readouterr().out
        code2 = main(["sos-rank", p224_file, "--restarts", "4", "--seed", "3", "--json"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

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

    def test_not_psd_exit_2_with_witness(self, capsys, x1sq_y1y2_file):
        code, data = run_json(capsys, ["sos-rank", x1sq_y1y2_file, "--restarts", "2"])
        assert_not_psd_envelope(data, x1sq_y1y2_file)
        assert code == 2

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


class TestReduceRank:
    def test_p224(self, capsys, p224_file, tmp_path):
        out = tmp_path / "point.json"
        code, data = run_json(capsys, ["reduce-rank", p224_file, "--out", str(out)])
        assert code == 0
        assert data["payload"]["rank"] <= 3
        saved = json.loads(out.read_text())
        assert set(saved) == {"gamma", "rank"}

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

    def test_full_rank_start_is_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "p339.json"
        forms.save_form(to_form(gen_simple(3, 3, 9)), str(path))
        out = tmp_path / "point.json"
        runs = []
        for _ in range(2):
            assert main(["reduce-rank", str(path), "--out", str(out), "--json"]) == 0
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1]


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

    def test_data_file_with_transpose_keeps_dense_route(self, capsys, tmp_path):
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
            raise AssertionError("dense tensor built for a data file")

        monkeypatch.setattr(partsym, "reconstruct", densified)
        monkeypatch.setattr(forms.BiquadraticForm, "__post_init__", densified)
        path = write(tmp_path / "data.json", data_record(scaled_psd(22, 6, 4)))
        assert run_json(capsys, ["check-psd", path])[0] == 0
        code, out = run_json(capsys, ["decompose", path, str(tmp_path / "dec.json")])
        assert code == 0 and out["payload"]["factor_count"] > 0
        bad = write(tmp_path / "bad.json", data_record(KINDS["fail-q"]()))
        assert run_json(capsys, ["decompose", bad, str(tmp_path / "bad-dec.json")])[0] == 2


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


def _fresh_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(biquad.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestImportGraph:
    def test_cli_does_not_load_scipy_optimize(self):
        code = (
            "import sys, biquad.cli, biquad.gram\n"
            "assert 'orjson' in sys.modules, 'orjson not loaded'\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'\n"
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
        forms.save_form(forms.transpose_xy(reconstruct(data)), ysym)
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
    forms.save_form(forms.transpose_xy(dense), ysym)
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


# The weights include zero and negative ones; every float is made non-negative zero.
WEIGHT = st.sampled_from([0.0, -1.0, 1.0]) | st.floats(-2.0, 2.0, allow_subnormal=False).map(lambda v: v + 0.0)


@st.composite
def xsym_forms(draw):
    """Random (m, d, A, B) with m in [1, 6], n in [1, 5]: PSD by
    construction from Q = FF' and R = GG' (zero rows give zero weights), or
    with drawn weights and uniform A, B."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        f, g = rng.standard_normal((2, n, n))
        f[rng.random(n) < 0.3] = 0.0
        g[np.flatnonzero(~f.any(axis=1))] = 0.0
        q, r = f @ f.T, g @ g.T
        a, base = (r - q) / m, (r + (m - 1) * q) / m
        d = np.diag(base).copy()
        b = base - np.diag(d)
    else:
        d = np.array(draw(st.lists(WEIGHT, min_size=n, max_size=n)))
        a, b = rng.uniform(-1.0, 1.0, (2, n, n))
        a, b = a + a.T, b + b.T
        np.fill_diagonal(b, 0.0)
    return XSymmetricData(m, d, a if m >= 2 else np.zeros((n, n)), b)


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
