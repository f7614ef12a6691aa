import json
import os
import subprocess
import sys

import numpy as np
import pytest

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


def assert_not_psd_envelope(data, path):
    """check-psd's NotPSD envelope, with a witness negative on the form."""
    assert data["status"] == "not-psd"
    payload = data["payload"]
    assert payload["verdict"] == "NotPSD"
    assert {"m", "n", "active", "d", "q_eigenvalues", "r_eigenvalues", "reason"} <= set(payload)
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

        def counting(s, tol=linalg.DEFAULT_TOL):
            shapes.append(np.shape(s))
            return sym_eig(s, tol)

        monkeypatch.setattr(linalg, "sym_eig", counting)
        data = random_psd_instance(5, 4, np.random.default_rng(8))
        path = write(tmp_path / "data.json", data_record(data))
        code, envelope = run_json(capsys, ["decompose", path, str(tmp_path / "dec.json")])
        assert code == 0 and envelope["payload"]["factor_count"] == 4 + 4 * 4
        assert shapes == [(4, 4), (4, 4)]

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
        # Both commands run the same load, x-symmetry and reduction steps, so
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


class TestImportGraph:
    def test_cli_does_not_load_scipy_optimize(self):
        src = os.path.dirname(os.path.dirname(biquad.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, biquad.cli, biquad.gram\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'\n"
            "import scipy.optimize\n"
            "assert biquad.gram.minimize is scipy.optimize.minimize\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
