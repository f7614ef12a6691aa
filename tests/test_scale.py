"""Scale invariance: P and s * P get the same answers for s in [1e-12, 1e12].

Every cutoff in the package is relative to the object it judges, so exit
codes, verdicts, ranks, pair counts and factor counts must not move when
all coefficients are multiplied by one positive number.
"""

import contextlib
import functools
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquad import forms
from biquad.cli import main
from biquad.partsym import XSymmetricData, qr_pair, random_psd_instance, reconstruct
from biquad.simple import gen_simple, to_form

scales = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)
PSD_KINDS = ("psd", "q-zero", "r-zero")
KINDS = PSD_KINDS + ("fail-q", "fail-r", "zero-violation")


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv + ["--json"])
    return code, json.loads(out.getvalue())["payload"]


def planted(m, n, r, seed):
    w = np.random.default_rng(seed).standard_normal((r, m, n))
    return forms.symmetrize(np.einsum("pij,pkl->ijkl", w, w)).coeffs


def simple(m, n, s):
    return to_form(gen_simple(m, n, s)).coeffs


# General forms: SOS by construction, small enough for a fast Gram search.
GENERAL = {
    "planted-2x2-r2": lambda: planted(2, 2, 2, 2026),
    "planted-3x2-r3": lambda: planted(3, 2, 3, 2026),
    "planted-2x3-r4": lambda: planted(2, 3, 4, 5),
    "simple-2x2-4": lambda: simple(2, 2, 4),
    "simple-3x3-9": lambda: simple(3, 3, 9),
}


def write_form(directory, name, coeffs):
    path = directory / f"{name}.json"
    m, n = coeffs.shape[:2]
    forms.save_form(forms.BiquadraticForm(m, n, coeffs), str(path))
    return str(path)


def general_answers(path):
    """(exit, upper_bound) of sos-rank, (exit, rank) of reduce-rank and the
    pair count of meig."""
    code, payload = run(["sos-rank", path, "--restarts", "5"])
    sos = (code, payload.get("upper_bound"))
    code, payload = run(["reduce-rank", path])
    reduce = (code, payload.get("rank"))
    code, payload = run(["meig", path, "--restarts", "5"])
    return sos, reduce, (code, payload.get("count"))


@functools.lru_cache(maxsize=None)
def unscaled_answers(name, directory):
    return general_answers(write_form(directory, f"{name}-unscaled", GENERAL[name]()))


def xsym_data(seed, m, n, kind):
    """Non-monic x-symmetric data of the given kind: PSD, PSD with Q = 0
    (P depends on x only through 1'x) or R = 0 (P vanishes at x = 1), Q
    indefinite, R indefinite, or a zero weight whose vanishing condition
    fails."""
    rng = np.random.default_rng(seed)
    if kind in ("q-zero", "r-zero"):
        # A unit-diagonal PSD C; Q = 0, R = mC or R = 0, Q = m/(m-1) C.
        f = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        c = f @ f.T
        c /= np.sqrt(np.outer(np.diag(c), np.diag(c)))
        base = XSymmetricData(m, np.ones(n), c if kind == "q-zero" else -c / (m - 1), c - np.diag(np.diag(c)))
    else:
        base = random_psd_instance(m, n, rng, rank_q=int(rng.integers(1, n + 1)))
    a = base.A.copy()
    pair = qr_pair(base)
    if kind == "fail-q":
        # Q - c uu' is indefinite, R + (m-1) c uu' stays PSD.
        w, u = np.linalg.eigh(pair.Q)
        a += (w[0] + 0.5) * np.outer(u[:, 0], u[:, 0])
    elif kind == "fail-r":
        w, u = np.linalg.eigh(pair.R)
        a -= (w[0] + 0.5) / (m - 1) * np.outer(u[:, 0], u[:, 0])
    root = np.sqrt(rng.uniform(0.5, 2.0, n))
    d = root**2
    a = a * np.outer(root, root)
    b = base.B * np.outer(root, root)
    if kind == "zero-violation":
        d, a, b = np.append(d, 0.0), np.pad(a, (0, 1)), np.pad(b, (0, 1))
        l = int(rng.integers(0, n))
        b[n, l] = b[l, n] = 0.5
    return XSymmetricData(m, d, 0.5 * (a + a.T), b)


def xsym_answers(directory, name, data):
    """check-psd's (exit, verdict) and decompose's (exit, factor_count);
    each NotPSD witness is re-evaluated on the form and must be negative."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps({"m": data.m, "d": data.d.tolist(), "A": data.A.tolist(), "B": data.B.tolist()}))
    dense = reconstruct(data)
    answers = []
    for argv in (["check-psd", str(path)], ["decompose", str(path), str(directory / f"{name}.dec.json")]):
        code, payload = run(argv)
        if code == 2:
            witness = payload["witness"]
            assert forms.evaluate(dense, np.array(witness["x"]), np.array(witness["y"])) < 0.0
        answers.append((code, payload.get("verdict"), payload.get("factor_count")))
    return answers


def scaled(data, s):
    return XSymmetricData(data.m, s * data.d, s * data.A, s * data.B)


class TestScaleInvariance:
    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(name=st.sampled_from(sorted(GENERAL)), s=scales)
    def test_general_forms(self, tmp_path_factory, name, s):
        directory = tmp_path_factory.getbasetemp()
        reference = unscaled_answers(name, directory)
        assert reference[0][0] == 0 and reference[1][0] == 0
        assert general_answers(write_form(directory, name, s * GENERAL[name]())) == reference

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        kind=st.sampled_from(KINDS),
        m=st.integers(2, 5),
        n=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        s=scales,
    )
    def test_xsym_forms(self, tmp_path_factory, kind, m, n, seed, s):
        directory = tmp_path_factory.getbasetemp()
        data = xsym_data(seed, m, n, kind)
        reference = xsym_answers(directory, "unscaled", data)
        assert [code for code, *_ in reference] == ([0, 0] if kind in PSD_KINDS else [2, 2])
        assert xsym_answers(directory, "scaled", scaled(data, s)) == reference


class TestSmallScales:
    """Inputs whose verdicts an absolute cutoff floor of 1 used to change."""

    @pytest.mark.parametrize("s", [1e-9, 1e-12])
    def test_planted_3x2_rank(self, tmp_path, s):
        coeffs = planted(3, 2, 3, 2026)
        reference = general_answers(write_form(tmp_path, "unit", coeffs))
        assert reference[0][0] == reference[1][0] == 0
        assert general_answers(write_form(tmp_path, "small", s * coeffs)) == reference

    def test_reduce_rank_simple_3x3_9(self, tmp_path):
        coeffs = simple(3, 3, 9)
        unit = run(["reduce-rank", write_form(tmp_path, "unit", coeffs)])
        small = run(["reduce-rank", write_form(tmp_path, "small", 1e-9 * coeffs)])
        assert unit[0] == small[0] == 0
        assert small[1]["rank"] == unit[1]["rank"]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("d", [2.0, 3.0])
    def test_single_square_through_reduction(self, tmp_path, d, sign):
        # d (x1 + x2)^2 y^2 (sign 1) or d (x1 - x2)^2 y^2 (sign -1): one of
        # the reduced Q, R is zero up to rounding, and is judged against the
        # other, not against its own rounding noise.
        data = XSymmetricData(2, np.array([d]), np.array([[sign * d]]), np.zeros((1, 1)))
        answers = xsym_answers(tmp_path, "single-square", data)
        assert answers == [(0, "PSD", None), (0, None, 1)]

    def test_zero_violation_at_1e_12_is_not_psd(self, tmp_path):
        # d_2 = 0 with B[0, 2] != 0: P(x, y) < 0 along y_0 y_2.
        d = 1e-12 * np.array([1.0, 1.0, 0.0])
        b = np.zeros((3, 3))
        b[0, 2] = b[2, 0] = 0.5e-12
        data = XSymmetricData(2, d, np.zeros((3, 3)), b)
        answers = xsym_answers(tmp_path, "zero-violation", data)
        assert [answer[:2] for answer in answers] == [(2, "NotPSD"), (2, "NotPSD")]
