import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquad.errors import InvalidInput
from biquad.forms import (
    BiquadraticForm,
    MonomialTerm,
    SOSDecomposition,
    dump_json,
    evaluate,
    evaluate_sos,
    form_from_dict,
    form_to_dict,
    from_terms,
    load_form,
    save_form,
    symmetrize,
    to_terms,
    transpose_xy,
    verify_sos,
)
from biquad.simple import gen_simple, to_form


def random_form(rng, m, n):
    return symmetrize(rng.standard_normal((m, n, m, n)))


class TestSymmetrize:
    def test_fixed_point_bit_identical(self):
        rng = np.random.default_rng(0)
        p = random_form(rng, 3, 2)
        again = symmetrize(p.coeffs)
        np.testing.assert_array_equal(again.coeffs, p.coeffs)

    def test_scalar_case(self):
        p = symmetrize(np.full((1, 1, 1, 1), 5.0))
        assert p.coeffs[0, 0, 0, 0] == 5.0

    def test_orbit_average(self):
        # x1^2 y1 y2 written with a single raw entry splits across the orbit
        raw = np.zeros((1, 2, 1, 2))
        raw[0, 0, 0, 1] = 1.0
        p = symmetrize(raw)
        assert p.coeffs[0, 0, 0, 1] == 0.5
        assert p.coeffs[0, 1, 0, 0] == 0.5
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(1)
            y = rng.standard_normal(2)
            direct = x[0] ** 2 * y[0] * y[1]
            assert evaluate(p, x, y) == pytest.approx(direct, abs=1e-12)

    def test_idempotent_and_evaluation_preserving(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((3, 3, 3, 3))
        p = symmetrize(raw)
        for _ in range(20):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            direct = float(np.einsum("ijkl,i,j,k,l->", raw, x, y, x, y))
            assert evaluate(p, x, y) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_bad_shape(self):
        with pytest.raises(InvalidInput):
            symmetrize(np.zeros((2, 2, 3, 2)))


class TestEvaluate:
    def test_zero_x(self):
        rng = np.random.default_rng(3)
        p = random_form(rng, 2, 3)
        assert evaluate(p, np.zeros(2), rng.standard_normal(3)) == 0.0

    def test_single_monomial(self):
        p = symmetrize(np.full((1, 1, 1, 1), 1.0))
        assert evaluate(p, [2.0], [3.0]) == pytest.approx(36.0)

    def test_simple_2_2_3(self):
        p = to_form(gen_simple(2, 2, 3))
        assert evaluate(p, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(3.0)

    def test_bihomogeneous(self):
        rng = np.random.default_rng(4)
        p = random_form(rng, 3, 2)
        x = rng.standard_normal(3)
        y = rng.standard_normal(2)
        assert evaluate(p, 2.0 * x, -3.0 * y) == pytest.approx(36.0 * evaluate(p, x, y), rel=1e-12)

    def test_dimension_mismatch(self):
        p = to_form(gen_simple(2, 2, 3))
        with pytest.raises(InvalidInput):
            evaluate(p, [1.0, 2.0, 3.0], [1.0, 1.0])


class TestEvaluateSos:
    def test_empty(self):
        dec = SOSDecomposition(2, 2, ())
        assert evaluate_sos(dec, [1.0, 2.0], [3.0, 4.0]) == 0.0

    def test_single_factor(self):
        w = np.zeros((2, 2))
        w[0, 0] = 1.0
        dec = SOSDecomposition(2, 2, (w,))
        assert evaluate_sos(dec, [1.0, 1.0], [2.0, 0.0]) == pytest.approx(4.0)

    def test_rotation_pair(self):
        w1 = np.eye(2)
        w2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        dec = SOSDecomposition(2, 2, (w1, w2))
        assert evaluate_sos(dec, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(5)
        dec = SOSDecomposition(3, 2, tuple(rng.standard_normal((3, 2)) for _ in range(4)))
        for _ in range(100):
            assert evaluate_sos(dec, rng.standard_normal(3), rng.standard_normal(2)) >= 0.0


class TestVerifySos:
    def test_exact_single_square(self):
        p = symmetrize(np.full((1, 1, 1, 1), 1.0))
        dec = SOSDecomposition(1, 1, (np.array([[1.0]]),))
        ok, resid = verify_sos(p, dec)
        assert ok and resid == 0.0

    def test_empty_fails(self):
        p = symmetrize(np.full((1, 1, 1, 1), 1.0))
        ok, _ = verify_sos(p, SOSDecomposition(1, 1, ()))
        assert not ok

    def test_product_identity(self):
        # (x1^2 + x2^2)(y1^2 + y2^2) = (x1y1 + x2y2)^2 + (x1y2 - x2y1)^2
        p = to_form(gen_simple(2, 2, 4))
        dec = SOSDecomposition(2, 2, (np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])))
        ok, resid = verify_sos(p, dec)
        assert ok and resid <= 1e-12

    def test_deterministic(self):
        p = to_form(gen_simple(2, 2, 4))
        dec = SOSDecomposition(2, 2, (np.eye(2),))
        assert verify_sos(p, dec, seed=7) == verify_sos(p, dec, seed=7)

    def test_bound_is_relative_to_coefficients(self):
        # An absolute floor would let the empty decomposition match a tiny
        # form, negated (not PSD) or not; the relative bound does not.
        for sign in (1.0, -1.0):
            p = symmetrize(np.full((1, 1, 1, 1), sign * 1e-9))
            ok, _ = verify_sos(p, SOSDecomposition(1, 1, ()))
            assert not ok
        tiny = symmetrize(np.full((1, 1, 1, 1), 1e-9))
        assert verify_sos(tiny, SOSDecomposition(1, 1, (np.array([[np.sqrt(1e-9)]]),)))[0]

    def test_zero_form_without_factors_passes(self):
        p = symmetrize(np.zeros((2, 2, 2, 2)))
        assert verify_sos(p, SOSDecomposition(2, 2, ())) == (True, 0.0)


class TestTransposeXY:
    def test_involution(self):
        rng = np.random.default_rng(6)
        p = random_form(rng, 3, 2)
        np.testing.assert_array_equal(transpose_xy(transpose_xy(p)).coeffs, p.coeffs)

    def test_single_monomial_swap(self):
        raw = np.zeros((1, 2, 1, 2))
        raw[0, 1, 0, 1] = 1.0  # x1^2 y2^2
        q = transpose_xy(symmetrize(raw))
        assert (q.m, q.n) == (2, 1)
        assert q.coeffs[1, 0, 1, 0] == 1.0  # x2^2 y1^2

    def test_role_symmetric_fixed_point(self):
        p = to_form(gen_simple(3, 3, 9))  # sum of all squares treats x and y alike
        np.testing.assert_array_equal(transpose_xy(p).coeffs, p.coeffs)

    def test_evaluation_agreement(self):
        p = to_form(gen_simple(3, 2, 3))
        q = transpose_xy(p)
        assert (q.m, q.n) == (2, 3)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(3)
            y = rng.standard_normal(2)
            assert evaluate(q, y, x) == pytest.approx(evaluate(p, x, y), rel=1e-12, abs=1e-12)

    def test_preserves_verification(self):
        p = to_form(gen_simple(2, 2, 4))
        dec = SOSDecomposition(2, 2, (np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])))
        flipped = SOSDecomposition(2, 2, tuple(w.T for w in dec.factors))
        assert verify_sos(p, dec)[0]
        assert verify_sos(transpose_xy(p), flipped)[0]


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        p = random_form(rng, 3, 4)
        path = tmp_path / "form.json"
        save_form(p, str(path))
        q = load_form(str(path))
        assert (q.m, q.n) == (p.m, p.n)
        np.testing.assert_array_equal(q.coeffs, p.coeffs)

    def test_terms_canonical_order(self):
        rng = np.random.default_rng(9)
        p = random_form(rng, 2, 2)
        terms = to_terms(p)
        keys = [(t.i, t.k, t.j, t.l) for t in terms]
        assert keys == sorted(keys)
        assert all(t.i <= t.k and t.j <= t.l for t in terms)

    def test_from_terms_accepts_non_canonical(self):
        a = from_terms(2, 2, [MonomialTerm(2, 2, 1, 1, 4.0)])
        b = from_terms(2, 2, [MonomialTerm(1, 1, 2, 2, 4.0)])
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_duplicate_terms_accumulate(self):
        one = from_terms(1, 1, [MonomialTerm(1, 1, 1, 1, 1.0), MonomialTerm(1, 1, 1, 1, 2.0)])
        assert one.coeffs[0, 0, 0, 0] == 3.0

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInput):
            from_terms(2, 2, [MonomialTerm(3, 1, 1, 1, 1.0)])

    def test_non_finite_coefficient_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidInput, match="not finite"):
                from_terms(2, 2, [MonomialTerm(1, 1, 1, 1, 1.0), MonomialTerm(1, 2, 2, 1, bad)])
            with pytest.raises(InvalidInput, match="not finite"):
                form_from_dict({"m": 1, "n": 1, "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "c": bad}]})

    @pytest.mark.parametrize("bad", [1.5, float("inf")])
    @pytest.mark.parametrize("field", ["m", "n", "i", "j", "k", "l"])
    def test_non_integral_field_rejected(self, field, bad):
        record = {"m": 2, "n": 2, "terms": [{"i": 1, "j": 2, "k": 2, "l": 1, "c": 1.0}]}
        (record if field in ("m", "n") else record["terms"][0])[field] = bad
        with pytest.raises(InvalidInput, match="integer"):
            form_from_dict(record)

    def test_from_terms_matches_term_by_term_loop(self):
        # Many random terms per cell: duplicates, every index order, mixed
        # magnitudes, so any change in summation order would show.
        rng = np.random.default_rng(10)
        for m, n, count in ((1, 1, 20), (2, 3, 200), (3, 4, 600), (4, 2, 300)):
            terms = [
                MonomialTerm(
                    int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1)),
                    int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1)),
                    float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8)),
                )
                for _ in range(count)
            ]
            expected = _from_terms_loop(m, n, terms)
            np.testing.assert_array_equal(from_terms(m, n, terms).coeffs, expected)
            record = {"m": m, "n": n, "terms": [{"i": t.i, "j": t.j, "k": t.k, "l": t.l, "c": t.c} for t in terms]}
            np.testing.assert_array_equal(form_from_dict(record).coeffs, expected)

    def test_dict_round_trip(self):
        p = to_form(gen_simple(3, 3, 6))
        q = form_from_dict(form_to_dict(p))
        np.testing.assert_array_equal(q.coeffs, p.coeffs)


def _from_terms_loop(m, n, terms):
    """Reference for from_terms: add each term to its orbit one at a time."""
    a = np.zeros((m, n, m, n))
    for t in terms:
        i, j, k, l = t.i - 1, t.j - 1, t.k - 1, t.l - 1
        i, k = min(i, k), max(i, k)
        j, l = min(j, l), max(j, l)
        orbit = (2 if i < k else 1) * (2 if j < l else 1)
        for pos in {(i, j, k, l), (i, l, k, j), (k, j, i, l), (k, l, i, j)}:
            a[pos] += t.c / orbit
    return a


def _parse_terms_loop(record):
    """Reference for form_from_dict: check each term on its own, then add the
    terms one at a time.  Indices must be ints (bools count) or finite
    integral floats, coefficients ints or floats; then every index must be
    in range and every coefficient finite."""
    m, n = record["m"], record["n"]
    terms = []
    for entry in record["terms"]:
        if not isinstance(entry, dict) or any(field not in entry for field in "ijklc"):
            raise InvalidInput(f"malformed term {entry!r}")
        index = [entry[field] for field in "ijkl"]
        if not all(isinstance(v, int) or (isinstance(v, float) and math.isfinite(v) and v.is_integer())
                   for v in index):
            raise InvalidInput(f"non-integral index in {entry!r}")
        if not isinstance(entry["c"], (int, float)):
            raise InvalidInput(f"coefficient is not a number in {entry!r}")
        try:
            c = float(entry["c"])
        except OverflowError as exc:
            raise InvalidInput(str(exc)) from exc
        terms.append(MonomialTerm(*(int(v) for v in index), c))
    if not all(1 <= t.i <= m and 1 <= t.k <= m and 1 <= t.j <= n and 1 <= t.l <= n for t in terms):
        raise InvalidInput("index out of range")
    if not all(math.isfinite(t.c) for t in terms):
        raise InvalidInput("coefficient not finite")
    return _from_terms_loop(m, n, terms)


def _to_terms_loop(form):
    """Reference for to_terms: every canonical monomial in (i, k, j, l) order."""
    terms = []
    for i in range(form.m):
        for k in range(i, form.m):
            for j in range(form.n):
                for l in range(j, form.n):
                    c = (2 if i < k else 1) * (2 if j < l else 1) * form.coeffs[i, j, k, l]
                    if c != 0.0:
                        terms.append(MonomialTerm(i + 1, j + 1, k + 1, l + 1, float(c)))
    return terms


# Values injected into a term field: each is malformed, out of range, non-finite
# or a valid spelling (True and 1.0 are the index 1, 2**70 a valid coefficient).
_INJECTED = ["1", None, True, 1.0, 1.5, math.inf, -math.inf, math.nan, 2**70, 0, 5]
_MISSING, _NOT_A_DICT = "missing key", "not a dict"


@st.composite
def term_records(draw):
    """Form records with duplicates, every index order, int and float
    coefficients of mixed magnitude, and up to three injected faults; in a
    quarter of them the indices run one past each end of their range."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pad = int(draw(st.integers(0, 3)) == 0)
    x_index, y_index = st.integers(1 - pad, m + pad), st.integers(1 - pad, n + pad)
    coeff = st.one_of(st.integers(-5, 5), st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e-6, 1e-6))
    term = st.fixed_dictionaries({"i": x_index, "j": y_index, "k": x_index, "l": y_index, "c": coeff})
    terms = draw(st.lists(term, max_size=30))
    for _ in range(draw(st.integers(0, 3)) if terms else 0):
        at = draw(st.integers(0, len(terms) - 1))
        fault = draw(st.sampled_from(_INJECTED + [_MISSING, _NOT_A_DICT]))
        if fault == _NOT_A_DICT:
            terms[at] = draw(st.sampled_from([None, "term", [1, 1, 1, 1, 1.0]]))
        elif isinstance(terms[at], dict):
            entry = dict(terms[at])
            field = draw(st.sampled_from("ijklcccc"))  # half the faults hit c
            if fault == _MISSING:
                entry.pop(field, None)
            else:
                entry[field] = fault
            terms[at] = entry
    return {"m": m, "n": n, "terms": terms}


@st.composite
def sparse_forms(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    value = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e-9, 1e-9))
    raw = draw(st.lists(value, min_size=(m * n) ** 2, max_size=(m * n) ** 2))
    return symmetrize(np.reshape(raw, (m, n, m, n)))


class TestTermsProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(sparse_forms())
    def test_dict_round_trip_bit_equal(self, p):
        assert to_terms(p) == _to_terms_loop(p)
        q = form_from_dict(form_to_dict(p))
        # to_terms omits zeros, so a -0.0 entry comes back as 0.0.
        assert q.coeffs.tobytes() == (p.coeffs + 0.0).tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(term_records())
    def test_parser_matches_reference(self, record):
        try:
            expected = _parse_terms_loop(record)
        except InvalidInput:
            with pytest.raises(InvalidInput):
                form_from_dict(record)
            return
        assert form_from_dict(record).coeffs.tobytes() == expected.tobytes()


class TestDumpJson:
    def test_honours_umask(self, tmp_path):
        previous = os.umask(0o022)
        try:
            dump_json({"a": 1}, str(tmp_path / "open.json"))
            os.umask(0o077)
            dump_json({"a": 1}, str(tmp_path / "private.json"))
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(tmp_path / "open.json").st_mode) == 0o644
        assert stat.S_IMODE(os.stat(tmp_path / "private.json").st_mode) == 0o600
        assert sorted(os.listdir(tmp_path)) == ["open.json", "private.json"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        dump_json({"a": 1}, str(path))
        dump_json({"a": 2}, str(path))
        assert path.read_text() == '{"a":2}\n'
        assert os.listdir(tmp_path) == ["out.json"]


class TestConstruction:
    def test_asymmetric_tensor_rejected(self):
        bad = np.zeros((2, 2, 2, 2))
        bad[0, 0, 1, 1] = 1.0  # missing its orbit partners
        with pytest.raises(InvalidInput):
            BiquadraticForm(2, 2, bad)

    @pytest.mark.parametrize("scale", [1e-13, 1e13])
    def test_asymmetry_judged_relative_to_scale(self, scale):
        bad = np.zeros((2, 2, 2, 2))
        bad[0, 0, 1, 1] = scale
        with pytest.raises(InvalidInput, match="partially symmetric"):
            BiquadraticForm(2, 2, bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        coeffs = np.zeros((2, 2, 2, 2))
        coeffs[0, 0, 0, 0] = value
        with pytest.raises(InvalidInput, match="finite"):
            BiquadraticForm(2, 2, coeffs)

    def test_coeffs_read_only(self):
        p = to_form(gen_simple(2, 2, 2))
        with pytest.raises(ValueError):
            p.coeffs[0, 0, 0, 0] = 2.0
