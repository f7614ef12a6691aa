import json
import math
import os
import stat
import sys
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquad import forms, meig, partsym
from biquad.errors import InvalidInput
from biquad.forms import (
    BiquadraticForm,
    FormCells,
    SOSDecomposition,
    cells_from_dict,
    dump_json,
    evaluate,
    evaluate_sos,
    form_from_dict,
    form_to_dict,
    decomposition_from_dict,
    load_form,
    load_json,
    read_terms_cells,
    residual_bound,
    save_form,
    symmetrize,
    verify_sos,
)
from biquad.gram import build_family
from biquad.simple import gen_simple, to_form


def random_form(rng, m, n):
    return symmetrize(rng.standard_normal((m, n, m, n)))


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


@st.composite
def forms_and_points(draw):
    """A sparse form with a point (x, y) of matching lengths."""
    p = draw(sparse_forms())
    coord = st.floats(-10.0, 10.0)
    x = np.array(draw(st.lists(coord, min_size=p.m, max_size=p.m)))
    y = np.array(draw(st.lists(coord, min_size=p.n, max_size=p.n)))
    return p, x, y


def _rounding_bound(p, x, y):
    """Room for the rounding of two evaluations of P at (x, y) in different
    summation orders: each of the (mn)^2 products is at most
    max|c| |x_i y_j| |x_k y_l|, and those sum to at most mn |x|^2 |y|^2."""
    mn = p.m * p.n
    return 1e-12 * mn * float(np.abs(p.coeffs).max()) * float(x @ x) * float(y @ y)


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

    def test_finite_up_to_the_float_maximum(self):
        # Four entries near the maximum are summed after a prescale by 1/4.
        raw = np.random.default_rng(3).standard_normal((2, 3, 2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = symmetrize(np.full((2, 2, 2, 2), sys.float_info.max))
            big = symmetrize(1e308 / np.abs(raw).max() * raw)
        assert (top.coeffs == sys.float_info.max).all()
        assert np.isfinite(big.coeffs).all()
        np.testing.assert_allclose(big.coeffs, 1e308 / np.abs(raw).max() * symmetrize(raw).coeffs, rtol=1e-15)

    def test_symmetric_tensor_with_subnormals_keeps_its_bits(self):
        # Below 2^1022 no prescale runs, so a 5e-324 entry is not flushed.
        p = symmetrize(np.random.default_rng(4).standard_normal((2, 2, 2, 2)))
        coeffs = np.where(np.abs(p.coeffs) > 1.0, 1e300 * p.coeffs, 5e-324 * np.sign(p.coeffs))
        assert symmetrize(coeffs).coeffs.tobytes() == coeffs.tobytes()


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

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(forms_and_points(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    def test_bihomogeneous(self, case, s, t):
        p, x, y = case
        bound = _rounding_bound(p, x, y) * (s * t) ** 2
        assert abs(evaluate(p, s * x, t * y) - (s * t) ** 2 * evaluate(p, x, y)) <= bound

    def test_dimension_mismatch(self):
        # evaluate, evaluate_sos, evaluate_xsym and meig's contractions share
        # one length check and one message.
        form = symmetrize(np.ones((2, 3, 2, 3)))
        data = partsym.XSymmetricData(2, np.ones(3), np.zeros((3, 3)), np.zeros((3, 3)))
        calls = [
            lambda x, y: evaluate(form, x, y),
            lambda x, y: evaluate_sos(SOSDecomposition(2, 3, ()), x, y),
            lambda x, y: partsym.evaluate_xsym(data, x, y),
            lambda x, y: meig.contract_x(form, x, y),
            lambda x, y: meig.contract_y(form, x, y),
        ]
        for call in calls:
            call(np.ones(2), np.ones(3))
            for x, y in ((np.ones(3), np.ones(3)), (np.ones(2), np.ones((3, 1)))):
                with pytest.raises(InvalidInput, match=r"^expected vectors of lengths 2 and 3$"):
                    call(x, y)


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

    def test_residual_is_the_largest_coefficient_difference(self):
        # One orbit of P = (x1 y1 + x2 y2)^2 moved by delta: the residual is
        # delta whatever the sample count and seed, which are ignored.
        p = to_form(gen_simple(2, 2, 4))
        dec = SOSDecomposition(2, 2, (np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])))
        raw = p.coeffs.copy()
        for idx in ((0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0)):
            raw[idx] += 3e-8
        moved = BiquadraticForm(2, 2, raw)
        ok, resid = verify_sos(moved, dec)
        assert not ok and resid == pytest.approx(3e-8, rel=1e-6)
        assert verify_sos(moved, dec, samples=5, seed=9) == (ok, resid)
        assert verify_sos(moved, dec, slack=3e-8)[0]
        assert residual_bound(moved, 3e-8) == 1e-8 * float(np.abs(raw).max()) + 3e-8

    def test_overflowing_factors_fail_with_an_infinite_residual(self):
        p = symmetrize(np.full((1, 2, 1, 2), 1.0))
        assert verify_sos(p, SOSDecomposition(1, 2, (np.array([[1e200, 1.0]]),))) == (False, math.inf)

    def test_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_sos drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        p = to_form(gen_simple(2, 2, 4))
        assert verify_sos(p, SOSDecomposition(2, 2, (np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))))[0]


def _swapped(form):
    """The n x m form P'(y, x) = P(x, y), as ``--transpose`` builds it."""
    return FormCells.of(form).transpose().to_form()


class TestTransposeXY:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(forms_and_points())
    def test_involution(self, case):
        p, x, y = case
        twice = _swapped(_swapped(p))
        assert (twice.m, twice.n) == (p.m, p.n)
        assert twice.coeffs.tobytes() == p.coeffs.tobytes()
        assert abs(evaluate(_swapped(p), y, x) - evaluate(p, x, y)) <= _rounding_bound(p, x, y)

    def test_single_monomial_swap(self):
        raw = np.zeros((1, 2, 1, 2))
        raw[0, 1, 0, 1] = 1.0  # x1^2 y2^2
        q = _swapped(symmetrize(raw))
        assert (q.m, q.n) == (2, 1)
        assert q.coeffs[1, 0, 1, 0] == 1.0  # x2^2 y1^2

    def test_role_symmetric_fixed_point(self):
        p = to_form(gen_simple(3, 3, 9))  # sum of all squares treats x and y alike
        np.testing.assert_array_equal(_swapped(p).coeffs, p.coeffs)

    def test_evaluation_agreement(self):
        p = to_form(gen_simple(3, 2, 3))
        q = _swapped(p)
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
        assert verify_sos(_swapped(p), flipped)[0]


class TestDecompositionRecords:
    @pytest.mark.parametrize("record", [
        {"m": 2, "n": 2, "factors": 5},
        {"m": 2, "n": 2, "factors": [["a", 1, 2, 3]]},
        {"m": 2, "n": 2, "factors": [[1, 2, 3]]},
        {"m": 2, "n": 2, "factors": [[1, 2, 3, math.nan]]},
        {"m": 0, "n": 2, "factors": []},
        {"format": 2, "m": 0, "n": 2, "groups": [{"x": "helmert", "y": [[1, 2]]}]},
        {"format": 2, "m": 2, "n": -1, "groups": []},
        {"format": 2, "m": 2, "n": 2, "groups": [{"x": "ones", "y": [[1, math.inf]]}]},
        {"format": 2, "m": 2, "n": 2, "groups": [{"x": [[1, math.nan]], "y": [[1, 2]]}]},
        {"format": 2, "m": 2, "n": 2, "groups": 5},
        {"format": 2, "m": 2, "n": 2, "groups": [["ones", [[1, 2]]]]},
        [1, 2],
    ])
    def test_malformed_records_are_invalid_input(self, record):
        with pytest.raises(InvalidInput, match="malformed decomposition record"):
            decomposition_from_dict(record)


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
        terms = form_to_dict(p)["terms"]
        keys = [(t["i"], t["k"], t["j"], t["l"]) for t in terms]
        assert keys == sorted(keys)
        assert all(t["i"] <= t["k"] and t["j"] <= t["l"] for t in terms)

    def test_non_canonical_index_order_accepted(self):
        a = form_from_dict(_record(2, 2, (2, 2, 1, 1, 4.0)))
        b = form_from_dict(_record(2, 2, (1, 1, 2, 2, 4.0)))
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_duplicate_terms_accumulate(self):
        one = form_from_dict(_record(1, 1, (1, 1, 1, 1, 1.0), (1, 1, 1, 1, 2.0)))
        assert one.coeffs[0, 0, 0, 0] == 3.0

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInput, match="out of range"):
            form_from_dict(_record(2, 2, (3, 1, 1, 1, 1.0)))

    def test_non_finite_coefficient_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidInput, match="not finite"):
                form_from_dict(_record(2, 2, (1, 1, 1, 1, 1.0), (1, 2, 2, 1, bad)))
            with pytest.raises(InvalidInput, match="not finite"):
                form_from_dict({"m": 1, "n": 1, "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "c": bad}]})

    @pytest.mark.parametrize("bad", [1.5, float("inf")])
    @pytest.mark.parametrize("field", ["m", "n", "i", "j", "k", "l"])
    def test_non_integral_field_rejected(self, field, bad):
        record = {"m": 2, "n": 2, "terms": [{"i": 1, "j": 2, "k": 2, "l": 1, "c": 1.0}]}
        (record if field in ("m", "n") else record["terms"][0])[field] = bad
        with pytest.raises(InvalidInput, match="integer"):
            form_from_dict(record)

    def test_record_matches_term_by_term_loop(self):
        # Many random terms per cell: duplicates, every index order, mixed
        # magnitudes, so any change in summation order would show.
        rng = np.random.default_rng(10)
        for m, n, count in ((1, 1, 20), (2, 3, 200), (3, 4, 600), (4, 2, 300)):
            terms = [
                (
                    int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1)),
                    int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1)),
                    float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8)),
                )
                for _ in range(count)
            ]
            np.testing.assert_array_equal(form_from_dict(_record(m, n, *terms)).coeffs, _add_terms_loop(m, n, terms))

    def test_overflowing_monomial_is_not_written(self, tmp_path):
        # Every off-diagonal orbit cell at M / 2: its monomial, 4 x M / 2, overflows.
        p = FormCells(2, 2, np.full((3, 3), 0.5 * sys.float_info.max)).to_form()
        path = tmp_path / "form.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="overflows the float range"):
                save_form(p, str(path))
        assert not path.exists()

    def test_dict_round_trip(self):
        p = to_form(gen_simple(3, 3, 6))
        q = form_from_dict(form_to_dict(p))
        np.testing.assert_array_equal(q.coeffs, p.coeffs)


def _record(m, n, *terms):
    """A form record of 1-based (i, j, k, l, c) terms."""
    return {"m": m, "n": n, "terms": [dict(zip("ijklc", term)) for term in terms]}


def _add_terms_loop(m, n, terms):
    """Reference for form_from_dict: add each 1-based (i, j, k, l, c) term to
    its orbit one at a time."""
    a = np.zeros((m, n, m, n))
    for *index, c in terms:
        i, j, k, l = (v - 1 for v in index)
        i, k = min(i, k), max(i, k)
        j, l = min(j, l), max(j, l)
        orbit = (2 if i < k else 1) * (2 if j < l else 1)
        for pos in {(i, j, k, l), (i, l, k, j), (k, j, i, l), (k, l, i, j)}:
            a[pos] += c / orbit
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
        terms.append((*(int(v) for v in index), c))
    if not all(1 <= i <= m and 1 <= k <= m and 1 <= j <= n and 1 <= l <= n for i, j, k, l, _ in terms):
        raise InvalidInput("index out of range")
    if not all(math.isfinite(c) for *_, c in terms):
        raise InvalidInput("coefficient not finite")
    return _add_terms_loop(m, n, terms)


def _written_terms_loop(form):
    """Reference for form_to_dict's terms: every canonical monomial with a
    nonzero coefficient, in (i, k, j, l) order."""
    terms = []
    for i in range(form.m):
        for k in range(i, form.m):
            for j in range(form.n):
                for l in range(j, form.n):
                    c = (2 if i < k else 1) * (2 if j < l else 1) * form.coeffs[i, j, k, l]
                    if c != 0.0:
                        terms.append({"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "c": float(c)})
    return terms


class TestTermsProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(sparse_forms())
    def test_dict_round_trip_bit_equal(self, p):
        assert form_to_dict(p)["terms"] == _written_terms_loop(p)
        q = form_from_dict(form_to_dict(p))
        # Zero coefficients are omitted, so a -0.0 entry comes back as 0.0.
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


def _ints_within_64_bits(obj) -> bool:
    """True when every int in obj lies in [-2**63, 2**64), the range orjson
    reads as an int rather than as the nearest float."""
    if isinstance(obj, dict):
        return all(map(_ints_within_64_bits, obj.values()))
    if isinstance(obj, list):
        return all(map(_ints_within_64_bits, obj))
    return not isinstance(obj, int) or -(2**63) <= obj < 2**64


class TestLoadJson:
    """Reading a file gives what ``json.loads`` of its text gives."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(record=term_records())
    def test_file_matches_json_loads(self, tmp_path_factory, record):
        text = json.dumps(record)  # writes NaN and Infinity, keeps 2**70 an int
        path = tmp_path_factory.getbasetemp() / "decoder.json"
        path.write_text(text)
        try:
            expected = form_from_dict(json.loads(text))
        except InvalidInput as exc:
            with pytest.raises(InvalidInput) as caught:
                load_form(str(path))
            if _ints_within_64_bits(record):
                assert str(caught.value) == str(exc)
            return
        assert load_form(str(path)).coeffs.tobytes() == expected.coeffs.tobytes()

    def test_integer_beyond_64_bits(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"m": 1, "n": 2, "terms": [{"i": 1, "j": 1, "k": 1, "l": 2, "c": %d}]}' % 2**70)
        expected = form_from_dict(_record(1, 2, (1, 1, 1, 2, 2**70)))
        assert load_form(str(path)).coeffs.tobytes() == expected.coeffs.tobytes()


def _whole_file(text):
    """What decoding the whole text gives: (m, n, cell bytes), or the
    exception's type and message."""
    try:
        cells = cells_from_dict(json.loads(text))
    except (InvalidInput, json.JSONDecodeError) as exc:
        return type(exc), str(exc)
    return cells.m, cells.n, cells.values.tobytes()


def _streamed(path):
    """``_whole_file`` for the reader of form files: ``read_terms_cells``,
    else the whole-file decode it falls back on."""
    try:
        cells = read_terms_cells(str(path))
        if cells is None:
            cells = cells_from_dict(load_json(str(path)))
    except (InvalidInput, json.JSONDecodeError) as exc:
        return type(exc), str(exc)
    return cells.m, cells.n, cells.values.tobytes()


_TERM = {"i": 1, "j": 2, "k": 2, "l": 1, "c": 0.5}

# Records aimed at the flat decode of a piece of terms (``forms._flat_fields``):
# keys and values it must refuse to read as numbers, numbers outside a value
# position, and terms that break its one repeated template.  A piece it
# declines sends the whole file to the whole-file decode.
_FLAT_CASES = [
    # keys holding number characters, spaces or escapes
    ('{"m": 2, "n": 2, "terms": [%s, {"i1": 1, "j": 1, "k": 1, "l": 1, "c": 2}]}', False),
    ('{"m": 2, "n": 2, "terms": [%s, {"1i": 1, "j": 1, "k": 1, "l": 1, "c": 2}]}', False),
    ('{"m": 2, "n": 2, "terms": [%s, {"i ": 1, "j": 1, "k": 1, "l": 1, "c": 2}]}', False),
    ('{"m": 2, "n": 2, "terms": [%s, {"\\u0069": 1, "j": 1, "k": 1, "l": 1, "c": 2}]}', False),
    ('{"m": 2, "n": 2, "terms": [%s, {"ie": 1, "j": 1, "k": 1, "l": 1, "c": 2}]}', False),
    # a number outside its value position, the value left empty
    ('{"m": 2, "n": 2, "terms": [%s, {"i1": , "j": 1, "k": 1, "l": 1, "c": 2}]}', False),
    ('{"m": 2, "n": 2, "terms": [%s, {"i" 1: , "j": 1, "k": 1, "l": 1, "c": 2}]}', False),
    ('{"m": 2, "n": 2, "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "c": }2, %s]}', False),
    ('{"m": 2, "n": 2, "terms": [%s, {"i": 1, "j": 1, "k": 1, "l": 1, "c": }2]}', False),
    ('{"m": 2, "n": 2, "terms": [%s, 2{"i": 1, "j": 1, "k": 1, "l": 1, "c": }]}', False),
    # values that are not one JSON number (true, the index or coefficient 1, is read whole)
    *(('{"m": 2, "n": 2, "terms": [%s, {"i": 1, "j": 1, "k": 1, "l": 1, "c": ' + value + '}]}', False)
      for value in ["true", "null", '"1"', "[1]", "1 2", "01", "1.", ".5", "+1", "-"]),
    # a form feed before a term, 4 or 6 keys, a repeated key
    ('{"m": 2, "n": 2, "terms": [%s, \f%s]}', False),
    ('{"m": 2, "n": 2, "terms": [%s, {"i": 1, "j": 1, "k": 1, "l": 1}]}', False),
    ('{"m": 2, "n": 2, "terms": [%s, {"i": 1, "j": 1, "k": 1, "l": 1, "c": 2, "x": 3}]}', False),
    ('{"m": 2, "n": 2, "terms": [%s, {"i": 1, "j": 1, "k": 1, "l": 1, "c": 2, "c": 3}]}', False),
]

# A key order that changes between terms: a piece of one term streams, a
# piece of all three does not.
_KEY_ORDER_CHANGE = '{"m": 2, "n": 2, "terms": [%s, {"j": 1, "i": 1, "k": 1, "l": 1, "c": 2}, %s]}'


def _one_layout(terms):
    """True for a non-empty list of terms with one key order and no bool
    value, the records the flat decode reads."""
    return len({tuple(t) for t in terms}) == 1 and not any(isinstance(v, bool) for t in terms for v in t.values())


def _whole_file_columns(path):
    """m, n and the five field lists of the terms that orjson decodes from
    the whole file, or None when it cannot or a term lacks a field."""
    try:
        record = orjson.loads(path.read_bytes())
        return record["m"], record["n"], [list(map(get, record["terms"])) for get in forms._TERM_GETTERS]
    except (orjson.JSONDecodeError, KeyError, TypeError):
        return None


class TestStreamedTerms:
    """``read_terms_cells`` gives the cells, or the error, of the whole file."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(record=term_records(), compact=st.booleans(), chunk=st.sampled_from([1, 100, 300]))
    def test_matches_whole_file(self, tmp_path_factory, record, compact, chunk):
        path = tmp_path_factory.getbasetemp() / "streamed.json"
        if compact:
            dump_json(record, str(path))  # save_form's writer
        else:
            path.write_text(json.dumps(record))
        expected = _whole_file(path.read_text())
        valid = isinstance(expected[0], int)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forms, "TERMS_CHUNK_BYTES", chunk)
            got = _streamed(path)
            # A valid record in one flat layout never needs the fallback.
            written = json.loads(path.read_text())["terms"] if valid else []
            assert not _one_layout(written) or read_terms_cells(str(path)) is not None
        if valid or _ints_within_64_bits(record):
            assert got == expected
        else:
            assert got[0] is InvalidInput

    @pytest.mark.parametrize("text, streams", [
        # "}," inside strings: an extra field of a term, and a coefficient
        ('{"m": 2, "n": 2, "terms": [%s, {"i": 1, "j": 1, "k": 1, "l": 1, "c": 2, "note": "}, {"}, %s]}', False),
        ('{"m": 2, "n": 2, "terms": [%s, {"i": 1, "j": 1, "k": 1, "l": 1, "c": "1}, 2"}, %s]}', False),
        # duplicate terms keys: the last one counts
        ('{"m": 2, "n": 2, "terms": [%s], "terms": [%s, %s]}', False),
        ('{"m": 2, "n": 2, "terms": [%s, %s], "terms": 0}', False),
        ('{"m": 2, "n": 2, "terms": [%s, %s], "terms": 1}', False),
        ('{"terms": "x", "m": 2, "n": 2, "terms": [%s, %s]}', True),
        # terms not last, an extra key, a key order with arrays after terms
        ('{"terms": [%s, %s], "m": 2, "n": 2}', True),
        ('{"m": 2, "n": 2, "terms": [%s, %s], "note": "x"}', False),
        ('{"m": 2, "terms": [%s, %s], "n": 2, "extra": [1]}', False),
        # whitespace around every separator
        ('{"m": 2,\n"n": 2,\t"terms":\r\n[\n\t%s\n\t,\r\n%s\t ]\n}\n', True),
        # a trailing or leading comma, a stray bracket
        ('{"m": 2, "n": 2, "terms": [%s, %s, ]}', False),
        ('{"m": 2, "n": 2, "terms": [%s, %s,]}', False),
        ('{"m": 2, "n": 2, "terms": [, %s, %s]}', False),
        ('{"m": 2, "n": 2, "terms": [%s], %s]}', False),
        # empty lists, read whole
        ('{"m": 2, "n": 2, "terms": []}', False),
        ('{"m": 2, "n": 2, "terms": [ \n ]}', False),
        # terms not a list
        ('{"m": 2, "n": 2, "terms": 5}', False),
        ('{"m": 2, "n": 2, "terms": {"a": [%s, %s]}}', False),
        ('{"m": 2, "n": 2, "terms": "[%s, %s]"}', False),
        # bad dimensions and a record that is not an object
        ('{"m": 0, "n": 2, "terms": [%s, %s]}', False),
        ('{"m": 2, "n": -1, "terms": []}', False),
        ('{"m": 2.5, "n": 2, "terms": [%s, %s]}', False),
        ('[{"m": 2, "n": 2, "terms": [%s, %s]}]', False),
        # a byte order mark
        ('\ufeff{"m": 2, "n": 2, "terms": [%s, %s]}', False),
        *_FLAT_CASES,
        (_KEY_ORDER_CHANGE, True),
    ])
    def test_adversarial_records(self, tmp_path, monkeypatch, text, streams):
        monkeypatch.setattr(forms, "TERMS_CHUNK_BYTES", 1)
        term = json.dumps(_TERM)
        text = text % ((term,) * text.count("%s"))
        path = tmp_path / "adversarial.json"
        path.write_text(text, encoding="utf-8")
        assert _streamed(path) == _whole_file(text)
        assert (read_terms_cells(str(path)) is not None) == streams

    @pytest.mark.parametrize("text, streams", [*_FLAT_CASES, (_KEY_ORDER_CHANGE, False)])
    def test_adversarial_records_in_one_piece(self, tmp_path, text, streams):
        # At the default piece size every term of the record shares one piece.
        term = json.dumps(_TERM)
        text = text % ((term,) * text.count("%s"))
        path = tmp_path / "adversarial.json"
        path.write_text(text, encoding="utf-8")
        assert _streamed(path) == _whole_file(text)
        assert (read_terms_cells(str(path)) is not None) == streams

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        record=term_records(),
        layout=st.sampled_from(["dumps", "dump_json", "indent"]),
        order=st.permutations("ijklc"),
        special=st.lists(st.sampled_from([-0.0, 1e-300, -1e-300, 2**63, 2**64 - 1, 2**70]), max_size=3),
        apart=st.booleans(),
        chunk=st.sampled_from([1, 100, forms.TERMS_CHUNK_BYTES]),
    )
    def test_flat_columns_match_dict_columns(self, tmp_path_factory, record, layout, order, special, apart, chunk):
        # Each file's terms share one random key order; the pieces' arrays,
        # joined by numpy's dtype promotion, must give the checked columns of
        # the whole file's field lists, the same dtypes and bits, and the flat
        # decode may decline only an empty array, a record the whole-file
        # decode cannot read into columns, or a value that is not a number.
        terms = list(record["terms"])
        for at, value in enumerate(special[: len(terms)]):
            if isinstance(terms[at], dict) and "c" in terms[at]:
                terms[at] = dict(terms[at], c=value)
        if apart:
            # Values whose dtypes differ from their neighbours', each in a piece
            # of its own at chunk 1 and 100, between pieces of integer
            # coefficients, with an in-range index above 255 among them.
            negative, ints = ([{"i": 1, "j": 1, "k": 1, "l": 1, "c": c} for c in cs] for cs in (range(-8, 0), range(8)))
            odd = [{"i": 1, "j": 1, "k": 1, "l": 1, "c": c} for c in (2**63, 2**64 - 1, -0.0, 1e-300)]
            odd.append({"i": 1, "j": 300, "k": 1, "l": 1, "c": 1})
            terms = negative + [t for at in odd for t in (at, *ints)] + terms
            record = dict(record, n=300)
        terms = [{f: t[f] for f in order if f in t} if isinstance(t, dict) else t for t in terms]
        record = dict(record, terms=terms)
        path = tmp_path_factory.getbasetemp() / "flat.json"
        if layout == "dump_json":
            dump_json(record, str(path))
        else:
            path.write_text(json.dumps(record, indent=2 if layout == "indent" else None))

        def checked(m, n, columns):
            arrays = forms._checked_columns(m, n, columns)
            return arrays and [(col.dtype, col.tobytes()) for col in arrays]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forms, "TERMS_CHUNK_BYTES", chunk)
            flat = forms._streamed_fields(str(path))
        whole = _whole_file_columns(path)
        if flat is not None:
            m, n, columns = whole
            assert flat[:2] == (m, n)
            assert checked(m, n, flat[2]) == checked(m, n, [forms._column_array(col) for col in columns])
        else:
            assert not terms or whole is None or not all(type(v) in (int, float) for col in whole[2] for v in col)

    @pytest.mark.parametrize("layout", ["save_form", "dumps", "indent"])
    def test_canonical_files_take_the_flat_path(self, tmp_path, monkeypatch, layout):
        p = random_form(np.random.default_rng(12), 16, 8)
        path = tmp_path / "form.json"
        if layout == "save_form":
            save_form(p, str(path))
        else:
            path.write_text(json.dumps(form_to_dict(p), indent=2 if layout == "indent" else None))
        assert path.stat().st_size > 3 * forms.TERMS_CHUNK_BYTES
        fallback = []
        monkeypatch.setattr(forms, "load_json", lambda *args: fallback.append(args))
        assert read_terms_cells(str(path)) is not None
        assert load_form(str(path)) == p
        assert fallback == []

    @pytest.mark.parametrize("bad", ["NaN", "-Infinity", "1e400", str(2**70), '"1"', "[1]", "null"])
    def test_bad_value_in_a_later_chunk(self, tmp_path, monkeypatch, bad):
        monkeypatch.setattr(forms, "TERMS_CHUNK_BYTES", 200)
        terms = [json.dumps(dict(_TERM, c=float(c))) for c in range(40)]
        terms[-3] = terms[-3].replace('"c": 37.0', f'"c": {bad}')
        text = '{"m": 2, "n": 2, "terms": [%s]}' % ", ".join(terms)
        path = tmp_path / "late.json"
        path.write_text(text)
        expected = _whole_file(text)
        got = _streamed(path)
        if bad == str(2**70):
            # orjson reads it as the nearest float, as a whole-file decode does
            assert got == _whole_file(text.replace(bad, repr(float(2**70))))
            assert read_terms_cells(str(path)) is not None
        else:
            assert got == expected and expected[0] is InvalidInput
            assert read_terms_cells(str(path)) is None

    def test_multi_chunk_file_is_never_decoded_whole(self, tmp_path, monkeypatch):
        p = random_form(np.random.default_rng(11), 16, 8)
        path = tmp_path / "form.json"
        save_form(p, str(path))
        size = path.stat().st_size
        assert size > 3 * forms.TERMS_CHUNK_BYTES
        decoded = []
        loads = forms.orjson.loads

        def spy(data):
            decoded.append(len(data))
            return loads(data)

        monkeypatch.setattr(forms.orjson, "loads", spy)
        cells = read_terms_cells(str(path))
        assert cells is not None and len(decoded) > 3
        assert max(decoded) < 2 * forms.TERMS_CHUNK_BYTES < size
        assert cells.to_form() == load_form(str(path)) == form_from_dict(json.loads(path.read_text()))

    def test_alternating_key_order_is_read_whole(self, tmp_path):
        p = random_form(np.random.default_rng(13), 16, 8)
        saved, mixed = tmp_path / "saved.json", tmp_path / "mixed.json"
        save_form(p, str(saved))
        terms = [t if at % 2 else dict(reversed(t.items())) for at, t in enumerate(form_to_dict(p)["terms"])]
        mixed.write_text(json.dumps({"m": p.m, "n": p.n, "terms": terms}))
        assert mixed.stat().st_size > 3 * forms.TERMS_CHUNK_BYTES
        assert read_terms_cells(str(mixed)) is None
        assert _streamed(mixed) == _streamed(saved) == (p.m, p.n, read_terms_cells(str(saved)).values.tobytes())

    def test_data_file_is_declined(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"m": 2, "d": [1.0], "A": [[0.0]], "B": [[0.0]]}))
        assert read_terms_cells(str(path)) is None


def _old_swap_order(m, n):
    """Reference order of the Gram directions: a quadruple loop over i < k,
    j < l, each direction as its positions (ij, kl, il, kj)."""
    quads = [(i, k, j, l) for i in range(m) for k in range(i + 1, m) for j in range(n) for l in range(j + 1, n)]
    return np.array([[i * n + j, k * n + l, i * n + l, k * n + j] for i, k, j, l in quads], dtype=int).reshape(-1, 4).T


def _paired_cells(dec):
    """Reference for a dense decomposition's cells: symmetrize's four-term
    pairing written out on the cells of G = sum_p vec W_p vec W_p'."""
    m, n = dec.m, dec.n
    flat = np.reshape(dec.factors, (len(dec), m * n))
    a = (flat.T @ flat).reshape(m, n, m, n)
    (i, j, k, l), _ = FormCells.layout(m, n)
    return ((a[i, j, k, l] + a[k, j, i, l]) + (a[i, l, k, j] + a[k, l, i, j])) * 0.25


class TestCellLayout:
    """Every reader of the cell layout agrees with it, bit for bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(m=st.integers(1, 5), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), zeros=st.booleans())
    def test_round_trips(self, m, n, seed, zeros):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((m * (m + 1) // 2, n * (n + 1) // 2))
        if zeros:
            values[rng.random(values.shape) < 0.5] = 0.0
        cells = FormCells(m, n, values)
        form = cells.to_form()
        assert np.array_equal(FormCells.of(form).values, values)
        i, j, k, l, c = forms._term_columns(form)
        assert np.array_equal(forms._accumulate_cells(m, n, i - 1, j - 1, k - 1, l - 1, c), values)
        assert np.array_equal(build_family(form).swaps, _old_swap_order(m, n))
        # Dense factor stacks, empty, random, with exact zeros and all zero:
        # their cells and verify_sos's residual are those of the pairing.
        for count, zero_share in ((0, 0.0), (3, 0.0), (4, 0.5), (2, 1.0)):
            flat = rng.standard_normal((count, m * n))
            flat[rng.random(flat.shape) < zero_share] = 0.0
            dec = SOSDecomposition(m, n, tuple(flat.reshape(count, m, n)))
            expected = _paired_cells(dec)
            assert np.array_equal(forms._sos_cells(dec), expected)
            assert np.array_equal(FormCells.of(symmetrize((flat.T @ flat).reshape(m, n, m, n))).values, expected)
            resid = float(np.abs(expected - FormCells.of(form).values).max())
            assert verify_sos(form, dec)[1].hex() == resid.hex()

    def test_layout_is_shared_and_read_only(self):
        first = FormCells.layout(3, 2)
        assert FormCells.layout(3, 2) is first
        for array in (*first[0], *first[1]):
            with pytest.raises(ValueError):
                array[...] = 0


class TestSizeChecks:
    def test_cells_beyond_an_index_are_invalid_input(self):
        with pytest.raises(InvalidInput, match=r"m = 100000, n = 100000 give 25000500002500000000 canonical cells"):
            form_from_dict({"m": 100000, "n": 100000, "terms": []})

    def test_dense_tensor_beyond_an_index_is_invalid_input(self):
        # Checked before the (unused) cell values are read.
        with pytest.raises(InvalidInput, match=r"m = 60000, n = 60000 give 12960000000000000000 dense"):
            FormCells(60000, 60000, np.empty((0, 0))).to_form()


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

    def test_stored_tensor_is_exactly_partially_symmetric(self):
        coeffs = symmetrize(np.random.default_rng(5).standard_normal((3, 2, 3, 2))).coeffs.copy()
        coeffs[0, 1, 2, 0] += 1e-13 * np.abs(coeffs).max()
        stored = BiquadraticForm(3, 2, coeffs).coeffs
        assert not np.array_equal(stored, coeffs)
        assert stored.tobytes() == stored.transpose(2, 1, 0, 3).tobytes()
        assert stored.tobytes() == stored.transpose(2, 3, 0, 1).tobytes()

    def test_coeffs_read_only(self):
        p = to_form(gen_simple(2, 2, 2))
        with pytest.raises(ValueError):
            p.coeffs[0, 0, 0, 0] = 2.0
