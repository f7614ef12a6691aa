import itertools
import json

import numpy as np
import pytest

from biquad.errors import InvalidInput
from biquad.forms import BiquadraticForm, evaluate_batch, form_to_dict
from biquad.gram import build_family, min_rank_search
from biquad.simple import (
    LowerBoundCertificate,
    SupportSet,
    exact_sos_rank_simple,
    find_rectangle,
    form_record,
    gen_simple,
    lower_bound_certificate,
    to_form,
)

# Term lists of the diagonal-walk series in the three small cases, spelled
# out pair by pair; s = k takes the first k entries.
FULL_LISTS = {
    (2, 2): [(1, 1), (2, 2), (1, 2), (2, 1)],
    (3, 2): [(1, 1), (2, 2), (3, 1), (1, 2), (2, 1), (3, 2)],
    (3, 3): [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)],
}


class TestGenSimple:
    @pytest.mark.parametrize("mn", sorted(FULL_LISTS))
    def test_printed_case_lists(self, mn):
        m, n = mn
        full = FULL_LISTS[mn]
        for s in range(1, len(full) + 1):
            assert list(gen_simple(m, n, s).pairs) == full[:s]

    def test_full_support_enumerates_every_pair_once(self):
        for m in range(1, 7):
            for n in range(1, m + 1):
                pairs = gen_simple(m, n, m * n).pairs
                assert sorted(pairs) == sorted((i, j) for i in range(1, m + 1) for j in range(1, n + 1))

    def test_distinctness_exhaustive(self):
        for m in range(1, 9):
            for n in range(1, m + 1):
                for s in range(1, m * n + 1):
                    pairs = gen_simple(m, n, s).pairs
                    assert len(set(pairs)) == s

    def test_invalid_arguments(self):
        with pytest.raises(InvalidInput):
            gen_simple(2, 3, 2)  # m < n
        with pytest.raises(InvalidInput):
            gen_simple(2, 2, 5)  # s > mn
        with pytest.raises(InvalidInput):
            gen_simple(2, 2, 0)


class TestToForm:
    def test_record_is_the_forms_record(self):
        # The record gen-simple writes, without the tensor: the same text
        # save_form writes for to_form(support).
        for support in small_supports():
            text = json.dumps(form_record(support), sort_keys=True)
            assert text == json.dumps(form_to_dict(to_form(support)), sort_keys=True)

    def test_empty_support_zero_form(self):
        form = to_form(SupportSet(2, 2, ()))
        assert not form.coeffs.any()

    def test_2_2_3_terms(self):
        form = to_form(gen_simple(2, 2, 3))
        terms = {(t["i"], t["k"], t["j"], t["l"]): t["c"] for t in form_to_dict(form)["terms"]}
        assert terms == {(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0, (1, 1, 2, 2): 1.0}

    def test_matches_the_scattered_tensor(self):
        for m, n in itertools.product(range(1, 5), repeat=2):
            for s in range(1, m * n + 1) if m >= n else ():
                support = gen_simple(m, n, s)
                assert to_form(support).coeffs.tobytes() == scattered_form(support).coeffs.tobytes()

    def test_full_3_2(self):
        form = to_form(gen_simple(3, 2, 6))
        assert len(form_to_dict(form)["terms"]) == 6

    def test_always_psd_by_sampling(self):
        rng = np.random.default_rng(0)
        for m, n, s in [(2, 2, 3), (3, 2, 4), (4, 2, 5), (3, 3, 5)]:
            form = to_form(gen_simple(m, n, s))
            xs = rng.standard_normal((500, m))
            ys = rng.standard_normal((500, n))
            assert evaluate_batch(form, xs, ys).min() >= 0.0


def small_supports():
    """Every diagonal-walk support with n <= m <= 5, every subset of [3] x [3]
    and 100 random subsets of [6] x [5]."""
    for m, n in itertools.product(range(1, 6), repeat=2):
        for s in range(1, m * n + 1) if m >= n else ():
            yield gen_simple(m, n, s)
    cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    for bits in range(512):
        yield SupportSet(3, 3, tuple(cells[k] for k in range(9) if bits >> k & 1))
    rng = np.random.default_rng(3)
    cells = [(i, j) for i in range(1, 7) for j in range(1, 6)]
    for _ in range(100):
        yield SupportSet(6, 5, tuple(cells[k] for k in rng.permutation(30)[: int(rng.integers(0, 16))]))


def row_pair_rectangle(support):
    """Reference for ``find_rectangle``: the first pair of rows p < q, in
    lexicographic order, sharing two columns, with its two smallest."""
    by_row = {}
    for i, j in support.pairs:
        by_row.setdefault(i, set()).add(j)
    for p, q in itertools.combinations(sorted(by_row), 2):
        common = sorted(by_row[p] & by_row[q])
        if len(common) >= 2:
            r, s = common[0], common[1]
            return ((p, r), (p, s), (q, r), (q, s))
    return None


class TestLowerBound:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_m2_series_applicable(self, m):
        cert = lower_bound_certificate(gen_simple(m, 2, m + 1))
        assert cert == LowerBoundCertificate(True, m + 1, None)

    def test_3_3_6_applicable(self):
        cert = lower_bound_certificate(gen_simple(3, 3, 6))
        assert cert.applicable and cert.bound == 6

    def test_full_2x2_rectangle(self):
        cert = lower_bound_certificate(gen_simple(2, 2, 4))
        assert not cert.applicable
        assert set(cert.rectangle) == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_rectangle_detection_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for _ in range(50):
            size = int(rng.integers(0, 10))
            chosen = tuple(cells[k] for k in rng.permutation(9)[:size])
            support = SupportSet(3, 3, chosen)
            brute = any(
                (p, r) in chosen and (p, s) in chosen and (q, r) in chosen and (q, s) in chosen
                for p, q in itertools.combinations(range(1, 4), 2)
                for r, s in itertools.combinations(range(1, 4), 2)
            )
            assert (find_rectangle(support) is not None) == brute

    def test_rectangle_matches_the_row_pair_loop(self):
        for support in small_supports():
            assert find_rectangle(support) == row_pair_rectangle(support)


class TestExactRank:
    def test_tight_cases(self):
        assert exact_sos_rank_simple(gen_simple(3, 2, 4)) == 4
        assert exact_sos_rank_simple(gen_simple(2, 2, 3)) == 3

    def test_rectangle_gives_upper_bound_only(self):
        assert exact_sos_rank_simple(gen_simple(2, 2, 4)) is None
        # the Gram search tightens it to 2
        _, rank = min_rank_search(build_family(to_form(gen_simple(2, 2, 4))), restarts=3, seed=0)
        assert rank == 2

    def test_certificate_sound_on_exhaustive_3x3_supports(self):
        # every rectangle-free subset of [3] x [3]: the heuristic search must
        # never get below the certified bound
        cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        checked = 0
        for bits in range(512):
            chosen = tuple(cells[k] for k in range(9) if bits >> k & 1)
            support = SupportSet(3, 3, chosen)
            cert = lower_bound_certificate(support)
            if not cert.applicable or len(chosen) == 0:
                continue
            fam = build_family(to_form(support))
            _, rank = min_rank_search(fam, restarts=1, seed=0)
            assert rank >= cert.bound
            checked += 1
        assert checked > 100


def scattered_form(support):
    """Reference for ``to_form``: the tensor written entry by entry."""
    a = np.zeros((support.m, support.n, support.m, support.n))
    for i, j in support.pairs:
        a[i - 1, j - 1, i - 1, j - 1] = 1.0
    return BiquadraticForm(support.m, support.n, a)
