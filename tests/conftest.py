"""Shared generators for seeded random test corpora and hypothesis strategies."""

import numpy as np
import pytest
from hypothesis import strategies as st

from biquad.forms import BiquadraticForm, symmetrize
from biquad.partsym import XSymmetricData


def sym_uniform(rng: np.random.Generator, n: int, zero_diag: bool = False) -> np.ndarray:
    """Symmetric matrix with entries uniform on [-1, 1] (upper triangle
    drawn, mirrored)."""
    u = rng.uniform(-1.0, 1.0, (n, n))
    s = np.triu(u) + np.triu(u, 1).T
    if zero_diag:
        np.fill_diagonal(s, 0.0)
    return s


def random_monic(rng: np.random.Generator, m: int, n: int) -> XSymmetricData:
    a = sym_uniform(rng, n)
    b = sym_uniform(rng, n, zero_diag=True)
    return XSymmetricData(m, np.ones(n), a, b)


def monic_corpus(count: int, seed: int, m_range=(2, 6), n_range=(2, 5)) -> list[XSymmetricData]:
    """Seeded mixed PSD / not-PSD monic instances with uniform coefficients."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        out.append(random_monic(rng, m, n))
    return out


@pytest.fixture(scope="session")
def corpus_200():
    return monic_corpus(200, seed=1)


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


@st.composite
def planted_sos_forms(draw, sides=(1, 4)):
    """A sum of bilinear squares, m and n in ``sides``, returned with its
    square count r, an upper bound on its SOS rank.  The r0 <= mn random
    factors have entries zeroed at random (a pair zeroed in every factor is
    a zero x_i^2 y_j^2 coefficient), and may leave one x-line to up to n
    squares 1e-6 the size of the rest that live only on it; the form is
    scaled by 10^U(-8, 8)."""
    m, n = draw(st.integers(*sides)), draw(st.integers(*sides))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((draw(st.integers(1, m * n)), m, n))
    w[:, rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = 0.0
    if draw(st.booleans()):
        line = draw(st.integers(0, m - 1))
        w[:, line] = 0.0
        tiny = np.zeros((draw(st.integers(1, n)), m, n))
        tiny[:, line] = 1e-6 * rng.standard_normal((len(tiny), n))
        w = np.concatenate([w, tiny])
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    return symmetrize(scale * np.einsum("pij,pkl->ijkl", w, w)), len(w)


def tiny_line_form(seed: int):
    """``planted_sos_forms``' recipe at 4 x 2 with x-line 4 holding only
    squares 1e-6 the size of the rest.  At seeds 723 and 997 failing fits
    of its search try steps whose residual overflows float64."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((int(rng.integers(1, 9)), 4, 2))
    w[:, rng.random((4, 2)) < rng.choice([0.0, 0.3, 0.6])] = 0.0
    w[:, 3] = 0.0
    tiny = np.zeros((int(rng.integers(1, 3)), 4, 2))
    tiny[:, 3] = 1e-6 * rng.standard_normal((len(tiny), 2))
    w = np.concatenate([w, tiny])
    return symmetrize(10.0 ** rng.uniform(-8, 8) * np.einsum("pij,pkl->ijkl", w, w))


BOUNDARY_MARGINS = (0.0, 1e-10, 1e-6)


def boundary_form(seed: int, m: int, n: int, margin: float) -> BiquadraticForm:
    """A PSD m x 2 form at or near the PSD boundary, or with m = 2 < n the
    transpose of an n x 2 one: a random symmetrized tensor c minus
    (mu - margin * max|c|) |x|^2 |y|^2, where mu is c's smallest M-eigenvalue,
    scaled by 10^U(-8, 8).  At margin 0 the form has a zero.

    With y = (cos t, sin t), P(x, y) = x'G(t)x, so mu is the minimum of
    lambda_min(G(t)) over t in [0, pi): bracketed on a grid, then polished
    by Brent's method.  The smallest eigenvalue of a symmetric family can
    only kink upwards, so the minimum lies where it is smooth."""
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(seed)
    k = n if m == 2 < n else m
    c = symmetrize(rng.standard_normal((k, 2, k, 2))).coeffs

    def lowest(t: float) -> float:
        y = np.array([np.cos(t), np.sin(t)])
        return float(np.linalg.eigvalsh(np.einsum("ijkl,j,l->ik", c, y, y))[0])

    grid = np.linspace(0.0, np.pi, 64, endpoint=False)
    values = [lowest(t) for t in grid]
    t, step = grid[int(np.argmin(values))], grid[1]
    mu = min(min(values), minimize_scalar(lowest, bracket=(t - step, t, t + step), method="brent").fun)
    c = c - (mu - margin * np.abs(c).max()) * np.einsum("ik,jl->ijkl", np.eye(k), np.eye(2))
    c = 10.0 ** rng.uniform(-8.0, 8.0) * c
    return BiquadraticForm(m, n, c.transpose(1, 0, 3, 2) if k != m else c)


@st.composite
def boundary_forms(draw):
    """``boundary_form`` at 2 x 2, 3 x 2 or 2 x 3, with a drawn seed and
    margin, returned with the paper's bound on its SOS rank: 3 at 2 x 2,
    4 at 3 x 2 and 2 x 3."""
    m, n = draw(st.sampled_from([(2, 2), (3, 2), (2, 3)]))
    seed, margin = draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from(BOUNDARY_MARGINS))
    return boundary_form(seed, m, n, margin), m * n - 1
