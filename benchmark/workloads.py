"""Seeded corpora of `biquad` CLI invocations, one per benchmark workload.

Every input file is written here with numpy and json alone, so the program
under test receives only generated files and the oracle's reference data
(the dense coefficient tensor, the expected verdict and factor count) never
comes from the code being measured.

The schedule of sizes and kinds is fixed per workload, so the work per pass
is nearly the same for every seed and pass times compare between runs.  For
the x-symmetric workloads the seed draws the coefficients; their running
time depends on the sizes only.  The general-rank corpus does not depend on
the seed: it is a fixed catalogue (planted-rank forms drawn from
``PLANTED_SEED``, the unit-weight ``gen-simple`` forms, the CLI's default
restart seed), because the search heuristics' running time on one form
swings up to 2x with the form's coefficients or the restart seed, which
would swamp any regression bound.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("xsym-decompose", "xsym-check", "general-rank")

# Seconds one pass over each corpus took on the machine the benchmark was
# defined on (2 vCPUs, Python 3.11, numpy 2.4, scipy 1.17).  A run makes
# floor(--seconds / this) passes, so the amount of work, the number of
# samples and hence every percentile's definition are the same on every
# commit and do not flip with the machine's momentary speed.  A run's
# measuring time stays at or under --seconds on that machine.
NOMINAL_PASS_S = {"xsym-decompose": 9.0, "xsym-check": 7.0, "general-rank": 18.0}
SMOKE_PASSES = 2  # enough to compare outputs across passes


def passes_for(workload: str, seconds: float, smoke: bool = False) -> int:
    if smoke:
        return SMOKE_PASSES
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


# Statuses a sos-rank / reduce-rank invocation may end in on an SOS form:
# the search is a heuristic, so "inconclusive" (exit 4) is allowed and
# counted in inconclusive_share rather than as a failure.
SEARCH_EXITS = (0, 4)


@dataclass
class Item:
    """One CLI invocation plus what the oracle needs to judge its output."""

    name: str
    argv: list[str]
    expect: tuple[int, ...]
    command: str
    coeffs: np.ndarray | None = None  # dense (m, n, m, n) tensor of a small general form
    xsym: tuple | None = None  # (m, d, A, B) of an x-symmetric form, densified on demand
    verdict: str | None = None  # "PSD" / "NotPSD" for x-symmetric inputs
    factor_count: int | None = None  # rank(R) + (m-1) rank(Q) for PSD decompose inputs
    out: str | None = None  # file the invocation writes
    reference_rank: int | None = None  # planted r or rectangle-free certificate
    certificate: int | None = None  # rectangle-free lower bound, when one applies
    sos: bool = False  # form is SOS by construction

    def tensor(self) -> np.ndarray:
        """Dense coefficients of the analysed form.  Built only when the
        oracle asks, so the harness holds no dense tensor while measuring."""
        return self.coeffs if self.xsym is None else dense_xsym(*self.xsym)


# ---------------------------------------------------------------------------
# coefficient helpers
# ---------------------------------------------------------------------------

def dense_xsym(m: int, d, A, B) -> np.ndarray:
    """Partially symmetric tensor of the x-symmetric form (d, A, B)."""
    n = len(d)
    a = np.empty((m, n, m, n))
    a[:] = np.asarray(A)[None, :, None, :]
    idx = np.arange(m)
    a[idx, :, idx, :] = (np.asarray(B) + np.diag(d))[None, :, :]
    return a


def symmetrize(raw: np.ndarray) -> np.ndarray:
    sym = raw + raw.transpose(2, 1, 0, 3)
    return (sym + sym.transpose(0, 3, 2, 1)) * 0.25


def terms_of(a: np.ndarray) -> list[dict]:
    """Polynomial monomial coefficients (1-based, i <= k, j <= l) of a tensor."""
    m, n = a.shape[0], a.shape[1]
    terms = []
    for i in range(m):
        for k in range(i, m):
            block = a[i, :, k, :]
            for j in range(n):
                for l in range(j, n):
                    orbit = (2 if i < k else 1) * (2 if j < l else 1)
                    c = orbit * float(block[j, l])
                    if c != 0.0:
                        terms.append({"i": i + 1, "k": k + 1, "j": j + 1, "l": l + 1, "c": c})
    return terms


def xsym_terms(m: int, d, A, B) -> list[dict]:
    """Monomial terms of an x-symmetric form straight from (d, A, B)."""
    d, A, B = np.asarray(d), np.asarray(A), np.asarray(B)
    j, l = np.triu_indices(len(d))
    diag = j == l
    same_x = np.where(diag, d[j], 2.0 * B[j, l])  # x_i^2 y_j y_l
    cross_x = np.where(diag, 2.0, 4.0) * A[j, l]  # x_i x_k y_j y_l, i < k
    i, k = np.triu_indices(m)
    c = np.where((i == k)[:, None], same_x[None, :], cross_x[None, :]).ravel()
    cols = (np.repeat(i + 1, len(j)), np.repeat(k + 1, len(j)), np.tile(j + 1, len(i)), np.tile(l + 1, len(i)))
    keep = c != 0.0
    return [{"i": a, "k": b, "j": e, "l": f, "c": v}
            for a, b, e, f, v in zip(*(col[keep].tolist() for col in cols), c[keep].tolist())]


def _write(path: str, obj: dict) -> None:
    # json.dumps uses the C encoder; json.dump to a file does not.
    with open(path, "w") as handle:
        handle.write(json.dumps(obj))


# ---------------------------------------------------------------------------
# x-symmetric instances
# ---------------------------------------------------------------------------

def _psd_factor(rng, n: int, k: int) -> np.ndarray:
    f = rng.standard_normal((n, k))
    return f @ f.T


def _make_indefinite(s: np.ndarray) -> np.ndarray:
    """Push the smallest eigenvalue of s clearly below zero."""
    w, u = np.linalg.eigh(s)
    c = w[0] + 0.3 * float(np.mean(np.diag(s)))
    return s - c * np.outer(u[:, 0], u[:, 0])


def xsym_instance(rng, m: int, n: int, kind: str, zeros: int = 0, rank_q: int | None = None):
    """(d, A, B) of an x-symmetric m x n form of the given kind.

    kind is "psd", "fail-q" (Q = I + B - A indefinite), "fail-r"
    (R = I + B + (m-1) A indefinite) or "zero-violation" (a zero weight
    whose vanishing conditions fail).  The weights are non-monic and the
    last ``zeros`` indices get weight 0, so the reduction to monic form
    runs.  Returns (d, A, B, rank_r, rank_q) with the ranks of the monic
    reduction (meaningful for "psd").
    """
    if kind == "zero-violation":
        zeros = max(zeros, 1)
    act = n - zeros
    k_q = act if rank_q is None else rank_q
    k_r = act
    while True:
        q0 = _psd_factor(rng, act, k_q)
        r0 = _psd_factor(rng, act, k_r)
        if kind == "fail-q":
            q0 = _make_indefinite(q0)
        elif kind == "fail-r":
            r0 = _make_indefinite(r0)
        diag = np.diag(r0 + (m - 1) * q0) / m
        if diag.min() > 1e-3 * diag.max():
            break
    s = 1.0 / np.sqrt(diag)
    q = q0 * np.outer(s, s)
    r = r0 * np.outer(s, s)
    a_act = (r - q) / m
    b_act = (r + (m - 1) * q) / m - np.eye(act)
    a_act = 0.5 * (a_act + a_act.T)
    b_act = 0.5 * (b_act + b_act.T)
    np.fill_diagonal(b_act, 0.0)
    weights = rng.uniform(0.5, 2.0, act)
    root = np.sqrt(weights)
    d = np.zeros(n)
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    d[:act] = weights
    A[:act, :act] = a_act * np.outer(root, root)
    B[:act, :act] = b_act * np.outer(root, root)
    if kind == "zero-violation":
        j0, l = n - 1, int(rng.integers(0, act))
        B[j0, l] = B[l, j0] = 0.5
    return d, A, B, k_r, k_q


def _xsym_item(rng, workdir: str, name: str, command: str, m: int, n: int, kind: str,
               zeros: int = 0, rank_q: int | None = None, fmt: str = "data",
               transpose: bool = False) -> Item:
    d, A, B, k_r, k_q = xsym_instance(rng, m, n, kind, zeros, rank_q)
    path = os.path.join("corpus", f"{name}.json")
    if fmt == "data":
        _write(os.path.join(workdir, path), {"m": m, "d": d.tolist(), "A": A.tolist(), "B": B.tolist()})
    elif transpose:
        # The y-symmetric n x m form P'(y, x) = P(x, y): swap the roles of
        # the index pairs; --transpose maps it back onto the analysed form.
        terms = [{"i": t["j"], "k": t["l"], "j": t["i"], "l": t["k"], "c": t["c"]}
                 for t in xsym_terms(m, d, A, B)]
        _write(os.path.join(workdir, path), {"m": n, "n": m, "terms": terms})
    else:
        _write(os.path.join(workdir, path), {"m": m, "n": n, "terms": xsym_terms(m, d, A, B)})
    argv = [command, path]
    out = None
    if command == "decompose":
        out = os.path.join("out", f"{name}.json")
        argv.append(out)
    if transpose:
        argv.append("--transpose")
    psd = kind == "psd"
    return Item(
        name=name,
        argv=argv + ["--json"],
        expect=(0,) if psd else (2,),
        command=command,
        xsym=(m, d, A, B),
        verdict="PSD" if psd else "NotPSD",
        factor_count=(k_r + (m - 1) * k_q) if psd else None,
        out=out if psd else None,
    )


# Schedules: (name, m, n, kind, zero weights, rank of Q or None for full, format).
# Sizes follow what each workload is meant to stress; see BENCHMARK.json.
# Many mid-sized PSD inputs rather than a few large ones, so no single
# output-heavy invocation dominates a pass; sorted, the median invocation
# falls among the ~0.6 s ones and the tail among the 60x12 ones.
_DECOMPOSE = [
    ("psd-40x10-a", 40, 10, "psd", 1, None, "data"),
    ("psd-40x10-b", 40, 10, "psd", 0, 8, "data"),
    ("psd-40x10-c", 40, 10, "psd", 2, None, "data"),
    ("psd-50x10-a", 50, 10, "psd", 0, None, "data"),
    ("psd-50x10-b", 50, 10, "psd", 1, 7, "data"),
    ("psd-60x12-a", 60, 12, "psd", 1, None, "data"),
    ("psd-60x12-b", 60, 12, "psd", 0, 9, "data"),
    ("psd-60x12-c", 60, 12, "psd", 2, None, "data"),
    ("psd-80x12", 80, 12, "psd", 0, 10, "data"),
    ("ysym-10x40", 40, 10, "psd", 1, None, "ysym"),
    ("failq-60x12", 60, 12, "fail-q", 1, None, "data"),
    ("failr-100x14", 100, 14, "fail-r", 0, None, "data"),
    ("zero-120x16", 120, 16, "zero-violation", 1, None, "data"),
]

# Ordered by cost: four fast data files, a middle group of four 40x10 terms
# files and one data file at about the same cost (the median invocation
# falls inside it), three large data files.
_CHECK = [
    ("psd-40x10", 40, 10, "psd", 1, None, "data"),
    ("failq-60x12", 60, 12, "fail-q", 0, None, "data"),
    ("zero-80x12", 80, 12, "zero-violation", 1, None, "data"),
    ("failr-100x14", 100, 14, "fail-r", 1, None, "data"),
    ("terms-psd-40x10", 40, 10, "psd", 0, 8, "terms"),
    ("terms-failq-40x10", 40, 10, "fail-q", 1, None, "terms"),
    ("terms-failr-40x10", 40, 10, "fail-r", 0, None, "terms"),
    ("terms-zero-40x10", 40, 10, "zero-violation", 1, None, "terms"),
    ("psd-110x15", 110, 15, "psd", 1, None, "data"),
    ("psd-120x16", 120, 16, "psd", 2, None, "data"),
    ("zero-120x16", 120, 16, "zero-violation", 2, None, "data"),
    ("psd-200x20", 200, 20, "psd", 1, None, "data"),
]

_SMOKE_DECOMPOSE = [
    ("psd-5x3", 5, 3, "psd", 1, None, "data"),
    ("psd-4x3", 4, 3, "psd", 0, 2, "data"),
    ("ysym-3x4", 4, 3, "psd", 0, None, "ysym"),
    ("failq-4x3", 4, 3, "fail-q", 0, None, "data"),
    ("zero-5x3", 5, 3, "zero-violation", 1, None, "data"),
]

_SMOKE_CHECK = [
    ("psd-6x3", 6, 3, "psd", 1, None, "data"),
    ("failr-5x3", 5, 3, "fail-r", 0, None, "data"),
    ("terms-failq-3x3", 3, 3, "fail-q", 0, None, "terms"),
    ("terms-zero-4x3", 4, 3, "zero-violation", 1, None, "terms"),
]


def _xsym_corpus(rng, workdir: str, command: str, schedule) -> list[Item]:
    items = []
    for name, m, n, kind, zeros, rank_q, fmt in schedule:
        items.append(_xsym_item(
            rng, workdir, name, command, m, n, kind, zeros, rank_q,
            fmt="terms" if fmt == "ysym" else fmt, transpose=fmt == "ysym",
        ))
    return items


# ---------------------------------------------------------------------------
# general (not x-symmetric) forms
# ---------------------------------------------------------------------------

def gen_simple_pairs(m: int, n: int, s: int) -> list[tuple[int, int]]:
    """The diagonal-walk support P_(m,n,s), as `biquad gen-simple` defines it."""
    return [(k % m + 1, (k // m + k % m) % n + 1) for k in range(s)]


def has_rectangle(pairs) -> bool:
    rows: dict[int, set[int]] = {}
    for i, j in pairs:
        rows.setdefault(i, set()).add(j)
    keys = sorted(rows)
    return any(len(rows[p] & rows[q]) >= 2 for a, p in enumerate(keys) for q in keys[a + 1:])


PLANTED_SEED = 2026
# (m, n, planted r); r runs from n to 2n and stays at most mn - 1.
_PLANTED = [(2, 2, 2), (2, 2, 3), (3, 2, 3), (3, 3, 6), (4, 3, 5)]
# gen-simple supports, rectangle-free and with rectangles.
_SIMPLE = [(3, 3, 5), (3, 3, 7), (4, 2, 6), (6, 2, 7)]
_SMOKE_PLANTED = [(2, 2, 2), (2, 2, 3)]
_SMOKE_SIMPLE = [(2, 2, 3)]


def _general_corpus(workdir: str, planted, simple_supports) -> list[Item]:
    forms = []
    planted_rng = np.random.default_rng(PLANTED_SEED)
    for m, n, r in planted:
        w = planted_rng.standard_normal((r, m, n))
        coeffs = symmetrize(np.einsum("pij,pkl->ijkl", w, w))
        forms.append((f"planted-{m}x{n}-r{r}", m, n, coeffs, r, None))
    for m, n, s in simple_supports:
        pairs = gen_simple_pairs(m, n, s)
        coeffs = np.zeros((m, n, m, n))
        for i, j in pairs:
            coeffs[i - 1, j - 1, i - 1, j - 1] = 1.0
        cert = None if has_rectangle(pairs) else s
        forms.append((f"simple-{m}{n}{s}", m, n, coeffs, cert, cert))
    items = []
    for name, m, n, coeffs, reference, cert in forms:
        path = os.path.join("corpus", f"{name}.json")
        _write(os.path.join(workdir, path), {"m": m, "n": n, "terms": terms_of(coeffs)})
        common = dict(coeffs=coeffs, sos=True)
        items.append(Item(f"{name}.sos-rank", ["sos-rank", path, "--json"],
                          SEARCH_EXITS, "sos-rank", reference_rank=reference, certificate=cert, **common))
        items.append(Item(f"{name}.meig", ["meig", path, "--json"], (0,), "meig", **common))
        out = os.path.join("out", f"{name}.point.json")
        items.append(Item(f"{name}.reduce-rank", ["reduce-rank", path, "--out", out, "--json"],
                          SEARCH_EXITS, "reduce-rank", out=out, **common))
    return items


def build_corpus(workload: str, seed: int, workdir: str, smoke: bool = False) -> list[Item]:
    """Write the workload's input files under ``workdir`` and return its items.

    Paths inside the items are relative to ``workdir``; invocations run with
    it as the current directory.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    for sub in ("corpus", "out"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "xsym-decompose":
        return _xsym_corpus(rng, workdir, "decompose", _SMOKE_DECOMPOSE if smoke else _DECOMPOSE)
    if workload == "xsym-check":
        return _xsym_corpus(rng, workdir, "check-psd", _SMOKE_CHECK if smoke else _CHECK)
    if smoke:
        return _general_corpus(workdir, _SMOKE_PLANTED, _SMOKE_SIMPLE)
    return _general_corpus(workdir, _PLANTED, _SIMPLE)
