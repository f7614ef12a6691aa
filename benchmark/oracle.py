"""Output checks for benchmark invocations, run outside the timed region.

Each check returns None when the output is right and a one-line reason when
it is not; every reason counts as a failed invocation.
"""

from __future__ import annotations

import numpy as np

from workloads import Item, symmetrize

# Relative bound on the coefficient identity symmetrize(sum W_p (x) W_p) == P.
IDENTITY_RTOL = 1e-9
# Relative bound below which an M-eigenvalue of a PSD form counts as >= 0.
MEIG_RTOL = 1e-8


def _scale(coeffs: np.ndarray) -> float:
    return float(np.abs(coeffs).max())


def check_envelope(item: Item, code: int, envelope: dict | None) -> str | None:
    """Exit code, JSON envelope and the verdict the generator expects."""
    if code not in item.expect:
        return f"exit {code}, expected {item.expect}"
    if envelope is None:
        return "stdout is not a JSON envelope"
    payload = envelope.get("payload", {})
    if item.verdict is not None:
        got = "PSD" if code == 0 else payload.get("verdict")
        if got != item.verdict:
            return f"verdict {got}, expected {item.verdict}"
    if item.command == "decompose" and code == 0 and payload.get("factor_count") != item.factor_count:
        return f"factor_count {payload.get('factor_count')}, expected {item.factor_count}"
    return None


def check_witness(item: Item, payload: dict, forms) -> str | None:
    """A NotPSD witness must evaluate strictly below zero under forms.evaluate."""
    witness = payload.get("witness")
    if not witness:
        return "NotPSD result without a witness"
    coeffs = item.tensor()
    form = forms.BiquadraticForm(coeffs.shape[0], coeffs.shape[1], coeffs)
    value = forms.evaluate(form, np.asarray(witness["x"]), np.asarray(witness["y"]))
    if not value < 0.0:
        return f"witness evaluates to {value!r}, not below zero"
    return None


def check_decomposition(item: Item, forms) -> str | None:
    """Reload the written file; check the factor count and the coefficient identity."""
    dec = forms.load_decomposition(item.out)
    coeffs = item.tensor()
    m, n = coeffs.shape[0], coeffs.shape[1]
    if (dec.m, dec.n) != (m, n):
        return f"decomposition is {dec.m}x{dec.n}, form is {m}x{n}"
    if len(dec) != item.factor_count:
        return f"{len(dec)} factors, expected rank(R) + (m-1) rank(Q) = {item.factor_count}"
    if len(dec):
        flat = np.stack(dec.factors).reshape(len(dec), m * n)
        gram = (flat.T @ flat).reshape(m, n, m, n)
    else:
        gram = np.zeros((m, n, m, n))
    err = float(np.abs(symmetrize(gram) - coeffs).max())
    bound = IDENTITY_RTOL * _scale(coeffs)
    if not err <= bound:
        return f"coefficient identity off by {err:.3e} > {bound:.3e}"
    return None


def check_search(item: Item, code: int, payload: dict) -> str | None:
    if item.command == "sos-rank" and code == 0:
        bound = payload.get("upper_bound")
        if item.certificate is not None and not bound >= item.certificate:
            return f"upper_bound {bound} below the rectangle-free certificate {item.certificate}"
    if item.command == "reduce-rank" and code == 0:
        mn = item.tensor().shape[0] * item.tensor().shape[1]
        if not payload.get("rank", mn) <= mn - 1:
            return f"boundary rank {payload.get('rank')} exceeds mn - 1 = {mn - 1}"
    if item.command == "meig":
        values = [p["lambda"] for p in payload.get("pairs", [])]
        floor = -MEIG_RTOL * max(1.0, _scale(item.tensor()))
        if item.sos and values and min(values) < floor:
            return f"smallest M-eigenvalue {min(values):.3e} below {floor:.3e} on a PSD form"
    return None


def check_output(item: Item, code: int, envelope: dict | None, forms) -> str | None:
    """All checks for one invocation whose stdout parsed as ``envelope``."""
    reason = check_envelope(item, code, envelope)
    if reason is not None:
        return reason
    payload = envelope["payload"]
    if code == 2:
        return check_witness(item, payload, forms)
    if item.command == "decompose":
        return check_decomposition(item, forms)
    return check_search(item, code, payload)
