"""Command-line front end: certificates and decompositions as JSON.

Exit codes: 0 ok, 1 error (usage error, bad input, internal failure), 2 not PSD,
3 not x-symmetric, 4 inconclusive.  Human-readable summaries go to stdout;
with --json the machine payload is printed instead, byte-identical for
identical inputs and seeds (timings never enter the JSON).  Every emitted
decomposition is re-verified against its form before it is written; a
failed re-verification is a hard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import forms, gram, linalg, meig, partsym, simple
from .errors import (
    CannotReduce,
    InvalidInput,
    NoPSDPointFound,
    NotPSD,
    NumericalError,
    require_count,
)

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_NOT_PSD = 2
_EXIT_NOT_XSYM = 3
_EXIT_INCONCLUSIVE = 4


@dataclass
class CommandResult:
    command: str
    status: str  # ok | not-psd | inconclusive | error
    payload: dict
    exit_code: int
    timing_ms: float = 0.0
    summary: str = ""


def _tolerances(args) -> linalg.Tolerances:
    return linalg.DEFAULT_TOL if args.tol is None else linalg.Tolerances(args.tol)


def _load_form(
    path: str, transpose: bool, dense: bool
) -> forms.BiquadraticForm | forms.FormCells | partsym.XSymmetricData:
    """Read either a monomial form file or an x-symmetric (d, A, B) file.

    With ``dense`` the result is the coefficient tensor.  Otherwise a terms
    file becomes its canonical cells and a data file read without
    ``transpose`` stays as its (d, A, B) data; only a data file read with
    ``transpose`` becomes a dense form.
    """
    data = forms.load_json(path)
    if not isinstance(data, dict):
        raise InvalidInput(f"{path}: expected a JSON object")
    if "terms" in data:
        if not dense:
            cells = forms.cells_from_dict(data)
            return cells.transpose() if transpose else cells
        form = forms.form_from_dict(data)
    elif {"m", "d", "A", "B"} <= set(data):
        try:
            m = forms.integer_field(data["m"], "m")
            d, a, b = (np.asarray(data[key], dtype=float) for key in ("d", "A", "B"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInput(f"{path}: malformed x-symmetric data: {exc}") from exc
        xsym = partsym.XSymmetricData(m, d, a, b)
        if not (transpose or dense):
            return xsym
        form = partsym.reconstruct(xsym)
    else:
        raise InvalidInput(f"{path}: neither a form file (terms) nor x-symmetric data (m, d, A, B)")
    return forms.transpose_xy(form) if transpose else form


def _evaluate(source, x, y) -> float:
    """P(x, y) on the input as it was loaded."""
    if isinstance(source, partsym.XSymmetricData):
        return partsym.evaluate_xsym(source, x, y)
    return forms.evaluate(source, x, y)


def _vec(a) -> list[float]:
    return [float(v) for v in np.asarray(a).ravel()]


def _witness_payload(x, y, value) -> dict:
    return {"x": _vec(x), "y": _vec(y), "value": float(value)}


def _cert_payload(source, q=(), r=(), invalid: partsym.InvalidReduction | None = None) -> dict:
    """The verdict payload: the spectra ``q`` and ``r`` of the scaled Q and
    R, and for a NotPSD verdict the witness and the reason it holds."""
    payload = {
        "m": source.m,
        "n": source.n,
        "verdict": "PSD",
        "q_eigenvalues": _vec(q),
        "r_eigenvalues": _vec(r),
        "witness": None,
    }
    if invalid is not None:
        payload["verdict"] = "NotPSD"
        payload["witness"] = _witness_payload(invalid.x, invalid.y, _evaluate(source, invalid.x, invalid.y))
        payload["reason"] = invalid.reason
    return payload


def _xsym_data(command: str, args):
    """The steps check-psd and decompose share: load the input and detect
    x-symmetry.

    Returns ``(tol, source, data)``, or the CommandResult that ends the
    command with exit 3 when the form is not x-symmetric.  The source,
    which witnesses and the decomposition are checked on, is the dense form
    only for a data file read with ``--transpose``, else ``data``.
    """
    tol = _tolerances(args)
    source = _load_form(args.form, args.transpose, dense=False)
    data = source if isinstance(source, partsym.XSymmetricData) else partsym.detect_x_symmetric(source)
    if data is None:
        return CommandResult(
            command,
            "error",
            {"error": "form is not x-symmetric; use 'sos-rank' for general forms"},
            _EXIT_NOT_XSYM,
            summary="not x-symmetric (try 'biquad sos-rank')",
        )
    return tol, source if isinstance(source, forms.BiquadraticForm) else data, data


def _verdict(command: str, source, cert: partsym.PSDCertificate) -> CommandResult:
    """check-psd's result for a certificate, and decompose's for one that fails."""
    payload = _cert_payload(source, cert.q.eigenvalues, cert.r.eigenvalues, cert.evidence)
    if cert.psd:
        return CommandResult(
            command, "ok", payload, _EXIT_OK,
            summary=f"PSD: min eig(Q) = {min(cert.q.eigenvalues, default=0.0):.6g}, "
                    f"min eig(R) = {min(cert.r.eigenvalues, default=0.0):.6g}",
        )
    return CommandResult(
        command, "not-psd", payload, _EXIT_NOT_PSD,
        summary=f"NotPSD: {cert.reason}; witness value {payload['witness']['value']:.6g}",
    )


def cmd_check_psd(args) -> CommandResult:
    prefix = _xsym_data("check-psd", args)
    if isinstance(prefix, CommandResult):
        return prefix
    tol, source, data = prefix
    return _verdict("check-psd", source, partsym.check_psd_monic(data, tol))


def cmd_decompose(args) -> CommandResult:
    prefix = _xsym_data("decompose", args)
    if isinstance(prefix, CommandResult):
        return prefix
    tol, source, data = prefix
    try:
        dec = partsym.sos_decompose_structured(data, tol)
    except NotPSD as exc:
        return _verdict("decompose", source, exc.witness)
    passed, resid = forms.verify_sos(source, dec)
    if not passed:
        raise NumericalError(f"decomposition failed re-verification: residual {resid:.3e}")
    forms.save_decomposition(dec, args.out)
    payload = {"factor_count": len(dec), "max_residual": resid, "out": args.out}
    return CommandResult(
        "decompose", "ok", payload, _EXIT_OK,
        summary=f"{len(dec)} bilinear squares; max residual {resid:.3e} -> {args.out}",
    )


def cmd_gen_simple(args) -> CommandResult:
    support = simple.gen_simple(args.m, args.n, args.s)
    form = simple.to_form(support)
    forms.save_form(form, args.out)
    rank = simple.exact_sos_rank_simple(support)
    payload = {"support": simple.support_to_dict(support), "out": args.out}
    if isinstance(rank, simple.UpperBoundOnly):
        payload["sos_rank"] = None
        payload["upper_bound"] = rank.bound
        payload["exact"] = False
        summary = (
            f"P_({args.m},{args.n},{args.s}): support has a rectangle; "
            f"SOS rank <= {rank.bound} (try 'biquad sos-rank')"
        )
    else:
        payload["sos_rank"] = rank
        payload["upper_bound"] = rank
        payload["exact"] = True
        summary = f"P_({args.m},{args.n},{args.s}): SOS rank exactly {rank}"
    return CommandResult("gen-simple", "ok", payload, _EXIT_OK, summary=summary + f" -> {args.out}")


def _universal_bound(m: int, n: int) -> int:
    """Known SOS-rank bound of every SOS m x n form: 4 for 3 x 2 and 2 x 3
    (tight by the paper's m x 2 example with m + 1 squares), otherwise mn - 1
    when both sides are at least 2 (the paper's universal bound), else mn."""
    if sorted((m, n)) == [2, 3]:
        return 4
    return m * n - 1 if m >= 2 and n >= 2 else m * n


def _negativity_probe(command: str, form, tol, seed: int, **probe_args) -> CommandResult | None:
    """Exit 2 with a witness, in check-psd's NotPSD envelope, when the
    min-seeking M-eigen starts of ``meig.min_probe`` (given ``probe_args``,
    else its defaults) reach P(x, y) < -eps * max|c|; else None."""
    _, (x, y) = meig.min_probe(form, seed=seed, **probe_args)
    value = forms.evaluate(form, x, y)
    if not value < -tol.eps * forms.max_abs_coeff(form):
        return None
    invalid = partsym.InvalidReduction(x, y, value, "min-seeking M-eigen starts found P(x, y) < 0")
    return CommandResult(
        command, "not-psd", _cert_payload(form, invalid=invalid), _EXIT_NOT_PSD,
        summary=f"NotPSD: {invalid.reason}; witness value {value:.6g}",
    )


def cmd_sos_rank(args) -> CommandResult:
    tol = _tolerances(args)
    form = _load_form(args.form, args.transpose, dense=True)
    support = simple.detect_simple(form)
    lower = None
    if support is not None:
        cert = simple.lower_bound_certificate(support)
        if cert.applicable:
            lower = cert.bound
    family = gram.build_family(form)
    try:
        point, rank = gram.min_rank_search(
            family, restarts=args.restarts, seed=args.seed, tol=tol, floor=lower or 1
        )
    except NoPSDPointFound:
        return _negativity_probe("sos-rank", form, tol, args.seed, restarts=args.restarts) or CommandResult(
            "sos-rank",
            "inconclusive",
            {"seed": args.seed, "restarts": args.restarts,
             "note": "no PSD Gram point found; the form may be PSD but not SOS, or another seed may find one"},
            _EXIT_INCONCLUSIVE,
            summary="inconclusive: no PSD Gram point found",
        )
    dec = gram.factor_gram(point, tol)
    passed, resid = forms.verify_sos(form, dec, seed=args.seed)
    if not passed:
        raise NumericalError(f"Gram factorization failed re-verification: residual {resid:.3e}")
    universal = _universal_bound(form.m, form.n)
    payload = {
        "upper_bound": rank,
        "gram_point": {"gamma": _vec(point.gamma), "rank": rank},
        "lower_bound": lower,
        "exact": lower is not None and lower == rank,
        "universal_bound": universal,
        "max_residual": resid,
        "seed": args.seed,
        "restarts": args.restarts,
    }
    if payload["exact"]:
        summary = f"SOS rank exactly {rank} (lower bound meets heuristic upper bound)"
    else:
        summary = f"SOS rank <= {rank} (heuristic upper bound; universal bound {universal})"
        if lower is not None:
            summary += f", >= {lower}"
    return CommandResult("sos-rank", "ok", payload, _EXIT_OK, summary=summary + f"; seed {args.seed}")


def cmd_reduce_rank(args) -> CommandResult:
    tol = _tolerances(args)
    form = _load_form(args.form, args.transpose, dense=True)
    family = gram.build_family(form)
    start = gram.psd_point(family, seed=args.seed, tol=tol)
    if start is None:
        return _negativity_probe("reduce-rank", form, tol, args.seed) or CommandResult(
            "reduce-rank",
            "inconclusive",
            {"seed": args.seed, "note": "no PSD Gram point found to start from"},
            _EXIT_INCONCLUSIVE,
            summary="inconclusive: no PSD starting point",
        )
    reduced = gram.reduce_to_boundary(family, start, seed=args.seed, tol=tol)
    rank = linalg.numerical_rank(reduced.matrix, tol)
    dec = gram.factor_gram(reduced, tol)
    passed, resid = forms.verify_sos(form, dec, seed=args.seed)
    if not passed:
        raise NumericalError(f"Gram factorization failed re-verification: residual {resid:.3e}")
    payload = {"gamma": _vec(reduced.gamma), "rank": rank, "max_residual": resid, "seed": args.seed}
    if args.out:
        forms.dump_json({"gamma": payload["gamma"], "rank": rank}, args.out)
        payload["out"] = args.out
    mn = form.m * form.n
    return CommandResult(
        "reduce-rank", "ok", payload, _EXIT_OK,
        summary=f"boundary Gram point of rank {rank} (mn = {mn}); seed {args.seed}",
    )


def cmd_meig(args) -> CommandResult:
    _tolerances(args)  # rejects a --tol outside (0, 1)
    form = _load_form(args.form, args.transpose, dense=True)
    residual_tol = {} if args.tol is None else {"tol": args.tol}
    pairs = meig.meig_solve(form, restarts=args.restarts, seed=args.seed, **residual_tol)
    payload = {
        "pairs": [
            {
                "lambda": p.eigenvalue,
                "x": _vec(p.x),
                "y": _vec(p.y),
                "residuals": [p.residual_x, p.residual_y],
            }
            for p in pairs
        ],
        "count": len(pairs),
        "seed": args.seed,
        "restarts": args.restarts,
    }
    values = ", ".join(f"{p.eigenvalue:.6g}" for p in pairs)
    return CommandResult(
        "meig", "ok", payload, _EXIT_OK,
        summary=f"{len(pairs)} M-eigenpairs found: [{values}]; seed {args.seed}",
    )


def _add_common(sub, tol=True, seed=True, transpose=False, restarts=None):
    sub.add_argument("--json", action="store_true", help="print the JSON payload instead of a summary")
    if tol:
        sub.add_argument("--tol", type=float, default=None,
                         help="rank/PSD tolerance (default 1e-9)")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    if transpose:
        sub.add_argument("--transpose", action="store_true",
                         help="swap the roles of x and y before analyzing")
    if restarts is not None:
        sub.add_argument("--restarts", type=int, default=restarts,
                         help=f"seeded starts (sos-rank: per square count), at least 1 (default {restarts})")


class _UsageError(Exception):
    """A command line that argparse rejected; its usage is on stderr."""


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors reach ``main``, which exits 1: argparse's
    own exit 2 is the CLI's "not PSD".  Options must be spelled in full, so
    ``main`` sees ``--json`` in argv exactly when argparse would."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="biquad",
        description="Certificates, SOS decompositions and rank bounds for biquadratic forms.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check-psd", help="PSD test for an x-symmetric form")
    p.add_argument("form", help="form file (terms) or x-symmetric data file (m, d, A, B)")
    _add_common(p, seed=False, transpose=True)

    p = subs.add_parser("decompose", help="write an SOS decomposition of an x-symmetric PSD form")
    p.add_argument("form")
    p.add_argument("out", help="output decomposition file")
    _add_common(p, seed=False, transpose=True)

    p = subs.add_parser("gen-simple", help="generate a simple form of the diagonal-walk series")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument("out", help="output form file")
    _add_common(p, tol=False, seed=False)

    p = subs.add_parser("sos-rank", help="heuristic SOS-rank bounds via the Gram family")
    p.add_argument("form")
    _add_common(p, transpose=True, restarts=20)

    p = subs.add_parser("reduce-rank", help="walk a PSD Gram point to the cone boundary (rank <= mn-1)")
    p.add_argument("form")
    p.add_argument("--out", default=None, help="optional output Gram-point file")
    _add_common(p, transpose=True)

    p = subs.add_parser("meig", help="M-eigenpairs of a small form")
    p.add_argument("form")
    _add_common(p, transpose=True, restarts=20)

    return parser


# Failures a command may end in: exception types -> (status, exit code,
# message prefix, formatted with the exception's type name as {kind}).  The
# first matching row wins, so subclasses come first; the last row turns any
# other failure into exit 1 with the envelope instead of a traceback.
_FAILURES = (
    ((NotPSD,), "not-psd", _EXIT_NOT_PSD, ""),
    ((json.JSONDecodeError,), "error", _EXIT_ERROR, "parse failure: "),
    ((InvalidInput, OSError, ValueError, CannotReduce, NumericalError), "error", _EXIT_ERROR, ""),
    ((Exception,), "error", _EXIT_ERROR, "internal error: {kind}: "),
)
_CAUGHT = tuple(kind for kinds, *_ in _FAILURES for kind in kinds)


def _check_counts(args) -> None:
    if getattr(args, "restarts", None) is not None:
        require_count("--restarts", args.restarts)


def _write_envelope(result: CommandResult) -> None:
    envelope = {"command": result.command, "status": result.status, "payload": result.payload}
    sys.stdout.write(json.dumps(envelope, indent=2, sort_keys=True) + "\n")


# argparse keeps no state between parses, so main builds its parser once.
# Commands run as the module's current ``cmd_<command>``, looked up per call.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _shared_parser().parse_args(argv)
    except _UsageError as exc:
        if "--json" in argv:
            command = argv[0] if not argv[0].startswith("-") else None
            _write_envelope(CommandResult(command, "error", {"error": f"usage error: {exc}"}, _EXIT_ERROR))
        return _EXIT_ERROR
    t0 = time.perf_counter()
    try:
        _check_counts(args)
        result = globals()["cmd_" + args.command.replace("-", "_")](args)
    except _CAUGHT as exc:
        status, code, prefix = next(row[1:] for row in _FAILURES if isinstance(exc, row[0]))
        message = prefix.format(kind=type(exc).__name__) + str(exc)
        head = "not PSD" if status == "not-psd" else "error"
        result = CommandResult(args.command, status, {"error": message}, code, summary=f"{head}: {message}")
    result.timing_ms = (time.perf_counter() - t0) * 1e3
    if args.json:
        _write_envelope(result)
    else:
        sys.stdout.write(f"[{result.command}] {result.status} ({result.timing_ms:.1f} ms)\n")
        if result.summary:
            sys.stdout.write(result.summary + "\n")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
