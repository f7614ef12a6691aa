"""Command-line front end: certificates and decompositions as JSON.

Exit codes: 0 ok, 1 error (usage error, bad input, internal failure), 2 not PSD,
3 not x-symmetric, 4 inconclusive.  Human-readable summaries go to stdout;
with --json the machine payload is printed instead, byte-identical for
identical inputs and seeds (timings never enter the JSON).  Every emitted
decomposition is re-verified against its form before it is written, by
comparing coefficients (``forms.verify_sos``); a failed re-verification is a
hard error.  ``verify`` runs the same check on a decomposition file.
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


def _read_input(path: str) -> forms.FormCells | partsym.XSymmetricData:
    """Read either a monomial form file, into its canonical cells, or an
    x-symmetric file, into its (d, A, B) data; neither is densified.

    A form file is read by ``forms.read_terms_cells``, in chunks; only a
    file it declines (a data file, or terms outside the flat template) is
    decoded whole by ``forms.load_json``.
    """
    cells = forms.read_terms_cells(path)
    if cells is not None:
        return cells
    data = forms.load_json(path)
    if not isinstance(data, dict):
        raise InvalidInput(f"{path}: expected a JSON object")
    if "terms" in data:
        return forms.cells_from_dict(data)
    if not {"m", "d", "A", "B"} <= set(data):
        raise InvalidInput(f"{path}: neither a form file (terms) nor x-symmetric data (m, d, A, B)")
    try:
        m = forms.integer_field(data["m"], "m")
        d, a, b = (np.asarray(data[key], dtype=float) for key in ("d", "A", "B"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{path}: malformed x-symmetric data: {exc}") from exc
    return partsym.XSymmetricData(m, d, a, b)


def _dense_input(args, check_size) -> forms.BiquadraticForm:
    """The input as a dense form, x and y swapped with ``--transpose``,
    rejected by ``check_size(m, n)`` on its oriented size before its cells
    are built and densified."""
    source = _read_input(args.form)
    check_size(*((source.n, source.m) if args.transpose else (source.m, source.n)))
    cells = source.cells() if isinstance(source, partsym.XSymmetricData) else source
    return (cells.transpose() if args.transpose else cells).to_form()


def _vec(a) -> list[float]:
    return [float(v) for v in np.asarray(a).ravel()]


def _cert_payload(form, q=(), r=(), invalid: partsym.InvalidReduction | None = None) -> dict:
    """The verdict payload: the spectra ``q`` and ``r`` of the scaled Q and
    R, and for a NotPSD verdict the witness, its value P(x, y) and the
    reason it holds."""
    payload = {
        "m": form.m,
        "n": form.n,
        "verdict": "PSD",
        "q_eigenvalues": _vec(q),
        "r_eigenvalues": _vec(r),
        "witness": None,
    }
    if invalid is not None:
        payload["verdict"] = "NotPSD"
        payload["witness"] = {"x": _vec(invalid.x), "y": _vec(invalid.y), "value": float(invalid.value)}
        payload["reason"] = invalid.reason
    return payload


def _load_and_detect(args):
    """The steps check-psd, decompose and verify share: load the input,
    x and y swapped with ``--transpose``, and detect x-symmetry.

    Returns ``(tol, cells, data)``: a form file's canonical cells (None for
    a data file, which stays as (d, A, B) or its ``transposed()``) and the
    form's x-symmetric (d, A, B), None when it is not x-symmetric."""
    tol = _tolerances(args)
    source = _read_input(args.form)
    if isinstance(source, partsym.XSymmetricData):
        return tol, None, source.transposed() if args.transpose else source
    cells = source.transpose() if args.transpose else source
    return tol, cells, partsym.detect_x_symmetric(cells)


def _not_xsym(command: str) -> CommandResult:
    """Exit 3 for a form, or a transposed data file, that is not x-symmetric."""
    return CommandResult(
        command,
        "error",
        {"error": "form is not x-symmetric; use 'sos-rank' for general forms"},
        _EXIT_NOT_XSYM,
        summary="not x-symmetric (try 'biquad sos-rank')",
    )


def _not_psd(command: str, form, invalid: partsym.InvalidReduction, q=(), r=()) -> CommandResult:
    """Exit 2 for a form that ``invalid`` shows is not PSD: the verdict
    payload (see ``_cert_payload``) and its summary."""
    return CommandResult(
        command, "not-psd", _cert_payload(form, q, r, invalid), _EXIT_NOT_PSD,
        summary=f"NotPSD: {invalid.reason}; witness value {invalid.value:.6g}",
    )


def _verdict(command: str, data: partsym.XSymmetricData, cert: partsym.PSDCertificate) -> CommandResult:
    """check-psd's result for a certificate, and decompose's for one that fails."""
    q, r = cert.q.eigenvalues, cert.r.eigenvalues
    if not cert.psd:
        return _not_psd(command, data, cert.evidence, q, r)
    return CommandResult(
        command, "ok", _cert_payload(data, q, r), _EXIT_OK,
        summary=f"PSD: min eig(Q) = {min(q, default=0.0):.6g}, min eig(R) = {min(r, default=0.0):.6g}",
    )


def cmd_check_psd(args) -> CommandResult:
    tol, _, data = _load_and_detect(args)
    if data is None:
        return _not_xsym("check-psd")
    return _verdict("check-psd", data, partsym.check_psd_monic(data, tol))


def _reverified(form, dec, what: str, slack: float = 0.0) -> dict:
    """The residual of a decomposition the command built and the bound it
    met; a failed re-verification raises NumericalError."""
    passed, resid = forms.verify_sos(form, dec, slack=slack)
    bound = forms.residual_bound(form, slack)
    if not passed:
        raise NumericalError(f"{what} failed re-verification: residual {resid:.3e} exceeds {bound:.3e}")
    return {"max_residual": resid, "residual_bound": bound}


def cmd_decompose(args) -> CommandResult:
    tol, _, data = _load_and_detect(args)
    if data is None:
        return _not_xsym("decompose")
    cert = partsym.check_psd_monic(data, tol)
    if not cert.psd:
        return _verdict("decompose", data, cert)
    dec = partsym.sos_decompose_structured(data, tol, cert)
    residual = _reverified(data, dec, "decomposition", cert.slack)
    forms.save_decomposition(dec, args.out)
    payload = {"factor_count": len(dec), **residual, "out": args.out}
    return CommandResult(
        "decompose", "ok", payload, _EXIT_OK,
        summary=f"{len(dec)} bilinear squares; max residual {residual['max_residual']:.3e} -> {args.out}",
    )


def cmd_verify(args) -> CommandResult:
    """Check a decomposition file against a form loaded as ``decompose``
    loads it, with the bound ``decompose`` applies: an x-symmetric form
    gets its PSD certificate's slack, any other form file none, and a data
    file whose transpose is not x-symmetric exits 3; no dense tensor."""
    tol, cells, data = _load_and_detect(args)
    if data is not None:
        form, slack = data, partsym.check_psd_monic(data, tol).slack
    elif cells is not None:
        form, slack = cells, 0.0
    else:
        return _not_xsym("verify")
    dec = forms.load_decomposition(args.dec)
    payload = {"verified": True, **_reverified(form, dec, "decomposition file", slack), "factor_count": len(dec)}
    return CommandResult(
        "verify", "ok", payload, _EXIT_OK,
        summary=f"{len(dec)} bilinear squares verified; max residual {payload['max_residual']:.3e} "
                f"<= {payload['residual_bound']:.3e}",
    )


def cmd_gen_simple(args) -> CommandResult:
    support = simple.gen_simple(args.m, args.n, args.s)
    forms.dump_json(simple.form_record(support), args.out)
    rank = simple.lower_bound_certificate(support).bound
    payload = {"support": simple.support_to_dict(support), "out": args.out,
               "sos_rank": rank, "upper_bound": len(support), "exact": rank is not None}
    summary = (f"SOS rank exactly {rank}" if rank is not None
               else f"support has a rectangle; SOS rank <= {len(support)} (try 'biquad sos-rank')")
    return CommandResult("gen-simple", "ok", payload, _EXIT_OK,
                         summary=f"P_({args.m},{args.n},{args.s}): {summary} -> {args.out}")


def _universal_bound(m: int, n: int) -> int:
    """Known SOS-rank bound of every SOS m x n form: 4 for 3 x 2 and 2 x 3
    (tight by the paper's m x 2 example with m + 1 squares), otherwise mn - 1
    when both sides are at least 2 (the paper's universal bound), else mn."""
    if sorted((m, n)) == [2, 3]:
        return 4
    return m * n - 1 if m >= 2 and n >= 2 else m * n


def _no_gram_point(command: str, form, tol, payload: dict, summary: str, **probe_args) -> CommandResult:
    """sos-rank's and reduce-rank's result when no PSD Gram point was found:
    exit 2 with a witness when the min-seeking M-eigen starts of
    ``meig.min_probe(form, **probe_args)`` reach P(x, y) < -eps * max|c|,
    else exit 4 with the command's own ``payload`` and ``summary``."""
    _, (x, y) = meig.min_probe(form, **probe_args)
    value = forms.evaluate(form, x, y)
    if value < -tol.eps * forms.max_abs_coeff(form):
        return _not_psd(command, form, partsym.InvalidReduction(
            x, y, value, "min-seeking M-eigen starts found P(x, y) < 0"))
    return CommandResult(command, "inconclusive", payload, _EXIT_INCONCLUSIVE, summary=f"inconclusive: {summary}")


def cmd_sos_rank(args) -> CommandResult:
    tol = _tolerances(args)
    form = _dense_input(args, gram.check_size)
    family = gram.build_family(form)
    try:
        point, rank = gram.min_rank_search(family, restarts=args.restarts, seed=args.seed, tol=tol)
    except NoPSDPointFound:
        return _no_gram_point(
            "sos-rank", form, tol,
            {"seed": args.seed, "restarts": args.restarts,
             "note": "no PSD Gram point found; the form may be PSD but not SOS, or another seed may find one"},
            "no PSD Gram point found", seed=args.seed, restarts=args.restarts,
        )
    residual = _reverified(form, gram.factor_gram(point, tol), "Gram factorization")
    universal = _universal_bound(form.m, form.n)
    lower = gram.rank_floor(family, tol)
    payload = {
        "upper_bound": rank,
        "gram_point": {"gamma": _vec(point.gamma), "rank": rank},
        "lower_bound": lower,
        "exact": lower == rank,
        "universal_bound": universal,
        **residual,
        "seed": args.seed,
        "restarts": args.restarts,
    }
    if payload["exact"]:
        summary = f"SOS rank exactly {rank} (lower bound meets heuristic upper bound)"
    else:
        summary = f"SOS rank <= {rank} (heuristic upper bound; universal bound {universal}), >= {lower}"
    return CommandResult("sos-rank", "ok", payload, _EXIT_OK, summary=summary + f"; seed {args.seed}")


def cmd_reduce_rank(args) -> CommandResult:
    tol = _tolerances(args)
    form = _dense_input(args, gram.check_size)
    family = gram.build_family(form)
    try:
        start = gram.psd_point(family, seed=args.seed, tol=tol)
    except NoPSDPointFound:
        return _no_gram_point(
            "reduce-rank", form, tol, {"seed": args.seed, "note": "no PSD Gram point found to start from"},
            "no PSD starting point", seed=args.seed,
        )
    reduced = gram.reduce_to_boundary(family, start, seed=args.seed, tol=tol)
    dec = gram.factor_gram(reduced, tol)
    residual = _reverified(form, dec, "Gram factorization")
    rank = len(dec)  # one factor per eigenvalue above the rank cutoff
    payload = {"gamma": _vec(reduced.gamma), "rank": rank, **residual, "seed": args.seed}
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
    form = _dense_input(args, meig.check_size)
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


def _add_common(sub, tol="rank/PSD tolerance (default 1e-9)", seed=True, transpose=False, restarts=None):
    sub.add_argument("--json", action="store_true", help="print the JSON payload instead of a summary")
    if tol:
        sub.add_argument("--tol", type=float, default=None, help=tol)
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

    p = subs.add_parser("verify", help="check a decomposition file against its form, coefficient by coefficient")
    p.add_argument("form", help="form file (terms) or x-symmetric data file (m, d, A, B)")
    p.add_argument("dec", help="decomposition file, as written by decompose")
    _add_common(p, seed=False, transpose=True)

    p = subs.add_parser("gen-simple", help="generate a simple form of the diagonal-walk series")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument("out", help="output form file")
    _add_common(p, tol=None, seed=False)

    p = subs.add_parser("sos-rank", help="heuristic SOS-rank bounds via the Gram family")
    p.add_argument("form")
    _add_common(p, transpose=True, restarts=20)

    p = subs.add_parser("reduce-rank", help="walk a PSD Gram point to the cone boundary (rank <= mn-1)")
    p.add_argument("form")
    p.add_argument("--out", default=None, help="optional output Gram-point file")
    _add_common(p, transpose=True)

    p = subs.add_parser("meig", help="M-eigenpairs of a small form")
    p.add_argument("form")
    _add_common(p, tol="eigenpair residual bound, relative to max|c| (default 1e-10)", transpose=True, restarts=20)

    return parser


# Failures a command may end in: exception types -> (status, exit code,
# message prefix, formatted with the exception's type name as {kind}).  The
# first matching row wins, so subclasses come first; the last row turns any
# other failure into exit 1 with the envelope instead of a traceback.
_FAILURES = (
    ((NotPSD,), "not-psd", _EXIT_NOT_PSD, ""),
    ((json.JSONDecodeError,), "error", _EXIT_ERROR, "parse failure: "),
    ((MemoryError,), "error", _EXIT_ERROR, "out of memory: "),
    ((InvalidInput, OSError, ValueError, CannotReduce, NumericalError), "error", _EXIT_ERROR, ""),
    ((Exception,), "error", _EXIT_ERROR, "internal error: {kind}: "),
)
_CAUGHT = tuple(kind for kinds, *_ in _FAILURES for kind in kinds)


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
        if getattr(args, "restarts", None) is not None:
            require_count("--restarts", args.restarts)
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
