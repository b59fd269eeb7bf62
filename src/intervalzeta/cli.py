"""Command-line surface with machine-readable output.

Subcommands mirror the library modules; every command emits JSON (sorted
keys, deterministic) or CSV to stdout or --out.  Exit codes: 0 success,
1 domain failure with a structured reason, 2 usage error.

The whole surface is one table, `_COMMANDS`: group -> (help, {command ->
(handler, the flags it reads)}); every subcommand also takes the `_COMMON`
flags.  The `--order` and `--tol` types refuse out-of-range values as usage
errors.  A handler gets the parsed namespace alone; `main` writes a
`DomainFailure` or library error it raises as one JSON failure line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

from . import combinatorics as comb
from . import cubicfam, fibmap, kneading, subshift, zeta
from .series import RationalFn, detect_eventual_periodicity, rf_to_series


class DomainFailure(Exception):
    """A refusal: its message is the failure's reason, `payload` adds fields."""

    def __init__(self, reason: str, **payload):
        super().__init__(reason)
        self.payload = payload


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not a rational number: %r" % text) from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError("not a comma-separated integer list: %r" % text) from exc


def _order(text: str) -> int:
    try:
        order = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from exc
    if order < 8:
        raise argparse.ArgumentTypeError("--order must be >= 8")
    return order


def _tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("not a number: %r" % text) from exc
    if not 0 < tol < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError("--tol must be > 0 and finite")
    return tol


def _matrix(text: str) -> subshift.AdjMatrix:
    try:
        rows = [[int(tok) for tok in row.split(",")] for row in text.split(";")]
        return subshift.AdjMatrix(rows)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("not a matrix like '0,1;1,1': %r" % text) from exc


def _json_line(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(payload, args, csv_rows=None, csv_header=None) -> None:
    """Write `payload` as one JSON line, or `csv_rows` under --format csv;
    only the handlers of subcommands that take --format pass rows."""
    if csv_rows is not None and args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = _json_line(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainFailure("cannot write --out: %s" % exc)
    else:
        sys.stdout.write(text)


def _fraction_text(q: Fraction) -> str:
    """str(q), also beyond the interpreter's limit on int-to-str digits."""
    text = str(Decimal(q.numerator))
    return text if q.denominator == 1 else "%s/%s" % (text, Decimal(q.denominator))


# ---------------------------------------------------------------------------
# comb
# ---------------------------------------------------------------------------


def _cmd_comb_validate(args):
    rho = comb.Combinatorics(tuple(args.rho))
    pm = comb.is_pm(rho)
    if not pm:
        raise DomainFailure("adjacent equal entries at %d" % pm.witness, rho=list(rho))
    own = comb.is_own_combinatorics(rho)
    if not own:
        raise DomainFailure(
            "cycles outside turning orbits",
            rho=list(rho),
            induced=list(own.induced.entries),
            induced_labels=list(own.induced_labels),
        )
    dominant = comb.is_virtually_unimodal(rho)
    payload = {
        "ok": True,
        "rho": list(rho),
        "pm": True,
        "own_combinatorics": True,
        "framed": comb.is_framed(rho),
        "turning_points": comb.turning_points(rho),
        "vu": dominant is not None,
        "dominant": dominant,
        "expanding": bool(comb.is_expanding(rho)),
    }
    _emit(payload, args)


def _cmd_comb_generate(args):
    rho = comb.generate_vu(args.nu)
    payload = {
        "rho": list(rho),
        "vu": comb.is_virtually_unimodal(rho) is not None,
        "expanding": bool(comb.is_expanding(rho)),
    }
    _emit(payload, args)


def _cmd_comb_orbit(args):
    info = comb.orbit(args.rho, args.index)
    _emit({"index": args.index, "preperiod": info.preperiod, "cycle": list(info.cycle)}, args)


# ---------------------------------------------------------------------------
# knead
# ---------------------------------------------------------------------------


def _cmd_knead_det(args):
    model = comb.pl_model(args.rho)
    pm = kneading.PMMap.from_pl_model(model)
    det = rf_to_series(kneading.kneading_rational(pm), args.order)
    payload = {
        "rho": list(model.rho),
        "shape": list(pm.shape),
        "determinant": det.to_json(),
        # kneading_rational has checked that every deletable column agrees
        "per_column": [det.to_json()] * (pm.modality + 1),
    }
    _emit(payload, args)


def _cmd_knead_matrix(args):
    model = comb.pl_model(args.rho)
    kd = kneading.kneading_matrix(model, args.order)
    payload = {
        "rho": list(model.rho),
        "shape": list(kd.shape),
        "matrix": [[e.to_json() for e in row] for row in kd.matrix],
    }
    _emit(payload, args)


def _cmd_knead_unimodal(args):
    prefix, cycle = args.prefix, args.cycle
    rf = kneading.unimodal_rational_form(prefix, cycle)
    eps = list(prefix) + [cycle[(n - len(prefix)) % len(cycle)] for n in range(len(prefix), args.order)]
    series = kneading.unimodal_kneading(eps, args.order)
    payload = {
        "prefix": list(prefix),
        "cycle": list(cycle),
        "rational": rf.to_json(),
        "series": series.to_json(),
        "match": rf_to_series(rf, args.order).coeffs == series.coeffs,
    }
    _emit(payload, args)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def _cmd_zeta_from_counts(args):
    counts = args.counts
    order = min(args.order, len(counts))
    _emit({"counts": counts, "zeta": zeta.zeta_from_counts(counts, order).to_json()}, args)


def _cmd_zeta_sft(args):
    counts = subshift.sft_periodic_counts(args.matrix, args.n)
    _emit({"counts": counts}, args)


def _cmd_zeta_closed_form(args):
    rf = zeta.zeta_vu_closed_form(args.nu)
    counts = zeta.counts_from_zeta(rf, min(args.order, 24))
    _emit({"nu": args.nu, "zeta": rf.to_json(), "counts": counts}, args)


def _cmd_zeta_mt_check(args):
    model = comb.pl_model(args.rho)
    det = kneading.kneading_rational(model)
    rf = RationalFn(tuple(args.zeta_num), tuple(args.zeta_den))
    factors = zeta.mt_relation_check(rf, det)
    if factors is None:
        raise DomainFailure("no cyclotomic factorization found", rho=list(model.rho))
    _emit({"rho": list(model.rho), "zeta": rf.to_json(), "phi_factors": factors}, args)


# ---------------------------------------------------------------------------
# cubic
# ---------------------------------------------------------------------------


def _cubic_counts(s: Fraction, n_max: int, tol: float) -> list[int]:
    return [cubicfam.count_periodic(s, n, tol).count for n in range(1, n_max + 1)]


def _cmd_cubic_report(args):
    s = args.s
    poly, par = cubicfam.cubic_family(s)
    alpha, beta = cubicfam.filled_julia_endpoints(s, args.tol)
    counts = _cubic_counts(s, args.nmax, args.tol)
    pieces = cubicfam.repeller_pieces(s, args.depth)
    disjoint = all(
        pieces[i].interval.disjoint(pieces[j].interval)
        for i in range(len(pieces))
        for j in range(i + 1, len(pieces))
    )
    payload = {
        "s": str(par.s),
        "a": str(par.a),
        "b": str(par.b),
        "c_s": str(par.c_s),
        "coefficients": [str(c) for c in poly.coeffs],
        "identities": {
            "critical_orbit": cubicfam.verify_critical_orbit(s),
            "critical_value_match": cubicfam.critical_value_direct(s) == cubicfam.critical_value_factored(s),
        },
        "endpoints": {"alpha": alpha, "beta": beta},
        "counts": counts,
        "repeller": {
            "depth": args.depth,
            "pieces": len(pieces),
            "max_diameter": max(p.interval.diameter for p in pieces),
            "disjoint": disjoint,
        },
    }
    _emit(payload, args)


def _cmd_cubic_sweep(args):
    lo, hi, steps = args.start, args.stop, args.steps
    if steps < 1:
        raise DomainFailure("steps must be >= 1")
    rows = []
    for k in range(steps + 1):
        s = lo + (hi - lo) * Fraction(k, steps)
        alpha, beta = cubicfam.filled_julia_endpoints(s, args.tol)
        counts = _cubic_counts(s, 6, args.tol)
        rows.append([str(s), float(cubicfam.critical_value(s)), alpha, beta, *counts])
    header = ["s", "F_s(c_s)", "alpha", "beta", "N1", "N2", "N3", "N4", "N5", "N6"]
    payload = [dict(zip(header, row)) for row in rows]
    _emit(payload, args, csv_rows=rows, csv_header=header)


def _cmd_cubic_count(args):
    result = cubicfam.count_periodic(args.s, args.n, args.tol)
    _emit({"s": str(args.s), "n": result.n, "count": result.count, "flagged": list(result.flagged)}, args)


def _cmd_cubic_repeller(args):
    pieces = cubicfam.repeller_pieces(args.s, args.depth)
    payload = {
        "s": str(args.s),
        "depth": args.depth,
        "pieces": [
            {"word": p.word, "collapsed": p.collapsed, "lo": p.interval.lo, "hi": p.interval.hi}
            for p in pieces
        ],
        "count": len(pieces),
        "max_diameter": max(p.interval.diameter for p in pieces),
    }
    _emit(payload, args)


# ---------------------------------------------------------------------------
# fib
# ---------------------------------------------------------------------------


def _cmd_fib_find_lambda(args):
    result = fibmap.find_fib_lambda(args.depth, args.tol)
    payload = {
        "depth": args.depth,
        "lambda": str(result.lam),
        "value": result.value,
        "bracket": [str(result.bracket[0]), str(result.bracket[1])],
    }
    _emit(payload, args)


def _cmd_fib_check(args):
    kmax = args.kmax
    if kmax < 0:
        raise DomainFailure("kmax must be >= 0")
    family = fibmap.interval_families(args.lam, kmax + 2)
    structure = fibmap.verify_structure(family, kmax)
    diam = fibmap.diameter_ratios(family, kmax)
    payload = {
        "lambda": str(args.lam),
        "kmax": kmax,
        "orbit_order": fibmap.orbit_order_holds(args.lam, kmax),
        "structure": dict(structure.checks),
        "structure_ok": structure.ok,
        "diameters": {
            "nu": [_fraction_text(v) for v in diam.nu],
            "C": [_fraction_text(v) for v in diam.C],
            "residuals": [_fraction_text(v) for v in diam.residuals],
            "product_ok": diam.product_ok,
        },
    }
    rows = [
        [k, float(diam.nu[k]), float(diam.C[k]), float(diam.residuals[k - 1]) if k >= 1 else ""]
        for k in range(0, kmax + 1)
    ]
    _emit(payload, args, csv_rows=rows, csv_header=["k", "nu", "C", "residual"])


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _cmd_series_detect_period(args):
    cert = detect_eventual_periodicity(args.coeffs)
    payload = {
        "coeffs_inspected": len(args.coeffs),
        "certificate": None
        if cert is None
        else {"preperiod": cert.preperiod, "period": cert.period, "depth": cert.depth},
    }
    _emit(payload, args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _required(flag: str, parse, **kwargs):
    return flag, {"type": parse, "required": True, **kwargs}


_RHO = _required("--rho", _int_list)
_S = _required("--s", _fraction)
_ORDER = ("--order", {"type": _order, "default": 64, "help": "series truncation order (>= 8)"})
_TOL = ("--tol", {"type": _tol, "default": 1e-12, "help": "numeric tolerance (> 0)"})
_DEPTH = ("--depth", {"type": int, "default": 6, "help": "depth for word/piece constructions"})
_FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json", "dest": "fmt"})

# every subcommand takes these after its own arguments
_COMMON = (
    ("--out", {"default": None, "help": "write output to this path instead of stdout"}),
)

# group -> (help, {command -> (handler, the flags it reads)})
_COMMANDS = {
    "comb": ("combinatorics vectors", {
        "validate": (_cmd_comb_validate, [_RHO]),
        "generate": (_cmd_comb_generate, [_required("--nu", int)]),
        "orbit": (_cmd_comb_orbit, [_RHO, _required("--index", int)]),
    }),
    "knead": ("kneading data", {
        "det": (_cmd_knead_det, [_RHO, _ORDER]),
        "matrix": (_cmd_knead_matrix, [_RHO, _ORDER]),
        # an immutable default: the cached parser hands it to every call
        "unimodal": (_cmd_knead_unimodal, [("--prefix", {"type": _int_list, "default": ()}),
                                           _required("--cycle", _int_list), _ORDER]),
    }),
    "zeta": ("zeta functions", {
        "from-counts": (_cmd_zeta_from_counts, [_required("--counts", _int_list), _ORDER]),
        "sft": (_cmd_zeta_sft, [_required("--matrix", _matrix), _required("--n", int)]),
        "closed-form": (_cmd_zeta_closed_form, [_required("--nu", int), _ORDER]),
        # exact, so --order is ignored; kept because bench/workloads.py and the README pass it
        "mt-check": (_cmd_zeta_mt_check, [_RHO, _required("--zeta-num", _int_list),
                                          _required("--zeta-den", _int_list),
                                          ("--order", {**_ORDER[1], "help": "accepted and ignored"})]),
    }),
    "cubic": ("the cubic family", {
        "report": (_cmd_cubic_report, [_S, ("--nmax", {"type": int, "default": 4}), _TOL, _DEPTH]),
        "sweep": (_cmd_cubic_sweep, [_required("--from", _fraction, dest="start"),
                                     _required("--to", _fraction, dest="stop"), _required("--steps", int),
                                     _TOL, _FORMAT]),
        "count": (_cmd_cubic_count, [_S, _required("--n", int), _TOL]),
        "repeller": (_cmd_cubic_repeller, [_S, _DEPTH]),
    }),
    "fib": ("Fibonacci tent map", {
        "find-lambda": (_cmd_fib_find_lambda, [_DEPTH, _TOL]),
        "check": (_cmd_fib_check, [_required("--lambda", _fraction, dest="lam"),
                                   ("--kmax", {"type": int, "default": 6}), _FORMAT]),
    }),
    "series": ("series utilities", {
        "detect-period": (_cmd_series_detect_period, [_required("--coeffs", _int_list)]),
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intervalzeta")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (help_text, commands) in _COMMANDS.items():
        subs = groups.add_parser(group, help=help_text).add_subparsers(dest="cmd", required=True)
        for name, (fn, arguments) in commands.items():
            p = subs.add_parser(name)
            for flag, kwargs in (*arguments, *_COMMON):
                p.add_argument(flag, **kwargs)
            p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (DomainFailure, ValueError, ArithmeticError, RuntimeError) as exc:
        sys.stdout.write(_json_line({"ok": False, "reason": str(exc), **getattr(exc, "payload", {})}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
