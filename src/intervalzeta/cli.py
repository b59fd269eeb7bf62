"""Command-line surface with machine-readable output.

Subcommands mirror the library modules; every command emits JSON (sorted
keys, deterministic) or CSV to stdout or --out.  Exit codes: 0 success,
1 domain failure with a structured reason, 2 usage error.

The whole surface is one table, `_COMMANDS`: group -> (help, {command ->
(handler, the flags it reads)}); every subcommand also takes the `_COMMON`
flags.  The types of `--order`, `--tol`, the size flags and the list flags
(capped by `SIZE_CAPS`) refuse out-of-range values as usage errors.  A
handler gets the parsed namespace alone; `main` writes a `DomainFailure` or
library error it raises as one JSON failure line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from decimal import Decimal
from fractions import Fraction

from . import combinatorics as comb
from . import cubicfam, fibmap, kneading, subshift, zeta
from .series import RationalFn, detect_eventual_periodicity, poly_mul, rf_to_series


class DomainFailure(Exception):
    """A refusal: its message is the failure's reason, `payload` adds fields."""

    def __init__(self, reason: str, **payload):
        super().__init__(reason)
        self.payload = payload


# a decimal exponent of this size or more is a usage error: 10^4300 has more
# digits than the int-to-str limit, 4300, lets an argument write out
_MAX_EXPONENT = 4300


def _fraction(text: str) -> Fraction:
    """A rational as `Fraction` reads it; its decimal exponent is read first,
    so that a large one is refused before Fraction builds 10^|exponent|."""
    try:
        exponent = abs(int(text.lower().partition("e")[2]))
    except ValueError:  # no exponent, or one Fraction refuses too
        exponent = 0
    if exponent >= _MAX_EXPONENT:
        raise argparse.ArgumentTypeError("a decimal exponent must be below %d in size: %r" % (_MAX_EXPONENT, text))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not a rational number: %r" % text) from exc


# the largest value of each integer size flag, and the most entries of each
# list flag (rows of --matrix): a larger one is a usage error, refused before
# any work is done.  Each is at least ten times the largest value the README,
# the tests and the benchmark use.
SIZE_CAPS = {"--nu": 100, "--order": 2048, "--n": 120, "--steps": 80, "--rho": 300, "--prefix": 100,
             "--cycle": 100, "--counts": 200, "--zeta-num": 100, "--zeta-den": 100, "--coeffs": 1000,
             "--matrix": 30}


def _size(flag: str, least: int | None = None):
    """The type of an integer size flag: above its cap, or below `least`
    when given, a value is a usage error."""
    cap = SIZE_CAPS[flag]

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError("not an integer: %r" % text) from exc
        if least is not None and value < least:
            raise argparse.ArgumentTypeError("%s must be >= %d" % (flag, least))
        if value > cap:
            raise argparse.ArgumentTypeError("%s must be <= %d" % (flag, cap))
        return value

    return parse


def _int_list(flag: str):
    """The type of a comma-separated integer list flag: more entries than
    its cap is a usage error."""
    cap = SIZE_CAPS[flag]

    def parse(text: str) -> list[int]:
        try:
            values = [int(tok) for tok in text.split(",") if tok != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError("not a comma-separated integer list: %r" % text) from exc
        if len(values) > cap:
            raise argparse.ArgumentTypeError("%s takes at most %d entries" % (flag, cap))
        return values

    return parse


def _tol(text: str) -> Fraction:
    """The exact decimal written: finite, > 0, and no finer than the
    narrowest bracket `fib find-lambda` reaches, 2^-2000.  A tol of 1 or more
    is read as 1, which the starting bracket [1, 2] already meets."""
    try:
        float(text)  # the syntax accepted is a float's
    except ValueError as exc:
        raise argparse.ArgumentTypeError("not a number: %r" % text) from exc
    tol = Decimal(text)
    if not tol.is_finite() or tol <= 0:
        raise argparse.ArgumentTypeError("--tol must be > 0 and finite")
    if tol >= 1:
        return Fraction(1)
    # a tol below 10^-bits is below 2^-bits, and is refused before its
    # exact value, 10^|exponent| in size, is built
    bits = fibmap.MAX_BISECTIONS
    if tol.adjusted() < -bits or Fraction(tol) < Fraction(1, 2**bits):
        raise argparse.ArgumentTypeError("--tol must be >= 2^-%d, the narrowest bracket find-lambda reaches" % bits)
    return Fraction(tol)


def _matrix(text: str) -> subshift.AdjMatrix:
    try:
        rows = [[int(tok) for tok in row.split(",")] for row in text.split(";")]
        if len(rows) <= SIZE_CAPS["--matrix"]:
            return subshift.AdjMatrix(rows)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("not a matrix like '0,1;1,1': %r" % text) from exc
    raise argparse.ArgumentTypeError("--matrix takes at most %d rows" % SIZE_CAPS["--matrix"])


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
    shape = kneading.lap_shape(model)
    det = kneading.kneading_determinant(model, args.order)
    payload = {
        "rho": list(model.rho),
        "shape": list(shape),
        "determinant": det.to_json(),
        # kneading_determinant has checked that every deletable column agrees
        "per_column": [det.to_json()] * len(shape),
    }
    _emit(payload, args)


def _cmd_knead_matrix(args):
    model = comb.pl_model(args.rho)
    kd = kneading.kneading_matrix(model)
    payload = {
        "rho": list(model.rho),
        "shape": list(kd.shape),
        "matrix": [[e.to_json() for e in row] for row in kd.series(args.order)],
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
    _emit({"counts": counts, "zeta": zeta.zeta_from_counts(counts).to_json()}, args)


def _cmd_zeta_sft(args):
    counts = subshift.sft_periodic_counts(args.matrix, args.n)
    _emit({"counts": counts}, args)


def _cmd_zeta_closed_form(args):
    rf = zeta.zeta_vu_closed_form(args.nu)
    counts = zeta.counts_from_zeta(rf, args.order)
    _emit({"nu": args.nu, "zeta": rf.to_json(), "counts": counts}, args)


def _cmd_zeta_mt_check(args):
    model = comb.pl_model(args.rho)
    det = kneading.kneading_rational(model)
    factors = zeta.mt_relation_check(args.zeta_num, args.zeta_den, det)
    if factors is None:
        raise DomainFailure("no cyclotomic factorization found", rho=list(model.rho))
    # zeta = 1/(Phi D), Phi the product of the (1 - t^p), in reduced form
    rf = RationalFn(det.den, functools.reduce(poly_mul, [(1, *[0] * (p - 1), -1) for p in factors], det.num))
    _emit({"rho": list(model.rho), "zeta": rf.to_json(), "phi_factors": factors}, args)


# ---------------------------------------------------------------------------
# cubic
# ---------------------------------------------------------------------------


def _cmd_cubic_report(args):
    cubicfam.check_size("nmax", args.nmax)
    cubicfam.check_size("depth", args.depth)
    s = args.s
    poly, par = cubicfam.cubic_family(s)
    alpha, beta, counts = cubicfam.periodic_counts(s, args.nmax)
    pieces = cubicfam.repeller_pieces(s, args.depth)
    disjoint = cubicfam.pairwise_disjoint([p.interval for p in pieces])
    payload = {
        "s": str(par.s),
        "a": str(par.a),
        "b": str(par.b),
        "c_s": str(par.c_s),
        "coefficients": [str(c) for c in poly],
        "identities": {
            "critical_orbit": cubicfam.verify_critical_orbit(s),
            "critical_value_match": cubicfam.critical_value_direct(s) == cubicfam.critical_value_factored(s),
        },
        "endpoints": {"alpha": alpha, "beta": beta},
        "counts": [c.count for c in counts],
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
    rows = []
    for k in range(steps + 1):
        s = lo + (hi - lo) * Fraction(k, steps)
        alpha, beta, counts = cubicfam.periodic_counts(s, 6)
        rows.append([str(s), float(cubicfam.critical_value(s)), alpha, beta, *(c.count for c in counts)])
    header = ["s", "F_s(c_s)", "alpha", "beta", "N1", "N2", "N3", "N4", "N5", "N6"]
    payload = [dict(zip(header, row)) for row in rows]
    _emit(payload, args, csv_rows=rows, csv_header=header)


def _cmd_cubic_count(args):
    result = cubicfam.count_periodic(args.s, args.n)
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
    fibmap.check_budget(args.lam, kmax)
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
            "nu": [str(v) for v in diam.nu],
            "C": [str(v) for v in diam.C],
            "residuals": [str(v) for v in diam.residuals],
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


_RHO = _required("--rho", _int_list("--rho"))
_S = _required("--s", _fraction)
_NU = _required("--nu", _size("--nu"))
_N = _required("--n", _size("--n"))
_ORDER = ("--order", {"type": _size("--order", least=8), "default": 64,
                      "help": "series truncation order (8..%d)" % SIZE_CAPS["--order"]})
_TOL = ("--tol", {"type": _tol, "default": Fraction(1, 10**12), "help": "numeric tolerance (> 0)"})
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
        "generate": (_cmd_comb_generate, [_NU]),
        "orbit": (_cmd_comb_orbit, [_RHO, _required("--index", int)]),
    }),
    "knead": ("kneading data", {
        "det": (_cmd_knead_det, [_RHO, _ORDER]),
        "matrix": (_cmd_knead_matrix, [_RHO, _ORDER]),
        # an immutable default: the cached parser hands it to every call
        "unimodal": (_cmd_knead_unimodal, [("--prefix", {"type": _int_list("--prefix"), "default": ()}),
                                           _required("--cycle", _int_list("--cycle")), _ORDER]),
    }),
    "zeta": ("zeta functions", {
        "from-counts": (_cmd_zeta_from_counts, [_required("--counts", _int_list("--counts"))]),
        "sft": (_cmd_zeta_sft, [_required("--matrix", _matrix), _N]),
        "closed-form": (_cmd_zeta_closed_form, [_NU,
                                                 ("--order", {**_ORDER[1], "default": 24,
                                                              "help": "number of counts N_1..N_order"})]),
        # exact, so --order is ignored; kept because bench/workloads.py and the README pass it
        "mt-check": (_cmd_zeta_mt_check, [_RHO, _required("--zeta-num", _int_list("--zeta-num")),
                                          _required("--zeta-den", _int_list("--zeta-den")),
                                          ("--order", {**_ORDER[1], "help": "accepted and ignored"})]),
    }),
    "cubic": ("the cubic family", {
        "report": (_cmd_cubic_report, [_S, ("--nmax", {"type": int, "default": 4}), _DEPTH]),
        "sweep": (_cmd_cubic_sweep, [_required("--from", _fraction, dest="start"),
                                     _required("--to", _fraction, dest="stop"),
                                     _required("--steps", _size("--steps", least=1)), _FORMAT]),
        "count": (_cmd_cubic_count, [_S, _N]),
        "repeller": (_cmd_cubic_repeller, [_S, _DEPTH]),
    }),
    "fib": ("Fibonacci tent map", {
        "find-lambda": (_cmd_fib_find_lambda, [_DEPTH, _TOL]),
        "check": (_cmd_fib_check, [_required("--lambda", _fraction, dest="lam"),
                                   ("--kmax", {"type": int, "default": 6}), _FORMAT]),
    }),
    "series": ("series utilities", {
        "detect-period": (_cmd_series_detect_period, [_required("--coeffs", _int_list("--coeffs"))]),
    }),
}


class _Parser(argparse.ArgumentParser):
    """argparse of Python 3.11 drops an option value that is exactly
    "--" (as in `--n=--`) and stores [] without calling the option's type;
    here "--" is converted and checked like any other value."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="intervalzeta")
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
    # the interpreter's int-to-str digit limit (Python >= 3.10.7) guards the
    # parsing of untrusted text, which parse_args has finished; a computed
    # result prints whole
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args.fn(args)
    except (DomainFailure, ValueError, ArithmeticError, RuntimeError) as exc:
        sys.stdout.write(_json_line({"ok": False, "reason": str(exc), **getattr(exc, "payload", {})}))
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
