"""Command-line surface with machine-readable output.

Subcommands mirror the library modules; every command emits JSON (sorted
keys, deterministic) or CSV to stdout or --out.  Exit codes: 0 success,
1 domain failure with a structured reason, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from . import combinatorics as comb
from . import cubicfam, fibmap, kneading, subshift, zeta
from .series import RationalFn, detect_eventual_periodicity, rf_to_series


class DomainFailure(Exception):
    def __init__(self, reason: str, **payload):
        super().__init__(reason)
        self.reason = reason
        self.payload = payload


@dataclass
class RunConfig:
    order: int = 64
    tol: float = 1e-12
    depth: int = 6
    fmt: str = "json"
    out: str | None = None


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


def _matrix(text: str) -> subshift.AdjMatrix:
    try:
        rows = [[int(tok) for tok in row.split(",")] for row in text.split(";")]
        return subshift.AdjMatrix(rows)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("not a matrix like '0,1;1,1': %r" % text) from exc


def _emit(payload, cfg: RunConfig, csv_rows=None, csv_header=None) -> None:
    if cfg.fmt == "csv":
        if csv_rows is None:
            raise DomainFailure("csv output is not available for this subcommand")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
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


def _cmd_comb_validate(args, cfg: RunConfig):
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
    _emit(payload, cfg)


def _cmd_comb_generate(args, cfg: RunConfig):
    rho = comb.generate_vu(args.nu)
    payload = {
        "rho": list(rho),
        "vu": comb.is_virtually_unimodal(rho) is not None,
        "expanding": bool(comb.is_expanding(rho)),
    }
    _emit(payload, cfg)


def _cmd_comb_orbit(args, cfg: RunConfig):
    info = comb.orbit(args.rho, args.index)
    _emit({"index": args.index, "preperiod": info.preperiod, "cycle": list(info.cycle)}, cfg)


# ---------------------------------------------------------------------------
# knead
# ---------------------------------------------------------------------------


def _cmd_knead_det(args, cfg: RunConfig):
    model = comb.pl_model(args.rho)
    pm = kneading.PMMap.from_pl_model(model)
    det = rf_to_series(kneading.kneading_rational(pm), cfg.order)
    payload = {
        "rho": list(model.rho),
        "shape": list(pm.shape),
        "determinant": det.to_json(),
        # kneading_rational has checked that every deletable column agrees
        "per_column": [det.to_json()] * (pm.modality + 1),
    }
    _emit(payload, cfg)


def _cmd_knead_matrix(args, cfg: RunConfig):
    model = comb.pl_model(args.rho)
    kd = kneading.kneading_matrix(model, cfg.order)
    payload = {
        "rho": list(model.rho),
        "shape": list(kd.shape),
        "matrix": [[e.to_json() for e in row] for row in kd.matrix],
    }
    _emit(payload, cfg)


def _cmd_knead_unimodal(args, cfg: RunConfig):
    prefix = args.prefix or []
    cycle = args.cycle
    rf = kneading.unimodal_rational_form(prefix, cycle)
    eps = list(prefix) + [cycle[(n - len(prefix)) % len(cycle)] for n in range(len(prefix), cfg.order)]
    series = kneading.unimodal_kneading(eps, cfg.order)
    payload = {
        "prefix": list(prefix),
        "cycle": list(cycle),
        "rational": rf.to_json(),
        "series": series.to_json(),
        "match": rf_to_series(rf, cfg.order).coeffs == series.coeffs,
    }
    _emit(payload, cfg)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def _cmd_zeta_from_counts(args, cfg: RunConfig):
    counts = args.counts
    order = min(cfg.order, len(counts))
    _emit({"counts": counts, "zeta": zeta.zeta_from_counts(counts, order).to_json()}, cfg)


def _cmd_zeta_sft(args, cfg: RunConfig):
    counts = subshift.sft_periodic_counts(args.matrix, args.n)
    _emit({"counts": counts}, cfg)


def _cmd_zeta_closed_form(args, cfg: RunConfig):
    rf = zeta.zeta_vu_closed_form(args.nu)
    counts = zeta.counts_from_zeta(rf, min(cfg.order, 24))
    _emit({"nu": args.nu, "zeta": rf.to_json(), "counts": counts}, cfg)


def _cmd_zeta_mt_check(args, cfg: RunConfig):
    model = comb.pl_model(args.rho)
    det = kneading.kneading_rational(model)
    rf = RationalFn(tuple(args.zeta_num), tuple(args.zeta_den))
    factors = zeta.mt_relation_check(rf, det)
    if factors is None:
        raise DomainFailure("no cyclotomic factorization found", rho=list(model.rho))
    _emit({"rho": list(model.rho), "zeta": rf.to_json(), "phi_factors": factors}, cfg)


# ---------------------------------------------------------------------------
# cubic
# ---------------------------------------------------------------------------


def _cubic_counts(s: Fraction, n_max: int, tol: float) -> list[int]:
    return [cubicfam.count_periodic(s, n, tol).count for n in range(1, n_max + 1)]


def _cmd_cubic_report(args, cfg: RunConfig):
    s = args.s
    poly, par = cubicfam.cubic_family(s)
    alpha, beta = cubicfam.filled_julia_endpoints(s, cfg.tol)
    counts = _cubic_counts(s, args.nmax, cfg.tol)
    pieces = cubicfam.repeller_pieces(s, cfg.depth)
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
            "depth": cfg.depth,
            "pieces": len(pieces),
            "max_diameter": max(p.interval.diameter for p in pieces),
            "disjoint": disjoint,
        },
    }
    _emit(payload, cfg)


def _cmd_cubic_sweep(args, cfg: RunConfig):
    lo, hi, steps = args.start, args.stop, args.steps
    if steps < 1:
        raise DomainFailure("steps must be >= 1")
    rows = []
    for k in range(steps + 1):
        s = lo + (hi - lo) * Fraction(k, steps) if steps else lo
        alpha, beta = cubicfam.filled_julia_endpoints(s, cfg.tol)
        counts = _cubic_counts(s, 6, cfg.tol)
        rows.append([str(s), float(cubicfam.critical_value(s)), alpha, beta, *counts])
    header = ["s", "F_s(c_s)", "alpha", "beta", "N1", "N2", "N3", "N4", "N5", "N6"]
    payload = [dict(zip(header, row)) for row in rows]
    _emit(payload, cfg, csv_rows=rows, csv_header=header)


def _cmd_cubic_count(args, cfg: RunConfig):
    result = cubicfam.count_periodic(args.s, args.n, cfg.tol)
    _emit({"s": str(args.s), "n": result.n, "count": result.count, "flagged": list(result.flagged)}, cfg)


def _cmd_cubic_repeller(args, cfg: RunConfig):
    pieces = cubicfam.repeller_pieces(args.s, cfg.depth)
    payload = {
        "s": str(args.s),
        "depth": cfg.depth,
        "pieces": [
            {"word": p.word, "collapsed": p.collapsed, "lo": p.interval.lo, "hi": p.interval.hi}
            for p in pieces
        ],
        "count": len(pieces),
        "max_diameter": max(p.interval.diameter for p in pieces),
    }
    _emit(payload, cfg)


# ---------------------------------------------------------------------------
# fib
# ---------------------------------------------------------------------------


def _cmd_fib_find_lambda(args, cfg: RunConfig):
    try:
        result = fibmap.find_fib_lambda(cfg.depth, Fraction(cfg.tol).limit_denominator(10**15))
    except fibmap.BracketError as exc:
        raise DomainFailure(str(exc))
    payload = {
        "depth": cfg.depth,
        "lambda": str(result.lam),
        "value": result.value,
        "bracket": [str(result.bracket[0]), str(result.bracket[1])],
    }
    _emit(payload, cfg)


def _cmd_fib_check(args, cfg: RunConfig):
    kmax = args.kmax
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
    _emit(payload, cfg, csv_rows=rows, csv_header=["k", "nu", "C", "residual"])


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _cmd_series_detect_period(args, cfg: RunConfig):
    cert = detect_eventual_periodicity(args.coeffs)
    payload = {
        "coeffs_inspected": len(args.coeffs),
        "certificate": None
        if cert is None
        else {"preperiod": cert.preperiod, "period": cert.period, "depth": cert.depth},
    }
    _emit(payload, cfg)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--order", type=int, default=64, help="series truncation order (>= 8)")
    p.add_argument("--tol", type=float, default=1e-12, help="numeric tolerance (> 0)")
    p.add_argument("--depth", type=int, default=6, help="depth for word/piece constructions")
    p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intervalzeta")
    sub = parser.add_subparsers(dest="group", required=True)

    g = sub.add_parser("comb", help="combinatorics vectors").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("validate")
    p.add_argument("--rho", type=_int_list, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_comb_validate)
    p = g.add_parser("generate")
    p.add_argument("--nu", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_comb_generate)
    p = g.add_parser("orbit")
    p.add_argument("--rho", type=_int_list, required=True)
    p.add_argument("--index", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_comb_orbit)

    g = sub.add_parser("knead", help="kneading data").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("det")
    p.add_argument("--rho", type=_int_list, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_knead_det)
    p = g.add_parser("matrix")
    p.add_argument("--rho", type=_int_list, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_knead_matrix)
    p = g.add_parser("unimodal")
    p.add_argument("--prefix", type=_int_list, default=[])
    p.add_argument("--cycle", type=_int_list, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_knead_unimodal)

    g = sub.add_parser("zeta", help="zeta functions").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("from-counts")
    p.add_argument("--counts", type=_int_list, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_zeta_from_counts)
    p = g.add_parser("sft")
    p.add_argument("--matrix", type=_matrix, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_zeta_sft)
    p = g.add_parser("closed-form")
    p.add_argument("--nu", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_zeta_closed_form)
    p = g.add_parser("mt-check")
    p.add_argument("--rho", type=_int_list, required=True)
    p.add_argument("--zeta-num", type=_int_list, required=True)
    p.add_argument("--zeta-den", type=_int_list, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_zeta_mt_check)

    g = sub.add_parser("cubic", help="the cubic family").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("report")
    p.add_argument("--s", type=_fraction, required=True)
    p.add_argument("--nmax", type=int, default=4)
    _add_common(p)
    p.set_defaults(fn=_cmd_cubic_report)
    p = g.add_parser("sweep")
    p.add_argument("--from", dest="start", type=_fraction, required=True)
    p.add_argument("--to", dest="stop", type=_fraction, required=True)
    p.add_argument("--steps", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_cubic_sweep)
    p = g.add_parser("count")
    p.add_argument("--s", type=_fraction, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_cubic_count)
    p = g.add_parser("repeller")
    p.add_argument("--s", type=_fraction, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_cubic_repeller)

    g = sub.add_parser("fib", help="Fibonacci tent map").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("find-lambda")
    _add_common(p)
    p.set_defaults(fn=_cmd_fib_find_lambda)
    p = g.add_parser("check")
    p.add_argument("--lambda", dest="lam", type=_fraction, required=True)
    p.add_argument("--kmax", type=int, default=6)
    _add_common(p)
    p.set_defaults(fn=_cmd_fib_check)

    g = sub.add_parser("series", help="series utilities").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("detect-period")
    p.add_argument("--coeffs", type=_int_list, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_series_detect_period)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.order < 8:
        parser.error("--order must be >= 8")
    if args.tol <= 0:
        parser.error("--tol must be > 0")
    cfg = RunConfig(order=args.order, tol=args.tol, depth=args.depth, fmt=args.fmt, out=args.out)
    try:
        args.fn(args, cfg)
    except DomainFailure as exc:
        payload = {"ok": False, "reason": exc.reason, **exc.payload}
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        return 1
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        payload = {"ok": False, "reason": str(exc)}
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
