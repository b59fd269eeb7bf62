"""Independent checks of every job's output.

Each checker recomputes the expected answer from the mathematics (closed
forms, integer recurrences, brute-force enumeration) without calling into
``intervalzeta``, and returns ``None`` when the output is right or a short
description of what is wrong.  An expected domain failure is right when the
exit code and the ``reason`` match exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import Job, poly_mul, vu_vector

FIB_LAMBDA = 1.7292119317087213


class Mismatch(Exception):
    pass


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def check(job: Job, code: int, out: str, err: str, results: list) -> str | None:
    """Verify one job.  ``results`` holds ``(code, out, err, seconds)`` of
    the jobs of the same pass, for a job that depends on an earlier one."""
    try:
        want_code = job.expect.get("code", 0)
        _need(code == want_code, "exit code %s, expected %s" % (code, want_code))
        if want_code == 2:
            _need(job.expect["reason"] in err, "usage error without %r" % job.expect["reason"])
            return None
        if job.kind.startswith("lib."):
            _need(int(out) == _fixed_points(*job.call), "fixed-point count %s" % out.strip())
            return None
        payload = json.loads(out)
        if want_code == 1:
            _need(payload.get("ok") is False and payload.get("reason") == job.expect["reason"],
                  "reason %r, expected %r" % (payload.get("reason"), job.expect["reason"]))
            if "rho" in job.expect:
                _need(payload.get("rho") == list(job.expect["rho"]), "rho not echoed")
            return None
        CHECKERS[job.kind](job.expect, payload, results[job.after] if job.after is not None else None)
    except Mismatch as exc:
        return "%s: %s" % (job.kind, exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return "%s: malformed output (%s: %s)" % (job.kind, type(exc).__name__, exc)
    return None


# ---------------------------------------------------------------------------
# series helpers over integers and fractions
# ---------------------------------------------------------------------------


def _coeffs(series_json: dict, order: int) -> list[Fraction]:
    _need(series_json["order"] == order, "series order %s, expected %s" % (series_json["order"], order))
    cs = [Fraction(c) for c in series_json["coeffs"]]
    _need(len(cs) == order + 1, "series has %d coefficients" % len(cs))
    return cs


def _expand(num, den, order: int) -> list[Fraction]:
    """Power series of num/den through t^order (den[0] != 0)."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    out: list[Fraction] = []
    for n in range(order + 1):
        s = num[n] if n < len(num) else Fraction(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            s -= den[k] * out[n - k]
        out.append(s / den[0])
    return out


def _mul(a, b, order: int) -> list:
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def _det(matrix, order: int) -> list:
    """Determinant of a small square matrix of series, by cofactors."""
    if len(matrix) == 1:
        return list(matrix[0][0])
    acc = [0] * (order + 1)
    for j, entry in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = _mul(entry, _det(minor, order), order)
        sign = 1 if j % 2 == 0 else -1
        acc = [a + sign * t for a, t in zip(acc, term)]
    return acc


def _turning(rho) -> list[int]:
    return [i for i in range(1, len(rho) - 1) if (rho[i] > rho[i - 1]) != (rho[i + 1] > rho[i])]


def _unimodal_det(rho, order: int) -> list[int]:
    """D(t) = sum of e_1...e_n t^n along the one-sided orbit of c^+.

    A sided point (x, side) sits in the lap on that side of x; the side
    flips on a decreasing lap.  e_n is the slope sign of the lap of the
    n-th sided point."""
    (c,) = _turning(rho)
    n = len(rho) - 1
    left = 1 if rho[1] > rho[0] else -1

    def lap_sign(x, side):
        on_left = x < c or (x == c and side < 0)
        if x == 0:
            on_left = True
        elif x == n:
            on_left = False
        return left if on_left else -left

    x, side = c, 1
    coeffs, prod = [1], 1
    for _ in range(order):
        s = lap_sign(x, side)
        x, side = rho[x], side * s
        prod *= lap_sign(x, side)
        coeffs.append(prod)
    return coeffs


def _expected_det(rho, order: int) -> list:
    """Partial products of kneading signs for unimodal models (the full
    tent gives (1-2t)/(1-t)); (1-t-t^2)/(1-t^3) for the generated VU
    vectors, as for the base unimodal map they are built on."""
    if len(_turning(rho)) == 1:
        return _unimodal_det(rho, order)
    return [1 if n % 3 == 0 else -1 for n in range(order + 1)]


def _lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _vu_counts(nu: int, nmax: int) -> list[int]:
    """N_n from zeta = 1/(Phi_nu(t)(1-t^3)(1-t-t^2)): the log-derivative
    gives L_n + 3[3|n] plus 2[2|n] (even nu, Phi = 1-t^2) or 1 (odd nu)."""
    return [_lucas(n) + (3 if n % 3 == 0 else 0) + ((2 if n % 2 == 0 else 0) if nu % 2 == 0 else 1)
            for n in range(1, nmax + 1)]


CUBIC_COUNTS = _vu_counts(2, 12)  # 1, 5, 7, 9, 11, 23, 29, 49, 79, 125, 199, 327


# ---------------------------------------------------------------------------
# exact-kneading
# ---------------------------------------------------------------------------


def _knead_det(exp, p, prev):
    rho, order = exp["rho"], exp["order"]
    want = _expected_det(rho, order)
    _need(p["rho"] == list(rho), "rho not echoed")
    _need(_coeffs(p["determinant"], order) == want, "determinant differs from the closed form")
    _need(len(p["per_column"]) == len(_turning(rho)) + 1, "wrong number of per-column determinants")
    for col in p["per_column"]:
        _need(_coeffs(col, order) == want, "a per-column determinant differs from the determinant")


def _knead_matrix(exp, p, prev):
    rho, order = exp["rho"], exp["order"]
    m = len(_turning(rho))
    _need(p["rho"] == list(rho), "rho not echoed")
    rows = [[_coeffs(e, order) for e in row] for row in p["matrix"]]
    _need(len(rows) == m and all(len(r) == m + 1 for r in rows), "matrix is not m x (m+1)")
    cuts = [0] + _turning(rho)
    shape = [1 if rho[c + 1] > rho[c] else -1 for c in cuts]
    _need(p["shape"] == shape, "shape %s" % p["shape"])
    want = _expected_det(rho, order)
    for col in (0, m):
        minor = [r[:col] + r[col + 1:] for r in rows]
        det = _det(minor, order)
        sign = 1 if col % 2 == 0 else -1
        # divide by (1 - shape[col] t)
        got, carry = [], 0
        for d in det:
            carry = sign * d + shape[col] * carry
            got.append(carry)
        _need(got == want, "column %d minor does not give the determinant" % col)


def _knead_unimodal(exp, p, prev):
    prefix, cycle, order = exp["prefix"], exp["cycle"], exp["order"]
    _need(p["match"] is True, "match is not true")
    eps = prefix + [cycle[i % len(cycle)] for i in range(order)]
    want, prod = [1], 1
    for e in eps[:order]:
        prod *= e
        want.append(prod)
    _need(_coeffs(p["series"], order) == want, "series differs from the partial products")
    _need(_expand(p["rational"]["num"], p["rational"]["den"], order) == want, "rational form differs")


def _comb_validate(exp, p, prev):
    rho = exp["rho"]
    n = len(rho) - 1
    _need(p["ok"] is True and p["pm"] is True and p["own_combinatorics"] is True, "not accepted")
    _need(p["rho"] == list(rho), "rho not echoed")
    _need(p["turning_points"] == _turning(rho), "turning points %s" % p["turning_points"])
    _need(p["framed"] == (rho[0] in (0, n) and rho[n] in (0, n)), "framed flag")
    _need(p["vu"] is True and p["dominant"] in _turning(rho), "not virtually unimodal")


def _comb_generate(exp, p, prev):
    rho = vu_vector(exp["nu"])
    _need(p == {"rho": list(rho), "vu": True, "expanding": True}, "generated %s" % p.get("rho"))


def _comb_orbit(exp, p, prev):
    rho, x = exp["rho"], exp["index"]
    path = []
    while x not in path:
        path.append(x)
        x = rho[x]
    start = path.index(x)
    _need(p == {"index": exp["index"], "preperiod": start, "cycle": path[start:]}, "orbit %s" % p)


def _zeta_mt(exp, p, prev):
    _need(p["phi_factors"] == exp["factors"], "phi factors %s" % p["phi_factors"])
    _need(p["rho"] == list(exp["rho"]), "rho not echoed")


def _zeta_sft(exp, p, prev):
    rows, k = exp["rows"], len(exp["rows"])
    acc, counts = rows, []
    for _ in range(exp["n"]):
        counts.append(sum(acc[i][i] for i in range(k)))
        acc = [[sum(acc[i][l] * rows[l][j] for l in range(k)) for j in range(k)] for i in range(k)]
    _need(p == {"counts": counts}, "counts %s" % p.get("counts"))


def _zeta_closed_form(exp, p, prev):
    nu = exp["nu"]
    _need(p["counts"] == _vu_counts(nu, 24), "counts %s" % p["counts"][:8])
    phi = [1, 0, -1] if nu % 2 == 0 else [1, -1]
    den = poly_mul(poly_mul(phi, [1, 0, 0, -1]), [1, -1, -1])
    _need(p["zeta"] == {"num": ["1"], "den": [str(c) for c in den]}, "zeta %s" % p["zeta"])


def _zeta_from_counts(exp, p, prev):
    counts = exp["counts"]
    order = len(counts)
    z = [Fraction(1)]
    for n in range(1, order + 1):  # n z_n = sum_k N_k z_{n-k}
        z.append(sum((counts[k - 1] * z[n - k] for k in range(1, n + 1)), Fraction(0)) / n)
    _need(p["counts"] == counts, "counts not echoed")
    _need(_coeffs(p["zeta"], order) == z, "zeta coefficients differ")


def _series_detect(exp, p, prev):
    want = {"preperiod": exp["preperiod"], "period": exp["period"], "depth": exp["depth"]}
    _need(p == {"coeffs_inspected": exp["depth"], "certificate": want}, "certificate %s" % p.get("certificate"))


def _fixed_points(rho, p: int) -> int:
    """Isolated solutions of F^p(x) = x for the PL model of rho.

    F^p is affine between consecutive points of the grid of p-1 fold
    preimages of the integers, so each grid cell holds at most one
    crossing of the diagonal (or is an interval of fixed points)."""
    n = len(rho) - 1

    def f(x):
        j = min(int(x), n - 1)
        return (rho[j + 1] - rho[j]) * (x - j) + rho[j]

    grid = {Fraction(i) for i in range(n + 1)}
    level = set(grid)
    for _ in range(p - 1):
        nxt = set()
        for y in level:
            for j in range(n):
                x = j + (y - rho[j]) / Fraction(rho[j + 1] - rho[j])
                if j <= x <= j + 1:
                    nxt.add(x)
        level = nxt - grid
        grid |= nxt
    xs = sorted(grid)

    def g(x):
        y = x
        for _ in range(p):
            y = f(y)
        return y - x

    vals = [g(x) for x in xs]
    roots = {x for x, v in zip(xs, vals) if v == 0}
    for a, b, va, vb in zip(xs, xs[1:], vals, vals[1:]):
        _need(not (va == 0 and vb == 0), "interval of fixed points")
        if va * vb < 0:
            roots.add(a + (b - a) * va / (va - vb))
    return len(roots)


# ---------------------------------------------------------------------------
# fib-tent
# ---------------------------------------------------------------------------


def _cut_times(depth: int) -> list[int]:
    """S(-2), S(-1), S(0), ..., S(depth): S(k) = S(k-1) + S(k-2)."""
    s = [0, 1]
    for _ in range(depth + 1):
        s.append(s[-1] + s[-2])
    return s


def _fib_kneading(depth: int) -> list[str]:
    """Sides 'L'/'R' of c_1..c_S(depth) for Fibonacci combinatorics.

    Kneading map Q(k) = k - 2: the symbols after the cut time S(k-1) repeat
    the first S(k-2) symbols, except that the one at S(k) differs."""
    s = _cut_times(depth)  # s[k + 2] = S(k)
    seq = ["R"]
    for k in range(1, depth + 1):
        block = seq[: s[k]]  # first S(k-2) symbols
        block[-1] = "L" if block[-1] == "R" else "R"
        seq += block
    return seq[: s[depth + 2]]


def _tent_sides(lam: Fraction, length: int) -> list[str]:
    """Sides of c_1..c_length for T(x) = lam min(x, 1-x), with c_n written
    as a_n / (2 q^n): a_0 = 1 and a_{n+1} = p min(a_n, 2 q^n - a_n)."""
    p, q = lam.numerator, lam.denominator
    a, qn, sides = 1, 1, []
    for _ in range(length):
        a, qn = p * min(a, 2 * qn - a), qn * q
        _need(a != qn, "turning point is periodic")
        sides.append("L" if a < qn else "R")
    return sides


def _fib_find(exp, p, prev):
    depth = exp["depth"]
    lam = Fraction(p["lambda"])
    lo, hi = (Fraction(x) for x in p["bracket"])
    _need(p["depth"] == depth, "depth not echoed")
    _need(lo <= lam <= hi and p["value"] == float(lam), "slope outside its bracket")
    _need(abs(p["value"] - FIB_LAMBDA) <= 2e-12, "slope %r" % p["value"])
    target = _fib_kneading(depth)
    _need(_tent_sides(lam, len(target)) == target, "kneading prefix is not Fibonacci")


def _fib_check(exp, p, prev):
    kmax = exp["kmax"]
    lam = Fraction(json.loads(prev[1])["lambda"])
    _need(p["lambda"] == str(lam) and p["kmax"] == kmax, "arguments not echoed")
    _need(p["structure_ok"] is True and all(p["structure"].values()), "structure %s" % p["structure"])
    _need(p["orbit_order"] is True, "closest returns fail")
    d = p["diameters"]
    _need(d["product_ok"] is True, "product identity fails")
    _need(len(d["nu"]) == len(d["C"]) == kmax + 1 and len(d["residuals"]) == kmax, "wrong lengths")
    s = _cut_times(kmax)
    for k in range(1, kmax + 1):
        bound = Fraction(1, 10**8) * lam ** s[k + 1]  # 1e-8 lam^S(k-1)
        _need(Fraction(d["residuals"][k - 1]) < bound, "residual %d too large" % k)


# ---------------------------------------------------------------------------
# cubic-numeric
# ---------------------------------------------------------------------------


def _cubic(s: Fraction):
    """Coefficients a, b, free critical point c_s of F_s = a x^3 + b x^2 + 1."""
    w = 1 / (s * s * (s + 1))
    a, b = w - 1, -s - w
    return a, b, -2 * b / (3 * a)


def _check_endpoints(s: Fraction, alpha: float, beta: float) -> None:
    a, b, _ = _cubic(s)

    def f(x):
        return float(a) * x ** 3 + float(b) * x ** 2 + 1

    _need(alpha < beta, "empty invariant interval")
    _need(abs(f(alpha) - beta) < 1e-6 and abs(f(beta) - alpha) < 1e-6, "endpoints are not a two-cycle")


def _cubic_count(exp, p, prev):
    _need(p["count"] == CUBIC_COUNTS[exp["n"] - 1], "count %s at n=%s" % (p["count"], exp["n"]))
    _need(p["n"] == exp["n"] and p["s"] == str(exp["s"]), "arguments not echoed")


def _cubic_sweep(exp, p, prev):
    lo, hi, steps = exp["start"], exp["stop"], exp["steps"]
    _need(len(p) == steps + 1, "rows %d" % len(p))
    for k, row in enumerate(p):
        s = lo + (hi - lo) * Fraction(k, steps)
        a, b, c = _cubic(s)
        _need(row["s"] == str(s), "s %s" % row["s"])
        _need(row["F_s(c_s)"] == float(a * c ** 3 + b * c ** 2 + 1), "critical value at s=%s" % s)
        _need([row["N%d" % n] for n in range(1, 7)] == CUBIC_COUNTS[:6], "counts at s=%s" % s)
        _check_endpoints(s, row["alpha"], row["beta"])


def _fib_words(n: int) -> list[str]:
    words = [""]
    for _ in range(n):
        words = [w + ch for w in words for ch in "12" if not (ch == "1" and w.endswith("1"))]
    return sorted(words)


def _cubic_report(exp, p, prev):
    s = exp["s"]
    a, b, c = _cubic(s)
    _need([p["s"], p["a"], p["b"], p["c_s"]] == [str(s), str(a), str(b), str(c)], "parameters")
    _need(p["identities"] == {"critical_orbit": True, "critical_value_match": True}, "identities")
    _need(p["counts"] == CUBIC_COUNTS[: exp["nmax"]], "counts %s" % p["counts"])
    _check_endpoints(s, p["endpoints"]["alpha"], p["endpoints"]["beta"])
    r = p["repeller"]
    _need(r["depth"] == exp["depth"] and r["pieces"] == len(_fib_words(exp["depth"])), "piece count")
    _need(r["disjoint"] is True and r["max_diameter"] > 0, "pieces overlap")


def _vee(w: str) -> str:
    """Collapse each "12" block to "1", left to right; a trailing 1 stays."""
    out, i = [], 0
    while i < len(w):
        step = 2 if w[i] == "1" and i < len(w) - 1 else 1
        out.append(w[i])
        i += step
    return "".join(out)


def _cubic_repeller(exp, p, prev):
    words = _fib_words(exp["depth"])
    pieces = p["pieces"]
    _need(p["count"] == len(pieces) == len(words), "piece count %s" % p["count"])
    _need([q["word"] for q in pieces] == words, "piece words")
    _need(all(q["collapsed"] == _vee(q["word"]) for q in pieces), "collapsed words")
    _need(all(q["lo"] < q["hi"] for q in pieces), "empty piece")
    ordered = sorted(pieces, key=lambda q: q["lo"])
    _need(all(x["hi"] < y["lo"] for x, y in zip(ordered, ordered[1:])), "pieces overlap")
    _need(p["max_diameter"] == max(q["hi"] - q["lo"] for q in pieces), "max diameter")
    if prev is not None:
        _need(p["max_diameter"] < json.loads(prev[1])["max_diameter"], "max diameter does not shrink")


CHECKERS = {
    "knead.det": _knead_det,
    "knead.matrix": _knead_matrix,
    "knead.unimodal": _knead_unimodal,
    "comb.validate": _comb_validate,
    "comb.generate": _comb_generate,
    "comb.orbit": _comb_orbit,
    "zeta.mt-check": _zeta_mt,
    "zeta.sft": _zeta_sft,
    "zeta.closed-form": _zeta_closed_form,
    "zeta.from-counts": _zeta_from_counts,
    "series.detect-period": _series_detect,
    "fib.find-lambda": _fib_find,
    "fib.check": _fib_check,
    "cubic.count": _cubic_count,
    "cubic.sweep": _cubic_sweep,
    "cubic.report": _cubic_report,
    "cubic.repeller": _cubic_repeller,
}
