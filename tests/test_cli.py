import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalzeta import cubicfam, fibmap, kneading, series, subshift, zeta
from intervalzeta.cli import _COMMANDS, SIZE_CAPS, build_parser, main
from intervalzeta.series import RationalFn
from tests_support import bench_argvs

ROOT = Path(__file__).resolve().parents[1]


# SHA-256 of the stdout of cubic commands whose floats come from long
# bisection chains: counting on the laps of F^12, pieces of depth 12
PINNED_CUBIC_OUTPUT = {
    "cubic count --s 1 --n 12": "ebef95eb97ed7d9767ea889921c818bd8ced3f9453fd7aa0229a8c21c8754ab3",
    "cubic count --s 6/5 --n 12": "cd178e79c2b661dfd517f7c25326900b64e83b710047e4cae5414d22f51ae9f6",
    "cubic count --s 137/100 --n 12": "4bd7d55d9395177277d960d156ae09aa73ae984368ba888c12f426635c0a5bdd",
    "cubic repeller --s 1 --depth 12": "7c6480e9ef0bf57743287d9cc1d39d4ad503c4bb98ea50a330db78fa6a742216",
    "cubic repeller --s 6/5 --depth 12": "28285a574a2b9b5181e8ee8e31071c69b596931e0124b7faeca4918907709dcf",
    "cubic repeller --s 137/100 --depth 12": "aa118e6b5911ee82176cb99a8fb62c9fbd308be8ef412434bb8611a7ae3f8297",
    "cubic sweep --from 1 --to 137/100 --steps 8": "07d9d470c57894dbc53d87135e4173a278fd0b28ec697eb7a95167088375cf93",
    "cubic sweep --from 1 --to 137/100 --steps 8 --format csv":
        "983c69c7e63500eaec2bde50c26fc21a9786dcc51cb97b1113cf3a99f70280bc",
}

# exit code and SHA-256 of the stdout of exact knead and zeta commands: the
# README ones, the generated VU vectors (nu = 2..5) at order 48, unimodal
# closed forms, zeta from counts and closed forms, and a failing mt-check
PINNED_EXACT_OUTPUT = {
    "knead det --rho 0,2,3,1,0 --order 48": (0, "3e09a11cb50e3c7e550d0dbc88204d69f6738cd78865c0c89706bd7544adeef5"),
    "zeta mt-check --rho 0,2,0 --zeta-num 1 --zeta-den 1,-2 --order 32": (0, "76d2c1babdfaad078899ec184fd43cfcfceb1920caf4594ae8b7fa1e79bf4c70"),
    "zeta sft --matrix 0,1;1,1 --n 4": (0, "7ae8196dde5c0a305f58ea137b330a9a0212bf381e62fec1b136c24a3c5dd3fe"),
    "knead det --rho 7,3,4,5,6,3,2,0 --order 48": (0, "a2f287d797cca82fba83edee1a6cc57b61841be1edc57a6fc882992f3eb1a800"),
    "knead det --rho 0,6,4,5,6,7,4,3,0 --order 48": (0, "0730f55e3a27b95dfb8250742d32f2c2ce5abc7ea8bd6e1e5b41a931deea1486"),
    "knead det --rho 9,5,7,5,6,7,8,5,4,0 --order 48": (0, "8f7966d2606106894003a55ab05edb92069ff379ac7596d31200aeb7d149333f"),
    "knead det --rho 0,8,6,8,6,7,8,9,6,5,0 --order 48": (0, "f7d1c7f5e79d06ef1443291f0431a48ba52737ae78b96b3428468f2723b74527"),
    "knead matrix --rho 7,3,4,5,6,3,2,0 --order 48": (0, "209cbb5c601e300354de80f7b4fb7ddb55abb8c269ea2e7dc7b1683ea7844b28"),
    "knead matrix --rho 0,6,4,5,6,7,4,3,0 --order 48": (0, "6c73cac9d33b51a1ea4c0d4dd66626177c05f396c3af7843d06e344823908748"),
    "knead matrix --rho 9,5,7,5,6,7,8,5,4,0 --order 48": (0, "602f0cfb5540912b32d9fa3295ae2da8a0e199fcddbee345f11b9382cb2446f3"),
    "knead matrix --rho 0,8,6,8,6,7,8,9,6,5,0 --order 48": (0, "600821afcbb3c56b03908ac8f830df406763af4ae23c7830871dd0175e71118f"),
    "knead unimodal --cycle=-1,1,-1 --order 12": (0, "8392a61724637605aa90e8e9f1b2efd37c15f4448ad26ad57b1f74d43882b80c"),
    "knead unimodal --prefix=1 --cycle=-1": (0, "095b6f10dec29df5b9e04a439c0bf2f760ede2da13314887f0f6a5c51258fd5b"),
    "knead unimodal --prefix=1,-1 --cycle=1,1,-1 --order 40": (0, "4be04039b526baa24a516885da9e30d5907ac3c6f3df239fbe9d85497f6caac7"),
    "knead unimodal --prefix=-1,-1,1 --cycle=-1,1,1,-1,-1": (0, "bfc2533e8cfce4d6749c3c734d124d0b7bab8c9719341b76c2e6c5bbfa649d5a"),
    "zeta from-counts --counts 1,3,4,7,11,18,29,47,76,123,199,322": (0, "b0cbd03a69c84e8169fb5253ed9e98b7fad742e52229f506d700bf2631fe3d20"),
    "zeta from-counts --counts 1,2,3,5,8": (0, "6e1919b8fc0fff1e046fb86b3416d5e454facecc863bc2ecfa28467d12f281ce"),
    "zeta closed-form --nu 2": (0, "f51e7fe01cef9d9963a7c66086cf4fe55efd63523839929bd9a7d0d28800776b"),
    "zeta closed-form --nu 3": (0, "7e191579cb9bf4705fe24310911e15b614eedbe94174eab6a99d8abd6c344b7e"),
    "zeta closed-form --nu 4": (0, "268d79cad5da5fc8d54179ce3e8b728dd55bbc116820f512d04dbb008b926b4e"),
    "zeta closed-form --nu 5": (0, "512705e2493eb3be4c7705298313e1483e9fddb3cff63a3dc351825a5e9a5196"),
    "zeta mt-check --rho 7,3,4,5,6,3,2,0 --zeta-num 1 --zeta-den 1,-2": (1, "8e4860dab5686c60eb81bfecfc08859560ac33930412ee02941cfc0f88a0135a"),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@contextlib.contextmanager
def no_int_str_limit():
    """Lift the interpreter's int-to-str digit limit, to read and print
    results of more than 4300 digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestComb:
    def test_generate_example(self, capsys):
        code, out = run_cli(capsys, "comb", "generate", "--nu", "2")
        assert code == 0
        assert json.loads(out) == {"rho": [7, 3, 4, 5, 6, 3, 2, 0], "vu": True, "expanding": True}

    def test_validate_failure_exit_code(self, capsys):
        code, out = run_cli(capsys, "comb", "validate", "--rho", "0,3,3,2,0")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["reason"] == "adjacent equal entries at 1"

    def test_validate_success(self, capsys):
        code, out = run_cli(capsys, "comb", "validate", "--rho", "5,2,3,4,2,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["vu"] is True and payload["dominant"] == 3

    def test_validate_reports_induced(self, capsys):
        code, out = run_cli(capsys, "comb", "validate", "--rho", "0,3,4,7,6,5,2,1,0")
        assert code == 1
        payload = json.loads(out)
        assert payload["induced_labels"] == [0, 1, 3, 7, 0]

    def test_orbit(self, capsys):
        code, out = run_cli(capsys, "comb", "orbit", "--rho", "0,2,3,1,0", "--index", "2")
        assert code == 0
        assert json.loads(out) == {"index": 2, "preperiod": 0, "cycle": [2, 3, 1]}


class TestZeta:
    def test_sft_counts(self, capsys):
        code, out = run_cli(capsys, "zeta", "sft", "--matrix", "0,1;1,1", "--n", "4")
        assert code == 0
        assert json.loads(out) == {"counts": [1, 3, 4, 7]}

    def test_sft_beyond_int_str_limit(self, capsys):
        # counts of up to 4801 digits print whole
        code, out = run_cli(capsys, "zeta", "sft", "--matrix", "%d,1;1,1" % 10**40, "--n", "120")
        assert code == 0
        counts = subshift.sft_periodic_counts(subshift.AdjMatrix([[10**40, 1], [1, 1]]), 120)
        with no_int_str_limit():
            assert json.loads(out) == {"counts": counts}

    def test_from_counts_beyond_int_str_limit(self, capsys):
        counts = [10**4000 - 1] * 5
        code, out = run_cli(capsys, "zeta", "from-counts", "--counts", ",".join(map(str, counts)))
        assert code == 0
        with no_int_str_limit():
            assert json.loads(out) == {"counts": counts, "zeta": zeta.zeta_from_counts(counts).to_json()}

    def test_sft_over_budget_is_refused(self, capsys, monkeypatch):
        # refused before the first product; at --n 120 this ran 31 s
        monkeypatch.setattr(subshift.AdjMatrix, "__matmul__", lambda a, b: pytest.fail("a product ran"))
        row = ",".join([str(10**100 - 1)] * 30)
        code, out = run_cli(capsys, "zeta", "sft", "--matrix", ";".join([row] * 30), "--n", "120")
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": "a 30 x 30 matrix of 333-bit entries at n = 120: n^2 b^2 "
                                                          "(k^3 + n) = 43305259392000, capped at 10000000000000"}

    def test_from_counts_over_budget_is_refused(self, capsys, monkeypatch):
        # refused before exp; 100 such counts ran 139 s
        monkeypatch.setattr(zeta.TruncSeries, "exp", lambda self: pytest.fail("exp ran"))
        code, out = run_cli(capsys, "zeta", "from-counts", "--counts", ",".join(["9" * 4300] * 30))
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": "30 counts of up to 14285 bits: n^3 (b + n)^2 = "
                                                          "5532819075000, capped at 5000000000000"}

    def test_wide_mt_check_reduces_nothing_wide(self, capsys, monkeypatch):
        # 100 + 100 entries of 40 digits: reducing this zeta ran 13-15 s.  No
        # polynomial gcd sees an entry wider than 64 bits, the determinant's
        # own reduction included
        widest, gcd_ints = [], series._gcd_ints
        monkeypatch.setattr(series, "_gcd_ints", lambda a, b: widest.append(
            max(abs(x).bit_length() for x in (*a, *b))) or gcd_ints(a, b))
        entries = ",".join(["1"] + [str(10**40 - 1)] * 99)
        assert run_cli(capsys, "zeta", "mt-check", "--rho", "0,2,0", "--zeta-num", entries,
                       "--zeta-den", entries) == (
            1, '{"ok":false,"reason":"no cyclotomic factorization found","rho":[0,2,0]}\n')
        assert max(widest) <= 64

    def test_mt_check_prints_the_reduced_zeta(self, capsys):
        # zeta = 1/(1 - 2t) of the full tent, times a factor of 20 digits
        g = (12345678901234567890, -98765432109876543210, 11111111111111111111)
        num, den = g, tuple(int(c) for c in series.poly_mul(g, (1, -2)))
        code, out = run_cli(capsys, "zeta", "mt-check", "--rho", "0,2,0", "--zeta-num", ",".join(map(str, num)),
                            "--zeta-den", ",".join(map(str, den)))
        assert code == 0
        assert json.loads(out) == {"rho": [0, 2, 0], "zeta": RationalFn(num, den).to_json(), "phi_factors": [1]}

    def test_closed_form(self, capsys):
        code, out = run_cli(capsys, "zeta", "closed-form", "--nu", "2")
        assert code == 0
        assert json.loads(out)["counts"][:6] == [1, 5, 7, 9, 11, 23]

    def test_closed_form_order(self, capsys):
        _, default = run_cli(capsys, "zeta", "closed-form", "--nu", "3")
        code, out = run_cli(capsys, "zeta", "closed-form", "--nu", "3", "--order", "30")
        assert code == 0
        counts = json.loads(out)["counts"]
        assert len(counts) == 30 and counts[:24] == json.loads(default)["counts"]

    def test_from_counts_order_beyond_counts(self, capsys):
        # the series order is the number of counts; from-counts takes no --order
        for order in ("8", "2", "1"):
            with pytest.raises(SystemExit) as exc:
                main(["zeta", "from-counts", "--counts", "1,2", "--order", order])
            assert exc.value.code == 2
            assert "unrecognized arguments: --order" in capsys.readouterr().err
        code, out = run_cli(capsys, "zeta", "from-counts", "--counts", "1,2")
        assert code == 0
        assert json.loads(out)["zeta"] == {"order": 2, "coeffs": ["1", "1", "3/2"]}

    def test_mt_check_full_tent(self, capsys):
        code, out = run_cli(
            capsys, "zeta", "mt-check", "--rho", "0,2,0",
            "--zeta-num", "1", "--zeta-den", "1,-2", "--order", "32",
        )
        assert code == 0
        assert json.loads(out)["phi_factors"] == [1]


# the vector of generate_vu(21), and one with m = 11 and N = 178
OVER_KNEADING_CAPS = [
    ("0,24,22,24,22,24,22,24,22,24,22,24,22,24,22,24,22,24,22,24,22,23,24,25,22,21,0",
     "21 turning points, capped at 20"),
    ("15,8,14,7,13,2,10,9,5,16,17,14,9,15,6,3,1,4", "N = sum of preperiods and periods = 178, capped at 160"),
]


class TestKnead:
    @pytest.mark.parametrize("command", [("knead", "det"), ("knead", "matrix"),
                                         ("zeta", "mt-check", "--zeta-num", "1", "--zeta-den", "1")])
    @pytest.mark.parametrize("rho, reason", OVER_KNEADING_CAPS)
    def test_size_caps_refuse_before_the_determinant(self, capsys, monkeypatch, command, rho, reason):
        monkeypatch.setattr(kneading, "series_matrix_det", lambda rows: pytest.fail("the determinant ran"))
        code, out = run_cli(capsys, *command, "--rho", rho)
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": reason}

    def test_det_output_shape(self, capsys):
        code, out = run_cli(capsys, "knead", "det", "--rho", "0,2,3,1,0", "--order", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["determinant"]["coeffs"][:4] == ["1", "-1", "-1", "1"]
        assert len(payload["per_column"]) == 2

    def test_unimodal(self, capsys):
        code, out = run_cli(capsys, "knead", "unimodal", "--cycle=-1,1,-1", "--order", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["rational"] == {"num": ["1", "-1", "-1"], "den": ["1", "0", "0", "-1"]}


class TestCubicAndFib:
    def test_cubic_count(self, capsys):
        code, out = run_cli(capsys, "cubic", "count", "--s", "1", "--n", "2")
        assert code == 0
        assert json.loads(out)["count"] == 5

    def test_cubic_sweep_csv(self, capsys):
        code, out = run_cli(
            capsys, "cubic", "sweep", "--from", "1", "--to", "6/5", "--steps", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,F_s(c_s),alpha,beta,N1,N2,N3,N4,N5,N6"
        assert len(lines) == 3

    def test_fib_check(self, capsys):
        code, out = run_cli(capsys, "fib", "check", "--lambda", "111/64", "--kmax", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["diameters"]["product_ok"] is True

    def test_fib_check_beyond_int_str_limit(self, capsys):
        # the depth-9 Fibonacci slope: its diameter ratios have over 4300 digits
        lam = "4180977903656724278137799/2417851639229258349412352"
        code, out = run_cli(capsys, "fib", "check", "--lambda", lam, "--kmax", "9")
        assert code == 0
        got = json.loads(out)["diameters"]
        diam = fibmap.diameter_ratios(fibmap.interval_families(Fraction(lam), 11), 9)
        with no_int_str_limit():
            assert got["nu"] == [str(v) for v in diam.nu]
            assert got["C"] == [str(v) for v in diam.C]
            assert got["residuals"] == [str(v) for v in diam.residuals]

    @pytest.mark.parametrize("kmax", ["-1", "-2", "-3"])
    def test_fib_check_negative_kmax(self, capsys, kmax):
        code, out = run_cli(capsys, "fib", "check", "--lambda", "111/64", "--kmax", kmax)
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": "kmax must be >= 0"}

    def test_fib_check_kmax_above_cap(self, capsys, monkeypatch):
        # refused before the orbit is built, which at kmax 90 would need
        # S(94), about 5e19, points
        monkeypatch.setattr(fibmap, "interval_families", None)
        for kmax in ("10", "90", "91", "9" * 4000):
            code, out = run_cli(capsys, "fib", "check", "--lambda", "111/64", "--kmax", kmax)
            assert code == 1
            assert json.loads(out) == {"ok": False, "reason": "kmax capped at 9"}

    def test_fib_check_slope_over_budget(self, capsys, monkeypatch):
        # refused before any orbit is built: the integers of a 1995-bit
        # slope's orbit at kmax 6, 1995 x S(10) bits, outgrow those of the
        # 366-bit depth-12 slope at kmax 9, 366 x S(13); kmax 6 took 6.2 s
        # and each kmax more about four times as long
        monkeypatch.setattr(fibmap, "interval_families", None)
        monkeypatch.setattr(fibmap, "orbit_order_holds", None)
        lam = Fraction(3 * 2**1993 + 1, 2**1994)
        code, out = run_cli(capsys, "fib", "check", "--lambda", str(lam), "--kmax", "6")
        assert code == 1
        assert json.loads(out) == {"ok": False,
                                   "reason": "a 1995-bit slope at kmax 6: 1995 x S(10) = 287280 bits, capped at 223260"}

    @pytest.mark.parametrize("depth, reason", [("0", "depth must be >= 1"), ("14", "depth capped at 13"),
                                               ("20", "depth capped at 13")])
    def test_fib_find_lambda_bad_depth(self, capsys, monkeypatch, depth, reason):
        # refused before the target is built; depth 20 would run for about a day
        monkeypatch.setattr(fibmap, "_target_addresses", None)
        code, out = run_cli(capsys, "fib", "find-lambda", "--depth", depth)
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": reason}

    @pytest.mark.parametrize("argv, reason", [
        (("cubic", "count", "--s", "6/5", "--n", "120"), "n capped at 16"),
        (("cubic", "report", "--s", "6/5", "--nmax", "60"), "nmax capped at 16"),
        (("cubic", "report", "--s", "6/5", "--nmax", "61"), "nmax capped at 16"),
    ], ids=["count", "report", "report-61"])
    def test_cubic_period_above_cap(self, capsys, monkeypatch, argv, reason):
        monkeypatch.setattr(cubicfam, "cubic_family", None)
        monkeypatch.setattr(cubicfam, "filled_julia_endpoints", None)
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": reason}

    @pytest.mark.parametrize("argv", [("report", "--s", "{s}"), ("sweep", "--from", "{s}", "--to", "2", "--steps", "2"),
                                      ("count", "--s", "{s}", "--n", "2"), ("repeller", "--s", "{s}")],
                             ids=lambda argv: argv[0])
    def test_cubic_parameter_over_bits(self, capsys, monkeypatch, argv):
        # refused before F_s is composed; a 2000-bit s took 3.9 s in `cubic repeller`
        d = 2**1021 + 1
        monkeypatch.setattr(cubicfam, "poly_compose", lambda p, q: pytest.fail("F_s was composed"))
        code, out = run_cli(capsys, "cubic", *[a.format(s=Fraction(12 * d + 1, 10 * d)) for a in argv])
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": "a 1025-bit parameter s, capped at 1024 bits"}

    def test_cubic_parameter_at_bits_cap(self, capsys):
        d = 2**1021 + 1
        code, out = run_cli(capsys, "cubic", "count", "--s", str(Fraction(6 * d + 1, 5 * d)), "--n", "2")
        assert code == 0
        assert json.loads(out)["count"] == 5

    @pytest.mark.parametrize("nmax", ["0", "-1"])
    def test_cubic_report_nonpositive_nmax(self, capsys, monkeypatch, nmax):
        # refused before any numeric work
        monkeypatch.setattr(cubicfam, "cubic_family", None)
        code, out = run_cli(capsys, "cubic", "report", "--s", "6/5", "--nmax", nmax)
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": "nmax must be >= 1"}

    @pytest.mark.parametrize("depth, reason", [("0", "depth must be >= 1"), ("13", "depth capped at 12")],
                             ids=["0", "13"])
    def test_cubic_report_bad_depth(self, capsys, monkeypatch, depth, reason):
        # refused before any numeric work, with the reason repeller_pieces gives
        monkeypatch.setattr(cubicfam, "cubic_family", None)
        code, out = run_cli(capsys, "cubic", "report", "--s", "6/5", "--depth", depth)
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": reason}

    @pytest.mark.parametrize("argv, parameters", [
        (("cubic", "report", "--s", "6/5", "--nmax", "6", "--depth", "3"), [Fraction(6, 5)]),
        (("cubic", "sweep", "--from", "1", "--to", "6/5", "--steps", "2"),
         [Fraction(1), Fraction(11, 10), Fraction(6, 5)]),
    ], ids=["report", "sweep"])
    def test_cubic_invariant_interval_once_per_s(self, capsys, monkeypatch, argv, parameters):
        calls = []
        endpoints = cubicfam.filled_julia_endpoints
        monkeypatch.setattr(cubicfam, "filled_julia_endpoints",
                            lambda s: calls.append(s) or endpoints(s))
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == parameters

    @pytest.mark.parametrize("argv", sorted(PINNED_CUBIC_OUTPUT))
    def test_cubic_output_is_pinned(self, capsys, argv):
        code, out = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CUBIC_OUTPUT[argv]

    def test_fib_find_lambda_tiny_tol(self, capsys):
        # --tol is read as the exact decimal written, however small
        _, default = run_cli(capsys, "fib", "find-lambda", "--depth", "12")
        code, out = run_cli(capsys, "fib", "find-lambda", "--depth", "12", "--tol", "1e-20")
        assert code == 0
        assert json.loads(out)["lambda"] == json.loads(default)["lambda"]

    def test_fib_find_lambda_tol_beyond_float_range(self, capsys):
        # the exact value is range-checked, not its float (0 or inf here)
        code, out = run_cli(capsys, "fib", "find-lambda", "--depth", "3", "--tol", "1e-400")
        assert code == 0
        lo, hi = map(Fraction, json.loads(out)["bracket"])
        assert 0 < hi - lo <= Fraction(1, 10**400)
        _, one = run_cli(capsys, "fib", "find-lambda", "--depth", "3", "--tol", "1")
        code, out = run_cli(capsys, "fib", "find-lambda", "--depth", "3", "--tol", "1e999")
        assert (code, out) == (0, one)

    def test_series_detect_period(self, capsys):
        code, out = run_cli(capsys, "series", "detect-period", "--coeffs", "1,-1,-1,-1,-1,-1,-1,-1,-1")
        assert code == 0
        assert json.loads(out)["certificate"] == {"preperiod": 1, "period": 1, "depth": 9}


class TestContract:
    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "comb", "generate", "--nu", "3")
        _, second = run_cli(capsys, "comb", "generate", "--nu", "3")
        assert first == second

    @pytest.mark.parametrize("argv", sorted(PINNED_EXACT_OUTPUT))
    def test_exact_output_is_pinned(self, capsys, argv):
        code, out = run_cli(capsys, *argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_EXACT_OUTPUT[argv]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["comb", "validate"])  # missing --rho
        assert exc.value.code == 2

    def test_config_invariants(self, capsys):
        cases = [(["knead", "det", "--rho", "0,2,0", "--order", "4"], "--order must be >= 8"),
                 (["cubic", "sweep", "--from", "1", "--to", "2", "--steps", "0"], "--steps must be >= 1"),
                 (["cubic", "report", "--s", "1", "--nmax", "x"], "argument --nmax: invalid int value: 'x'"),
                 (["fib", "check", "--lambda", "3/2", "--kmax", "1.5"], "argument --kmax: invalid int value: '1.5'")]
        cases += [
            (["fib", "find-lambda", "--depth", "3", "--tol=" + tol], "--tol must be > 0")
            for tol in ("0", "nan", "inf", "-inf")
        ]
        # the bisection halves its bracket at most 2000 times
        cases += [
            (["fib", "find-lambda", "--depth", "3", "--tol=" + tol], "--tol must be >= 2^-2000")
            for tol in ("8.7e-603", "1e-700", "1e-99999999999999")
        ]
        for argv, message in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["cubic", "count", "--n", "1", "--s"], ["fib", "check", "--lambda"],
                                      ["cubic", "sweep", "--to", "2", "--steps", "1", "--from"],
                                      ["cubic", "sweep", "--from", "1", "--steps", "1", "--to"]])
    def test_huge_decimal_exponent_is_usage_error(self, capsys, argv):
        # refused before Fraction builds 10^|exponent|; 1e-10000000 took 9-21 s
        flag = argv[-1]
        for value in ("1e-999999999", "1e10000000", "1E-4300", "2.5e+4300"):
            with pytest.raises(SystemExit) as exc:
                main(argv + [value])
            assert exc.value.code == 2
            assert ("argument %s: a decimal exponent must be below 4300 in size: %r" % (flag, value)
                    in capsys.readouterr().err)
        # an exponent of 4299 is parsed; the domain refuses it
        assert run_cli(capsys, *argv, "1e4299")[0] == 1

    def test_huge_size_is_usage_error(self, capsys):
        # refused before generate_vu would allocate a list of that length
        with pytest.raises(SystemExit) as exc:
            main(["comb", "generate", "--nu", "2000000000000000000"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "argument --nu: --nu must be <= 100" in captured.err

    def test_int_str_limit_is_restored(self, capsys, monkeypatch):
        # the handler runs without the limit, and every way out of main
        # restores it; parsing keeps it
        limit = sys.get_int_max_str_digits()
        seen = []
        counts = subshift.sft_periodic_counts
        monkeypatch.setattr(subshift, "sft_periodic_counts",
                            lambda a, n: seen.append(sys.get_int_max_str_digits()) or counts(a, n))
        assert run_cli(capsys, "zeta", "sft", "--matrix", "0,1;1,1", "--n", "3")[0] == 0
        assert seen == [0] and sys.get_int_max_str_digits() == limit
        assert run_cli(capsys, "fib", "check", "--lambda", "111/64", "--kmax", "-1")[0] == 1
        assert sys.get_int_max_str_digits() == limit
        monkeypatch.setattr(subshift, "sft_periodic_counts", lambda a, n: {}[n])
        with pytest.raises(KeyError):
            main(["zeta", "sft", "--matrix", "0,1;1,1", "--n", "3"])
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(SystemExit) as exc:
            main(["zeta", "from-counts", "--counts", "9" * (limit + 1)])
        assert exc.value.code == 2
        assert "argument --counts: not a comma-separated integer list" in capsys.readouterr().err
        assert sys.get_int_max_str_digits() == limit

    def test_interpreter_without_int_str_limit(self, capsys, monkeypatch):
        # Python before 3.10.7 has no limit to lift
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        assert run_cli(capsys, "zeta", "sft", "--matrix", "0,1;1,1", "--n", "3") == (0, '{"counts":[1,3,4]}\n')

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out = run_cli(capsys, "zeta", "sft", "--matrix", "0,1;1,1", "--n", "3", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text()) == {"counts": [1, 3, 4]}

    def test_out_to_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out = run_cli(capsys, "zeta", "sft", "--matrix", "0,1;1,1", "--n", "3", "--out", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False and "missing" in payload["reason"]

    @pytest.mark.parametrize("error", [kneading.KneadingError])
    def test_kneading_errors_are_domain_failures(self, capsys, monkeypatch, error):
        def fail(_):
            raise error("forced")

        monkeypatch.setattr(kneading, "kneading_rational", fail)
        code, out = run_cli(capsys, "knead", "det", "--rho", "0,2,0")
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": "forced"}

    def test_non_integer_rho_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["knead", "det", "--rho", "0,x,0"])
        assert exc.value.code == 2

    def test_parser_reuse_does_not_leak_state(self, capsys):
        assert build_parser() is build_parser()
        run_cli(capsys, "knead", "unimodal", "--prefix=1", "--cycle=1")
        code, out = run_cli(capsys, "knead", "unimodal", "--cycle=1")
        assert code == 0 and '"prefix":[]' in out

    def test_csv_unsupported_elsewhere(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["comb", "generate", "--nu", "2", "--format", "csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


REQUIRED = "required"
COMMON = {"-h": argparse.SUPPRESS, "--help": argparse.SUPPRESS, "--out": None}
ORDER, TOL, DEPTH, FORMAT = {"--order": 64}, {"--tol": Fraction(1, 10**12)}, {"--depth": 6}, {"--format": "json"}
# each subcommand's own flags: their defaults, or REQUIRED
OWN = {
    "comb validate": {"--rho": REQUIRED},
    "comb generate": {"--nu": REQUIRED},
    "comb orbit": {"--rho": REQUIRED, "--index": REQUIRED},
    "knead det": {"--rho": REQUIRED, **ORDER},
    "knead matrix": {"--rho": REQUIRED, **ORDER},
    "knead unimodal": {"--prefix": (), "--cycle": REQUIRED, **ORDER},
    "zeta from-counts": {"--counts": REQUIRED},
    "zeta sft": {"--matrix": REQUIRED, "--n": REQUIRED},
    "zeta closed-form": {"--nu": REQUIRED, "--order": 24},
    "zeta mt-check": {"--rho": REQUIRED, "--zeta-num": REQUIRED, "--zeta-den": REQUIRED, **ORDER},
    "cubic report": {"--s": REQUIRED, "--nmax": 4, **DEPTH},
    "cubic sweep": {"--from": REQUIRED, "--to": REQUIRED, "--steps": REQUIRED, **FORMAT},
    "cubic count": {"--s": REQUIRED, "--n": REQUIRED},
    "cubic repeller": {"--s": REQUIRED, **DEPTH},
    "fib find-lambda": {**DEPTH, **TOL},
    "fib check": {"--lambda": REQUIRED, "--kmax": 6, **FORMAT},
    "series detect-period": {"--coeffs": REQUIRED},
}
# an argv each subcommand parses
VALID = {
    "comb validate": ["--rho", "0,2,0"],
    "comb generate": ["--nu", "2"],
    "comb orbit": ["--rho", "0,2,0", "--index", "1"],
    "knead det": ["--rho", "0,2,0"],
    "knead matrix": ["--rho", "0,2,0"],
    "knead unimodal": ["--cycle=1"],
    "zeta from-counts": ["--counts", "1,3"],
    "zeta sft": ["--matrix", "0,1;1,1", "--n", "3"],
    "zeta closed-form": ["--nu", "2"],
    "zeta mt-check": ["--rho", "0,2,0", "--zeta-num", "1", "--zeta-den", "1,-2"],
    "cubic report": ["--s", "1"],
    "cubic sweep": ["--from", "1", "--to", "6/5", "--steps", "1"],
    "cubic count": ["--s", "1", "--n", "2"],
    "cubic repeller": ["--s", "1"],
    "fib find-lambda": [],
    "fib check": ["--lambda", "111/64"],
    "series detect-period": ["--coeffs", "1,-1"],
}
# a valid value for each flag that only some subcommands take
SHARED = {"--order": "64", "--tol": "1e-3", "--depth": "3", "--format": "json"}


LIST_FLAGS = {"--rho", "--prefix", "--cycle", "--counts", "--zeta-num", "--zeta-den", "--coeffs", "--matrix"}


def _sized(flag, n):
    """flag=value with a value of size n: n entries, an n x n matrix, or n."""
    if flag == "--matrix":
        return "%s=%s" % (flag, ";".join([",".join(["1"] * n)] * n))
    return "%s=%s" % (flag, ",".join(["1"] * n) if flag in LIST_FLAGS else n)


def _size_of(flag, parsed):
    if flag == "--matrix":
        return parsed.k
    return len(parsed) if flag in LIST_FLAGS else parsed


def _choices(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestSurface:
    def test_flags_defaults_and_required_are_pinned(self):
        got = {}
        for group, group_parser in _choices(build_parser()).items():
            for cmd, p in _choices(group_parser).items():
                got["%s %s" % (group, cmd)] = {
                    flag: REQUIRED if a.required else a.default
                    for a in p._actions
                    for flag in a.option_strings
                }
        assert got == {name: {**own, **COMMON} for name, own in OWN.items()}

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name in OWN for flag in SHARED if flag not in OWN[name]
    ])
    def test_unread_shared_flag_is_usage_error(self, capsys, name, flag):
        argv = name.split() + VALID[name]
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [flag, SHARED[flag]])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name in OWN for flag in SIZE_CAPS if flag in OWN[name]
    ])
    def test_size_caps(self, capsys, name, flag):
        # the cap itself parses, one more is refused before the handler runs
        argv = name.split() + VALID[name]
        cap = SIZE_CAPS[flag]
        parsed = getattr(build_parser().parse_args(argv + [_sized(flag, cap)]), flag[2:].replace("-", "_"))
        assert _size_of(flag, parsed) == cap
        with pytest.raises(SystemExit) as exc:
            main(argv + [_sized(flag, cap + 1)])
        assert exc.value.code == 2
        if flag in LIST_FLAGS:
            message = "%s takes at most %d %s" % (flag, cap, "rows" if flag == "--matrix" else "entries")
        else:
            message = "%s must be <= %d" % (flag, cap)
        assert message in capsys.readouterr().err

    def test_size_caps_leave_room(self):
        # each cap is at least ten times the largest value (the longest list,
        # the most rows of --matrix) the README, the tests and the
        # benchmark's workloads pass
        argvs = bench_argvs((1, 2, 3, *range(101, 111)))
        argvs += [cmd.split() for cmd in (*PINNED_CUBIC_OUTPUT, *PINNED_EXACT_OUTPUT)]
        argvs += [line.split() for line in (ROOT / "README.md").read_text().splitlines()
                  if line.startswith("intervalzeta ")]
        argvs += [["--rho", rho] for rho, _ in OVER_KNEADING_CAPS]
        used = {flag: 0 for flag in SIZE_CAPS}
        for argv in argvs:
            pairs = [arg.split("=", 1) for arg in argv if arg.startswith("--") and "=" in arg]
            for flag, value in [*zip(argv, argv[1:]), *pairs]:
                if flag in LIST_FLAGS:
                    used[flag] = max(used[flag], len(value.split(";" if flag == "--matrix" else ",")))
                elif flag in used and re.fullmatch(r"\d+", value):
                    used[flag] = max(used[flag], int(value))
        assert used["--order"] == 192 and used["--n"] == 12 and used["--rho"] == 27 and used["--matrix"] == 3
        assert all(SIZE_CAPS[flag] >= 10 * used[flag] for flag in SIZE_CAPS)

    @pytest.mark.parametrize("name", sorted(OWN))
    def test_lone_dashes_as_a_value_is_usage_error(self, capsys, name):
        # argparse of Python 3.11 stores [] for --flag=-- without calling the flag's type
        for flag in OWN[name]:
            with pytest.raises(SystemExit) as exc:
                main(name.split() + VALID[name] + [flag + "=--"])
            assert exc.value.code == 2
            assert "argument %s:" % flag in capsys.readouterr().err


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _int_lists(lo, hi, max_size):
    return st.lists(st.integers(lo, hi), max_size=max_size).map(lambda v: ",".join(map(str, v)))


_RATIONALS = st.fractions(-1, 3, max_denominator=200).map(str)
# small values for every flag the surface reads, and some malformed tokens;
# a size flag at or below its cap (SIZE_CAPS) can still run for hours
FUZZ_VALUES = {
    "--rho": st.one_of(st.sampled_from(["0,2,0", "0,2,3,1,0", "5,2,3,4,2,0", "7,3,4,5,6,3,2,0"]),
                       _int_lists(-1, 7, 8)),
    "--nu": _ints(-1, 4), "--index": _ints(-2, 8),
    "--order": _ints(6, 16), "--prefix": _int_lists(-2, 2, 4), "--cycle": _int_lists(-2, 2, 4),
    "--counts": _int_lists(-3, 30, 6), "--n": _ints(-1, 4),
    "--matrix": st.lists(_int_lists(-1, 2, 3), min_size=1, max_size=3).map(";".join),
    "--zeta-num": _int_lists(-3, 3, 4), "--zeta-den": _int_lists(-3, 3, 4),
    "--s": _RATIONALS, "--from": _RATIONALS, "--to": _RATIONALS, "--lambda": _RATIONALS,
    "--nmax": _ints(-1, 4), "--depth": _ints(-1, 4), "--steps": _ints(-1, 2), "--kmax": _ints(-1, 2),
    "--format": st.sampled_from(["json", "csv"]),
    "--tol": st.sampled_from(["1e-3", "1e-10", "1e-20", "5e-324", "0", "-1", "nan", "inf", "1e999"]),
    "--coeffs": _int_lists(-2, 2, 12),
}
MALFORMED = st.sampled_from(["", " ", "x", "1/0", "-", "--", "1,,2", "0.5", "0x10", "1e999", "0;1", "1,x"])
SUBCOMMANDS = [(group, cmd, [flag for flag, _ in arguments])
               for group, (_, commands) in _COMMANDS.items() for cmd, (_, arguments) in commands.items()]


@st.composite
def fuzz_argv(draw):
    group, cmd, flags = draw(st.sampled_from(SUBCOMMANDS))
    argv = [group, cmd]
    for flag in flags:
        pick = draw(st.integers(0, 9))
        if pick == 9:  # left out
            continue
        argv.append("%s=%s" % (flag, draw(MALFORMED if pick == 8 else FUZZ_VALUES[flag])))
    if draw(st.integers(0, 9)) == 9:
        argv.append(draw(st.sampled_from(sorted(FUZZ_VALUES))) + "=1")
    return argv


@settings(max_examples=300, deadline=None)
@given(fuzz_argv())
def test_fuzzed_argv_exits_0_1_or_2(argv):
    # no exception escapes main: a refusal is exit 1, a usage error exit 2
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
