import argparse
import json
import sys
from fractions import Fraction

import pytest

from intervalzeta import fibmap, kneading
from intervalzeta.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def test_closed_form(self, capsys):
        code, out = run_cli(capsys, "zeta", "closed-form", "--nu", "2")
        assert code == 0
        assert json.loads(out)["counts"][:6] == [1, 5, 7, 9, 11, 23]

    def test_mt_check_full_tent(self, capsys):
        code, out = run_cli(
            capsys, "zeta", "mt-check", "--rho", "0,2,0",
            "--zeta-num", "1", "--zeta-den", "1,-2", "--order", "32",
        )
        assert code == 0
        assert json.loads(out)["phi_factors"] == [1]


class TestKnead:
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
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert got["nu"] == [str(v) for v in diam.nu]
            assert got["C"] == [str(v) for v in diam.C]
            assert got["residuals"] == [str(v) for v in diam.residuals]
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("kmax", ["-1", "-2", "-3"])
    def test_fib_check_negative_kmax(self, capsys, kmax):
        code, out = run_cli(capsys, "fib", "check", "--lambda", "111/64", "--kmax", kmax)
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": "kmax must be >= 0"}

    def test_fib_find_lambda_tiny_tol(self, capsys):
        # 1e-20 is below what a denominator of at most 10**15 can express
        _, default = run_cli(capsys, "fib", "find-lambda", "--depth", "12")
        code, out = run_cli(capsys, "fib", "find-lambda", "--depth", "12", "--tol", "1e-20")
        assert code == 0
        assert json.loads(out)["lambda"] == json.loads(default)["lambda"]

    def test_series_detect_period(self, capsys):
        code, out = run_cli(capsys, "series", "detect-period", "--coeffs", "1,-1,-1,-1,-1,-1,-1,-1,-1")
        assert code == 0
        assert json.loads(out)["certificate"] == {"preperiod": 1, "period": 1, "depth": 9}


class TestContract:
    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "comb", "generate", "--nu", "3")
        _, second = run_cli(capsys, "comb", "generate", "--nu", "3")
        assert first == second

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["comb", "validate"])  # missing --rho
        assert exc.value.code == 2

    def test_config_invariants(self, capsys):
        cases = [(["knead", "det", "--rho", "0,2,0", "--order", "4"], "--order must be >= 8")]
        cases += [
            (["cubic", "count", "--s", "1", "--n", "2", "--tol=" + tol], "--tol must be > 0")
            for tol in ("0", "nan", "inf", "-inf")
        ]
        cases += [(["fib", "find-lambda", "--depth", "3", "--tol", "inf"], "--tol must be > 0")]
        for argv, message in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("error", [kneading.KneadingError, kneading.AmbiguousAddress])
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
ORDER, TOL, DEPTH, FORMAT = {"--order": 64}, {"--tol": 1e-12}, {"--depth": 6}, {"--format": "json"}
# each subcommand's own flags: their defaults, or REQUIRED
OWN = {
    "comb validate": {"--rho": REQUIRED},
    "comb generate": {"--nu": REQUIRED},
    "comb orbit": {"--rho": REQUIRED, "--index": REQUIRED},
    "knead det": {"--rho": REQUIRED, **ORDER},
    "knead matrix": {"--rho": REQUIRED, **ORDER},
    "knead unimodal": {"--prefix": (), "--cycle": REQUIRED, **ORDER},
    "zeta from-counts": {"--counts": REQUIRED, **ORDER},
    "zeta sft": {"--matrix": REQUIRED, "--n": REQUIRED},
    "zeta closed-form": {"--nu": REQUIRED, **ORDER},
    "zeta mt-check": {"--rho": REQUIRED, "--zeta-num": REQUIRED, "--zeta-den": REQUIRED, **ORDER},
    "cubic report": {"--s": REQUIRED, "--nmax": 4, **TOL, **DEPTH},
    "cubic sweep": {"--from": REQUIRED, "--to": REQUIRED, "--steps": REQUIRED, **TOL, **FORMAT},
    "cubic count": {"--s": REQUIRED, "--n": REQUIRED, **TOL},
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
