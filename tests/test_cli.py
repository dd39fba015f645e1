"""Command-line driver: exit-code contract, CSV determinism, error paths."""

import contextlib
import io
import math
import os
import subprocess
import sys
import time

import pytest

from eflab import padic, weil
from eflab.cli import main
from eflab.errors import ConvergenceError
from eflab.zeta import find_zeros, write_zero_table


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def zeros100_file(tmp_path_factory, zeros100):
    path = tmp_path_factory.mktemp("tables") / "z100.txt"
    write_zero_table(zeros100, str(path))
    return str(path)


@pytest.fixture(scope="module")
def zeros300_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "z300.txt"
    write_zero_table(find_zeros(300.0), str(path))
    return str(path)


class TestZerosCommand:
    def test_find_writes_table(self, tmp_path):
        out = tmp_path / "z.txt"
        code, _, err = run_cli(["zeros", "find", "--t-max", "30", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# zeta-zeros v1 t_max=30")
        assert len(lines) == 4
        assert "count=3" in err

    def test_import_bad_table(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# zeta-zeros v1 t_max=30 accuracy=1e-09 count=2\n21.0\n14.1\n")
        code, _, err = run_cli(["zeros", "import", "--in", str(bad)])
        assert code == 1
        assert "ascending" in err

    def test_import_nan_ordinate_exits_one(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# zeta-zeros v1 t_max=30 accuracy=1e-09 count=3\n14.13\nnan\n25.01\n")
        code, out, err = run_cli(["zeros", "import", "--in", str(bad)])
        assert code == 1 and out == ""
        assert err.startswith("error: line 3: ordinate must be finite")

    @pytest.mark.parametrize("header", [
        "# zeta-zeros v1 t_max=nan accuracy=1e-09 count=0\n",
        "# zeta-zeros v1 t_max=-5 accuracy=1e-09 count=0\n",
    ])
    def test_import_bad_t_max_exits_one(self, tmp_path, header):
        bad = tmp_path / "bad.txt"
        bad.write_text(header)
        proc = subprocess.run([sys.executable, "-m", "eflab.cli", "zeros", "import",
                               "--in", str(bad)], capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: line 1: t_max must be finite and > 0")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_negative_t_max_table_is_not_checked(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# zeta-zeros v1 t_max=-5 accuracy=1e-09 count=0\n")
        code, out, err = run_cli(["ef", "check", "--testfn", "bump:mu=0.7,sigma=0.6",
                                  "--zeros", str(bad)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_export_round_trip_bytes(self, tmp_path, zeros100_file):
        out = tmp_path / "copy.txt"
        code, _, _ = run_cli(["zeros", "export", "--in", zeros100_file,
                              "--out", str(out)])
        assert code == 0
        assert out.read_text() == open(zeros100_file).read()


class TestEfCommand:
    def test_check_within_tolerance(self, zeros100_file):
        code, out, _ = run_cli(["ef", "check", "--testfn", "bump:mu=0.7,sigma=0.6",
                                "--zeros", zeros100_file, "--tol", "1e-4"])
        assert code == 0
        assert out.startswith("quantity,method,")
        assert ",ok" in out

    def test_check_tolerance_breach_exits_two(self, zeros100_file):
        code, out, _ = run_cli(["ef", "check", "--testfn", "bump:mu=0.7,sigma=0.6",
                                "--zeros", zeros100_file, "--tol", "1e-9"])
        assert code == 2
        assert ",fail" in out

    def test_check_bad_literal_exits_one(self, zeros100_file):
        code, _, err = run_cli(["ef", "check", "--testfn", "bump:mu=0.7",
                                "--zeros", zeros100_file])
        assert code == 1 and "error" in err

    def test_vonmangoldt(self, zeros100_file):
        # plumbing check at modest height; the 0.1-at-t_max-500 run lives in
        # the acceptance suite
        code, out, _ = run_cli(["ef", "vonmangoldt", "--X", "10.5",
                                "--zeros", zeros100_file, "--tol", "0.5"])
        assert code == 0
        assert "residual," in out

    @pytest.mark.parametrize("X, message", [
        ("inf", "finite"), ("nan", "X > 1"), ("1e300", "sieve limit")])
    def test_vonmangoldt_bad_X_exits_one(self, zeros100_file, X, message):
        code, _, err = run_cli(["ef", "vonmangoldt", "--X", X,
                                "--zeros", zeros100_file])
        assert code == 1 and message in err

    @pytest.mark.parametrize("action,sigma,reach", [("positivity", "100", "e^200"),
                                                   ("check", "40", "e^40")])
    def test_past_the_prime_place_cap_fails_fast(self, zeros100_file, action, sigma, reach):
        # positivity's h = g * g-check reaches e^(2 sigma); building it before
        # the sieve refused took 9.2 s at sigma = 100
        start = time.perf_counter()
        code, out, err = run_cli(["ef", action, "--testfn", f"bump:mu=0,sigma={sigma}",
                                  "--zeros", zeros100_file])
        elapsed = time.perf_counter() - start
        assert code == 1 and out == ""
        assert err.startswith(f"error: prime places need primes up to {reach}, past the sieve cap")
        assert err.count("\n") == 1
        assert elapsed < 1.0

    def test_positivity(self, zeros100_file):
        code, out, _ = run_cli(["ef", "positivity", "--testfn",
                                "bump:mu=0.7,sigma=0.6", "--zeros", zeros100_file])
        assert code == 0
        assert "prime_side_q" in out and "zero_side_q" in out


#: `weil --form all --testfn bump:mu=0.7,sigma=0.6` output, re-recorded when
#: panel node counts went onto a fixed ladder and the contour's rate was
#: rounded up to an integer, and the r spread when pf and convolution got
#: panel breaks at every bump edge and power of 2 in the support (their last
#: bits moved, not their 15 digits).  The contour imaginary parts are exactly
#: 0: the integrator closes the t < 0 half of the line by conjugation.
CONVERGED_REPORTS = {
    "r": ("quantity,method,value_re,value_im,tolerance,status\n"
          "w_r,finite,0.383686303281117,0,,ok\n"
          "w_r,series,0.383686303281117,0,,ok\n"
          "w_r,pf,0.383686303281119,0,,ok\n"
          "w_r,contour,0.383686303217835,0,,ok\n"
          "w_r,convolution,0.383686303281119,0,,ok\n"
          "w_r,spread,6.32843222270196e-11,0,,\n"),
    "2": ("quantity,method,value_re,value_im,tolerance,status\n"
          "w_2,direct,0.254961331832263,0,,ok\n"
          "w_2,contour,0.254961331485039,0,,ok\n"
          "w_2,convolution,0.254961331832263,0,,ok\n"
          "w_2,spread,3.47223916286055e-10,0,,\n"),
}


def report_rows(out):
    return {ln.split(",")[1]: ln.split(",") for ln in out.splitlines()[1:]}


class TestWeilCommand:
    def test_step_real_place_all_forms(self):
        code, out, _ = run_cli(["weil", "--place", "r", "--form", "all",
                                "--testfn", "step:X=4"])
        assert code == 0
        lines = out.strip().split("\n")
        finite = [ln for ln in lines if ln.startswith("w_r,finite,")][0]
        assert finite.split(",")[2].startswith("2.21499787592657")
        assert sum(1 for ln in lines if ln.endswith(",inadmissible")) == 4

    def test_step_prime_place(self):
        code, out, _ = run_cli(["weil", "--place", "2", "--form", "all",
                                "--testfn", "step:X=10"])
        assert code == 0
        direct = [ln for ln in out.split("\n") if ln.startswith("w_2,direct,")][0]
        assert abs(float(direct.split(",")[2]) - 3 * math.log(2)) < 1e-12
        assert any(ln.startswith("w_2,contour,") and ln.endswith(",inadmissible")
                   for ln in out.split("\n"))

    def test_bump_real_place_spread(self):
        code, out, _ = run_cli(["weil", "--place", "r", "--form", "all",
                                "--testfn", "bump:mu=0.7,sigma=0.6",
                                "--tol", "1e-7"])
        assert code == 0
        spread = [ln for ln in out.split("\n") if ",spread," in ln][0]
        assert float(spread.split(",")[2]) <= 1e-7

    def test_inadmissible_specific_form_exits_one(self):
        code, _, err = run_cli(["weil", "--place", "r", "--form", "contour",
                                "--testfn", "step:X=4"])
        assert code == 1 and "error" in err

    def test_non_numeric_place_exits_one(self):
        code, _, err = run_cli(["weil", "--place", "x", "--form", "all",
                                "--testfn", "step:X=4"])
        assert code == 1 and "place must be 'r' or a prime" in err

    @pytest.mark.parametrize("place,form,literal", [
        ("2", "all", "bump:mu=0,sigma=inf"),
        ("2", "all", "bump:mu=1e308,sigma=1e308"),
        ("r", "finite", "bump:mu=0,sigma=inf"),
        ("r", "all", "bump:mu=0,sigma=1,amp=nan"),
        ("2", "all", "bump:mu=nan,sigma=1"),
        ("2", "all", "bump:mu=705,sigma=5"),
        ("r", "finite", "step:X=inf"),
    ])
    def test_non_finite_literal_exits_one(self, place, form, literal):
        code, out, err = run_cli(["weil", "--place", place, "--form", form,
                                  "--testfn", literal])
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("place,methods", [("r", weil.W_R_FORMS),
                                               ("2", weil.PRIME_METHODS)])
    def test_single_form_matches_all_row(self, place, methods):
        argv = ["weil", "--place", place, "--testfn", "bump:mu=0.7,sigma=0.6"]
        _, out_all, _ = run_cli(argv + ["--form", "all"])
        rows = {ln.split(",")[1]: ln for ln in out_all.splitlines()[1:]}
        for method in methods:
            code, out, _ = run_cli(argv + ["--form", method])
            assert code == 0 and out.splitlines()[1] == rows[method], method

    @pytest.mark.parametrize("place", sorted(CONVERGED_REPORTS))
    def test_converging_report_bytes(self, place):
        code, out, _ = run_cli(["weil", "--place", place, "--form", "all",
                                "--testfn", "bump:mu=0.7,sigma=0.6"])
        assert code == 0 and out == CONVERGED_REPORTS[place]

    def test_route_not_converging_keeps_the_others(self):
        # The contour integral gives up at t = 2000; direct and convolution
        # are exact finite sums and still report.
        code, out, err = run_cli(["weil", "--place", "2", "--form", "all",
                                  "--testfn", "bump:mu=100,sigma=1"])
        assert code == 2 and err == ""
        rows = report_rows(out)
        assert rows["contour"][2:] == ["0", "0", "", "not_converged"]
        direct, conv = float(rows["direct"][2]), float(rows["convolution"][2])
        assert rows["direct"][5] == rows["convolution"][5] == "ok"
        assert abs(direct - conv) <= 1e-12
        assert float(rows["spread"][2]) == abs(direct - conv)

    def test_not_converged_real_route_leaves_spread_to_the_rest(self, monkeypatch):
        def gives_up(g):
            raise ConvergenceError("vertical-line integral did not converge")
        monkeypatch.setattr(weil, "_w_r_contour", gives_up)
        code, out, _ = run_cli(["weil", "--place", "r", "--form", "all",
                                "--testfn", "bump:mu=0.7,sigma=0.6"])
        assert code == 2
        rows = report_rows(out)
        assert rows["contour"][2:] == ["0", "0", "", "not_converged"]
        kept = report_rows(CONVERGED_REPORTS["r"])
        for form in ("finite", "series", "pf", "convolution"):
            assert rows[form] == kept[form]
        # the four quadrature routes agree to rounding; the contour was 6.3e-11 off
        assert float(rows["spread"][2]) <= 1e-14

    def test_huge_bump_support_fails_fast(self):
        # Support edges e^708.3 and e^709.7 are floats, but a quadrature
        # panel between them would need infinitely many nodes.
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "eflab.cli", "weil", "--place", "r",
                               "--form", "all", "--testfn", "bump:mu=709,sigma=0.7"],
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: quadrature panel")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert elapsed < 5.0

    @pytest.mark.parametrize("place,literal,message", [
        ("r", "bump:mu=0,sigma=1e-300", "sigma^3 underflows"),
        ("2", "bump:mu=0.7,sigma=0.6,amp=1e308+mu=0.7,sigma=0.6,amp=1e308",
         "sum of |amp| is not finite"),
        ("r", "bump:mu=0.7,sigma=0.6,amp=1e308", "sum of |amp| is not finite"),
        ("2", "bump:mu=0.7,sigma=0.6,amp=1e308", "sum of |amp| is not finite"),
    ])
    def test_overflowing_literal_fails_fast(self, place, literal, message):
        # A sigma^3 of 0 ended in a ZeroDivisionError traceback; amplitudes
        # summing to inf ran the contour to its cap on NaN blocks and filed
        # the overflow as not_converged.  A single amp of 1e308 is finite,
        # but amp * max|B^(3)| / sigma^3 is not: it printed a finite direct
        # value beside a not_converged contour.
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "eflab.cli", "weil", "--place", place,
                               "--form", "all", "--testfn", literal],
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert elapsed < 5.0

    def test_seventeen_digit_prime_place_fails_fast(self):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "eflab.cli", "weil", "--place",
                               "10000000000000061", "--form", "direct",
                               "--testfn", "bump:mu=0.7,sigma=0.6"],
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[1] == "w_10000000000000061,direct,0,0,,ok"
        assert elapsed < 2.0

    def test_determinism(self):
        argv = ["weil", "--place", "r", "--form", "all",
                "--testfn", "bump:mu=0.2,sigma=0.4"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2


def run_cli_at_blas_threads(argv, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "eflab.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestBlasThreadDeterminism:
    """stdout bytes do not depend on the BLAS thread count."""

    LITERAL = "bump:mu=0.3,sigma=0.5,amp=1.5+mu=1.1,sigma=0.4"

    @staticmethod
    def assert_same_bytes(argv):
        assert run_cli_at_blas_threads(argv, 1) == run_cli_at_blas_threads(argv, 2)

    def test_ef_check(self, tmp_path):
        table = tmp_path / "z300.txt"
        write_zero_table(find_zeros(300.0), str(table))
        self.assert_same_bytes(["ef", "check", "--testfn", self.LITERAL,
                                "--zeros", str(table)])

    @pytest.mark.parametrize("place", ["r", "2"])
    def test_weil_all_forms(self, place):
        self.assert_same_bytes(["weil", "--place", place, "--form", "all",
                                "--testfn", self.LITERAL])

    # The zero-side sums over a t_max >= 300 table and the contour blocks run
    # the Mellin kernel's moment product, a matrix-matrix product.
    def test_ef_positivity(self, zeros300_file):
        self.assert_same_bytes(["ef", "positivity", "--testfn", self.LITERAL,
                                "--zeros", zeros300_file])

    def test_weil_all_forms_at_three(self):
        self.assert_same_bytes(["weil", "--place", "3", "--form", "all",
                                "--testfn", self.LITERAL])

    def test_conductor(self):
        self.assert_same_bytes(["conductor", "--p", "2", "--n", "9"])

    # The fast zeta kernels sum by matrix products; the sign margin holds for
    # any summation order, so every sign is the direct kernel's.
    def test_zeros_find(self):
        self.assert_same_bytes(["zeros", "find", "--t-max", "1000"])


class TestConductorCommand:
    def test_small_spectrum(self):
        code, out, _ = run_cli(["conductor", "--p", "3", "--n", "2"])
        assert code == 0
        ratios = [float(ln.split(",")[2]) for ln in out.split("\n")
                  if ln.startswith("ratio_")]
        assert len(ratios) == 3 ** 2 - 1 - 2
        assert all(abs(r - round(r)) <= 1e-8 for r in ratios)

    def test_p2_minimum_ratio(self):
        code, out, _ = run_cli(["conductor", "--p", "2", "--n", "3"])
        assert code == 0
        ratios = [float(ln.split(",")[2]) for ln in out.split("\n")
                  if ln.startswith("ratio_")]
        assert min(ratios) >= 2.0 - 1e-8

    def test_check_inversion(self):
        code, out, _ = run_cli(["conductor", "--p", "3", "--n", "2",
                                "--check-inversion"])
        assert code == 0
        row = [ln for ln in out.split("\n") if ln.startswith("commutation_defect")][0]
        assert float(row.split(",")[2]) <= 1e-9

    @pytest.mark.parametrize("p,n,message", [(4, 2, "not a prime"), (2, 0, "n >= 1")])
    def test_bad_level_exits_one(self, p, n, message):
        code, out, err = run_cli(["conductor", "--p", str(p), "--n", str(n)])
        assert code == 1 and out == "" and err.startswith("error:") and message in err

    def test_size_cap(self):
        code, _, err = run_cli(["conductor", "--p", "3", "--n", "8"])
        assert code == 1 and "exceeds the desk-scale cap 2048" in err

    @pytest.mark.parametrize("p,n", [("10000000000000061", "1"), ("2", "100000")])
    def test_size_cap_fails_fast(self, p, n):
        # the cap is tested before primality, and without forming p^n
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "eflab.cli", "conductor",
                               "--p", p, "--n", n], capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: p^n = {p}^{n} exceeds the desk-scale cap 2048\n"
        assert elapsed < 2.0

    def test_size_cap_is_the_shared_constant(self, monkeypatch):
        monkeypatch.setattr(padic, "LEVEL_SIZE_MAX", 8)
        code, _, err = run_cli(["conductor", "--p", "3", "--n", "2"])
        assert code == 1 and "exceeds the desk-scale cap 8" in err

    def test_closed_form_mismatch_exits_two(self, monkeypatch):
        code, expected, err = run_cli(["conductor", "--p", "3", "--n", "2"])
        assert code == 0 and err == ""
        good = padic.cuspidal_spectrum(3, 2)
        monkeypatch.setattr(padic, "closed_form_spectrum",
                            lambda p, n: good + 1e-6 * math.log(3.0))
        code, out, err = run_cli(["conductor", "--p", "3", "--n", "2"])
        assert code == 2 and "closed-form" in err
        assert out == expected  # the closed-form route adds no rows


class TestParsing:
    @pytest.mark.parametrize("argv", [
        ["ef", "check", "--testfn", "bump:mu=0.7,sigma=0.6", "--zeros", "z.txt"],
        ["ef", "vonmangoldt", "--X", "10.5", "--zeros", "z.txt"],
        ["weil", "--place", "2", "--form", "all", "--testfn", "bump:mu=0.7,sigma=0.6"],
    ])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-4"])
    def test_tolerance_that_can_never_pass_exits_one(self, argv, tol):
        code, out, err = run_cli(argv + [f"--tol={tol}"])
        assert code == 1 and out == ""
        assert err == f"error: argument --tol: tolerance must be finite and >= 0, got {tol}\n"

    @pytest.mark.parametrize("argv", [
        ["ef", "check", "--testfn", "bump:mu=0.7,sigma=0.6", "--zeros", "z.txt"],
        ["ef", "vonmangoldt", "--X", "10.5", "--zeros", "z.txt"],
        ["weil", "--place", "2", "--form", "all", "--testfn", "bump:mu=0.7,sigma=0.6"],
    ])
    @pytest.mark.parametrize("spelling", [["--tol", "-1e-4"], ["--tol=-1e-4"]])
    def test_negative_exponent_tolerance_reaches_the_check(self, argv, spelling):
        # argparse's own pattern takes -1e-4 for an option string
        code, out, err = run_cli(argv + spelling)
        assert code == 1 and out == ""
        assert err == "error: argument --tol: tolerance must be finite and >= 0, got -1e-4\n"

    def test_non_numeric_tolerance_keeps_the_float_message(self):
        code, _, err = run_cli(["ef", "vonmangoldt", "--X", "10.5", "--zeros", "z.txt",
                                "--tol", "abc"])
        assert code == 1 and err == "error: argument --tol: invalid float value: 'abc'\n"

    def test_program_value_error_is_not_an_input_error(self, monkeypatch):
        def broken(p, n):
            raise ValueError("bug")
        monkeypatch.setattr(padic, "cuspidal_spectrum", broken)
        with pytest.raises(ValueError, match="bug"):
            main(["conductor", "--p", "3", "--n", "2"])

    def test_unknown_flag_exits_one(self):
        code, _, err = run_cli(["zeros", "find", "--t-max", "30", "--frobnicate"])
        assert code == 1 and "error" in err

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, eflab; a = [m for m in sys.modules if m.startswith('scipy')]; "
             "import eflab.cli; b = [m for m in sys.modules if m.startswith('scipy')]; "
             "print(len(a), len(b))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_console_script_runs(self):
        proc = subprocess.run([sys.executable, "-m", "eflab.cli", "conductor",
                               "--p", "2", "--n", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("quantity,method,")
