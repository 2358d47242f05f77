"""Command-line interface: exit codes, output formats, round-trips, and
determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spikedosc import cli, matel, perturb
from spikedosc.basis import OscillatorParams
from spikedosc.cli import main
from spikedosc.errors import SlowConvergenceWarning
from spikedosc.matel import MatrixElementTable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMatelem:
    def test_csv_example(self, capsys):
        code, out, _ = run(capsys, "matelem", "--A", "0", "--B", "1",
                           "--alpha", "2", "--N", "3", "--format", "csv")
        assert code == 0
        values = MatrixElementTable.parse_csv(out)
        assert values[0, 0] == pytest.approx(2.0, rel=1e-14)
        np.testing.assert_array_equal(values, values.T)

    def test_supersingular_exit2(self, capsys):
        code, _, err = run(capsys, "matelem", "--A", "0", "--B", "1",
                           "--alpha", "5", "--N", "2")
        assert code == 2 and "supersingular" in err

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "matelem", "--A", "2", "--B", "4",
                           "--alpha", "1", "--N", "2")
        assert code == 0
        data = json.loads(out)
        vals = np.array(data["values"])
        assert vals.shape == (2, 2) and vals[0, 1] == vals[1, 0]

    def test_determinism(self, capsys):
        args = ("matelem", "--A", "1", "--B", "2", "--alpha", "1.5",
                "--N", "4", "--format", "csv")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_csv_reparse_bit_exact(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code = main(["matelem", "--A", "1", "--B", "2", "--alpha", "1.5",
                     "--N", "5", "--format", "csv", "--output", str(out_path)])
        assert code == 0
        from spikedosc.basis import OscillatorParams
        from spikedosc.matel import build_table
        table = build_table(OscillatorParams(A=1.0, B=2.0, alpha=1.5), 5)
        reparsed = MatrixElementTable.parse_csv(out_path.read_text())
        np.testing.assert_array_equal(reparsed, table.values)


class TestSpectrum:
    def test_alpha2_ground(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--A", "0", "--B", "1",
                           "--alpha", "2", "--lam", "0.5", "--N", "32")
        assert code == 0
        ground = json.loads(out)["results"][0]["eigenvalues"][0]
        assert ground == pytest.approx(3.7320508, abs=1e-2)

    def test_unperturbed_exact(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--A", "0", "--B", "1",
                           "--alpha", "2", "--N-list", "4")
        assert code == 0
        evs = json.loads(out)["results"][0]["eigenvalues"]
        assert evs == [3.0, 7.0, 11.0, 15.0]

    def test_bad_n_list(self, capsys):
        code, _, err = run(capsys, "spectrum", "--A", "0", "--B", "1",
                           "--alpha", "2", "--N-list", "4,oops")
        assert code == 2


class TestPerturb:
    def test_alpha2_coefficients(self, capsys):
        code, out, _ = run(capsys, "perturb", "--A", "0", "--B", "1", "--alpha", "2")
        assert code == 0
        data = json.loads(out)
        assert data["c1"] == pytest.approx(2.0, rel=1e-10)
        assert data["c2"] == pytest.approx(-2.0, rel=1e-10)

    def test_divergent_exit3(self, capsys):
        code, out, _ = run(capsys, "perturb", "--A", "0", "--B", "1", "--alpha", "2.5")
        assert code == 3
        assert json.loads(out)["divergent"] is True

    def test_lam_evaluates_series(self, capsys):
        code, out, _ = run(capsys, "perturb", "--A", "0", "--B", "1",
                           "--alpha", "2", "--lam", "0.01")
        data = json.loads(out)
        assert data["E_second_order"] == pytest.approx(3.0 + 0.02 - 2e-4, rel=1e-9)


class TestWavefun:
    def test_empty_grid(self, capsys):
        code, out, _ = run(capsys, "wavefun", "--A", "0", "--B", "1", "--alpha", "1",
                           "--x-count", "0", "--format", "csv")
        assert code == 0 and out.strip() == "x,value,method"

    def test_methods_cross_check(self, capsys):
        base = ("--A", "0", "--B", "1", "--alpha", "1", "--x-start", "0.5",
                "--x-stop", "2", "--x-count", "3", "--format", "json")
        _, out_s, _ = run(capsys, "wavefun", *base, "--method", "series")
        _, out_c, _ = run(capsys, "wavefun", *base, "--method", "contour")
        vs = json.loads(out_s)["values"]
        vc = json.loads(out_c)["values"]
        np.testing.assert_allclose(vs, vc, atol=1e-6)

    def test_unproven_gate(self, capsys):
        args = ("wavefun", "--A", "15", "--B", "1", "--alpha", "2.5",
                "--x-count", "2", "--method", "series")
        code, _, err = run(capsys, *args)
        assert code == 2
        code, out, _ = run(capsys, *args, "--allow-unproven")
        assert code == 0

    def test_slow_convergence_warning_on_stderr(self, capsys):
        # alpha = 2 makes the coefficients decay like 1/n, and at x = 0.25 the
        # partial sums ring with period 4 pi in sqrt(n), too slowly for the
        # windowed means to agree before the term cap
        code, out, err = run(capsys, "wavefun", "--A", "0", "--B", "1", "--alpha", "2",
                             "--method", "series", "--x-start", "0.25", "--x-count", "1")
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("spikedosc: warning: coefficient sum hit the "
                                   "100000-term cap at x = 0.25")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowConvergenceWarning)
            samples = perturb.wavefun_samples(
                OscillatorParams(A=0.0, B=1.0, alpha=2.0), [0.25], method="series")
        assert out == json.dumps(samples.to_dict(), indent=2) + "\n"

    def test_negative_count(self, capsys):
        code, _, _ = run(capsys, "wavefun", "--A", "0", "--B", "1",
                         "--alpha", "1", "--x-count", "-1")
        assert code == 2

    @pytest.mark.parametrize("end", [("--x-stop", "inf"), ("--x-start", "nan"),
                                     ("--x-stop=-inf",), ("--x-stop", "-inf")])
    def test_non_finite_grid_end_exit2(self, capsys, end):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "wavefun", "--A", "0", "--B", "1",
                                 "--alpha", "1", *end)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("spikedosc: precondition violated: "
                                   "--x-start and --x-stop must be finite")

    def test_non_finite_series_exit4(self, capsys):
        # 1F1(-n, gamma, 1600) overflows in the recurrence: refused, not NaN
        code, out, err = run(capsys, "wavefun", "--A", "0", "--B", "1", "--alpha", "1",
                             "--method", "series", "--x-start", "40", "--x-count", "1")
        assert code == 4 and out == ""
        assert err.startswith("spikedosc: did not converge: ")

    def test_nan_sample_never_printed(self, capsys, monkeypatch):
        def nan_samples(params, xs, method="series", allow_unproven=False):
            return perturb.WavefunSamples(xs=np.array([1.0]),
                                          values=np.array([np.nan]), method=method)

        monkeypatch.setattr(perturb, "wavefun_samples", nan_samples)
        code, out, err = run(capsys, "wavefun", "--A", "0", "--B", "1", "--alpha", "1",
                             "--x-count", "1")
        assert code == 4 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("spikedosc: non-finite result: ")


class TestResourceRefusals:
    @pytest.mark.parametrize("argv", [
        ("matelem", "--N", "10000000"),
        ("spectrum", "--lam", "1", "--N", "10000000"),
        ("spectrum", "--lam", "1", "--N-list", "4,10000000"),
    ])
    def test_huge_n_refused_before_allocating(self, capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("the factor was built")

        monkeypatch.setattr(matel, "_factor", never)
        code, out, err = run(capsys, argv[0], "--A", "0", "--B", "1",
                             "--alpha", "1", *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("spikedosc: precondition violated: N = 10000000")

    def test_memory_error_exit4(self, capsys, monkeypatch):
        def exhausted(params, N):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, "build_table", exhausted)
        code, out, err = run(capsys, "matelem", "--A", "0", "--B", "1",
                             "--alpha", "1", "--N", "4")
        assert code == 4 and out == ""
        assert err.splitlines() == ["spikedosc: out of memory: Unable to allocate 7.28 TiB"]

    @pytest.mark.parametrize("command", ["matelem", "wavefun"])
    def test_nan_csv_never_printed(self, capsys, monkeypatch, command):
        def nan_table(params, N):
            values = np.eye(N)
            values[0, 1] = np.nan
            return matel.MatrixElementTable(params=params, N=N, values=values)

        def nan_samples(params, xs, method="series", allow_unproven=False):
            return perturb.WavefunSamples(xs=np.array([1.0]),
                                          values=np.array([np.nan]), method=method)

        monkeypatch.setattr(cli, "build_table", nan_table)
        monkeypatch.setattr(perturb, "wavefun_samples", nan_samples)
        extra = ("--N", "2") if command == "matelem" else ("--x-count", "1")
        code, out, err = run(capsys, command, "--A", "0", "--B", "1", "--alpha", "1",
                             *extra, "--format", "csv")
        assert code == 4 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("spikedosc: non-finite result: ")


def test_contour_route_never_imports_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "\n".join([
        "import sys",
        "from spikedosc import cli, perturb",
        "from spikedosc.basis import OscillatorParams",
        "assert cli.main(['wavefun', '--A', '0', '--B', '1', '--alpha', '1',",
        "                 '--method', 'contour', '--x-start', '0.5', '--x-stop', '2',",
        "                 '--x-count', '4']) == 0",
        "perturb.psi1_contour(OscillatorParams(A=0.0, B=1.0, alpha=1.0), 1.0)",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestVerifyAndUsage:
    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--A", "0", "--B", "1", "--alpha", "1.5")
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] and all(c["passed"] for c in data["checks"])

    @pytest.mark.parametrize("argv", [
        ("matelem", "--A", "0", "--B", "1", "--alpha", "nan", "--N", "3"),
        ("perturb", "--A", "nan", "--B", "1", "--alpha", "1"),
        ("spectrum", "--A", "0", "--B", "inf", "--alpha", "1", "--lam", "1"),
    ])
    def test_non_finite_parameter_exit2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("argv, message", [
        (("spectrum", "--A", "0", "--B", "1", "--alpha", "1", "--lam", "-1e-3"),
         "lambda must be >= 0, got -0.001"),
        (("matelem", "--A", "-1e-3", "--B", "1", "--alpha", "1", "--N", "3"),
         "A must be >= 0, got -0.001"),
    ])
    def test_negative_float_value_exit2(self, capsys, argv, message):
        # a value that looks like an option reaches the parameter check
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"spikedosc: precondition violated: {message}\n"

    def test_unwritable_output_exit2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "perturb", "--A", "1", "--B", "1", "--alpha", "1",
                             "--output", str(path))
        assert code == 2 and out == "" and not path.exists()
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("spikedosc: cannot write output: ")

    def test_missing_flag_exit2(self, capsys):
        code, _, _ = run(capsys, "matelem", "--A", "0", "--B", "1", "--alpha", "1")
        assert code == 2

    def test_unknown_command_exit2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2
