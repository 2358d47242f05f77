"""Command-line front end.

Subcommands: matelem (matrix-element tables), spectrum (variational sweep),
perturb (weak-coupling energy series), wavefun (first-order wavefunction
correction on a grid), verify (self-check against the independent oracles).

Exit codes: 0 success, 2 precondition or usage error (including a --N
whose N x N arrays would not fit in physical memory, a non-finite wavefun
grid end, and an --output path that cannot be written: one ``spikedosc:
cannot write output: ...`` line on stderr), 3 documented series
divergence, 4 numerical non-convergence, a non-finite result, or an
allocation that failed (one ``spikedosc: out of memory: ...`` line on
stderr).  JSON and CSV output never hold a NaN or infinity; the command
exits 4 instead, with one ``spikedosc: non-finite result: ...`` line on
stderr and nothing on stdout.  All floats are printed with 17 significant
digits so output re-parses bit-exactly.  Warnings raised by wavefun go to
stderr, one ``spikedosc: warning: ...`` line each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import oracle, perturb, spectrum
from .basis import OscillatorParams
from .errors import ConvergenceError, DivergenceError, DomainError
from .matel import build_table
from .perturb import PSI1_METHODS
from .spectrum import DEFAULT_N_LADDER

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_NO_CONVERGENCE = 4

# The most float64 N x N arrays a command holds at once: the factor, the
# table and an outer product in matelem; the Hamiltonian, eigh's copy,
# eigenvectors and workspace in spectrum.
_NN_ARRAYS = 6


def _add_params(p: argparse.ArgumentParser, with_lam: bool = True) -> None:
    p.add_argument("--A", type=float, required=True, help="singular-core strength A >= 0")
    p.add_argument("--B", type=float, required=True, help="oscillator strength B > 0")
    p.add_argument("--alpha", type=float, required=True, help="spike exponent alpha > 0")
    if with_lam:
        p.add_argument("--lam", type=float, default=0.0, help="spike coupling lambda >= 0")


def _add_output(p: argparse.ArgumentParser, formats=("json", "csv")) -> None:
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--output", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikedosc",
        description="Spiked harmonic oscillator: matrix elements, "
                    "variational spectra, and perturbation series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matelem", help="N x N table of <m|x^-alpha|n>")
    _add_params(p, with_lam=False)
    p.add_argument("--N", type=int, required=True, help="table dimension")
    _add_output(p)

    p = sub.add_parser("spectrum", help="variational eigenvalue sweep")
    _add_params(p)
    p.add_argument("--N", type=int, default=None, help="single basis dimension")
    p.add_argument("--N-list", default=None,
                   help="comma-separated ascending dimensions (default 4,8,16,32,64)")
    _add_output(p, formats=("json",))

    p = sub.add_parser("perturb", help="weak-coupling energy series E0 + c1 lam + c2 lam^2")
    _add_params(p)
    _add_output(p, formats=("json",))

    p = sub.add_parser("wavefun", help="first-order wavefunction correction on a grid")
    _add_params(p, with_lam=False)
    p.add_argument("--method", choices=PSI1_METHODS, default="series")
    p.add_argument("--x-start", type=float, default=0.25)
    p.add_argument("--x-stop", type=float, default=3.0)
    p.add_argument("--x-count", type=int, default=12)
    p.add_argument("--allow-unproven", action="store_true",
                   help="evaluate the series for 2 < alpha < gamma+1, where "
                        "convergence is not established")
    _add_output(p)

    p = sub.add_parser("verify", help="run the oracle self-check suite")
    _add_params(p, with_lam=False)
    _add_output(p, formats=("json",))

    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _params(args, lam: float | None = None) -> OscillatorParams:
    return OscillatorParams(A=args.A, B=args.B, alpha=args.alpha,
                            lam=getattr(args, "lam", 0.0) if lam is None else lam)


def _require_memory(N: int) -> None:
    """Refuse a dimension whose N x N arrays would exceed physical memory,
    before anything is allocated."""
    need = _NN_ARRAYS * 8 * N * N
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: MemoryError decides
        return
    if need > have:
        raise DomainError(
            f"N = {N} needs about {need / 2**30:.3g} GiB for its N x N arrays, "
            f"more than the {have / 2**30:.3g} GiB of physical memory")


def _cmd_matelem(args) -> int:
    _require_memory(args.N)
    table = build_table(_params(args), args.N)
    _emit(table.to_csv() if args.format == "csv" else table.to_json(), args.output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    params = _params(args)
    if args.N is not None and args.N_list is not None:
        raise DomainError("give either --N or --N-list, not both")
    if args.N is not None:
        ns = (args.N,)
    elif args.N_list is not None:
        try:
            ns = tuple(int(s) for s in args.N_list.split(","))
        except ValueError:
            raise DomainError(f"--N-list must be comma-separated integers, got {args.N_list!r}")
    else:
        ns = DEFAULT_N_LADDER
    _require_memory(max(ns, default=0))
    results = spectrum.variational_sweep(params, ns)
    payload = {
        "results": [r.to_dict() for r in results],
        "ground_converged": spectrum.ground_state_converged(results),
    }
    _emit(json.dumps(payload, indent=2, allow_nan=False), args.output)
    return EXIT_OK


def _cmd_perturb(args) -> int:
    params = _params(args)
    series = perturb.energy_series(params)
    payload = series.to_dict()
    payload["params"] = params.to_dict()
    if params.lam > 0.0:
        payload["E_second_order"] = float(f"{series.evaluate(params.lam):.17g}")
    _emit(json.dumps(payload, indent=2, allow_nan=False), args.output)
    return EXIT_OK


def _cmd_wavefun(args) -> int:
    params = _params(args)
    if args.x_count < 0:
        raise DomainError(f"--x-count must be >= 0, got {args.x_count}")
    if not (math.isfinite(args.x_start) and math.isfinite(args.x_stop)):
        raise DomainError(f"--x-start and --x-stop must be finite, got "
                          f"{args.x_start} and {args.x_stop}")
    if args.x_count == 0:
        xs = np.empty(0)
    elif args.x_count == 1:
        xs = np.array([args.x_start])
    else:
        xs = np.linspace(args.x_start, args.x_stop, args.x_count)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        samples = perturb.wavefun_samples(params, xs, method=args.method,
                                          allow_unproven=args.allow_unproven)
    for w in caught:
        print(f"spikedosc: warning: {w.message}", file=sys.stderr)
    if args.format == "csv":
        _emit(samples.to_csv(), args.output)
    else:
        _emit(json.dumps(samples.to_dict(), indent=2, allow_nan=False),
              args.output)
    return EXIT_OK


def _verify_checks(params: OscillatorParams) -> list[dict]:
    from .matel import matrix_element, matrix_element_alpha2

    checks = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    worst = 0.0
    for m in range(4):
        for n in range(4):
            got = oracle.overlap(params, m, n)
            worst = max(worst, abs(got - (1.0 if m == n else 0.0)))
    record("orthonormality", worst < 1e-9, f"max |<m|n> - delta_mn| = {worst:.3e}")

    worst = 0.0
    for m in range(6):
        for n in range(m, 6):
            a = matrix_element(params, m, n)
            b = oracle.double_sum_matel(params, m, n)
            c = oracle.matel_quadrature(params, m, n)
            scale = max(abs(a), 1e-300)
            worst = max(worst, abs(a - b) / scale, abs(a - c) / scale)
    record("oracle_equivalence", worst < 1e-8,
           f"max relative spread across closed form / double sum / quadrature = {worst:.3e}")

    worst = 0.0
    for m in range(12):
        for n in range(12):
            a = matrix_element(params, m, n)
            b = matrix_element(params, n, m)
            worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    record("symmetry", worst < 1e-10, f"max relative asymmetry = {worst:.3e}")

    p2 = OscillatorParams(A=params.A, B=params.B, alpha=2.0)
    worst = 0.0
    for m in range(8):
        for n in range(8):
            a = matrix_element_alpha2(p2, m, n)
            c = oracle.matel_quadrature(p2, m, n)
            worst = max(worst, abs(a - c) / max(abs(a), 1e-300))
    record("alpha2_exactness", worst < 1e-8,
           f"max relative closed-form vs quadrature gap at alpha = 2 = {worst:.3e}")
    return checks


def _cmd_verify(args) -> int:
    params = _params(args)
    checks = _verify_checks(params)
    ok = all(c["passed"] for c in checks)
    _emit(json.dumps({"params": params.to_dict(), "checks": checks,
                      "all_passed": ok}, indent=2, allow_nan=False), args.output)
    return EXIT_OK if ok else 1


_COMMANDS = {
    "matelem": _cmd_matelem,
    "spectrum": _cmd_spectrum,
    "perturb": _cmd_perturb,
    "wavefun": _cmd_wavefun,
    "verify": _cmd_verify,
}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_values(argv: list[str]) -> list[str]:
    """Write ``--opt -value`` as ``--opt=-value`` where -value is a float
    such as -inf or -1e-3, which argparse would read as an option."""
    out: list[str] = []
    for arg in argv:
        if (arg.startswith("-") and _is_float(arg) and out
                and out[-1].startswith("--") and "=" not in out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"spikedosc: precondition violated: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # only _emit does I/O
        print(f"spikedosc: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(json.dumps({"divergent": True, "reason": str(exc)}, indent=2,
                         allow_nan=False))
        return EXIT_DIVERGENCE
    except ConvergenceError as exc:
        print(f"spikedosc: did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:  # JSON or CSV output met NaN or inf
        print(f"spikedosc: non-finite result: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MemoryError as exc:
        print(f"spikedosc: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
