"""Command-line front end: analyze / simulate / spectrum / fit.

Exit codes:
  0 success
  1 parse or usage error
  2 class-K certification failure
  3 passivity failure
  4 unsupported kernel type for the requested command
  5 inconclusive decay fit

Importing this module and building the parser load argparse and nothing of
the package; ``--help`` and a usage error stop there.  Each command imports
what it runs: ``analyze`` imports ``kernels`` and ``dispersion``, ``simulate``
and ``spectrum`` ``kernels`` and ``modal``, ``fit`` ``decay``, and every one
``io``; numpy comes with ``modal`` and ``decay``.  ``analyze`` on a medium
that is not strictly passive, and a config error, import no numpy.  logging
loads once the arguments are parsed.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CERT = 2
EXIT_PASSIVITY = 3
EXIT_UNSUPPORTED = 4
EXIT_INCONCLUSIVE = 5


def _configure_logging() -> None:
    # DISPERSIA_LOG controls verbosity only; outputs never depend on it
    import logging

    level_name = os.environ.get("DISPERSIA_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_window(text: str) -> tuple[float, float]:
    from . import io

    parts = text.split(",")
    if len(parts) != 2:
        raise io.ParseError("--window", f"expected 'a,b', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise io.ParseError("--window", f"expected two numbers, got {text!r}") from None
    if b <= a:
        raise io.ParseError("--window", "window end must exceed window start")
    return a, b


def _emit(write, out: str | None, payload) -> None:
    """Send a command's output through its io writer: to the --out file, or to stdout."""
    text = write(out, payload)
    if out is None:
        sys.stdout.write(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    import logging

    from . import dispersion, io, kernels

    log = logging.getLogger("dispersia")
    doc, base_dir = io.load_config(args.config)
    nu_e, nu_h = io.parse_analyze_config(doc, base_dir)
    try:
        for which, kernel in (("nu_e", nu_e), ("nu_h", nu_h)):
            cert = kernels.certify_class_K(kernel)
            log.info("%s certified: C=%.6g delta=%.6g", which, cert.C, cert.delta)
    except kernels.KernelError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERT
    report = dispersion.analyze(nu_e, nu_h)
    _emit(io.write_report, args.out, io.passivity_report_to_doc(report))
    if not report.passive:
        return EXIT_PASSIVITY
    return EXIT_OK


def _require_exp_poly(medium, what: str) -> bool:
    """Report the first kernel of a MediumSpec without a finite closure; the
    modal commands need one."""
    from . import kernels

    for which, kernel in (("nu_e", medium.nu_e), ("nu_h", medium.nu_h)):
        if not isinstance(kernel, kernels.ExpPolyKernel):
            print(f"medium.{which}: {what} requires an exp_poly kernel", file=sys.stderr)
            return False
    return True


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import io

    doc, base_dir = io.load_config(args.config)
    config = io.parse_simulate_config(doc, base_dir)
    if not _require_exp_poly(config.medium, "simulation"):
        return EXIT_UNSUPPORTED
    from . import modal

    trace = modal.run_multimode(
        config.medium,
        list(config.modes),
        dt=config.dt,
        T=config.T,
        output_stride=config.output_stride,
    )
    _emit(io.write_trace, args.out, trace)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    from . import io

    doc, base_dir = io.load_config(args.config)
    config = io.parse_spectrum_config(doc, base_dir)
    if not _require_exp_poly(config.medium, "spectrum"):
        return EXIT_UNSUPPORTED
    from . import modal

    rows = []
    for k, system in zip(config.k_values, modal.build_modes(config.medium, config.k_values)):
        abscissa, eigs = modal.spectral_abscissa(system)
        rows.append((k, abscissa, eigs.size))
    _emit(io.write_spectrum, args.out, rows)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    from . import io

    trace = io.read_trace(args.trace)
    window = _parse_window(args.window)
    from . import decay

    try:
        report = decay.fit_decay(trace, window)
    except decay.UnusableTrace as exc:
        print(f"unusable trace: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(io.write_report, args.out, io.decay_report_to_doc(report))
    if report.kind == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersia",
        description="Passivity analysis and modal energy-decay simulation "
                    "for dispersive media",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="certify kernels and report passivity")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="integrate the modal system, write a trace")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and ignored; all modes are "
                        "advanced together and traces are byte-identical for any value")

    p = sub.add_parser("spectrum", help="spectral abscissa over a wavenumber grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("fit", help="classify the decay of an energy trace")
    p.add_argument("trace", help="path to a trace file")
    p.add_argument("--window", required=True, metavar="a,b")
    p.add_argument("--out", default=None)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on its first call and reused for the process.

    parse_args returns a fresh namespace on every call, so reuse carries no
    state from one command to the next.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    _configure_logging()
    # every command imports io, and medium with it
    from . import io, medium

    # the handlers are looked up on every call, not stored in the reused
    # parser, so a later rebinding of a cmd_* function is the one that runs
    command = {"analyze": cmd_analyze, "simulate": cmd_simulate,
               "spectrum": cmd_spectrum, "fit": cmd_fit}[args.command]
    try:
        return command(args)
    except io.ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except medium.KernelError as exc:
        print(f"kernel error: {exc}", file=sys.stderr)
        return EXIT_CERT
    except medium.ModalError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
