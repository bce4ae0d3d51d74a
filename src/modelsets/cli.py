"""Command-line front end.

Every subcommand writes deterministic, file-based outputs (CSV/JSON/SVG) so
runs with identical flags are byte-identical.  Exit codes: 0 success,
2 usage/parameter error, 3 verification failure, 4 resource limit.

Window literals follow the library grammar; the aliases ``A`` and ``B`` stand
for the two homometric mod-32 residue sets and ``fib`` for the golden-ratio
interval [-1, 1/tau).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import homometry, reconstruct, spectra
from .correlations import (_coord_text, correlation_measure, correlations_equal,
                           freq_empirical)
from .errors import ParameterError, ReconstructionError, ResourceError, check_real
from .pointsets import _atomic_write, generate, save_pointset
from .schemes import (PERIODIC, IntervalUnion, ResidueSet, _excerpt, _split_top,
                      parse_scheme, parse_window)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4

def expand_window_literal(text: str) -> str:
    """Replace the documented aliases inside a window literal."""
    a, b = homometry.cyclotomic_pair()
    table = {"fib": "[-1,1/tau)", "A": a.literal(), "B": b.literal()}
    return "x".join(table.get(p.strip(), p.strip()) for p in _split_top(text, "x"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    scheme = parse_scheme(args.scheme)
    window = parse_window(expand_window_literal(args.window))
    ps = generate(scheme, window, (args.region[0], args.region[1]))
    save_pointset(ps, args.output)
    print(f"wrote {len(ps)} points to {args.output}")
    return EXIT_OK


def cmd_correlate(args) -> int:
    if args.compare is not None and args.empirical is not None:
        raise ParameterError("--compare and --empirical cannot be combined")
    scheme = parse_scheme(args.scheme)
    window = parse_window(expand_window_literal(args.window))
    measure = correlation_measure(scheme, window, args.order, args.cutoff)

    if args.compare is not None:
        other = parse_window(expand_window_literal(args.compare))
        other_measure = correlation_measure(scheme, other, args.order, args.cutoff)
        equal, witness = correlations_equal(measure, other_measure, tol=args.tol)
        if equal:
            print(f"EQUAL order-{args.order} correlations within cutoff "
                  f"{args.cutoff} (tol {args.tol:g})")
        else:
            key, v1, v2 = witness
            print(f"DIFFER at {','.join(map(_coord_text, key))}: {v1:.15g} vs {v2:.15g}")
        measure.to_csv(args.output)
        return EXIT_OK if equal else EXIT_VERIFY

    empirical = None
    if args.empirical is not None:
        R = check_real("averaging radius R", args.empirical, positive=True)
        pad = args.cutoff * (args.order - 1) + 2
        ps = generate(scheme, window, (-R / 2 - pad, R / 2 + pad))
        empirical = {key: freq_empirical(ps, key, R) for key in measure.support()}
    measure.to_csv(args.output, empirical)
    print(f"wrote {len(measure.entries)} correlation entries to {args.output}")
    return EXIT_OK


def cmd_diffract(args) -> int:
    scheme = parse_scheme(args.scheme)
    window = parse_window(expand_window_literal(args.window))
    include_zeros = args.include_zeros or scheme.kind == PERIODIC
    spec = spectra.diffraction(scheme, window, args.kmax,
                               min_intensity=args.min_intensity,
                               include_zeros=include_zeros)
    if scheme.kind == PERIODIC:
        # one full period k = 0..kmax, matching the stick-plot layout
        keep = tuple(p for p in spec.peaks if p[0].labels[0] >= 0)
        spec = spectra.Spectrum(scheme, keep)
    if args.svg:  # first: the plot refuses an empty spectrum before any file is written
        spec.to_svg(args.svg)
    spec.to_csv(args.output)
    print(f"wrote {len(spec)} spectrum rows to {args.output}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    max_mismatch = check_real("max mismatch", args.max_mismatch, positive=True)
    window = parse_window(expand_window_literal(args.window))
    if not isinstance(window, IntervalUnion):
        raise ParameterError("reconstruction works on interval-union windows")
    L = Fraction(check_real("half-length L", args.halflength, positive=True))
    hull = window.hull()
    if hull is not None and (hull[0] < -L or hull[1] > L):
        raise ParameterError(f"window {_excerpt(args.window)} does not fit in the period "
                             f"[-L, L) = [{-args.halflength:g}, {args.halflength:g})")
    f = spectra.sample_window(window, args.grid, args.halflength)
    report = reconstruct.roundtrip(f, args.grid, args.halflength)
    _atomic_write(args.output, report.to_json() + "\n")
    if args.csv:
        x = -args.halflength + np.arange(args.grid) * (2 * args.halflength / args.grid)
        lines = ["cell,x,recovered"]
        lines.extend(f"{i},{x[i]:.15g},{int(v)}" for i, v in enumerate(report.recovered))
        _atomic_write(args.csv, "\n".join(lines) + "\n")
    ok = report.mismatch < max_mismatch
    print(f"selftest mismatch {report.mismatch:.4%} (shift {report.shift}, "
          f"{report.unknown_count} unknown frequencies) -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_homometry(args) -> int:
    set_a, set_b = homometry.cyclotomic_pair()
    chosen = []
    for name in args.sets:
        w = parse_window(expand_window_literal(name))
        if not isinstance(w, ResidueSet):
            raise ParameterError("homometry sets must be residue sets")
        chosen.append(w)
    S, T = chosen
    documented = (S, T) == (set_a, set_b)  # only its verdicts are PASS or FAIL

    lines = []
    failures = 0
    for order in [args.order] if args.order else [2, 3, 4]:
        equal, witness = homometry.tables_equal(homometry.pattern_table(S, order),
                                                homometry.pattern_table(T, order))
        if not documented:
            lines.append(f"order-{order} tables: {'equal' if equal else f'differ at {witness}'}")
            continue
        ok = equal == (order < 4)
        failures += not ok
        detail = "equal" if equal else "differ, witness {} counts {} vs {}".format(*witness)
        lines.append(f"order-{order} tables: {detail} [{'PASS' if ok else 'FAIL'}]")

    rigid = homometry.rigid_equivalent(S, T)
    if documented:
        ok = rigid is None
        failures += not ok
        lines.append(f"rigid motions x -> +-x+t: "
                     f"{'none map one set to the other' if rigid is None else rigid} "
                     f"[{'PASS' if ok else 'FAIL'}]")
    else:
        lines.append(f"rigid equivalence: {rigid}")

    text = "\n".join(lines)
    print(text)
    if args.output:
        _atomic_write(args.output, text + "\n")
    return EXIT_VERIFY if failures else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors as one ``error: ...`` line, exit 2; subparsers inherit the class.

    argparse quotes a bad value in full, so each word of the message is cut
    to 40 characters.
    """

    def error(self, message):
        words = (w if len(w) <= 40 else w[:37] + "..." for w in message.split())
        self.exit(EXIT_USAGE, f"error: {' '.join(words)}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="modelsets",
        description="Cut-and-project model sets: patches, correlations, "
                    "diffraction, window recovery, homometry checks.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="enumerate a model-set patch into a point file")
    g.add_argument("--scheme", required=True, help="fibonacci | periodic:N | combined:N")
    g.add_argument("--window", required=True, help="window literal or alias (A, B, fib)")
    g.add_argument("--region", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    g.add_argument("-o", "--output", default="points.txt")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("correlate",
                       help="exact k-point correlation table, optionally with "
                            "empirical counts or an equality comparison")
    c.add_argument("--scheme", required=True)
    c.add_argument("--window", required=True)
    c.add_argument("--order", type=int, default=2, choices=(2, 3, 4))
    c.add_argument("--cutoff", type=float, default=5.0)
    c.add_argument("--empirical", type=float, default=None, metavar="R",
                   help="also count occurrences in a patch averaged over (-R/2, R/2)")
    c.add_argument("--compare", default=None, metavar="WINDOW",
                   help="second window; prints EQUAL/DIFFER for the two tables")
    c.add_argument("--tol", type=float, default=1e-12)
    c.add_argument("-o", "--output", default="correlations.csv")
    c.set_defaults(func=cmd_correlate)

    d = sub.add_parser("diffract",
                       help="pure-point diffraction; for periodic:N one full "
                            "period k = 0..N (in units of 1/N) including extinctions")
    d.add_argument("--scheme", required=True)
    d.add_argument("--window", required=True)
    d.add_argument("--kmax", type=float, default=1.0)
    d.add_argument("--min-intensity", type=float, default=1e-4)
    d.add_argument("--include-zeros", action="store_true")
    d.add_argument("--svg", default=None, help="also write a stick plot")
    d.add_argument("-o", "--output", default="spectrum.csv")
    d.set_defaults(func=cmd_diffract)

    r = sub.add_parser("reconstruct",
                       help="self-test: build deck data from a window, forget the "
                            "window, recover it from the deck transforms alone")
    r.add_argument("--selftest", action="store_true",
                   help="accepted for clarity; self-test is the only mode")
    r.add_argument("--window", required=True)
    r.add_argument("--grid", type=int, default=512)
    r.add_argument("--halflength", type=float, default=8.0)
    r.add_argument("--max-mismatch", type=float, default=0.01)
    r.add_argument("--csv", default=None, help="also write the recovered indicator")
    r.add_argument("-o", "--output", default="reconstruction.json")
    r.set_defaults(func=cmd_reconstruct)

    h = sub.add_parser("homometry",
                       help="verify the mod-32 homometric pair: equal 2-/3-point "
                            "tables, an order-4 witness, rigid inequivalence")
    h.add_argument("--sets", nargs=2, default=("A", "B"))
    h.add_argument("--order", type=int, default=None, choices=(2, 3, 4))
    h.add_argument("-o", "--output", default=None)
    h.set_defaults(func=cmd_homometry)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceError as e:
        print(f"error: resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except ReconstructionError as e:
        print(f"error: reconstruction failed: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as e:  # the only files the CLI touches are its outputs
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
