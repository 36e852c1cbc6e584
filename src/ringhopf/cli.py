"""Command-line front end.

Subcommands: analyze, tables, phases, perturb, simulate, spectrum.
Exit codes: 0 when the queried feature is found, 2 when the analysis ran
but the feature is absent (no Hopf point, no cycle), 1 on errors, so shell
pipelines can branch on mathematical outcomes. Verbosity is controlled by
the RINGHOPF_LOG environment variable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import sys

from . import genericity, hopf, model, phases, simulate, spectra

log = logging.getLogger("ringhopf")

EXIT_FOUND = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2


def _positive(value: str) -> float:
    v = float(value)
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return v


def _write_output(text: str, path: str | None) -> None:
    """The same bytes, ending in one newline, to stdout or to the file at path."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_analyze(args) -> int:
    ring = model.load_ring(args.ring)
    if args.exact_b3:
        if ring.n != 3:
            raise ValueError("--exact-b3 applies to n=3 rings only")
        b3 = hopf.solve_coupling_for_hopf(ring.a, ring.b[0], ring.b[1])
        ring = model.RingParams(3, ring.a, (ring.b[0], ring.b[1], b3))
    spectrum = spectra.eigenvalues(ring)
    detection = hopf.detect_imaginary_pair(spectrum)
    doc = {"ring": ring.to_dict(), "spectrum": spectrum.to_dict()}
    if ring.n == 3:
        doc["hopf"] = hopf.hopf_conditions_3(ring).to_dict()
    doc["imaginary_pair"] = detection.to_dict()
    found = detection.omega is not None
    if found:
        profile = phases.phase_shifts(ring, detection.omega)
        doc["phases"] = profile.to_dict()
    _write_output(json.dumps(doc, indent=2), args.out)
    return EXIT_FOUND if found else EXIT_NOT_FOUND


def _tables_csv(rows, discrepancies: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["case", "omega_sign", "b1", "b2", "b3", "theta1", "theta2", "theta3"]
    if discrepancies:
        header += ["printed1", "printed2", "printed3", "discrepancy"]
    writer.writerow(header)
    for row in rows:
        labels = row.labels()
        record = [row.case, row.omega_sign, *row.b_signs, *labels]
        if discrepancies:
            record += [*row.printed, "yes" if row.discrepancy else "no"]
        writer.writerow(record)
    return buf.getvalue()


def _tables_text(rows, discrepancies: bool) -> str:
    lines = []
    current = None
    for row in rows:
        key = (row.case, row.omega_sign)
        if key != current:
            current = key
            sign = ">" if row.omega_sign > 0 else "<"
            lines.append("")
            lines.append(f"Case {row.case}, omega {sign} 0")
            lines.append("  b1 b2 b3 |  th1    th2    th3")
        cells = "  ".join(f"{v:>5}" for v in row.labels())
        signs = " ".join("+" if s > 0 else "-" for s in row.b_signs)
        note = ""
        if discrepancies and row.discrepancy:
            note = f"   [differs from printed {'/'.join(row.printed)}]"
        lines.append(f"   {signs} | {cells}{note}")
    return "\n".join(lines).lstrip("\n") + "\n"


def cmd_tables(args) -> int:
    signs = {"pos": (1,), "neg": (-1,), "both": (1, -1)}[args.omega]
    rows = phases.generate_tables(signs)
    if args.format == "csv":
        text = _tables_csv(rows, args.discrepancies)
    else:
        text = _tables_text(rows, args.discrepancies)
    _write_output(text, args.out)
    return EXIT_FOUND


def cmd_phases(args) -> int:
    ring = model.load_ring(args.ring)
    if args.omega is not None:
        omega = args.omega
    else:
        spectrum = spectra.eigenvalues(ring)
        if spectrum.omega is None:
            log.info("no imaginary pair detected")
            return EXIT_NOT_FOUND
        omega = spectrum.omega
    profile = phases.phase_shifts(ring, omega, force=args.force)
    _write_output(json.dumps(profile.to_dict(), indent=2), args.out)
    return EXIT_FOUND


def cmd_perturb(args) -> int:
    ring = model.load_ring(args.ring)
    if args.kmax is not None:
        result = genericity.remove_resonances(
            ring, k_max=args.kmax, epsilon=args.epsilon
        )
    else:
        result = genericity.remove_multiple(
            ring, epsilon=args.epsilon, gap_tol=args.gap_tol
        )
    _write_output(json.dumps(result.to_dict(), indent=2), args.out)
    return EXIT_FOUND


def cmd_simulate(args) -> int:
    family = model.load_family(args.ring)
    sweep = functools.partial(
        simulate.branch_sweep, family, settle_time=args.settle, h=args.step, tol=args.cycle_tol
    )
    rows = sweep(args.lam)
    if all(r.measurement is None for r in rows) and args.try_other_side:
        log.info("no cycle on the requested side; retrying with lambda signs flipped")
        rows = sweep([-lam for lam in args.lam])
    buf = io.StringIO()
    writer = csv.writer(buf)
    n = family.base.n
    header = ["lambda", "period"]
    header += [f"amplitude{j + 1}" for j in range(n)]
    header += [f"phase_diff{j + 1}" for j in range(n)]
    header += ["diagnostic"]
    writer.writerow(header)
    found = False
    for row in rows:
        if row.measurement is None:
            writer.writerow([row.lam, ""] + [""] * (2 * n) + [row.diagnostic])
        else:
            found = True
            m = row.measurement
            writer.writerow(
                [row.lam, m.period]
                + list(m.amplitudes)
                + list(m.phase_diffs)
                + [""]
            )
    _write_output(buf.getvalue(), args.out)
    return EXIT_FOUND if found else EXIT_NOT_FOUND


def cmd_spectrum(args) -> int:
    if args.adjacency:
        adj = model.load_adjacency(args.ring)
        spectrum = spectra.adjacency_spectrum(adj)
    else:
        ring = model.load_ring(args.ring)
        spectrum = spectra.eigenvalues(ring)
    doc = spectrum.to_dict()
    if args.kmax is not None:
        flags = genericity.detect_resonance(spectrum, k_max=args.kmax)
        doc["resonances"] = [f.to_dict() for f in flags]
    _write_output(json.dumps(doc, indent=2), args.out)
    return EXIT_FOUND


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringhopf",
        description="Hopf bifurcation analysis for unidirectional ring networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_ring=True):
        if needs_ring:
            p.add_argument("ring", help="input JSON file")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("analyze", help="Hopf report + spectrum + phases for a ring")
    add_common(p)
    p.add_argument(
        "--exact-b3",
        action="store_true",
        help="replace b3 so the n=3 product identity holds exactly",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tables", help="emit the quadrant classification tables")
    add_common(p, needs_ring=False)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--omega", choices=("pos", "neg", "both"), default="both")
    p.add_argument(
        "--discrepancies",
        action="store_true",
        help="add the computed-vs-printed diff column",
    )
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("phases", help="phase shifts for a ring")
    add_common(p)
    p.add_argument("--omega", type=float, default=None, help="signed omega override")
    p.add_argument("--force", action="store_true", help="skip the eigenvalue check")
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser("perturb", help="remove multiple eigenvalues or resonances")
    add_common(p)
    p.add_argument("--epsilon", type=_positive, default=1e-3)
    p.add_argument(
        "--kmax",
        type=int,
        default=None,
        help="remove k:1 resonances up to this k (default: multiplicities only)",
    )
    p.add_argument("--gap-tol", type=_positive, default=None)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("simulate", help="integrate and measure limit-cycle phases")
    add_common(p)
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        action="append",
        required=True,
        help="family parameter (repeatable for a sweep)",
    )
    p.add_argument("--settle", type=_positive, default=None)
    p.add_argument("--step", type=_positive, default=None)
    p.add_argument("--cycle-tol", type=_positive, default=simulate.PERIOD_TOL)
    p.add_argument(
        "--try-other-side",
        action="store_true",
        help="retry with -lambda if no cycle is found",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="eigenvalues of a ring or adjacency matrix")
    add_common(p)
    p.add_argument("--adjacency", action="store_true", help="input is an adjacency matrix")
    p.add_argument("--kmax", type=int, default=None, help="also report k:1 resonances")
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("RINGHOPF_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        OSError,
        ValueError,
        genericity.PerturbationBudgetError,
        spectra.RootFindingError,
    ) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
