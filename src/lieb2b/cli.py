"""Command-line front end.

Subcommands wrap the library layer by layer: ``solve`` for single
quasi-momentum roots, ``eps`` for the branch-point catalog, ``sheet``
for Riemann-sheet grids, ``holonomy`` for transport matrices,
``cycle`` for level permutations, and ``oracle-check`` for the
closed-form-versus-quadrature comparison of the gauge connection.
Tables and documents are emitted through the export-record layer, so
every artifact carries the hash of the configuration that produced it.

Exit codes: 0 on success, 2 when a setting or file is refused or a
solve or transport fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from .bethe import Parity, SolverError, energy, solve_k_real
from .config import ConfigError, RunConfig, load_config
from .continuation import GridSpec, build_sheet, circle_path
from .cycles import (PathConstructionError, chained_loop_holonomy,
                     contour_permutation, hermitian_cycle, n_ep_contour,
                     permutation_from_holonomy)
from .eigensystem import overlap_connection_oracle
from .exceptional import ExceptionalPointError, circle_reaches_branch_point, enumerate_eps
from .holonomy import (TransportError, TruncationSpec, ep_loop_holonomy,
                       gauge_connection, transport)
from .serialize import (ExportRecord, csv_table, cycle_document, format_float,
                        holonomy_document, sheet_document)

EXIT_OK = 0
EXIT_SOLVER = 2


def _chain_levels(text: str) -> tuple:
    if not text.strip():
        raise ConfigError("chain contour needs at least one level")
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"--ns must be comma-separated integers, got {text!r}")


def cmd_solve(cfg: RunConfig, args) -> tuple[int, str]:
    state = solve_k_real(args.n, args.g)
    level = energy(state.parity.bound_level, state)
    lines = [f"n = {state.n}",
             f"parity = {state.parity.name.lower()}",
             f"g = {format_float(state.g)}",
             f"k_re = {format_float(state.k.real)}",
             f"k_im = {format_float(state.k.imag)}",
             f"scaled_residual = {format_float(state.scaled_residual())}",
             f"energy = {format_float(level.energy.real)}"]
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_eps(cfg: RunConfig, args) -> tuple[int, str]:
    parity = Parity[args.parity.upper()]
    columns = ("n", "g_re", "g_im", "k_re", "k_im", "residual_bethe", "residual_r")
    rows = [(ep.n, ep.g_ep.real, ep.g_ep.imag, ep.k_ep.real, ep.k_ep.imag,
             *map(abs, ep.residuals()))
            for ep in enumerate_eps(parity, cfg.ep_n_max, verify_unique=False)]
    record = ExportRecord("eps", cfg.config_hash(), csv_table(columns, rows))
    return EXIT_OK, record.render()


def cmd_sheet(cfg: RunConfig, args) -> tuple[int, str]:
    grid = GridSpec(cfg.grid_re_min, cfg.grid_re_max, cfg.grid_im_min,
                    cfg.grid_im_max, cfg.grid_points, cfg.grid_points)
    sheet = build_sheet(args.n, grid)
    # one row per cell in C order: Im g outer, Re g inner
    cells = np.broadcast_arrays(sheet.re_axis[None, :], sheet.im_axis[:, None],
                                sheet.k.real, sheet.k.imag)
    rows = zip(*(a.ravel().tolist() for a in cells))
    payload = sheet_document(sheet.cut_segments,
                             ("g_re", "g_im", "k_re", "k_im"), rows)
    record = ExportRecord("sheet", cfg.config_hash(), payload)
    return EXIT_OK, record.render()


def _holonomy_payload(hol, g0=None) -> str:
    res = permutation_from_holonomy(hol, g0=g0)
    return holonomy_document(hol.truncation.levels, hol.matrix,
                             res.permutation, res.phases)


def cmd_holonomy(cfg: RunConfig, args) -> tuple[int, str]:
    radius = cfg.loop_radius
    if args.contour == "ep-loop":
        trunc = TruncationSpec(Parity.of_level(args.n), cfg.truncation)
        loop = ep_loop_holonomy(args.n, trunc, radius)
        payload = _holonomy_payload(loop.holonomy)
    elif args.contour == "chain":
        ns = _chain_levels(args.ns)
        trunc = TruncationSpec(Parity.of_level(ns[0]), cfg.truncation)
        hol = chained_loop_holonomy(ns, trunc, radius)
        payload = _holonomy_payload(hol)
    else:
        trunc = TruncationSpec(Parity[args.parity.upper()], cfg.truncation)
        circle = circle_path(args.g0, radius)  # refuses a g0 outside the domain
        if circle_reaches_branch_point(trunc.parity, args.g0, radius):
            raise ConfigError(
                f"empty contour of radius {radius} about g0 = {args.g0} "
                "reaches a branch point of the family")
        hol = transport(circle, trunc)
        payload = _holonomy_payload(hol, g0=args.g0)
    record = ExportRecord("holonomy", cfg.config_hash(), payload)
    return EXIT_OK, record.render()


def cmd_cycle(cfg: RunConfig, args) -> tuple[int, str]:
    trunc = TruncationSpec(Parity[args.parity.upper()], cfg.truncation)
    if args.contour == "hermitian":
        res = hermitian_cycle(args.g0, trunc)
    else:
        path = n_ep_contour(args.g0, args.n_ep, trunc.parity)
        res = contour_permutation(path, trunc)
    payload = cycle_document(res.g0, res.kbar, trunc.levels, res.permutation,
                             res.phases, res.energies_before,
                             res.energies_after, res.exiting)
    record = ExportRecord("cycle", cfg.config_hash(), payload)
    return EXIT_OK, record.render()


def cmd_oracle_check(cfg: RunConfig, args) -> tuple[int, str]:
    lines = []
    worst = 0.0
    for parity in (Parity.EVEN, Parity.ODD):
        trunc = TruncationSpec(parity, cfg.truncation)
        closed = gauge_connection(args.g, trunc)
        oracle = overlap_connection_oracle(cfg.truncation, args.g, parity=parity)
        diff = float(np.max(np.abs(closed - oracle)))
        worst = np.maximum(worst, diff)  # a NaN difference stays NaN and fails
        lines.append(f"{parity.name.lower()}: max entrywise difference = "
                     f"{format_float(diff)}")
    ok = worst < args.tol
    lines.append(f"tolerance = {format_float(args.tol)}: "
                 + ("PASS" if ok else "FAIL"))
    return (EXIT_OK if ok else EXIT_SOLVER), "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="plain-text key=value configuration file")
    common.add_argument("--out", help="write output to this file instead of stdout")

    p = argparse.ArgumentParser(
        prog="lieb2b",
        description="Quasi-momentum branches, exceptional points, and "
                    "holonomy of the two-boson ring")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", parents=[common],
                       help="solve one real-coupling quasi-momentum")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--g", type=float, required=True)
    s.set_defaults(run=cmd_solve)

    s = sub.add_parser("eps", parents=[common],
                       help="catalog of exceptional points as CSV")
    s.add_argument("--parity", default="even", choices=("even", "odd"))
    s.add_argument("--n-max", dest="ep_n_max", type=int)
    s.set_defaults(run=cmd_eps)

    s = sub.add_parser("sheet", parents=[common],
                       help="Riemann-sheet grid of one branch as CSV")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--re-min", dest="grid_re_min", type=float)
    s.add_argument("--re-max", dest="grid_re_max", type=float)
    s.add_argument("--im-min", dest="grid_im_min", type=float)
    s.add_argument("--im-max", dest="grid_im_max", type=float)
    s.add_argument("--points", dest="grid_points", type=int)
    s.set_defaults(run=cmd_sheet)

    s = sub.add_parser("holonomy", parents=[common],
                       help="transport matrix of a loop contour")
    s.add_argument("--contour", default="ep-loop",
                   choices=("ep-loop", "chain", "empty"))
    s.add_argument("--n", type=int, default=2, help="level for ep-loop")
    s.add_argument("--ns", default="2,4", help="levels for chain, comma separated")
    s.add_argument("--radius", dest="loop_radius", type=float)
    s.add_argument("--trunc", dest="truncation", type=int)
    s.add_argument("--parity", default="even", choices=("even", "odd"))
    s.add_argument("--g0", type=float, default=1.0, help="centre of the empty contour")
    s.set_defaults(run=cmd_holonomy)

    s = sub.add_parser("cycle", parents=[common],
                       help="level permutation of a closed coupling cycle")
    s.add_argument("--contour", default="hermitian", choices=("hermitian", "eps"))
    s.add_argument("--g0", type=float, default=1.0)
    s.add_argument("--n-ep", type=int, default=1, help="enclosed points for eps contour")
    s.add_argument("--trunc", dest="truncation", type=int)
    s.add_argument("--parity", default="even", choices=("even", "odd"))
    s.set_defaults(run=cmd_cycle)

    s = sub.add_parser("oracle-check", parents=[common],
                       help="closed-form connection vs quadrature oracle")
    s.add_argument("--g", type=float, default=0.5)
    s.add_argument("--trunc", dest="truncation", type=int)
    s.add_argument("--tol", type=float, default=1e-6)
    s.set_defaults(run=cmd_oracle_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a setting flag's dest is the RunConfig field it overrides; unset, it is None
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = replace(cfg, **flags)
        code, text = args.run(cfg, args)
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ConfigError, PathConstructionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (SolverError, ExceptionalPointError, TransportError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return code


if __name__ == "__main__":
    sys.exit(main())
