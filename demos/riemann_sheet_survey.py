"""Continuation of one branch over the complex coupling plane.

Away from the real axis the quantization condition still has isolated
roots, and following them continuously turns each level into one sheet
of a common Riemann surface.  This script rasterizes two sheets by
vertical predictor-corrector continuation from the real axis, prints
the branch cuts the builder recorded, and cross-checks the mirror
symmetry conj(k(conj(g))) = +- k(g).

If matplotlib is importable a phase portrait of each sheet is written
next to the working directory as riemann_sheet_n<label>.png.

Run:  python3 demos/riemann_sheet_survey.py
"""

import numpy as np

from lieb2b import (GridSpec, build_sheet, conjugation_symmetry_check,
                    solve_k_real)


def survey(n: int, grid: GridSpec):
    sheet = build_sheet(n, grid)
    total = sheet.k.size
    reached = int(np.count_nonzero(~np.isnan(sheet.k.real)))
    print(f"\nsheet n = {n}: {reached}/{total} grid cells reached")
    for cut in sheet.cut_segments:
        bp = cut.branch_point
        print(f"  cut ({cut.kind:11s}) along Re g = {cut.re:+.4f}, "
              f"Im g in [{cut.im_lo:+.3f}, {cut.im_hi:+.3f}]"
              f"   from branch point {bp.real:+.4f}{bp.imag:+.4f}j")
    if not sheet.cut_segments:
        print("  no cuts inside this window")
    return sheet


def maybe_plot(sheet):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("  (matplotlib not available, skipping the phase portrait)")
        return
    fig, axes = plt.subplots(1, 2, figsize=(11, 4), constrained_layout=True)
    extent = (sheet.re_axis[0], sheet.re_axis[-1],
              sheet.im_axis[0], sheet.im_axis[-1])
    for ax, part, tag in ((axes[0], sheet.k.real, "Re k"),
                          (axes[1], sheet.k.imag, "Im k")):
        im = ax.imshow(part, origin="lower", extent=extent, aspect="auto",
                       cmap="RdBu_r")
        for cut in sheet.cut_segments:
            ax.plot([cut.re, cut.re], [cut.im_lo, cut.im_hi], "k-", lw=2)
            ax.plot(cut.branch_point.real, cut.branch_point.imag, "k*", ms=10)
        ax.set_xlabel("Re g")
        ax.set_ylabel("Im g")
        ax.set_title(f"{tag}, sheet n = {sheet.n}")
        fig.colorbar(im, ax=ax)
    name = f"riemann_sheet_n{sheet.n}.png"
    fig.savefig(name, dpi=130)
    plt.close(fig)
    print(f"  wrote {name}")


def main():
    print("=== Riemann sheets of the quasi-momentum ===")
    grid = GridSpec(re_min=-3.0, re_max=1.0, im_min=-4.0, im_max=0.5,
                    n_re=33, n_im=33)

    # the ground sheet sees the collision points of every partner level
    # stacked below it, plus the real-axis degeneracy where the bound
    # branch detaches
    ground = survey(0, grid)
    excited = survey(4, grid)

    print("\nmirror symmetry across the real axis (sign of k(conj g)):")
    # the bound region flips the sign: k is purely imaginary on its
    # real-axis anchor, so conjugation sends k to -k there
    for n, g in ((0, 0.8 - 0.6j), (4, -0.5 - 1.0j), (4, 0.3 - 2.0j),
                 (0, -0.5 - 0.2j)):
        s = conjugation_symmetry_check(n, g)
        print(f"  n = {n}, g = {g:+.2f}: sign {s:+d}")

    print("\nspot check against the direct solver on the axis:")
    j = int(np.argmin(np.abs(ground.re_axis - 1.0)))
    g_axis = float(ground.re_axis[j])
    print(f"  sheet axis value at g = {g_axis:+.3f}: {ground.axis_k[j]:.12f}")
    print(f"  solver               at g = {g_axis:+.3f}: "
          f"{solve_k_real(0, g_axis).k:.12f}")

    maybe_plot(ground)
    maybe_plot(excited)


if __name__ == "__main__":
    main()
