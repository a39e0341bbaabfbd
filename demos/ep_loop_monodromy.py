"""Parallel transport around a single exceptional point.

The gauge connection built from the pair eigenfunctions generates a
transport matrix along any coupling path.  A small clockwise circle
around one exceptional point exchanges the two colliding levels with
an asymmetric sign (+1 one way, -1 the other) while every spectator
level returns to itself; the deviation from the ideal exchange matrix
shrinks with the circle radius.  Squaring the loop therefore gives -1
on the colliding pair: the monodromy has order four, not two.

Run:  python3 demos/ep_loop_monodromy.py
"""

import numpy as np

from lieb2b import (Parity, TruncationSpec, ep_loop_holonomy, find_ep,
                    frame_monodromy, m_n_analytic)
from lieb2b.continuation import circle_path

TRUNC = TruncationSpec(Parity.EVEN, 12)


def pretty(matrix, levels, width=7):
    header = " " * 6 + "".join(f"{n:>{width}}" for n in levels)
    print(header)
    for i, n in enumerate(levels):
        row = "".join(f"{matrix[i, j].real:+{width}.2f}"
                      for j in range(len(levels)))
        print(f"  {n:>3} {row}")


def main():
    print("=== monodromy of a loop around one exceptional point ===\n")

    ep = find_ep(2, verify_unique=False)
    print(f"collision of levels 0 and 2 at g = {ep.g_ep:+.6f}\n")

    print("defect |transport - ideal exchange| versus loop radius:")
    for radius in (3e-2, 1e-2, 3e-3, 1e-3):
        loop = ep_loop_holonomy(2, TRUNC, radius)
        print(f"  radius {radius:>7.0e}: defect {loop.defect:.2e} "
              f"({loop.holonomy.steps} integrator steps)")

    loop = ep_loop_holonomy(2, TRUNC, 1e-3)
    print("\ntransport matrix (real parts, first six levels):")
    pretty(loop.holonomy.matrix[:6, :6], TRUNC.levels[:6])

    print("\nsquared loop on the colliding block (levels 0 and 2):")
    v = loop.holonomy.matrix
    v2 = (v @ v)[:2, :2]
    pretty(v2, TRUNC.levels[:2])
    print("  the pair picks up an overall minus sign: four windings to")
    print("  return, the hallmark of a square-root branch point")

    # the exact integer object: re-match the transported frame with the
    # start frame instead of integrating the raw amplitudes
    w = frame_monodromy(circle_path(ep.g_ep, 1e-3, n_points=48), TRUNC)
    target = m_n_analytic(2, TRUNC)
    print("\nframe monodromy (discrete root tracking) equals the exchange")
    print(f"matrix exactly: {np.array_equal(w.matrix, target.matrix)}")

    print("\nhigher collisions alternate the sign pattern:")
    for n in (4, 6):
        loop = ep_loop_holonomy(n, TRUNC, 1e-3)
        a = loop.holonomy.entry(0, n)
        b = loop.holonomy.entry(n, 0)
        print(f"  n = {n}: entry(0 <- {n}) = {a.real:+.3f}, "
              f"entry({n} <- 0) = {b.real:+.3f}")


if __name__ == "__main__":
    main()
