#!/usr/bin/env python3
"""Map the transition probability between displaced superqubits over (p, q).

For each pair of displacement parameters on a square grid, builds the two
superqubit states at fixed rotation angles, evaluates the transition
probability through the graded inner product and the modified Rogers norm,
and records whether the pair sits in the regions where that number is a
valid probability:

- s1: |p - q| <= 1 and |p + q| <= 1 (transition in [0, 1]);
- s2: both displacements individually in [-1/2, 1/2] (the box: every
  one-party measurement of a state built from them has outcome
  probabilities in [0, 1], criterion 07; the two-party CHSH tables of a
  strategy in the box can still go negative, down to -0.12, so the search
  holds them in [0, 1] through its constraints).

Writes one CSV row per grid point and prints a coarse text map.  The closed
form for equal angles, 1 - (p - q)^2, is checked against the graded route on
every point; the script exits 1 if any point disagrees, and 2 before the scan
on invalid arguments or a CSV path the ``superqubit`` tool would refuse.

    python3 scripts/scan_transition_grid.py --points 41 --csv results/transition_grid.csv
"""

import argparse
import csv
import io
import math
import sys

from superqubit import superstate
from superqubit.cli import _check_writable, _write


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="grid scan of superqubit transition probabilities"
    )
    ap.add_argument("--points", type=int, default=41,
                    help="grid points per axis (default 41)")
    ap.add_argument("--extent", type=float, default=1.0,
                    help="scan p, q in [-extent, extent] (default 1.0)")
    ap.add_argument("--theta", type=float, default=math.pi / 5.0,
                    help="rotation angle used for both states")
    ap.add_argument("--phi", type=float, default=0.7,
                    help="phase angle used for both states")
    ap.add_argument("--csv", metavar="PATH", default=None,
                    help="write the grid as CSV")
    args = ap.parse_args(argv)
    try:
        if args.points < 2:
            raise ValueError("need at least 2 grid points per axis")
        for name in ("extent", "theta", "phi"):
            if not math.isfinite(getattr(args, name)):
                raise ValueError(f"--{name} must be a finite number")
        if args.csv:
            _check_writable(args.csv)
        return _scan(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _scan(args) -> int:
    n = args.points
    grid = [-args.extent + 2.0 * args.extent * k / (n - 1) for k in range(n)]
    rows = []
    worst = 0.0
    for p in grid:
        u = superstate.superqubit(p, args.theta, args.phi)
        for q in grid:
            v = superstate.superqubit(q, args.theta, args.phi)
            t = superstate.transition_real(u, v)
            closed = 1.0 - (p - q) ** 2
            worst = max(worst, abs(t - closed))
            in_s1, in_s2 = superstate.physical_pair(p, q)
            rows.append((p, q, t, in_s1, in_s2))

    print(f"{n * n} grid points, p,q in [{-args.extent:g}, {args.extent:g}], "
          f"theta={args.theta:g} phi={args.phi:g}")
    print(f"worst deviation from 1 - (p - q)^2: {worst:.3e}")

    # coarse map: '#' valid everywhere (s2), '+' valid transition only (s1),
    # '.' transition outside [0, 1]
    step = max(1, (n - 1) // 20)
    for i in range(0, n, step):
        line = []
        for j in range(0, n, step):
            _, _, _, in_s1, in_s2 = rows[i * n + j]
            line.append("#" if in_s2 else "+" if in_s1 else ".")
        print("".join(line))

    if args.csv:
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["p", "q", "transition", "in_s1", "in_s2"])
        for p, q, t, in_s1, in_s2 in rows:
            wr.writerow([*(format(x, ".17g") for x in (p, q, t)), int(in_s1), int(in_s2)])
        _write(args.csv, buf.getvalue())
        print(f"wrote {args.csv} ({len(rows)} rows)")

    return 0 if worst < 1e-12 else 1


if __name__ == "__main__":
    sys.exit(main())
