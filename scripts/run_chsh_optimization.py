#!/usr/bin/env python3
"""Multi-start search for the best superqubit strategy in the referee game.

Runs the seeded Nelder-Mead optimizer over the full 14-parameter strategy
space (state displacements, per-question local displacements, and local
rotation angles), or over the rotation-only 8-parameter subspace with
--quantum-only.  Prints the best strategy found next to the classical and
rotation-only benchmarks and optionally writes the result as JSON plus the
per-setting outcome tables as CSV.

Typical full run at the default budget (under a minute):

    python3 scripts/run_chsh_optimization.py \
        --json results/chsh_full.json --csv results/chsh_full_tables.csv

Quick smoke run:

    python3 scripts/run_chsh_optimization.py --restarts 4 --max-iters 200
"""

import argparse
import os
import sys
import time

from superqubit import chsh
from superqubit.cli import dumps, strategy_to_dict, tables_to_dict, write_tables_csv


def parse_args(argv=None):
    defaults = chsh.OptimizeConfig()
    ap = argparse.ArgumentParser(
        description="maximize the referee-game win probability over "
        "superqubit strategies"
    )
    ap.add_argument("--seed", type=int, default=defaults.seed, help="base RNG seed")
    ap.add_argument("--restarts", type=int, default=defaults.restarts,
                    help="independent optimizer starts")
    ap.add_argument("--max-iters", type=int, default=defaults.max_iters,
                    help="Nelder-Mead iterations of each start's first stage")
    ap.add_argument("--penalty-weight", type=float, default=defaults.penalty_weight,
                    help="weight of the feasibility penalty")
    ap.add_argument("--tol", type=float, default=defaults.tolerance,
                    help="feasibility tolerance on the final strategy")
    ap.add_argument("--quantum-only", action="store_true",
                    help="pin all displacements to zero (ordinary qubits)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write the full result as JSON")
    ap.add_argument("--csv", metavar="PATH", default=None,
                    help="write the 4x9 outcome tables as CSV")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    config = chsh.OptimizeConfig(
        seed=args.seed,
        restarts=args.restarts,
        max_iters=args.max_iters,
        penalty_weight=args.penalty_weight,
        tolerance=args.tol,
        quantum_only=args.quantum_only,
    )

    classical = chsh.best_classical_win_prob()
    rotation_only = chsh.win_prob(chsh.Strategy.tsirelson())
    print(f"classical bound (16 deterministic strategies): {classical:.12f}")
    print(f"rotation-only benchmark cos^2(pi/8):           {rotation_only:.12f}")
    print(f"searching: seed={config.seed} restarts={config.restarts} "
          f"max_iters={config.max_iters} quantum_only={config.quantum_only}")

    t0 = time.perf_counter()
    result = chsh.optimize(config)
    elapsed = time.perf_counter() - t0

    print(f"done in {elapsed:.1f}s (best restart {result.best_restart})")
    print(f"  p_win     = {result.p_win:.12f}")
    print(f"  violation = {result.violation:.3e}  feasible={result.feasible}")
    print(f"  margin over classical:     {result.p_win - classical:+.6f}")
    print(f"  margin over rotation-only: {result.p_win - rotation_only:+.6f}")
    s = result.strategy
    print(f"  state displacements: p_a={s.p_a:+.6f}  p_b={s.p_b:+.6f}")
    for i in (0, 1):
        print(f"  Alice bit {i}: r={s.r[i]:+.6f}  "
              f"theta={s.alice[i][0]:+.6f}  phi={s.alice[i][1]:+.6f}")
    for j in (0, 1):
        print(f"  Bob   bit {j}: s={s.s[j]:+.6f}  "
              f"theta={s.bob[j][0]:+.6f}  phi={s.bob[j][1]:+.6f}")

    if args.json:
        payload = {
            "config": {
                "seed": config.seed,
                "restarts": config.restarts,
                "max_iters": config.max_iters,
                "penalty_weight": config.penalty_weight,
                "tolerance": config.tolerance,
                "quantum_only": config.quantum_only,
            },
            "p_win": result.p_win,
            "violation": result.violation,
            "feasible": result.feasible,
            "best_restart": result.best_restart,
            "elapsed_seconds": elapsed,
            "classical_bound": classical,
            "rotation_only_bound": rotation_only,
            "strategy": strategy_to_dict(s),
            "tables": tables_to_dict(result.tables),
        }
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w") as fh:
            fh.write(dumps(payload) + "\n")
        print(f"wrote {args.json}")

    if args.csv:
        os.makedirs(os.path.dirname(args.csv) or ".", exist_ok=True)
        write_tables_csv(args.csv, result.tables)
        print(f"wrote {args.csv}")

    return 0 if result.feasible else 1


if __name__ == "__main__":
    sys.exit(main())
