"""Command-line surface: verification suite, state inspection, transition
probabilities, the transition-grid scan and CHSH evaluation/optimization
with machine-readable output.

Exit codes: 0 success, 1 check failure (failed verification, infeasible
optimization, baseline mismatch, a scan point off the closed form), 2 input
error, an output file that cannot be written included, or a non-finite
result; output paths are checked before the command's work, and a result is
checked before any of it is printed or written.  JSON and CSV output format
every float with 17 significant digits so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import random
import sys
from dataclasses import asdict, fields, replace

from . import chsh, identities
from .superstate import (
    compactify,
    grassmann_transition,
    is_physical,
    measure_real,
    physical_pair,
    superqubit,
    transition_real,
)


# -- deterministic JSON ---------------------------------------------------------


def dumps(obj) -> str:
    """Compact JSON with floats fixed to 17 significant digits; a NaN or an
    infinity, which JSON cannot hold, raises ValueError."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"the result holds the non-finite number {obj!r}")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{dumps(str(k))}:{dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def strategy_to_dict(s: chsh.Strategy) -> dict:
    return {
        "pA": s.p_a,
        "pB": s.p_b,
        "r": list(s.r),
        "s": list(s.s),
        "alice": [{"theta": t, "phi": f} for (t, f) in s.alice],
        "bob": [{"theta": t, "phi": f} for (t, f) in s.bob],
    }


def _finite(x) -> float:
    """A finite input number: a float or int, not a string or a bool."""
    if type(x) not in (int, float) or not math.isfinite(x):
        raise ValueError(f"{x!r} is not a finite number")
    return float(x)


def strategy_from_dict(d: dict) -> chsh.Strategy:
    try:
        angles = {}
        for key in ("alice", "bob"):
            pairs = d[key]
            if len(pairs) != 2:
                raise ValueError(f"{key} needs exactly two angle pairs")
            angles[key] = tuple(
                (_finite(p["theta"]), _finite(p["phi"])) for p in pairs
            )
        r = d["r"]
        s = d["s"]
        if len(r) != 2 or len(s) != 2:
            raise ValueError("r and s each need exactly two entries")
        return chsh.Strategy(
            p_a=_finite(d["pA"]), p_b=_finite(d["pB"]),
            r=(_finite(r[0]), _finite(r[1])), s=(_finite(s[0]), _finite(s[1])),
            alice=angles["alice"], bob=angles["bob"],
        )
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed strategy object: {exc}") from exc


def tables_to_dict(tables) -> dict:
    return {
        f"{i}{j}": [float(p) for p in tables[k]]
        for k, (i, j) in enumerate(chsh.SETTINGS)
    }


def _csv(header, rows) -> str:
    """CSV text: the header, then one line per row, floats written with 17
    significant digits."""
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(header)
    for row in rows:
        wr.writerow([format(x, ".17g") if isinstance(x, float) else x for x in row])
    return buf.getvalue()


def tables_to_csv(tables) -> str:
    """The four outcome tables as CSV text, one row per probability."""
    return _csv(["i", "j", "outcome", "probability"],
                ([i, j, label, float(tables[k][m])]
                 for k, (i, j) in enumerate(chsh.SETTINGS)
                 for m, label in enumerate(chsh.OUTCOME_LABELS)))


def _write(path: str, text: str) -> None:
    """Write text to path; a path that cannot be written is an input error."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Refuse, before a command's work, an output path that _write could
    not write.  The check creates and truncates nothing; _write still turns
    a failed write into the same error."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(parent):
        reason = f"no such directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ValueError(f"cannot write {path}: {reason}")


def _report(args, payload: dict, lines=None, tables=None) -> None:
    """Serialize the payload first, so that a non-finite result prints and
    writes nothing.  Print the text lines, or the payload when a command has
    none; write the payload to the --json file and the tables to --csv."""
    text = dumps(payload)
    print(text if lines is None else "\n".join(lines))
    if args.json:
        _write(args.json, text + "\n")
    if tables is not None and args.csv:
        _write(args.csv, tables_to_csv(tables))


# -- verification suite ----------------------------------------------------------


def cmd_verify(args) -> int:
    rng = random.Random(identities.SEED)
    failures = 0
    for name, checks, draws, tol in identities.SUITE:
        resid = max(check(rng, draws) for check in checks)
        ok = resid < tol
        failures += not ok
        detail = f"  (residual {resid:.3e}, tolerance {tol:.0e})" if args.verbose else ""
        print(f"[{'pass' if ok else 'FAIL'}] {name}{detail}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# -- state / transition commands --------------------------------------------------


def cmd_state(args) -> int:
    p, theta, phi = map(_finite, (args.p, args.theta, args.phi))
    st = superqubit(p, theta, phi)
    probs = measure_real(st)
    lines = [f"state: {st}",
             f"probabilities: 0 -> {probs[0]:.12g}, 1 -> {probs[1]:.12g}, "
             f"bullet -> {probs[2]:.12g}"]
    if not is_physical(p):
        lines.append(f"warning: displacement {p} is not physical (|p| > 1/2); "
                     f"compactified value {compactify(p):.12g}")
    _report(args, {"p": p, "theta": theta, "phi": phi, "physical": is_physical(p),
                   "probabilities": {"0": probs[0], "1": probs[1], "bullet": probs[2]}},
            lines)
    return 0


def cmd_transition(args) -> int:
    p, theta, phi, q, theta2, phi2 = map(
        _finite, (args.p, args.theta, args.phi, args.q, args.theta2, args.phi2))
    u = superqubit(p, theta, phi)
    v = superqubit(q, theta2, phi2)
    g = grassmann_transition(u, v)
    val = transition_real(u, v)
    s1, s2 = physical_pair(p, q)
    lines = [f"grassmann transition: {g}",
             f"real transition probability: {val:.12g}",
             f"physical (|p-q|<=1 and |p+q|<=1): {s1}; physical (|p|,|q|<=1/2): {s2}"]
    if not s2:
        lines.append("warning: displacement pair outside the physical box")
    _report(args, {"p": p, "q": q, "transition": val, "pair_in_s1": s1, "pair_in_s2": s2},
            lines)
    return 0


# -- transition-grid scan ----------------------------------------------------------

# both scanned states' angles: equal angles leave every value 1 - (p - q)^2
_SCAN_THETA, _SCAN_PHI = math.pi / 5.0, 0.7


def cmd_scan(args) -> int:
    """Map the transition probability between displaced superqubits over (p, q).

    For each pair of displacement parameters on a square grid over
    [-extent, extent], builds the two superqubit states at one pair of
    angles, evaluates the transition probability through the graded inner
    product and the modified Rogers norm, and records whether the pair sits
    in the regions where that number is a valid probability:

    - s1: |p - q| <= 1 and |p + q| <= 1 (transition in [0, 1]);
    - s2: both displacements individually in [-1/2, 1/2] (the box: every
      one-party measurement of a state built from them has outcome
      probabilities in [0, 1], criterion 07; the two-party CHSH tables of a
      strategy in the box can still go negative, down to -0.12, so the
      search holds them in [0, 1] through its constraints).

    Prints a coarse text map ('#' in s2, '+' in s1 only, '.' transition
    outside [0, 1]) and, with --csv, writes one row per grid point.  The
    closed form for equal angles, 1 - (p - q)^2, is checked against the
    graded route on every point; exits 1 if any point disagrees.
    """
    n = args.points
    if n < 2:
        raise ValueError("need at least 2 grid points per axis")
    if not math.isfinite(args.extent):
        raise ValueError("--extent must be a finite number")
    grid = [-args.extent + 2.0 * args.extent * k / (n - 1) for k in range(n)]
    rows = []
    worst = 0.0
    for p in grid:
        u = superqubit(p, _SCAN_THETA, _SCAN_PHI)
        for q in grid:
            t = transition_real(u, superqubit(q, _SCAN_THETA, _SCAN_PHI))
            worst = max(worst, abs(t - (1.0 - (p - q) ** 2)))
            in_s1, in_s2 = physical_pair(p, q)
            rows.append((p, q, t, int(in_s1), int(in_s2)))

    print(f"{n * n} grid points, p,q in [{-args.extent:g}, {args.extent:g}], "
          f"theta={_SCAN_THETA:g} phi={_SCAN_PHI:g}")
    print(f"worst deviation from 1 - (p - q)^2: {worst:.3e}")
    step = max(1, (n - 1) // 20)
    for i in range(0, n, step):
        print("".join("#" if in_s2 else "+" if in_s1 else "."
                      for *_, in_s1, in_s2 in rows[i * n:(i + 1) * n:step]))
    if args.csv:
        _write(args.csv, _csv(["p", "q", "transition", "in_s1", "in_s2"], rows))
        print(f"wrote {args.csv} ({len(rows)} rows)")
    return 0 if worst < 1e-12 else 1


# -- CHSH commands ----------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"top-level JSON object expected in {path}")
    return data


def cmd_chsh_eval(args) -> int:
    data = _load_json(args.strategy_file)
    strat = strategy_from_dict(data.get("strategy", data))
    tables = [chsh.outcome_probs(i, j, strat) for (i, j) in chsh.SETTINGS]
    _report(args, {
        "strategy": strategy_to_dict(strat),
        "result": {
            "p_win": chsh.win_prob(strat),
            "violation": chsh.constraint_violation(strat, tables),
            "tables": tables_to_dict(tables),
        },
    }, tables=tables)
    return 0


def cmd_chsh_optimize(args) -> int:
    config = _config_from_args(args)
    result = chsh.optimize(config)
    _report(args, {
        **asdict(config),
        "strategy": strategy_to_dict(result.strategy),
        "result": {
            "p_win": result.p_win,
            "violation": result.violation,
            "tables": tables_to_dict(result.tables),
            "feasible": result.feasible,
            "iterations": result.iterations,
            "best_restart": result.best_restart,
            "kernel_drift": result.kernel_drift,
        },
    }, tables=result.tables)
    if not result.feasible:
        print("no feasible strategy found", file=sys.stderr)
        return 1
    return 0


def cmd_baseline(args) -> int:
    classical = chsh.best_classical_win_prob()
    ts = chsh.Strategy.tsirelson()
    quantum = chsh.win_prob(ts)
    oracle = chsh.oracle_win_prob(ts)
    target = math.cos(math.pi / 8) ** 2
    ok = bool(classical == 0.75 and abs(quantum - target) < 1e-9
              and abs(quantum - oracle) < 1e-10)
    _report(args, {"classical": classical, "quantum": quantum,
                   "oracle": oracle, "target": target, "ok": ok},
            [f"classical optimum (16 deterministic strategies): {classical:.12g}",
             f"quantum baseline, exact Grassmann path: {quantum:.17g}",
             f"quantum baseline, plain complex oracle: {oracle:.17g}",
             f"expected quantum value cos^2(pi/8): {target:.17g}"])
    if not ok:
        print("baseline mismatch", file=sys.stderr)
        return 1
    return 0


# -- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superqubit",
        description="Grassmann-algebra superqubit toolkit: verification, "
                    "state inspection and the CHSH game.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the algebraic property suite")
    p_verify.add_argument("--verbose", action="store_true",
                          help="print per-check residual magnitudes")
    p_verify.set_defaults(run=cmd_verify)

    p_state = sub.add_parser("state", help="print a superqubit state and its "
                                           "measurement probabilities")
    p_state.add_argument("p", type=float)
    p_state.add_argument("theta", type=float)
    p_state.add_argument("phi", type=float)
    p_state.add_argument("--json", metavar="OUT")
    p_state.set_defaults(run=cmd_state)

    p_trans = sub.add_parser("transition", help="transition probability between "
                                                "two superqubits")
    for name in ("p", "theta", "phi", "q", "theta2", "phi2"):
        p_trans.add_argument(name, type=float)
    p_trans.add_argument("--json", metavar="OUT")
    p_trans.set_defaults(run=cmd_transition)

    p_scan = sub.add_parser("scan", help="map the transition probability over "
                                         "a (p, q) grid",
                            description=inspect.cleandoc(cmd_scan.__doc__),
                            formatter_class=argparse.RawDescriptionHelpFormatter)
    p_scan.add_argument("--points", type=int, default=41,
                        help="grid points per axis (default 41)")
    p_scan.add_argument("--extent", type=float, default=1.0,
                        help="scan p, q in [-extent, extent] (default 1.0)")
    p_scan.add_argument("--csv", metavar="PATH", help="write the grid as CSV")
    p_scan.set_defaults(run=cmd_scan)

    p_eval = sub.add_parser("chsh-eval", help="evaluate a CHSH strategy file")
    p_eval.add_argument("strategy_file")
    p_eval.add_argument("--json", metavar="OUT")
    p_eval.add_argument("--csv", metavar="OUT")
    p_eval.set_defaults(run=cmd_chsh_eval)

    p_opt = sub.add_parser("chsh-optimize", help="maximize the CHSH winning "
                                                 "probability")
    p_opt.add_argument("config_file", nargs="?",
                       help="optional JSON config; flags override its values")
    p_opt.add_argument("--seed", type=int)
    p_opt.add_argument("--restarts", type=int)
    p_opt.add_argument("--max-iters", type=int)
    p_opt.add_argument("--quantum-only", action="store_true", default=None,
                       help="pin all super displacements to zero")
    p_opt.add_argument("--json", metavar="OUT")
    p_opt.add_argument("--csv", metavar="OUT")
    p_opt.set_defaults(run=cmd_chsh_optimize)

    p_base = sub.add_parser("baseline", help="classical and quantum reference "
                                             "values of the game")
    p_base.add_argument("--json", metavar="OUT")
    p_base.set_defaults(run=cmd_baseline)

    return ap


def _config_from_args(args) -> chsh.OptimizeConfig:
    """Optimizer config: chsh.OptimizeConfig's defaults, overridden by the
    config file and then by flags, each value of exactly its default's type;
    OptimizeConfig itself rejects values out of range."""
    defaults = chsh.OptimizeConfig()
    names = {f.name for f in fields(defaults)}
    overrides = {}
    if args.config_file:
        raw = _load_json(args.config_file)
        unknown = set(raw) - names - {"strategy", "result"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        overrides = {k: raw[k] for k in names if k in raw}
    # each flag's dest is its field's name; an unset flag is None
    overrides.update((k, getattr(args, k)) for k in names if getattr(args, k) is not None)
    for k, v in overrides.items():
        want = type(getattr(defaults, k))
        if type(v) is not want:  # isinstance would take a bool for an int
            raise ValueError(f"config value {k}={v!r} has type {type(v).__name__}, "
                             f"not {want.__name__}")
    return replace(defaults, **overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for path in (getattr(args, "json", None), getattr(args, "csv", None)):
            if path:
                _check_writable(path)
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
