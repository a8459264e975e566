"""Command-line surface: verification suite, state inspection, transition
probabilities and CHSH evaluation/optimization with machine-readable output.

Exit codes: 0 success, 1 check failure (failed verification, infeasible
optimization, baseline mismatch), 2 input error, an output file that cannot
be written included; output paths are checked before the command's work.
JSON output formats every float with 17 significant digits so identical
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import random
import sys
from dataclasses import asdict, fields, replace

from . import chsh
from .grassmann import (
    Supernumber,
    berezin,
    inv_sqrt,
    invert,
    modified_rogers,
    pair_product,
    rogers_r1,
)
from .supermatrix import Supermatrix, exp_nilpotent, supertrace
from .superstate import (
    compactify,
    grassmann_outcomes,
    grassmann_transition,
    is_physical,
    measure_real,
    norm_supernumber,
    physical_pair,
    superqubit,
    transition_real,
    upsilon,
)
from .uosp import group_element, odd_exponent, s_matrix


# -- deterministic JSON ---------------------------------------------------------


def dumps(obj) -> str:
    """Compact JSON with floats fixed to 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
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


def tables_to_csv(tables) -> str:
    """The four outcome tables as CSV text, one row per probability."""
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["i", "j", "outcome", "probability"])
    for k, (i, j) in enumerate(chsh.SETTINGS):
        for m, label in enumerate(chsh.OUTCOME_LABELS):
            wr.writerow([i, j, label, format(float(tables[k][m]), ".17g")])
    return buf.getvalue()


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


def _report(args, payload: dict, tables=None) -> None:
    """The payload goes to the --json file; a CHSH command, which passes its
    tables, also prints it and writes the tables to its --csv file."""
    text = dumps(payload)
    if tables is not None:
        print(text)
    if args.json:
        _write(args.json, text + "\n")
    if tables is not None and args.csv:
        _write(args.csv, tables_to_csv(tables))


# -- verification suite ----------------------------------------------------------


# random elements and residual measures, shared with the test suite


def max_abs_coeff(a: Supernumber) -> float:
    """Largest coefficient magnitude of a supernumber (0.0 for the zero element)."""
    return max((abs(c) for c in a.terms().values()), default=0.0)


def matrix_residual(m: Supermatrix) -> float:
    """Largest coefficient magnitude over all entries of a supermatrix."""
    rows, cols = m.shape
    return max(max_abs_coeff(m[i, j]) for i in range(rows) for j in range(cols))


def rand_supernumber(rng: random.Random, order: int, parity=None) -> Supernumber:
    """Dense random supernumber; optionally restricted to one parity sector."""
    terms = {}
    for mask in range(1 << order):
        if parity is not None and bin(mask).count("1") % 2 != parity:
            continue
        terms[mask] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return Supernumber(order, terms)


def rand_supermatrix(rng: random.Random, row_parity, col_parity, parity, order) -> Supermatrix:
    """Random homogeneous supermatrix consistent with the block parity rule."""
    entries = [
        [
            rand_supernumber(rng, order, (row_parity[i] + col_parity[j] + parity) % 2)
            for j in range(len(col_parity))
        ]
        for i in range(len(row_parity))
    ]
    return Supermatrix(entries, row_parity, col_parity, parity)


def _pairing(u: Supermatrix, v: Supermatrix) -> Supernumber:
    return (u.grade_adjoint() @ v)[0, 0]


def _checks():
    """Yield (name, residual, tolerance) for every verified identity."""
    rng = random.Random(20240917)

    # hash and star involutions
    worst = 0.0
    for order in (2, 4):
        for _ in range(40):
            a = rand_supernumber(rng, order)
            b = rand_supernumber(rng, order)
            hh = a.hash().hash()
            expect = a.even_part() - a.odd_part()
            worst = max(worst, max_abs_coeff(hh - expect))
            worst = max(worst, max_abs_coeff(a.star().star() - a))
            worst = max(worst, max_abs_coeff((a * b).hash() - a.hash() * b.hash()))
            worst = max(worst, max_abs_coeff((a * b).star() - b.star() * a.star()))
    yield "involutions: hash grade-involution, star involution", worst, 1e-12

    # Berezin and Rogers machinery
    worst = 0.0
    for _ in range(50):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = Supernumber.one(2) + pair_product(1, 2) * c
        worst = max(worst, abs(modified_rogers(a) - (1 - c)))
        worst = max(worst, abs(rogers_r1(a) - (1 + abs(c))))
    x = Supernumber.generator(1, 2) * 2.5 + Supernumber.one(2)
    worst = max(worst, max_abs_coeff(berezin(x, 1) - Supernumber.from_complex(2.5, 2)))
    yield "Berezin integral and Rogers norms", worst, 1e-12

    # exact series inverses
    worst = 0.0
    for _ in range(20):
        a = rand_supernumber(rng, 4)
        body = a.body
        if abs(body) < 0.3:
            a = a + Supernumber.from_complex(1.0, 4)
        worst = max(worst, max_abs_coeff(invert(a) * a - Supernumber.one(4)))
        pos = a.hash() * a + Supernumber.from_complex(0.5, 4)
        pos = pos.even_part()
        riv = inv_sqrt(pos)
        worst = max(worst, max_abs_coeff(riv * riv * pos - Supernumber.one(4)))
    yield "invert and inv_sqrt are exact series inverses", worst, 1e-10

    # supertranspose laws
    worst = 0.0
    for _ in range(40):
        rp = tuple(rng.randint(0, 1) for _ in range(3))
        cp = tuple(rng.randint(0, 1) for _ in range(3))
        sp, tp = rng.randint(0, 1), rng.randint(0, 1)
        x = rand_supermatrix(rng, rp, cp, sp, 2)
        y = rand_supermatrix(rng, cp, rp, tp, 2)
        st4 = x.supertranspose().supertranspose().supertranspose().supertranspose()
        worst = max(worst, matrix_residual(st4 - x))
        lhs = (x @ y).supertranspose()
        rhs = y.supertranspose() @ x.supertranspose()
        if sp * tp:
            rhs = -rhs
        worst = max(worst, matrix_residual(lhs - rhs))
    yield "supertranspose: order four and composition law", worst, 1e-12

    # supertrace graded cyclicity and scalar rules
    worst = 0.0
    for _ in range(40):
        rp = tuple(rng.randint(0, 1) for _ in range(3))
        sp, tp = rng.randint(0, 1), rng.randint(0, 1)
        x = rand_supermatrix(rng, rp, rp, sp, 2)
        y = rand_supermatrix(rng, rp, rp, tp, 2)
        lhs = supertrace(x @ y)
        rhs = supertrace(y @ x)
        if sp * tp:
            rhs = -rhs
        worst = max(worst, max_abs_coeff(lhs - rhs))
        zeta = rand_supernumber(rng, 2, 1)
        if sp:
            worst = max(worst, matrix_residual(zeta * x + x * zeta))
    yield "supertrace cyclicity; odd scalars anticommute with odd matrices", worst, 1e-12

    # grade adjoint pairing
    worst = 0.0
    for order in (2, 4):
        for spar in (0, 1):
            for zpar in (0, 1):
                for _ in range(25):
                    rp = tuple(rng.randint(0, 1) for _ in range(3))
                    s_mat = rand_supermatrix(rng, rp, rp, spar, order)
                    z = Supermatrix.column(
                        [rand_supernumber(rng, order, (p + zpar) % 2) for p in rp],
                        rp, zpar, order=order)
                    wpar = rng.randint(0, 1)
                    w = Supermatrix.column(
                        [rand_supernumber(rng, order, (p + wpar) % 2) for p in rp],
                        rp, wpar, order=order)
                    lhs = _pairing(s_mat @ z, w)
                    rhs = _pairing(z, s_mat.grade_adjoint() @ w)
                    sign = -1 if (spar * zpar) else 1
                    worst = max(worst, max_abs_coeff(lhs - rhs * sign))
    yield "grade adjoint moves across the pairing with (-1)^(|S||z|)", worst, 1e-12

    # group structure
    worst = 0.0
    for _ in range(25):
        p, q = rng.uniform(-1, 1), rng.uniform(-1, 1)
        worst = max(worst, matrix_residual(s_matrix(p) @ s_matrix(q) - s_matrix(p + q)))
        eta = Supernumber.eta(1, 2)
        worst = max(worst, matrix_residual(
            exp_nilpotent(odd_exponent(eta * (2 * p))) - s_matrix(p)))
        z = group_element(rng.uniform(-3, 3), rng.uniform(-3, 3), p)
        ident = Supermatrix.identity((0, 0, 1), 2)
        worst = max(worst, matrix_residual(z.grade_adjoint() @ z - ident))
    yield "one-parameter subgroup, closed form, superunitarity", worst, 1e-12

    # state normalization and measurement
    worst = 0.0
    for _ in range(25):
        st = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3))
        worst = max(worst, max_abs_coeff(norm_supernumber(st) - Supernumber.one(2)))
    ups = upsilon(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    total = Supernumber.zero(4)
    for t in grassmann_outcomes(ups):
        total = total + t
    worst = max(worst, max_abs_coeff(total - Supernumber.one(4)))
    yield "superqubit norm 1; two-party probabilities sum to 1", worst, 1e-12

    # transition probability against the closed form
    worst = 0.0
    for _ in range(50):
        p, q = rng.uniform(-1, 1), rng.uniform(-1, 1)
        t1, f1, t2, f2 = (rng.uniform(-3, 3) for _ in range(4))
        u = superqubit(p, t1, f1)
        v = superqubit(q, t2, f2)
        a, b = math.cos(t1), cmath.exp(1j * f1) * math.sin(t1)
        c, d = math.cos(t2), cmath.exp(1j * f2) * math.sin(t2)
        ov = a.conjugate() * c + b.conjugate() * d
        want = (ov.conjugate() * ov).real * (1 - (p - q) ** 2)
        worst = max(worst, abs(transition_real(u, v) - want))
    yield "transition probability closed form", worst, 1e-12

    # CHSH baselines and the vectorized evaluator
    worst = abs(chsh.win_prob(chsh.Strategy.tsirelson()) - math.cos(math.pi / 8) ** 2)
    worst = max(worst, abs(chsh.best_classical_win_prob() - 0.75))
    drift = signal = 0.0
    for _ in range(3):
        strat = chsh.Strategy.from_vector(
            [rng.uniform(-0.5, 0.5) for _ in range(6)]
            + [rng.uniform(-math.pi, math.pi) for _ in range(8)])
        ft = chsh.fast_outcome_tables(strat)
        for k, (i, j) in enumerate(chsh.SETTINGS):
            ex = chsh.outcome_probs(i, j, strat)
            drift = max(drift, max(abs(ft[k][m] - ex[m]) for m in range(9)))
        # [Alice's setting, Bob's setting, Alice's outcome, Bob's outcome]
        ft = ft.reshape(2, 2, 3, 3)
        alice, bob = ft.sum(axis=3), ft.sum(axis=2)
        signal = max(signal, abs(alice[:, 0] - alice[:, 1]).max(), abs(bob[0] - bob[1]).max())
        quantum = chsh.Strategy(alice=strat.alice, bob=strat.bob)
        worst = max(worst, abs(chsh.win_prob(quantum) - chsh.oracle_win_prob(quantum)))
    yield "game baselines match closed forms and the oracle", worst, 1e-10
    yield "vectorized evaluator matches exact path", drift, chsh.KERNEL_TOL
    yield ("no signalling: each party's marginals ignore the other's setting",
           signal, chsh.KERNEL_TOL)


def cmd_verify(args) -> int:
    failures = 0
    for name, resid, tol in _checks():
        ok = resid < tol
        if not ok:
            failures += 1
        status = "pass" if ok else "FAIL"
        if args.verbose:
            print(f"[{status}] {name}  (residual {resid:.3e}, tolerance {tol:.0e})")
        else:
            print(f"[{status}] {name}")
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
    print(f"state: {st}")
    print(f"probabilities: 0 -> {probs[0]:.12g}, 1 -> {probs[1]:.12g}, "
          f"bullet -> {probs[2]:.12g}")
    if not is_physical(p):
        print(f"warning: displacement {p} is not physical (|p| > 1/2); "
              f"compactified value {compactify(p):.12g}")
    _report(args, {"p": p, "theta": theta, "phi": phi, "physical": is_physical(p),
                   "probabilities": {"0": probs[0], "1": probs[1], "bullet": probs[2]}})
    return 0


def cmd_transition(args) -> int:
    p, theta, phi, q, theta2, phi2 = map(
        _finite, (args.p, args.theta, args.phi, args.q, args.theta2, args.phi2))
    u = superqubit(p, theta, phi)
    v = superqubit(q, theta2, phi2)
    g = grassmann_transition(u, v)
    val = transition_real(u, v)
    s1, s2 = physical_pair(p, q)
    print(f"grassmann transition: {g}")
    print(f"real transition probability: {val:.12g}")
    print(f"physical (|p-q|<=1 and |p+q|<=1): {s1}; physical (|p|,|q|<=1/2): {s2}")
    if not s2:
        print("warning: displacement pair outside the physical box")
    _report(args, {"p": p, "q": q, "transition": val, "pair_in_s1": s1, "pair_in_s2": s2})
    return 0


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
            "p_win": chsh._pwin_from_tables(tables),
            "violation": chsh.constraint_violation(strat, tables),
            "tables": tables_to_dict(tables),
        },
    }, tables)
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
    }, result.tables)
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
    print(f"classical optimum (16 deterministic strategies): {classical:.12g}")
    print(f"quantum baseline, exact Grassmann path: {quantum:.17g}")
    print(f"quantum baseline, plain complex oracle: {oracle:.17g}")
    print(f"expected quantum value cos^2(pi/8): {target:.17g}")
    ok = bool(classical == 0.75 and abs(quantum - target) < 1e-9
              and abs(quantum - oracle) < 1e-10)
    _report(args, {"classical": classical, "quantum": quantum,
                   "oracle": oracle, "target": target, "ok": ok})
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
