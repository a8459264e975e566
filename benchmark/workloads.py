"""The benchmark's three workloads.

Each workload makes the inputs of one round from the workload seed and the
round index (``make``), runs the round's ops through the program (``run``,
the only timed part; it may call ``tick`` between ops to let the harness
pause the clock) and checks the outputs (``check``).  Every round of a
workload holds the same ops in the same mix, so the share of failed ops is
the same in every run.

The reference computations here (the game rule, the two-qubit Bell-state
evaluation, the transition closed form) share no code with ``superqubit``.
The program is always called through module attributes, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

from superqubit import chsh, grassmann, supermatrix, superstate

TSIRELSON = math.cos(math.pi / 8.0) ** 2
# question pairs (i, j), in the row order of the 4x9 outcome tables
SETTINGS = ((0, 0), (0, 1), (1, 0), (1, 1))
BOX = 0.5


class Checks:
    """Tallies of each named check, plus outcomes of ops that may fail."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}
        self.ops: dict[str, list[int]] = {}
        self.errors: list[str] = []

    def expect(self, name: str, ok: bool, detail=""):
        tally = self.counts.setdefault(name, [0, 0])
        tally[0 if ok else 1] += 1
        if not ok and len(self.errors) < 20:
            self.errors.append(f"{name}: {detail}")

    def op(self, name: str, ok: bool) -> int:
        """Record an op whose failure is a known program fault; returns 1 if it failed."""
        tally = self.ops.setdefault(name, [0, 0])
        tally[0 if ok else 1] += 1
        return 0 if ok else 1

    @property
    def ok(self) -> bool:
        return all(failed == 0 for _, failed in self.counts.values())


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds hash with SHA-512: stable across processes and platforms
    return random.Random(f"{workload}/{seed}/{index}")


# -- references --------------------------------------------------------------


def announced_bit(digit: int) -> int:
    """Outcome 0 announces bit 0; outcomes 1 and bullet (digit 2) announce 1."""
    return 0 if digit == 0 else 1


def win_probability(tables) -> float:
    """Players win iff a XOR b = i AND j; each question pair weighs 1/4."""
    total = 0.0
    for (i, j), row in zip(SETTINGS, tables):
        for k, p in enumerate(row):
            if announced_bit(k // 3) ^ announced_bit(k % 3) == i & j:
                total += p
    return 0.25 * total


def _su2(theta: float, phi: float):
    a = math.cos(theta)
    b = cmath.exp(1j * phi) * math.sin(theta)
    return ((a, -b.conjugate()), (b, a))


def bell_tables(alice, bob):
    """Outcome tables of (|00> + |11>)/sqrt(2) rotated by U_A (x) U_B, with
    U(theta, phi) = [[cos t, -e^{-i phi} sin t], [e^{i phi} sin t, cos t]];
    bullet outcomes are 0."""
    tables = []
    for i, j in SETTINGS:
        ua, ub = _su2(*alice[i]), _su2(*bob[j])
        row = [0.0] * 9
        for m in (0, 1):
            for n in (0, 1):
                amp = (ua[m][0] * ub[n][0] + ua[m][1] * ub[n][1]) / math.sqrt(2.0)
                row[3 * m + n] = abs(amp) ** 2
        tables.append(row)
    return tables


def transition_closed_form(p, t1, f1, q, t2, f2) -> float:
    overlap = math.cos(t1) * math.cos(t2) + cmath.exp(1j * (f2 - f1)) * math.sin(t1) * math.sin(t2)
    return abs(overlap) ** 2 * (1.0 - (p - q) ** 2)


def _max_diff(a, b) -> float:
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _check_tables(checks: Checks, prefix: str, strategy, tables):
    """Checks every evaluated strategy gets: real rows that sum to one, and
    agreement of the vectorized kernel with the exact path."""
    real = all(isinstance(p, float) for row in tables for p in row)
    checks.expect(f"{prefix}.real", real, "complex outcome probability")
    if not real:
        return
    worst = max(abs(sum(row) - 1.0) for row in tables)
    checks.expect(f"{prefix}.rows_sum_to_one", worst <= 1e-12, f"row sum off by {worst:.3g}")
    fast = chsh.fast_outcome_tables(strategy).tolist()
    drift = _max_diff(fast, tables)
    checks.expect(f"{prefix}.fast_matches_exact", drift <= 1e-13, f"drift {drift:.3g}")


def _check_rotation_only(checks: Checks, prefix: str, strategy, tables, slack: float):
    bell = bell_tables(strategy.alice, strategy.bob)
    diff = _max_diff(bell, tables)
    checks.expect(f"{prefix}.matches_bell_state", diff <= 1e-12, f"off by {diff:.3g}")
    pwin = win_probability(tables)
    checks.expect(f"{prefix}.tsirelson_bound", pwin <= TSIRELSON + slack, f"p_win {pwin!r}")


# -- chsh_search: seeded multi-start optimization ------------------------------

# A single full-space restart beats cos^2(pi/8) in about 3 of 5 cases (77 of
# 120 measured), so the paper's claim is checked on the best of 12: a round
# misses it with odds of about 0.43^12, below 1e-4.
SEARCH_FULL_RESTARTS = 12
SEARCH_QUANTUM_RESTARTS = 1


def search_make(seed: int, index: int, quick: bool):
    """One optimize() call per restart, each with its own seed, so the
    reference loop can be timed between restarts."""
    rng = round_rng("chsh_search", seed, index)
    full = 1 if quick else SEARCH_FULL_RESTARTS
    return [chsh.OptimizeConfig(seed=rng.getrandbits(32), restarts=1, quantum_only=k >= full)
            for k in range(full + SEARCH_QUANTUM_RESTARTS)]


def search_run(configs, tick):
    out = []
    for k, config in enumerate(configs):
        if k:
            tick()
        out.append(chsh.optimize(config))
    return out


def search_check(configs, out, checks: Checks):
    record = []
    best = None
    for config, res in zip(configs, out):
        prefix = "search.quantum" if config.quantum_only else "search.full"
        tables = [list(row) for row in res.tables]
        _check_tables(checks, prefix, res.strategy, tables)
        pwin = win_probability(tables)
        checks.expect(f"{prefix}.p_win_from_tables", abs(pwin - res.p_win) <= 1e-14,
                      f"{pwin!r} vs reported {res.p_win!r}")
        if res.feasible:  # an infeasible restart is reported as such and discarded
            spill = max(max(-p, p - 1.0) for row in tables for p in row)
            checks.expect(f"{prefix}.feasible_in_unit_interval",
                          res.violation <= 1e-9 and spill <= 1e-9,
                          f"violation {res.violation!r}, outside [0, 1] by {spill:.3g}")
            if not config.quantum_only and (best is None or res.p_win > best):
                best = res.p_win
        if config.quantum_only:
            checks.expect("search.quantum.feasible", res.feasible, f"violation {res.violation!r}")
            vec = res.strategy.to_vector()
            checks.expect("search.quantum.no_displacement", all(x == 0.0 for x in vec[:6]), f"{vec[:6]}")
            _check_rotation_only(checks, "search.quantum", res.strategy, tables, slack=1e-9)
        record.append([res.p_win, res.violation, res.feasible, res.iterations,
                       res.strategy.to_vector(), tables])
    # the paper's claim needs the best of several restarts; a quick round has one
    if sum(not c.quantum_only for c in configs) == SEARCH_FULL_RESTARTS:
        checks.expect("search.full.beats_tsirelson", best is not None and best > TSIRELSON,
                      f"best feasible p_win {best!r}")
    return record, 0


def search_stats(rounds, outs) -> dict[str, float]:
    return {
        "restarts": sum(len(r) for r in rounds),
        "nm_iterations": sum(res.iterations for out in outs for res in out),
    }


def search_warm_up():
    chsh.optimize(chsh.OptimizeConfig(seed=0, restarts=1, max_iters=1))


# -- chsh_exact: exact evaluation of seeded strategies ----------------------------

EXACT_MIX = ("displaced", "displaced", "displaced", "rotation")
EXACT_QUICK_MIX = ("displaced", "rotation")


def exact_make(seed: int, index: int, quick: bool):
    rng = round_rng("chsh_exact", seed, index)
    strategies = []
    for kind in EXACT_QUICK_MIX if quick else EXACT_MIX:
        shifts = [rng.uniform(-BOX, BOX) for _ in range(6)] if kind == "displaced" else [0.0] * 6
        angles = [rng.uniform(-math.pi, math.pi) for _ in range(8)]
        strategies.append((kind, chsh.Strategy.from_vector(shifts + angles)))
    return strategies


def exact_run(strategies, tick):
    return [[chsh.outcome_probs(i, j, strat) for (i, j) in SETTINGS] for _, strat in strategies]


def exact_check(strategies, out, checks: Checks):
    for n, ((kind, strat), tables) in enumerate(zip(strategies, out)):
        _check_tables(checks, "exact", strat, tables)
        if kind == "rotation":
            _check_rotation_only(checks, "exact.rotation", strat, tables, slack=1e-12)
        elif n == 0:  # one strategy per round: the game is symmetric in the players
            swapped = [chsh.outcome_probs(i, j, strat.swapped()) for (i, j) in SETTINGS]
            gap = abs(win_probability(swapped) - win_probability(tables))
            checks.expect("exact.swap_invariant", gap <= 1e-13, f"gap {gap:.3g}")
    return out, 0


def exact_warm_up():
    chsh.outcome_probs(0, 0, chsh.Strategy())


# -- graded_identities: dense algebra identities and state probabilities ---------

VEC_PARITY = (0, 0, 1)
GRADED_MIX = (("pairing", 2), ("pairing", 4), ("pairing", 6)) + (("transition",),) * 6 + (("norm",),)
GRADED_QUICK_MIX = (("pairing", 2), ("pairing", 4), ("pairing", 6), ("transition",), ("norm",))

# Displacements inside (1.0e-7, 1.4e-7): the norm keeps a -p^2 eta1 eta1#
# term because intermediate coefficients <= PRUNE_TOL are dropped.  These
# inputs do not depend on the seed, so the ops fail in every run.
SMALL_NORM_INPUTS = tuple(
    (1.05e-7 + 0.04e-7 * k, 0.3 + 0.35 * k, -1.0 + 0.3 * k) for k in range(8)
)


def _dense(rng: random.Random, order: int, parity: int) -> dict[int, complex]:
    return {m: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for m in range(1 << order) if m.bit_count() % 2 == parity}


def _random_entries(rng, row_parity, col_parity, parity, order):
    return [[_dense(rng, order, (rp + cp + parity) % 2) for cp in col_parity] for rp in row_parity]


def graded_make(seed: int, index: int, quick: bool):
    rng = round_rng("graded_identities", seed, index)
    ops = []
    for kind, *arg in GRADED_QUICK_MIX if quick else GRADED_MIX:
        if kind == "pairing":
            order = arg[0]
            s_par, z_par, w_par = (rng.getrandbits(1) for _ in range(3))
            ops.append(("pairing", order, s_par, z_par, w_par,
                        _random_entries(rng, VEC_PARITY, VEC_PARITY, s_par, order),
                        _random_entries(rng, VEC_PARITY, (z_par,), z_par, order),
                        _random_entries(rng, VEC_PARITY, (w_par,), w_par, order)))
        elif kind == "transition":
            p, q = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            angles = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
            ops.append(("transition", p, angles[0], angles[1], q, angles[2], angles[3]))
        else:
            ops.append(("norm",) + SMALL_NORM_INPUTS[index % len(SMALL_NORM_INPUTS)])
    return ops


def _matrix(entries, row_parity, col_parity, parity, order):
    grid = [[grassmann.Supernumber(order, e) for e in row] for row in entries]
    return supermatrix.Supermatrix(grid, row_parity, col_parity, parity, order=order)


def _pairing(u, v):
    """<u, v>: the bra is the grade adjoint of u."""
    return (u.grade_adjoint() @ v)[0, 0]


def graded_run(ops, tick):
    out = []
    for op in ops:
        if op[0] == "pairing":
            _, order, s_par, z_par, w_par, s_e, z_e, w_e = op
            s = _matrix(s_e, VEC_PARITY, VEC_PARITY, s_par, order)
            z = _matrix(z_e, VEC_PARITY, (z_par,), z_par, order)
            w = _matrix(w_e, VEC_PARITY, (w_par,), w_par, order)
            out.append((_pairing(s @ z, w).terms(), _pairing(z, s.grade_adjoint() @ w).terms()))
        elif op[0] == "transition":
            _, p, t1, f1, q, t2, f2 = op
            out.append(superstate.transition_real(
                superstate.superqubit(p, t1, f1), superstate.superqubit(q, t2, f2)))
        else:
            _, p, theta, phi = op
            out.append(superstate.norm_supernumber(superstate.superqubit(p, theta, phi)).terms())
    return out


def graded_check(ops, out, checks: Checks):
    failed = 0
    record = []
    for op, res in zip(ops, out):
        if op[0] == "pairing":
            _, order, s_par, z_par = op[:4]
            lhs, rhs = res
            sign = -1.0 if s_par * z_par else 1.0  # (-1)^{|S||z|}
            scale = max(abs(c) for c in (*lhs.values(), *rhs.values()))
            resid = max(abs(lhs.get(m, 0j) - sign * rhs.get(m, 0j)) for m in lhs.keys() | rhs.keys())
            checks.expect(f"graded.pairing_identity.order{order}", resid <= 1e-12 * scale,
                          f"residual {resid:.3g} at scale {scale:.3g}")
            record.append(sorted((m, repr(c)) for m, c in lhs.items()))
        elif op[0] == "transition":
            want = transition_closed_form(*op[1:])
            gap = abs(res - want)
            checks.expect("graded.transition_closed_form", gap <= 1e-12, f"{res!r} vs {want!r}")
            record.append(repr(res))
        else:
            exact = set(res) <= {0} and abs(res.get(0, 0j) - 1.0) <= 1e-12
            failed += checks.op("graded.small_norm_is_one", exact)
            record.append(sorted((m, repr(c)) for m, c in res.items()))
    return record, failed


def graded_warm_up():
    graded_run(graded_make(0, 0, quick=True), tick=None)


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make: Callable       # (seed, round index, quick) -> list of the round's ops
    run: Callable        # (inputs, tick) -> outputs; the timed program calls, with
                         # tick() called between ops where the clock may pause
    check: Callable      # (inputs, outputs, Checks) -> (record, failed ops)
    warm_up: Callable    # small untimed first call, part of set-up
    trace_rounds: int    # fixed round count of a traced run, so call counts repeat
    stats: Callable = lambda rounds, outs: {}


WORKLOADS = {
    "chsh_search": Workload(search_make, search_run, search_check, search_warm_up,
                            trace_rounds=1, stats=search_stats),
    "chsh_exact": Workload(exact_make, exact_run, exact_check, exact_warm_up, trace_rounds=100),
    "graded_identities": Workload(graded_make, graded_run, graded_check, graded_warm_up,
                                  trace_rounds=300),
}
