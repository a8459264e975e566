"""Acceptance gate: twelve binding checks covering the graded pairing identity,
supertranspose structure, displacement exponentials, group laws, state norms,
Rogers norms, transition formulas, two-party expansions, game baselines, the
headline optimization, compactification, and CLI determinism.

Each test prints one summary line; `pytest -v` shows one pass/fail line per
criterion.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from superqubit import chsh
from superqubit.grassmann import (
    PRUNE_TOL,
    Supernumber,
    modified_rogers,
    pair_product,
    rogers_r1,
)
from superqubit.supermatrix import Supermatrix, exp_nilpotent, supertrace
from superqubit.superstate import (
    SuperState,
    apply_local,
    compactify,
    density_matrix,
    grassmann_outcomes,
    inner_product,
    measure_real,
    norm_supernumber,
    superqubit,
    tensor,
    transition_real,
    upsilon,
)
from superqubit.uosp import (
    VEC_PARITY,
    group_element,
    odd_exponent,
    s_matrix,
)

from conftest import matrix_residual, max_abs_coeff, rand_supermatrix

TSIRELSON = math.cos(math.pi / 8) ** 2


def _pairing(u: Supermatrix, v: Supermatrix) -> Supernumber:
    """Graded pairing of two supervectors: the bra is the grade adjoint."""
    return (u.grade_adjoint() @ v)[0, 0]


def test_criterion_01_grade_adjoint_moves_operators_with_koszul_sign():
    rng = random.Random(20240101)
    start = time.perf_counter()
    worst = 0.0
    draws = 0
    for s_par in (0, 1):
        for z_par in (0, 1):
            for w_par in (0, 1):
                for k in range(1000):
                    order = 2 if k % 2 == 0 else 4
                    s = rand_supermatrix(rng, VEC_PARITY, VEC_PARITY, s_par, order)
                    z = rand_supermatrix(rng, VEC_PARITY, (z_par,), z_par, order)
                    w = rand_supermatrix(rng, VEC_PARITY, (w_par,), w_par, order)
                    sign = -1 if (s_par * z_par) % 2 else 1
                    lhs = _pairing(s @ z, w)
                    rhs = sign * _pairing(z, s.grade_adjoint() @ w)
                    worst = max(worst, max_abs_coeff(lhs - rhs))
                    draws += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"worst residual {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 01 PASS: pairing identity over {draws} homogeneous draws, "
        f"worst residual {worst:.3g}, {elapsed:.1f}s"
    )


def test_criterion_02_supertranspose_order_and_composition():
    rng = random.Random(20240102)
    parities = (0, 1)
    worst_order = 0.0
    worst_comp = 0.0
    for _ in range(1000):
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        x = rand_supermatrix(rng, parities, parities, px, 4)
        y = rand_supermatrix(rng, parities, parities, py, 4)
        t = x
        for _ in range(4):
            t = t.supertranspose()
        worst_order = max(worst_order, matrix_residual(t - x))
        sign = -1 if px * py else 1
        d = (x @ y).supertranspose() - sign * (
            y.supertranspose() @ x.supertranspose()
        )
        worst_comp = max(worst_comp, matrix_residual(d))
    assert worst_order <= PRUNE_TOL, f"fourth power residual {worst_order}"
    assert worst_comp <= PRUNE_TOL, f"composition residual {worst_comp}"
    print(
        "criterion 02 PASS: supertranspose^4 = id and graded composition law, "
        f"1000 pairs, residuals {worst_order:.3g} / {worst_comp:.3g}"
    )


def test_criterion_03_displacement_matrix_equals_terminating_exponential():
    rng = random.Random(20240103)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-1.5, 1.5)
        eta = Supernumber.eta(1, 2)
        built = exp_nilpotent(odd_exponent((2 * p) * eta))
        worst = max(worst, matrix_residual(built - s_matrix(p, 2)))
    assert worst < 1e-13, f"worst residual {worst}"
    print(
        "criterion 03 PASS: exp of the odd generator pair matches the closed "
        f"form, 100 draws, worst residual {worst:.3g}"
    )


def test_criterion_04_group_laws_and_superunitarity():
    rng = random.Random(20240104)
    ident = Supermatrix.identity(VEC_PARITY, 2)
    worst_add = 0.0
    worst_uni = 0.0
    for _ in range(100):
        p, q = rng.uniform(-1, 1), rng.uniform(-1, 1)
        theta, phi = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        d = s_matrix(p, 2) @ s_matrix(q, 2) - s_matrix(p + q, 2)
        worst_add = max(worst_add, matrix_residual(d))
        z = group_element(theta, phi, p, 2)
        worst_uni = max(worst_uni, matrix_residual(z.grade_adjoint() @ z - ident))
    assert worst_add < 1e-12, f"one-parameter law residual {worst_add}"
    assert worst_uni < 1e-12, f"superunitarity residual {worst_uni}"
    print(
        "criterion 04 PASS: displacement group law and Z^adj Z = 1, 100 draws, "
        f"residuals {worst_add:.3g} / {worst_uni:.3g}"
    )


def test_criterion_05_state_norm_and_supertrace_are_one():
    rng = random.Random(20240105)
    worst_body = 0.0
    worst_tr = 0.0
    for _ in range(100):
        p = rng.uniform(-1, 1)
        theta, phi = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        s = superqubit(p, theta, phi)
        nrm = norm_supernumber(s)
        assert set(nrm.terms()) <= {0}, "nilpotent part must cancel identically"
        worst_body = max(worst_body, abs(nrm.body - 1))
        tr = supertrace(density_matrix(s))
        assert set(tr.terms()) <= {0}, "supertrace soul must cancel identically"
        worst_tr = max(worst_tr, abs(tr.body - 1))
    assert worst_body < 1e-14
    assert worst_tr < 1e-14
    print(
        "criterion 05 PASS: norm supernumber and density supertrace equal one "
        f"with no nilpotent residue; body errors {worst_body:.3g} / {worst_tr:.3g}"
    )


def test_criterion_06_rogers_norms_on_displaced_vacuum_overlaps():
    rng = random.Random(20240106)
    one = Supernumber.one(2)
    x = pair_product(1, 2)
    for _ in range(100):
        c = rng.uniform(0.0, 2.0)
        a = one + c * x
        assert modified_rogers(a) == 1 - c
        assert rogers_r1(a) == 1 + c
    print(
        "criterion 06 PASS: modified Rogers norm 1-c and coefficient norm 1+c, "
        "100 draws, exact"
    )


def test_criterion_07_transition_probability_closed_form():
    rng = random.Random(20240107)
    worst = 0.0
    for _ in range(1000):
        p, q = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        t1, f1 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        t2, f2 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        u = superqubit(p, t1, f1)
        v = superqubit(q, t2, f2)
        overlap = math.cos(t1) * math.cos(t2) + (
            complex(math.cos(f1), -math.sin(f1))
            * complex(math.cos(f2), math.sin(f2))
            * math.sin(t1)
            * math.sin(t2)
        )
        want = abs(overlap) ** 2 * (1 - (p - q) ** 2)
        worst = max(worst, abs(transition_real(u, v) - want))
    assert worst < 1e-12, f"worst residual {worst}"
    low = 0.0
    for _ in range(300):
        p, q = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        t1, t2 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        val = transition_real(superqubit(p, t1, 0.0), superqubit(q, t2, 0.0))
        low = min(low, val)
    assert low >= -1e-14, f"negative transition {low} inside the physical box"
    print(
        "criterion 07 PASS: 1000 draws match the closed form "
        f"(worst {worst:.3g}); nonnegative on the physical box (min {low:.3g})"
    )


def test_criterion_08_two_party_expansion_metric_and_total_probability():
    # tensor expansion is coefficient-exact against the hand-pulled product
    rng = random.Random(20240108)
    for _ in range(25):
        a = superqubit(
            rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3), order=4, pair=1
        )
        b = superqubit(
            rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3), order=4, pair=2
        )
        t = tensor(a, b)
        for i in range(3):
            for j in range(3):
                am = a.left_coefficient(i)
                if j == 2:  # odd second digit: pulled past the first factor
                    am = am.even_part() - am.odd_part()
                want = am * b.left_coefficient(j)
                assert t.left_coefficient(3 * i + j).terms() == want.terms()
    # the double-bullet direction of the metric
    dd = SuperState.basis_state("**", 2, order=4)
    assert inner_product(dd, dd) == Supernumber.from_complex(-1.0, 4)
    # total outcome weight is exactly one for rotated shared states
    worst_body = 0.0
    for _ in range(100):
        ups = upsilon(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        za = group_element(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-0.5, 0.5),
            order=4,
            pair=1,
        )
        zb = group_element(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-0.5, 0.5),
            order=4,
            pair=2,
        )
        rotated = apply_local(ups, za, zb)
        total = Supernumber.zero(4)
        for term in grassmann_outcomes(rotated):
            total = total + term
        assert set(total.terms()) <= {0}, "outcome sum must have no soul"
        worst_body = max(worst_body, abs(total.body - 1))
    assert worst_body < 1e-13
    print(
        "criterion 08 PASS: tensor coefficients exact, <**|**> = -1, outcome "
        f"sums equal one for 100 rotated shared states (body error {worst_body:.3g})"
    )


def test_criterion_09_rotation_only_optimum_and_classical_baseline():
    assert chsh.best_classical_win_prob() == 0.75
    res = chsh.optimize(
        chsh.OptimizeConfig(seed=0, restarts=12, max_iters=1500, quantum_only=True)
    )
    gap = abs(res.p_win - TSIRELSON)
    assert res.feasible
    assert gap < 1e-6, f"rotation-only optimum off by {gap}"
    print(
        "criterion 09 PASS: classical enumeration gives 3/4; rotation-only "
        f"optimization reaches {res.p_win:.10f} (|gap| = {gap:.3g})"
    )


def test_criterion_10_full_optimization_beats_quantum_bound():
    start = time.perf_counter()
    res = chsh.optimize(chsh.OptimizeConfig())  # seed 0, 200 restarts, 1000 iters
    elapsed = time.perf_counter() - start
    assert res.feasible, "no feasible strategy found"
    assert res.violation <= 1e-9, f"constraint violation {res.violation}"
    assert res.p_win >= 0.8640, f"p_win {res.p_win} below the acceptance floor"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    print(
        f"criterion 10 PASS: p_win = {res.p_win:.12f} >= 0.8640 "
        f"(target window 0.8647 +/- 0.0007), violation = {res.violation:.3g}, "
        f"best restart {res.best_restart}, {elapsed:.0f}s"
    )


def test_criterion_11_compactification_window_and_probabilities():
    rng = random.Random(20240111)
    # onto [-1/2, 1/2): every target in the window is hit exactly
    for k in range(101):
        target = -0.5 + k / 101.0
        x = 2 * math.pi * (target + 0.5)
        assert compactify(x) == pytest.approx(target, abs=1e-12)
    for _ in range(500):
        x = rng.uniform(-1e8, 1e8)
        c = compactify(x)
        assert -0.5 <= c < 0.5
        assert abs(compactify(x + 2 * math.pi) - c) < 1e-7
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-1e8, 1e8)
        theta = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        probs = measure_real(superqubit(compactify(x), theta, phi))
        for value in probs:
            worst = max(worst, max(-value, value - 1.0))
    assert worst <= 1e-12, f"probability escapes [0, 1] by {worst}"
    print(
        "criterion 11 PASS: compactified displacements cover [-1/2, 1/2), are "
        f"2 pi periodic, and give standard-basis probabilities in [0, 1] "
        f"(max excursion {worst:.3g})"
    )


def test_criterion_12_optimizer_cli_is_byte_deterministic(tmp_path):
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "superqubit.cli",
                "chsh-optimize",
                "--seed",
                "3",
                "--restarts",
                "2",
                "--max-iters",
                "150",
                "--json",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "optimizer JSON output differs between runs"
    assert len(outputs[0]) > 200
    print(
        "criterion 12 PASS: two optimizer runs with an identical config wrote "
        f"byte-identical JSON ({len(outputs[0])} bytes)"
    )
