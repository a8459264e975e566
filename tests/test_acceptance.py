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

from superqubit import chsh, identities
from superqubit.grassmann import PRUNE_TOL, Supernumber
from superqubit.supermatrix import supertrace
from superqubit.superstate import (
    SuperState,
    compactify,
    density_matrix,
    inner_product,
    measure_real,
    superqubit,
    tensor,
    transition_real,
)

TSIRELSON = math.cos(math.pi / 8) ** 2


def test_criterion_01_grade_adjoint_moves_operators_with_koszul_sign():
    # draw k runs through orders 2 and 4 and all eight parities of (S, z, w)
    rng = random.Random(20240101)
    start = time.perf_counter()
    worst = identities.pairing(rng, 8000)
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"worst residual {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(
        "criterion 01 PASS: pairing identity over 8000 homogeneous draws, "
        f"worst residual {worst:.3g}, {elapsed:.1f}s"
    )


def test_criterion_02_supertranspose_order_and_composition():
    rng = random.Random(20240102)
    worst_order = identities.supertranspose_period(rng, 1000)
    worst_comp = identities.supertranspose_composition(rng, 1000)
    assert worst_order <= PRUNE_TOL, f"fourth power residual {worst_order}"
    assert worst_comp <= PRUNE_TOL, f"composition residual {worst_comp}"
    print(
        "criterion 02 PASS: supertranspose^4 = id and graded composition law, "
        f"1000 draws each, residuals {worst_order:.3g} / {worst_comp:.3g}"
    )


def test_criterion_03_displacement_matrix_equals_terminating_exponential():
    rng = random.Random(20240103)
    worst = identities.displacement_exponential(rng, 100)
    assert worst < 1e-13, f"worst residual {worst}"
    print(
        "criterion 03 PASS: exp of the odd generator pair matches the closed "
        f"form, 100 draws, worst residual {worst:.3g}"
    )


def test_criterion_04_group_laws_and_superunitarity():
    rng = random.Random(20240104)
    worst_add = identities.displacement_group_law(rng, 100)
    worst_uni = identities.superunitarity(rng, 100)
    assert worst_add < 1e-12, f"one-parameter law residual {worst_add}"
    assert worst_uni < 1e-12, f"superunitarity residual {worst_uni}"
    print(
        "criterion 04 PASS: displacement group law and Z^adj Z = 1, 100 draws, "
        f"residuals {worst_add:.3g} / {worst_uni:.3g}"
    )


def test_criterion_05_state_norm_and_supertrace_are_one():
    # unit_gap is infinite if a nilpotent term survives: the soul must cancel identically
    rng = random.Random(20240105)
    worst_body = identities.state_norm(rng, 100)
    worst_tr = 0.0
    for _ in range(100):
        p = rng.uniform(-1, 1)
        theta, phi = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        tr = supertrace(density_matrix(superqubit(p, theta, phi)))
        worst_tr = max(worst_tr, identities.unit_gap(tr))
    assert worst_body < 1e-14, f"norm residual {worst_body}"
    assert worst_tr < 1e-14, f"supertrace residual {worst_tr}"
    print(
        "criterion 05 PASS: norm supernumber and density supertrace equal one "
        f"with no nilpotent residue; body errors {worst_body:.3g} / {worst_tr:.3g}"
    )


def test_criterion_06_rogers_norms_on_displaced_vacuum_overlaps():
    rng = random.Random(20240106)
    worst = identities.rogers_norms(rng, 100)
    assert worst == 0.0, f"worst residual {worst}"
    print(
        "criterion 06 PASS: modified Rogers norm 1-c and coefficient norm 1+|c|, "
        "100 draws, exact"
    )


def test_criterion_07_transition_probability_closed_form():
    rng = random.Random(20240107)
    worst = identities.transition_closed_form(rng, 1000)
    assert worst < 1e-12, f"worst residual {worst}"
    low = 0.0
    for _ in range(300):
        p, q = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        t1, t2 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        low = min(low, transition_real(superqubit(p, t1, 0.0), superqubit(q, t2, 0.0)))
    assert low >= -1e-14, f"negative transition {low} inside the physical box"
    print(
        "criterion 07 PASS: 1000 draws match the closed form "
        f"(worst {worst:.3g}); nonnegative on the physical box (min {low:.3g})"
    )


def test_criterion_08_two_party_expansion_metric_and_total_probability():
    # tensor expansion is coefficient-exact against the hand-pulled product
    rng = random.Random(20240108)
    for _ in range(25):
        a = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3), order=4, pair=1)
        b = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3), order=4, pair=2)
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
    # total outcome weight is exactly one, soul included, for rotated shared states
    worst_body = identities.outcome_sum(rng, 100)
    assert worst_body < 1e-13, f"outcome sum residual {worst_body}"
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
