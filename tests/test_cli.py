"""Command-line surface: subcommands, exit codes, deterministic JSON/CSV
serialization, config handling."""

import csv
import json
import math
import random
import re

import numpy as np
import pytest

from superqubit import chsh, cli
from superqubit.chsh import SETTINGS, OptimizeConfig, Strategy, outcome_probs
from superqubit.supermatrix import Supermatrix
from superqubit.superstate import superqubit, transition_real

TSIRELSON = math.cos(math.pi / 8) ** 2


def _write_strategy_file(path, strat, wrapped=True):
    payload = {"strategy": cli.strategy_to_dict(strat)} if wrapped else cli.strategy_to_dict(strat)
    path.write_text(cli.dumps(payload))
    return str(path)


# -- deterministic JSON writer -----------------------------------------------------


def test_dumps_scalar_formats():
    assert cli.dumps(0.5) == "0.5"
    assert cli.dumps(1.0) == "1"
    assert cli.dumps(True) == "true"
    assert cli.dumps(None) == "null"
    assert cli.dumps([1, 2.5, "x"]) == '[1,2.5,"x"]'
    assert cli.dumps({"b": 1, "a": 2}) == '{"b":1,"a":2}'  # insertion order is kept
    for x in (math.nan, math.inf, -math.inf):  # JSON has no token for them
        with pytest.raises(ValueError, match="non-finite"):
            cli.dumps({"p": [0.5, x]})


def test_dumps_floats_round_trip_exactly():
    rng = random.Random(0)
    values = [rng.uniform(-1, 1) for _ in range(200)]
    values += [1e-300, -1e300, 0.1, 2 / 3, math.pi, 1e-9]
    for x in values:
        assert json.loads(cli.dumps(x)) == x


def test_dumps_escapes_strings():
    assert cli.dumps('a"b') == '"a\\"b"'
    for s in ("line\nbreak\t", "back\\slash", "unicode •"):
        assert json.loads(cli.dumps(s)) == s


def test_strategy_dict_round_trip():
    strat = Strategy(
        p_a=0.1, p_b=-0.2, r=(0.3, -0.4), s=(0.05, 0.06),
        alice=((0.7, -0.8), (0.9, 1.0)), bob=((-1.1, 1.2), (1.3, -1.4)),
    )
    back = cli.strategy_from_dict(cli.strategy_to_dict(strat))
    assert back == strat


def test_strategy_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        cli.strategy_from_dict({"pA": 0.1})  # missing fields
    good = cli.strategy_to_dict(Strategy())
    bad = dict(good)
    bad["alice"] = [{"theta": 0.0}]  # wrong arity
    with pytest.raises(ValueError):
        cli.strategy_from_dict(bad)


def test_optimizer_config_without_flags_or_file_is_the_library_default():
    args = cli._build_parser().parse_args(["chsh-optimize"])
    assert cli._config_from_args(args) == OptimizeConfig()


# -- verify ------------------------------------------------------------------------


def test_verify_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) >= 10
    assert all(ln.startswith("[pass]") for ln in lines)


def test_verify_reports_injected_fault(monkeypatch, capsys):
    # a grade adjoint that forgets the hash breaks superunitarity
    monkeypatch.setattr(Supermatrix, "grade_adjoint", Supermatrix.supertranspose)
    assert cli.main(["verify", "--verbose"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] one-parameter subgroup, closed form, superunitarity" in out
    assert "[pass]" in out  # only the checks that use the grade adjoint can break


def test_verify_reports_signalling_tables(monkeypatch, capsys):
    # moving weight between Bob's outcomes in one setting pair makes Bob's
    # marginal depend on Alice's setting
    kernel = chsh.fast_outcome_tables

    def signalling(strat):
        tables = kernel(strat).copy()
        tables[1, :2] += (0.01, -0.01)
        return tables

    monkeypatch.setattr(chsh, "fast_outcome_tables", signalling)
    assert cli.main(["verify", "--verbose"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] no signalling: each party's marginals ignore the other's setting" in out


# -- state and transition ----------------------------------------------------------


def test_state_output_and_json(tmp_path, capsys):
    out_file = tmp_path / "state.json"
    assert cli.main(["state", "0.3", "0", "0", "--json", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "probabilities:" in out
    assert "warning" not in out
    payload = json.loads(out_file.read_text())
    assert payload["physical"] is True
    assert payload["probabilities"]["0"] == pytest.approx(0.91, abs=1e-12)
    assert payload["probabilities"]["bullet"] == pytest.approx(0.09, abs=1e-12)


def test_outputs_into_a_missing_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "out"
    for argv in (["state", "0.3", "0", "0", "--json", str(out)],
                 ["chsh-optimize", "--restarts", "1", "--max-iters", "0", "--csv", str(out)]):
        assert cli.main(argv) == 2
        assert "error: cannot write" in capsys.readouterr().err


def test_unwritable_output_is_refused_before_the_work(tmp_path, monkeypatch, capsys):
    def search(config):
        raise AssertionError("the search ran")

    monkeypatch.setattr(chsh, "optimize", search)
    result = tmp_path / "ok.json"
    argv = ["chsh-optimize", "--restarts", "1", "--max-iters", "5",
            "--json", str(result), "--csv", str(tmp_path / "missing" / "x.csv")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cannot write" in captured.err
    assert not result.exists()
    # the check truncates no existing file, and a directory is no output file
    result.write_text("kept\n")
    assert cli.main(argv) == 2
    assert result.read_text() == "kept\n"
    assert cli.main(["chsh-optimize", "--json", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err


def test_state_warns_on_unphysical_displacement(capsys):
    assert cli.main(["state", "0.6", "0.2", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "warning" in out
    assert "compactified" in out


def test_transition_output_and_json(tmp_path, capsys):
    out_file = tmp_path / "trans.json"
    rc = cli.main(
        ["transition", "0.3", "0", "0", "0.1", "0", "0", "--json", str(out_file)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "real transition probability: 0.96" in out
    payload = json.loads(out_file.read_text())
    assert payload["transition"] == pytest.approx(0.96, abs=1e-12)
    assert payload["pair_in_s1"] is True
    assert payload["pair_in_s2"] is True


def test_state_and_transition_reject_non_finite_numbers(capsys):
    # a value that starts with "-" but is not a plain number is read as an
    # option unless it follows "--"
    for argv in (["state", "nan", "0", "0"], ["state", "0.1", "0", "inf"],
                 ["transition", "inf", "0", "0", "0", "0", "0"],
                 ["state", "--", "-inf", "0", "0"]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "not a finite number" in err


def test_transition_warns_outside_box(capsys):
    assert cli.main(["transition", "0.9", "0", "0", "0.1", "0", "0"]) == 0
    assert "outside the physical box" in capsys.readouterr().out


# -- baseline ----------------------------------------------------------------------


def test_baseline_values(tmp_path, capsys):
    out_file = tmp_path / "base.json"
    assert cli.main(["baseline", "--json", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["classical"] == 0.75
    assert payload["quantum"] == pytest.approx(TSIRELSON, abs=1e-12)
    assert payload["oracle"] == pytest.approx(TSIRELSON, abs=1e-12)
    assert payload["ok"] is True


# -- chsh-eval ---------------------------------------------------------------------


def test_chsh_eval_tsirelson_file(tmp_path, capsys):
    strat_file = _write_strategy_file(tmp_path / "ts.json", Strategy.tsirelson())
    json_file = tmp_path / "out.json"
    csv_file = tmp_path / "out.csv"
    rc = cli.main(
        ["chsh-eval", strat_file, "--json", str(json_file), "--csv", str(csv_file)]
    )
    assert rc == 0
    payload = json.loads(json_file.read_text())
    assert payload["result"]["p_win"] == pytest.approx(TSIRELSON, abs=1e-12)
    assert payload["result"]["violation"] <= 1e-12
    assert set(payload["result"]["tables"]) == {"00", "01", "10", "11"}
    stdout_payload = json.loads(capsys.readouterr().out)
    assert stdout_payload == payload

    with open(csv_file, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "outcome", "probability"]
    assert len(rows) == 1 + 4 * 9
    total = sum(float(r[3]) for r in rows[1:] if (r[0], r[1]) == ("0", "0"))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_chsh_eval_accepts_bare_strategy_dict(tmp_path):
    strat = Strategy(p_a=0.2, alice=((0.4, 0.0), (1.1, 0.0)))
    strat_file = _write_strategy_file(tmp_path / "bare.json", strat, wrapped=False)
    assert cli.main(["chsh-eval", strat_file]) == 0


def test_chsh_eval_matches_library_evaluator(tmp_path, capsys):
    strat = Strategy(
        p_a=0.31, p_b=-0.12, r=(0.2, -0.3), s=(0.1, 0.4),
        alice=((0.5, 0.6), (-0.7, 0.8)), bob=((0.9, -1.0), (1.1, 1.2)),
    )
    strat_file = _write_strategy_file(tmp_path / "s.json", strat)
    assert cli.main(["chsh-eval", strat_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    for (i, j) in SETTINGS:
        want = outcome_probs(i, j, strat)
        got = payload["result"]["tables"][f"{i}{j}"]
        assert got == pytest.approx(want, abs=1e-15)


def test_chsh_eval_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["chsh-eval", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert cli.main(["chsh-eval", str(missing)]) == 2
    # strategy values are finite JSON numbers: NaN, strings, bools and ints
    # beyond float range exit 2 before any output
    good = cli.strategy_to_dict(Strategy.tsirelson())
    for value in (math.nan, math.inf, "0.1", True, 10**400):
        bad.write_text(json.dumps({**good, "pA": value}))
        capsys.readouterr()
        assert cli.main(["chsh-eval", str(bad)]) == 2
        assert capsys.readouterr().out == ""
    # an output file that cannot be written is an input error too
    good_file = _write_strategy_file(tmp_path / "good.json", Strategy.tsirelson())
    for flag in ("--json", "--csv"):
        out = tmp_path / "no" / "such" / "dir" / "out"
        assert cli.main(["chsh-eval", good_file, flag, str(out)]) == 2
        assert "error: cannot write" in capsys.readouterr().err


# -- chsh-optimize -----------------------------------------------------------------


def test_chsh_optimize_zero_iterations(tmp_path, capsys):
    json_file = tmp_path / "opt.json"
    rc = cli.main(
        [
            "chsh-optimize",
            "--seed", "5",
            "--restarts", "1",
            "--max-iters", "0",
            "--json", str(json_file),
        ]
    )
    assert rc == 0
    payload = json.loads(json_file.read_text())
    assert payload["seed"] == 5
    assert payload["restarts"] == 1
    assert payload["max_iters"] == 0
    assert payload["result"]["iterations"] == 0
    assert payload["result"]["feasible"] is True
    capsys.readouterr()


def test_chsh_optimize_reads_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        cli.dumps({"seed": 7, "restarts": 1, "max_iters": 0, "quantum_only": True})
    )
    json_file = tmp_path / "out.json"
    rc = cli.main(
        ["chsh-optimize", str(cfg), "--seed", "9", "--json", str(json_file)]
    )
    assert rc == 0
    payload = json.loads(json_file.read_text())
    assert payload["seed"] == 9  # flag wins over file
    assert payload["restarts"] == 1
    capsys.readouterr()


def test_chsh_optimize_reports_infeasible_with_exit_1(tmp_path, capsys):
    # seed 9's raw starting point carries a slightly negative table entry, so
    # a zero-iteration run must be reported as infeasible
    json_file = tmp_path / "out.json"
    rc = cli.main(
        [
            "chsh-optimize",
            "--seed", "9",
            "--restarts", "1",
            "--max-iters", "0",
            "--json", str(json_file),
        ]
    )
    assert rc == 1
    payload = json.loads(json_file.read_text())
    assert payload["result"]["feasible"] is False
    assert payload["result"]["violation"] > 0
    assert "no feasible strategy" in capsys.readouterr().err


def test_chsh_optimize_result_file_reruns_as_its_own_config(tmp_path, capsys):
    # the echoed config carries every OptimizeConfig field, quantum_only included
    first = tmp_path / "first.json"
    rc = cli.main(
        [
            "chsh-optimize",
            "--quantum-only",
            "--restarts", "1",
            "--max-iters", "20",
            "--seed", "2",
            "--json", str(first),
        ]
    )
    assert rc == 0
    second = tmp_path / "second.json"
    assert cli.main(["chsh-optimize", str(first), "--json", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    capsys.readouterr()


def test_chsh_optimize_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for raw in ({"seed": 1, "bogus": 2}, {"seed": 1, "penalty_weight": 1000.0}):
        cfg.write_text(cli.dumps(raw))
        assert cli.main(["chsh-optimize", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


def test_chsh_optimize_rejects_invalid_values(tmp_path, capsys):
    for flags in (["--restarts", "0"], ["--max-iters", "-1", "--restarts", "1"],
                  ["--seed", "-1", "--restarts", "1"]):
        assert cli.main(["chsh-optimize", *flags]) == 2
        assert "seed must be >= 0, restarts >= 1, max_iters >= 0" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    for value in (None, [1], "many"):
        cfg.write_text(cli.dumps({"restarts": value}))
        assert cli.main(["chsh-optimize", str(cfg)]) == 2
    # each value has exactly its default's type, never coerced to it
    for raw in ({"quantum_only": "false"}, {"seed": 2.7}, {"restarts": True},
                {"max_iters": "12"}):
        cfg.write_text(cli.dumps(raw))
        assert cli.main(["chsh-optimize", str(cfg)]) == 2
    capsys.readouterr()


def test_chsh_optimize_small_run_is_reproducible(tmp_path, capsys):
    files = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = cli.main(
            [
                "chsh-optimize",
                "--seed", "11",
                "--restarts", "1",
                "--max-iters", "60",
                "--quantum-only",
                "--json", str(out),
                "--csv", str(tmp_path / (name + ".csv")),
            ]
        )
        assert rc == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    csv_a = (tmp_path / "a.json.csv").read_bytes()
    csv_b = (tmp_path / "b.json.csv").read_bytes()
    assert csv_a == csv_b
    capsys.readouterr()


def test_chsh_optimize_writes_no_negative_zero(tmp_path, capsys):
    # the optimum has a dozen table entries that are exactly 0; each must be
    # written as 0, never as -0
    out = tmp_path / "opt.json"
    argv = ["chsh-optimize", "--seed", "3", "--restarts", "2", "--max-iters", "150"]
    assert cli.main([*argv, "--json", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert 0.0 <= result["kernel_drift"] <= chsh.KERNEL_TOL
    tables = result["tables"]
    entries = [x for table in tables.values() for x in table]
    assert entries.count(0.0) >= 10
    assert not any(x == 0.0 and math.copysign(1.0, x) < 0 for x in entries)
    assert not re.search(r"-0(?![.\deE])", out.read_text())
    capsys.readouterr()


# -- scan --------------------------------------------------------------------------


def test_scan_writes_the_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert cli.main(["scan", "--points", "5", "--csv", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "25 grid points" in stdout
    assert f"wrote {out} (25 rows)" in stdout
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "q", "transition", "in_s1", "in_s2"]
    assert len(rows) == 1 + 25


def test_scan_rejects_a_single_point(capsys):
    assert cli.main(["scan", "--points", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


def test_scan_rejects_non_finite_values(capsys):
    assert cli.main(["scan", "--points", "2", "--extent", "nan"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: --extent must be a finite number" in err
    assert cli.main(["scan", "--points", "2", "--extent", "inf"]) == 2
    assert capsys.readouterr().out == ""
    # "--extent -inf" would read -inf as an option: the value is joined with "="
    assert cli.main(["scan", "--points", "2", "--extent=-inf"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: --extent must be a finite number" in err


def test_scan_grid_does_not_depend_on_the_angles():
    # both states share their angles, so the scan fixes one pair: any other
    # pair moves no grid value by more than rounding
    grid = [-1.0 + 2.0 * k / 8 for k in range(9)]
    want = [transition_real(superqubit(p, cli._SCAN_THETA, cli._SCAN_PHI),
                            superqubit(q, cli._SCAN_THETA, cli._SCAN_PHI))
            for p in grid for q in grid]
    for theta, phi in ((0.0, 0.0), (1.1, -2.3), (-0.3, 3.0)):
        got = [transition_real(superqubit(p, theta, phi), superqubit(q, theta, phi))
               for p in grid for q in grid]
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15


def test_scan_refuses_an_unwritable_csv_path(tmp_path, capsys):
    # the parent is a file: refused before the scan, like every output path
    parent = tmp_path / "file"
    parent.write_text("")
    assert cli.main(["scan", "--points", "5", "--csv", str(parent / "out.csv")]) == 2
    out, err = capsys.readouterr()
    assert "error:" in err
    assert out == ""


def test_scan_exits_1_off_the_closed_form(monkeypatch, capsys):
    # a graded route that drifts from 1 - (p - q)^2 fails the check, and the
    # map is still printed
    exact = cli.transition_real
    monkeypatch.setattr(cli, "transition_real", lambda u, v: exact(u, v) + 1e-9)
    assert cli.main(["scan", "--points", "3"]) == 1
    out = capsys.readouterr().out
    assert "worst deviation from 1 - (p - q)^2: 1.000e-09" in out
    assert out.splitlines()[2:] == [".+.", "+#+", ".+."]


# -- non-finite results ------------------------------------------------------------


def test_state_json_refuses_a_non_finite_result(tmp_path, capsys):
    # 1e200 is a finite input whose probabilities overflow to NaN; JSON
    # cannot hold them, so nothing is printed and no file is written
    out = tmp_path / "state.json"
    assert cli.main(["state", "1e200", "0.3", "0.1", "--json", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", (["state", "1e200", "0.3", "0.1"],
                                  ["transition", "1e200", "0", "0", "0.1", "0", "0"]))
def test_a_non_finite_result_prints_nothing(argv, capsys):
    # the result is checked before any of it is printed, without --json too
    assert cli.main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert "non-finite" in err


def test_chsh_eval_refuses_a_non_finite_result(tmp_path, capsys):
    strat = cli.strategy_to_dict(Strategy.tsirelson())
    strat_file = tmp_path / "big.json"
    strat_file.write_text(json.dumps({**strat, "pA": 1e200}))
    out = tmp_path / "eval.json"
    with np.errstate(all="ignore"):
        assert cli.main(["chsh-eval", str(strat_file), "--json", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert "non-finite" in err
    assert not out.exists()
