import argparse
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import spinmoments
from spinmoments.cli import RunConfig, main


VERIFY_KINDS = ["bell", "ent-hz", "ent-cj", "epr1"]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def test_eval_ghz_bell(capsys):
    rc, out, _ = run_cli(
        capsys,
        "eval", "--j", "1/2", "--n", "3", "--family", "ghz",
        "--theta", "0.7853981634", "--kind", "bell",
    )
    assert rc == 0
    row = parse_csv(out)[0]
    assert float(row["B"]) == pytest.approx(1.41421, abs=1e-5)
    assert row["violated"] == "true"
    assert row["backend"] == "analytic"
    assert row["s_signs"] == "---"


def test_eval_uniform_spin1_not_violated(capsys):
    rc, out, _ = run_cli(
        capsys, "eval", "--j", "1", "--n", "2", "--family", "uniform-max", "--kind", "bell"
    )
    assert rc == 0
    row = parse_csv(out)[0]
    assert float(row["B"]) == pytest.approx(0.94281, abs=1e-5)
    assert row["violated"] == "false"


def test_eval_spin1r_zero_r(capsys):
    rc, out, _ = run_cli(
        capsys, "eval", "--j", "1", "--n", "2", "--family", "spin1r", "--r", "0", "--kind", "bell"
    )
    assert rc == 0
    row = parse_csv(out)[0]
    assert float(row["B"]) == 0.0
    assert row["violated"] == "false"


def test_eval_custom_amplitudes_both_syntaxes(capsys):
    outputs = {
        run_cli(
            capsys, "eval", "--j", "1", "--n", "3", "--family", "custom",
            "--amplitudes", text, "--kind", "ent-cj",
        )
        for text in ("1,0.5,1", "[1, 0.5, 1]", "1, 0.5, 1", " 1 ,0.5, 1 ", "[1,0.5,1.0]", "1e0,5e-1,1")
    }
    ((rc, out, err),) = outputs
    assert (rc, err) == (0, "")
    assert parse_csv(out)[0]["B"] == "1.64770402838"


def test_eval_rejects_nan_amplitudes(capsys):
    rc, _, err = run_cli(
        capsys, "eval", "--j", "1", "--n", "3", "--family", "custom",
        "--amplitudes", "1,nan,1", "--kind", "bell",
    )
    assert rc == 2
    assert "finite" in err


@pytest.mark.parametrize(
    "text", ["1,,2", "[1, 2", "[[1],2]", "abc", "[true,1,1]", '["1","2","3"]', "[]", "1_0,1,1", "1,\u0660.5,1"]
)
def test_bad_amplitudes_name_the_accepted_forms(capsys, text):
    rc, out, err = run_cli(
        capsys, "eval", "--j", "1", "--n", "3", "--family", "custom", "--amplitudes", text, "--kind", "bell"
    )
    message = f"amplitudes must read R,R,... or [R,R,...] with decimal R, got {text!r}"
    assert (rc, out, err) == (2, "", f"spinmoments: {message}\n")


def test_amplitudes_with_a_leading_minus(capsys):
    argv = ["eval", "--j", "1", "--n", "3", "--family", "custom", "--kind", "bell"]
    rc, out, err = run_cli(capsys, *argv, "--amplitudes", "-1,1,1")  # argparse takes -1,1,1 for an option
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: argument --amplitudes: expected one argument")
    spellings = (["--amplitudes=-1,1,1"], ["--amplitudes", "[-1,1,1]"], ["--amplitudes", "[-1, 1, 1]"])
    ((rc, out, err),) = {run_cli(capsys, *argv, *spelling) for spelling in spellings}
    assert (rc, err) == (0, "")
    assert parse_csv(out)[0]["L"] == "0"  # r = (-1, 1, 1): the two ladder terms cancel


@pytest.mark.parametrize(
    "argv, code",
    [(["cj-table", "--max-twice-j", "2"], 0), (["cj-table", "--max-twice-j", "0"], 2)],
    ids=["success", "usage"],
)
def test_console_main_exits_with_main_s_code(capsys, monkeypatch, argv, code):
    # the installed script's entry point reads sys.argv and exits with main's code
    from spinmoments import cli

    monkeypatch.setattr(sys, "argv", ["spinmoments", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == code
    assert capsys.readouterr() == run_cli(capsys, *argv)[1:]


def test_main_reuses_one_parser_with_the_bytes_of_a_fresh_one(capsys):
    from spinmoments import cli

    argvs = [
        ["eval", "--j", "1", "--n", "3", "--family", "custom", "--amplitudes", "1,0.5,1", "--kind", "ent-cj"],
        ["scan", "--axis", "n", "--j", "1", "--n", "2..4", "--family", "bosonic", "--kinds", "bell,epr1"],
        ["eval", "--j", "1", "--n", "3", "--family", "bosonic", "--kind", "bell", "--bogus"],  # argparse: exit 2
        ["scan", "--axis", "d", "--d", "2..3", "--n", "3", "--optimized", "--kinds", "bell", "--format", "json"],
        ["min-sites", "--kind", "bell", "--max-d", "3", "--n-max", "6"],
        ["cj-table", "--max-twice-j", "3"],
        ["eval", "--j", "1", "--n", "3", "--family", "ghz", "--kind", "bell"],  # a config error: exit 2
        ["eval", "--j", "1", "--n", "3", "--family", "custom", "--amplitudes", "1,0.5,1", "--kind", "ent-cj"],
    ]
    cli.build_parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 0, 2, 0, 0, 0, 2, 0]
    assert shared[0] == shared[-1]


def test_csv_and_json_carry_identical_values(capsys):
    argv = ["eval", "--j", "1/2", "--n", "4", "--family", "ghz", "--theta", "0.6", "--kind", "epr1"]
    rc, out_csv, _ = run_cli(capsys, *argv)
    rc2, out_json, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == rc2 == 0
    row_csv = parse_csv(out_csv)[0]
    doc = json.loads(out_json)
    row_json = doc["rows"][0]
    assert doc["tool_version"]
    for key in ("L", "R", "B"):
        assert float(row_csv[key]) == row_json[key]
    assert (row_csv["violated"] == "true") == row_json["violated"]


def test_output_bytes_deterministic(capsys, tmp_path):
    argv = [
        "scan", "--axis", "n", "--j", "1", "--family", "bosonic",
        "--kinds", "bell,epr1,ent-cj", "--n", "2..6", "--format", "json",
    ]
    rc, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc == rc2 == 0
    assert out1 == out2
    path = tmp_path / "scan.json"
    rc3 = main(argv + ["--output", str(path)])
    capsys.readouterr()
    assert rc3 == 0
    written = json.loads(path.read_text())
    doc = json.loads(out1)
    assert written["rows"] == doc["rows"]  # config differs only in the output path
    assert written["config"]["output"] == str(path)


def test_scan_ghz_geometric_columns(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--axis", "n", "--j", "1/2", "--family", "ghz",
        "--theta", str(math.pi / 4), "--kinds", "bell,epr1,ent-cj", "--n", "2..10",
    )
    assert rc == 0
    rows = parse_csv(out)
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row["kind"], []).append(float(row["B"]))
    for kind, ratio in (("bell", 2**0.5), ("epr1", 2**0.5), ("ent-cj", 2.0)):
        series = by_kind[kind]
        for b1, b2 in zip(series, series[1:]):
            assert b2 / b1 == pytest.approx(ratio, rel=1e-10)
    # r_vector column is the quoted comma-joined pair
    assert out.splitlines()[1].count('"') == 2


def test_scan_family_r_vector_is_finite_unit_norm(capsys):
    # raw bosonic amplitudes at 2J = 9 overflow past N ~ 150
    rc, out, _ = run_cli(
        capsys, "scan", "--axis", "n", "--twice-j", "9", "--family", "bosonic",
        "--kinds", "bell", "--n", "150..151",
    )
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    for row in rows:
        r = [float(v) for v in row["r_vector"].split(",")]
        assert len(r) == 10
        assert all(math.isfinite(v) and v >= 0 for v in r)
        assert sum(v * v for v in r) == pytest.approx(1.0, abs=1e-10)


def test_scan_axis_d(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--axis", "d", "--d", "2..4", "--n", "3",
        "--family", "uniform-max", "--kinds", "bell",
    )
    assert rc == 0
    rows = parse_csv(out)
    assert [int(r["twice_j"]) for r in rows] == [1, 2, 3]
    assert all(r["n"] == "3" for r in rows)


def test_scan_optimized_keeps_an_amplitude_the_printed_r_rounds_to_zero(capsys):
    # spin 1, N = 3000: the optimal r_0 is below 1e-308 of r_+-1, so r_vector
    # prints 0 for it, yet B is that of the witness with r_0 kept
    rc, out, _ = run_cli(
        capsys, "scan", "--axis", "n", "--j", "1", "--n", "3000", "--optimized",
        "--kinds", "bell,epr1,ent-cj",
    )
    assert rc == 0
    rows = parse_csv(out)
    assert [(r["kind"], r["B"], r["violated"]) for r in rows] == [
        ("bell", "1.41421356237", "true"),
        ("epr1", "1.6", "true"),
        ("ent-cj", "9.2356926036e+160", "true"),
    ]
    assert {r["r_vector"] for r in rows} == {"0.707106781187,0,0.707106781187"}


def test_scan_axis_d_needs_a_single_n(capsys):
    rc, out, err = run_cli(
        capsys, "scan", "--axis", "d", "--d", "2..4", "--n", "3..4",
        "--family", "uniform-max", "--kinds", "bell",
    )
    assert rc == 2
    assert out == ""
    assert "single fixed --n" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("eval", "--j", "1", "--n", "2", "--family", "uniform-max", "--kind", "bell", "--theta", "0.3",
          "--format", "json"), "family uniform-max reads no --theta"),
        (("eval", "--j", "1/2", "--n", "2", "--family", "ghz", "--theta", "0.3", "--kind", "bell", "--r", "1"),
         "family ghz reads no --r"),
        (("eval", "--j", "1", "--n", "2", "--family", "spin1r", "--r", "1", "--kind", "bell",
          "--amplitudes", "1,1,1"), "family spin1r reads no --amplitudes"),
        (("scan", "--axis", "d", "--d", "2..3", "--n", "3", "--optimized", "--kinds", "bell", "--theta", "0.3"),
         "scan --optimized reads no --theta"),
        (("scan", "--axis", "n", "--j", "1", "--n", "2..3", "--family", "uniform-max", "--kinds", "bell",
          "--d", "2..3"), "scan --axis n reads no --d"),
        (("scan", "--axis", "d", "--j", "1", "--d", "2..3", "--n", "3", "--family", "uniform-max",
          "--kinds", "bell"), "scan --axis d reads no --j or --twice-j: each d sets the spin"),
        (("scan", "--axis", "d", "--twice-j", "2", "--d", "2..3", "--n", "3", "--family", "uniform-max",
          "--kinds", "bell"), "scan --axis d reads no --j or --twice-j: each d sets the spin"),
        # the other direction: a family without its parameter's option, and the other usage messages
        (("eval", "--j", "1/2", "--n", "2", "--family", "ghz", "--kind", "bell"), "family ghz needs --theta"),
        (("scan", "--axis", "n", "--j", "1", "--n", "2..3", "--family", "spin1r", "--kinds", "bell"),
         "family spin1r needs --r"),
        (("eval", "--j", "1", "--n", "2", "--family", "custom", "--kind", "bell"), "family custom needs --amplitudes"),
        (("scan", "--axis", "n", "--j", "1", "--family", "uniform-max", "--kinds", "bell"),
         "scan --axis n needs --n with a range"),
        (("scan", "--axis", "d", "--d", "2..3", "--family", "uniform-max", "--kinds", "bell"),
         "scan --axis d needs --d with a range and a fixed --n"),
        (("scan", "--axis", "d", "--d", "1..3", "--n", "3", "--family", "uniform-max", "--kinds", "bell"),
         "dimensions must be >= 2"),
        (("scan", "--axis", "n", "--j", "1", "--n", "2..3", "--family", "uniform-max", "--optimized",
          "--kinds", "bell"), "give exactly one of --family and --optimized"),
        (("min-sites", "--kind", "bell", "--max-d", "1", "--n-max", "3"), "--max-d must be >= 2"),
        # eprT's T is ASCII digits, as every numeric option's token is
        (("eval", "--j", "1", "--n", "3", "--family", "uniform-max", "--kind", "epr\u0661"),
         "unknown criterion kind 'epr\u0661'; expected bell, ent-hz, ent-cj, eprT or eprT-hz"),
        (("scan", "--axis", "n", "--j", "1", "--n", "3", "--family", "uniform-max", "--kinds", "bell,EPR\uff11"),
         "unknown criterion kind 'epr\uff11'; expected bell, ent-hz, ent-cj, eprT or eprT-hz"),
    ],
    ids=["eval-theta", "eval-r", "eval-amplitudes", "scan-optimized", "scan-n-d", "scan-d-j", "scan-d-twice-j",
         "needs-theta", "needs-r", "needs-amplitudes", "scan-n-no-n", "scan-d-no-n", "scan-d-below-2",
         "scan-family-and-optimized", "min-sites-max-d-1", "eval-kind-arabic-indic", "scan-kinds-fullwidth"],
)
def test_an_option_no_computation_reads_exits_2(capsys, argv, message):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"spinmoments: {message}\n"


def test_min_sites_small(capsys):
    rc, out, _ = run_cli(
        capsys, "min-sites", "--kind", "bell", "--max-d", "3", "--n-max", "6"
    )
    assert rc == 0
    rows = parse_csv(out)
    assert [r["d"] for r in rows] == ["2", "3"]
    assert [r["min_n"] for r in rows] == ["3", "3"]
    assert all(float(r["b_at_min_n"]) > 1 for r in rows)


def test_min_sites_not_found_is_blank(capsys):
    rc, out, _ = run_cli(
        capsys, "min-sites", "--kind", "bell", "--max-d", "4", "--n-max", "3"
    )
    assert rc == 0
    rows = parse_csv(out)
    assert rows[-1]["d"] == "4"
    assert rows[-1]["min_n"] == ""


@pytest.mark.parametrize("kind", ["epr3", "epr3-hz"])
def test_min_sites_of_a_steering_kind_starts_at_t(capsys, kind):
    rc, out, _ = run_cli(capsys, "min-sites", "--kind", kind, "--max-d", "3", "--n-max", "10")
    assert rc == 0
    assert [r["min_n"] for r in parse_csv(out)] == ["3", "3"]
    rc, out, err = run_cli(capsys, "min-sites", "--kind", kind, "--max-d", "3", "--n-max", "2")
    assert (rc, out) == (2, "")
    assert err == "spinmoments: n_max must be >= T = 3, the kind's quantum sites\n"


def test_min_sites_output_ignores_seed(capsys):
    argv = ("min-sites", "--kind", "bell", "--max-d", "4", "--n-max", "30")
    outputs = [run_cli(capsys, *argv, *seed)[1] for seed in ((), ("--seed", "0"), ("--seed", "7"))]
    assert outputs[0] == outputs[1] == outputs[2]
    assert [r["min_n"] for r in parse_csv(outputs[0])] == ["3", "3", "8"]


def test_cj_table(capsys):
    rc, out, _ = run_cli(capsys, "cj-table", "--max-twice-j", "8")
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 8
    assert [r["source"] for r in rows] == ["tabulated"] * 2 + ["computed"] * 6
    values = {int(r["twice_j"]): float(r["c_j"]) for r in rows}
    assert values[1] == 0.25
    assert values[2] == 0.4375
    assert values[4] == pytest.approx(0.7496, abs=5e-5)
    assert values[8] == pytest.approx(1.26, abs=5e-3)


def test_verify_ok_and_corrupted(capsys):
    rc, out, err = run_cli(capsys, "verify", "--max-twice-j", "2", "--max-size", "2048")
    assert rc == 0
    assert "max relative discrepancy" in err
    rows = parse_csv(out)
    assert all(float(r["rel_discrepancy"]) <= 1e-9 for r in rows)

    rc, out, _ = run_cli(
        capsys, "verify", "--max-twice-j", "2", "--max-size", "2048", "--corrupt-cj", "0.05"
    )
    assert rc == 1
    rows = parse_csv(out)
    assert any(float(r["rel_discrepancy"]) > 1e-9 for r in rows)


def test_verify_names_its_worst_point(capsys):
    # stderr names the (family with its parameters, 2J, N, kind) of exactly one row,
    # and that row has the largest rel_discrepancy; the grid runs by family, then
    # by spin, then by N, with d^N <= 64
    from spinmoments.states import Bosonic, GeneralizedGHZ, SpinOneR, UniformMax, family_label

    spans = [(UniformMax(), 1, 6), (UniformMax(), 2, 3), (Bosonic(), 1, 6), (Bosonic(), 2, 3)]
    spans += [(GeneralizedGHZ(math.pi / 4), 1, 6), (GeneralizedGHZ(0.7), 1, 6)]
    spans += [(SpinOneR(r), 2, 3) for r in (0.5, 1.0, 2.0)]
    grid = [(family, tj, n, kind) for family, tj, n_max in spans for n in range(2, n_max + 1) for kind in VERIFY_KINDS]
    for corrupt, want_rc in (("0", 0), ("0.05", 1)):
        argv = ["verify", "--max-twice-j", "2", "--max-size", "64", "--corrupt-cj", corrupt]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == want_rc
        rows = parse_csv(out)
        worst = max(float(r["rel_discrepancy"]) for r in rows)
        match = re.fullmatch(
            r"verify: (\d+) points, max relative discrepancy (\S+) at family (\S+)"
            r"(?: (\w+)=(\S+))?, 2J = (\d+), N = (\d+), kind (\S+)\n",
            err,
        )
        assert match, err
        assert int(match[1]) == len(rows)
        assert float(match[2]) == pytest.approx(worst, rel=1e-3)
        label, param, value, twice_j, n, kind = match.groups()[2:]
        assert [(r["family"], int(r["twice_j"]), int(r["n"]), r["kind"]) for r in rows] == [
            (family_label(family), *point) for family, *point in grid
        ]
        named = [
            row
            for row, (family, *_) in zip(rows, grid)
            if (row["family"], row["twice_j"], row["n"], row["kind"]) == (label, twice_j, n, kind)
            and (param is None) == (not vars(family))
            and (param is None or float(value) == pytest.approx(getattr(family, param), rel=1e-11))
        ]
        assert len(named) == 1, (err, named)
        assert float(named[0]["rel_discrepancy"]) == worst
    assert label == "ghz" and param == "theta"  # the corrupted worst point is a parameterised one
    assert kind in ("ent-cj", "epr1")  # a corrupted C_J moves only the C_J kinds


def test_scan_optimized_scores_each_row_once(capsys, monkeypatch):
    from spinmoments import analytic, criteria, kinds, optimizer
    from spinmoments.cli import render
    from spinmoments.spin_algebra import SpinQuantum

    argv = ["scan", "--axis", "d", "--d", "2..9", "--n", "10", "--optimized",
            "--kinds", "bell,epr1,ent-cj,ent-hz,epr2-hz"]
    original = analytic.log_lhs_rhs
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analytic, "log_lhs_rhs", counting)
    rc, out, _ = run_cli(capsys, *argv)
    monkeypatch.undo()
    assert rc == 0
    assert len(parse_csv(out)) == len(calls) == 40

    # the bytes are those of rows scored by criteria.evaluate on the report's state,
    # each row's keys in column order
    rows = []
    for d in range(2, 10):
        for token in argv[-1].split(","):
            kind = kinds.parse_kind(token)
            report = optimizer.optimize_amplitudes(SpinQuantum(d - 1), 10, kind)
            res = criteria.evaluate(report.best_state(), kind)
            rows.append({
                "twice_j": d - 1, "n": 10, "t": kinds.quantum_sites(kind, 10),
                "family": "optimized", "kind": token,
                "L": res.lhs, "R": res.rhs, "B": res.b, "violated": res.violated,
                "r_vector": tuple(float(v) for v in report.best_r),
            })
    assert out == render(RunConfig("scan"), rows)


@pytest.mark.parametrize(
    "spin, family, n_range, kind_tokens",
    [
        (("--twice-j", "3"), ("--family", "bosonic"), "2..12", "bell,epr1,ent-cj,ent-hz,epr2-hz"),
        (("--j", "1/2"), ("--family", "ghz", "--theta", "0.7"), "2..12", "bell,ent-hz,ent-cj,epr1,epr1-hz"),
    ],
)
def test_scan_family_rows_equal_state_by_state_evaluation(capsys, spin, family, n_range, kind_tokens):
    from spinmoments import criteria, kinds
    from spinmoments.cli import render
    from spinmoments.spin_algebra import SpinQuantum
    from spinmoments.states import Bosonic, GeneralizedGHZ, family_label, make_state

    rc, out, _ = run_cli(capsys, "scan", "--axis", "n", *spin, *family, "--n", n_range, "--kinds", kind_tokens)
    assert rc == 0
    j = SpinQuantum(int(spin[1]) if spin[0] == "--twice-j" else 1)
    source = Bosonic() if family[1] == "bosonic" else GeneralizedGHZ(float(family[3]))
    lo, _, hi = n_range.partition("..")
    rows = []
    for n in range(int(lo), int(hi) + 1):
        for token in kind_tokens.split(","):
            kind, state = kinds.parse_kind(token), make_state(source, j, n)
            res = criteria.evaluate(state, kind)
            rows.append({
                "twice_j": j.twice_j, "n": n, "t": kinds.quantum_sites(kind, n),
                "family": family_label(source), "kind": token,
                "L": res.lhs, "R": res.rhs, "B": res.b, "violated": res.violated,
                "r_vector": tuple(float(v) for v in state.unit_amplitudes),
            })
    assert out == render(RunConfig("scan"), rows)


def test_scan_family_builds_each_state_once_and_scores_each_spin_once(capsys, monkeypatch):
    # one make_states call per 2J builds every N's state at that spin, and one
    # array pass per 2J (one ladder weight array, then one bound weight array per
    # kind) scores every kind of every N there
    from spinmoments import analytic, optimizer

    calls = dict.fromkeys(["make_states", "log_ladder_weights", "log_bound_weights"], 0)

    def spy(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    spy(optimizer, "make_states")
    spy(analytic, "log_ladder_weights")
    spy(analytic, "log_bound_weights")
    rc, out, _ = run_cli(
        capsys, "scan", "--axis", "n", "--twice-j", "9", "--family", "bosonic",
        "--kinds", "bell,epr1,ent-cj,ent-hz", "--n", "2..200",
    )
    assert rc == 0
    assert len(parse_csv(out)) == 796
    assert calls == {"make_states": 1, "log_ladder_weights": 1, "log_bound_weights": 4}
    calls.update(make_states=0, log_ladder_weights=0, log_bound_weights=0)
    rc, out, _ = run_cli(
        capsys, "scan", "--axis", "d", "--d", "2..9", "--n", "4", "--family", "uniform-max",
        "--kinds", "bell,epr1,epr2,ent-cj,ent-hz,epr2-hz",
    )
    assert rc == 0
    assert len(parse_csv(out)) == 48
    assert calls == {"make_states": 8, "log_ladder_weights": 8, "log_bound_weights": 48}


def test_scan_curve_rows_follow_point_order():
    # a spin may repeat out of order among the points: each point's rows keep
    # its place and carry its own closed forms, bit for bit
    from spinmoments import analytic, criteria
    from spinmoments.kinds import Bell, Steering
    from spinmoments.optimizer import scan_curve
    from spinmoments.spin_algebra import SpinQuantum
    from spinmoments.states import UniformMax, make_state

    points, kind_list = [(2, 3), (4, 3), (2, 4)], [Bell(), Steering(1)]
    rows = scan_curve(kind_list, UniformMax(), points)
    assert [(row["twice_j"], row["n"]) for row in rows] == [p for p in points for _ in kind_list]
    for row, ((tj, n), kind) in zip(rows, [(p, k) for p in points for k in kind_list]):
        log_l, log_r = analytic.log_lhs_rhs(make_state(UniformMax(), SpinQuantum(tj), n), kind)
        assert row["L"] == analytic.exp_or_inf(log_l) and row["R"] == analytic.exp_or_inf(log_r)
        assert row["B"] == analytic.b_from_logs(log_l, log_r)
        assert row["violated"] == criteria.violated(log_l, log_r)


def test_scan_reports_the_first_bad_row(capsys):
    rc, out, err = run_cli(
        capsys, "scan", "--axis", "n", "--twice-j", "2", "--family", "uniform-max",
        "--kinds", "epr1,epr3", "--n", "2..5",
    )
    assert rc == 2
    assert out == ""
    assert err == "spinmoments: t_sites = 3 exceeds n_sites = 2\n"


def test_verify_scores_each_spin_once(capsys, monkeypatch):
    # one array pass per 2J: one ladder weight array over all its N, then one
    # bound weight array per kind over the same N, in row order
    from spinmoments import analytic, kinds

    passes = []
    ladder, bound = analytic.log_ladder_weights, analytic.log_bound_weights

    def counting_ladder(j, n_sites):
        passes.append((j.twice_j, n_sites.tolist(), []))
        return ladder(j, n_sites)

    def counting_bound(j, n_sites, kind, **kwargs):
        assert (j.twice_j, n_sites.tolist()) == passes[-1][:2]
        passes[-1][2].append(kinds.kind_token(kind))
        return bound(j, n_sites, kind, **kwargs)

    monkeypatch.setattr(analytic, "log_ladder_weights", counting_ladder)
    monkeypatch.setattr(analytic, "log_bound_weights", counting_bound)
    rc, out, _ = run_cli(capsys, "verify", "--max-twice-j", "2", "--max-size", "64")
    assert rc == 0
    # every family at 2J = 1 (uniform-max, bosonic, two ghz: N = 2..6 each) in one
    # pass; at 2J = 2 (uniform-max, bosonic, three spin1r: N = 2, 3 each) in another
    assert [(tj, n_sites) for tj, n_sites, _ in passes] == [(1, [2, 3, 4, 5, 6] * 4), (2, [2, 3] * 5)]
    assert [tokens for _, _, tokens in passes] == [VERIFY_KINDS] * 2
    assert sum(len(n_sites) for _, n_sites, _ in passes) * 4 == len(parse_csv(out)) == 120


def test_verify_makes_one_ladder_and_one_bound_call_per_state(capsys, monkeypatch):
    # one expect_product (the canonical ladder moment) and one bound_rows (all four
    # kinds) per state, and each b_oracle cell is the state's moments through the
    # public one-state oracle calls, formatted as the CSV formats it
    from spinmoments import cli, kinds, oracle
    from spinmoments.spin_algebra import SpinQuantum
    from spinmoments.states import Bosonic, GeneralizedGHZ, SpinOneR, UniformMax, make_state

    seen = {"expect_product": [], "bound_rows": []}

    def spy(name):
        original = getattr(oracle, name)

        def call(*args, **kwargs):
            seen[name].append(args)
            return original(*args, **kwargs)

        return call

    for name in seen:
        monkeypatch.setattr(oracle, name, spy(name))
    rc, out, _ = run_cli(capsys, "verify", "--max-twice-j", "2", "--max-size", "64")
    assert rc == 0
    assert {name: len(calls) for name, calls in seen.items()} == {"expect_product": 30, "bound_rows": 30}
    assert not hasattr(oracle, "bound_expectation") and not hasattr(oracle, "bound_table")
    assert all(len(args[1]) == len(VERIFY_KINDS) for args in seen["bound_rows"])
    families = [
        (UniformMax(), (1, 2)), (Bosonic(), (1, 2)), (GeneralizedGHZ(math.pi / 4), (1,)),
        (GeneralizedGHZ(0.7), (1,)), (SpinOneR(0.5), (2,)), (SpinOneR(1.0), (2,)), (SpinOneR(2.0), (2,)),
    ]
    last_n = {1: 6, 2: 3}  # d^N <= 64
    states = [
        make_state(family, SpinQuantum(tj), n)
        for family, tjs in families for tj in tjs for n in range(2, last_n[tj] + 1)
    ]
    rows = parse_csv(out)
    assert len(states) == 30 and len(rows) == 4 * len(states)
    for row, (state, token) in zip(rows, ((state, token) for state in states for token in VERIFY_KINDS)):
        assert (row["twice_j"], row["n"], row["kind"]) == (str(state.j.twice_j), str(state.n_sites), token)
        signs, _ = kinds.canonical_signs(kinds.Bell(), state.n_sites)
        lhs = oracle.lhs_moment(state, signs)
        rhs = oracle.rhs_moment(state, kinds.parse_kind(token))
        assert row["b_oracle"] == cli._fmt_value(oracle.b_from_moments(lhs, rhs))


def test_verify_builds_no_spin_beyond_max_size(capsys, monkeypatch):
    # a spin with d^2 > --max-size has no grid point, so --max-twice-j past it builds nothing more
    from spinmoments import cli

    calls, runs = [], []
    original = cli.make_states

    def spy(family, j, n_list):
        calls[-1].append((family, j.twice_j, list(n_list)))
        return original(family, j, n_list)

    monkeypatch.setattr(cli, "make_states", spy)
    for top in ("3", "6000"):
        calls.append([])
        runs.append(run_cli(capsys, "verify", "--max-twice-j", top, "--max-size", "16"))
    assert runs[0][0] == 0 and runs[1] == runs[0]
    assert calls[1] == calls[0]
    assert max(tj for _, tj, _ in calls[0]) == 3  # d = 4, N = 2: d^2 = 16


def test_verify_reports_a_cj_above_the_floor_at_the_first_point(capsys):
    rc, out, err = run_cli(capsys, "verify", "--max-twice-j", "4", "--corrupt-cj", "10")
    assert rc == 2
    assert out == ""
    assert err == (
        "spinmoments: C_J = 10.25 is not below the Jx^2 + Jy^2 spectrum floor 0.5 for twice_j = 1\n"
    )


def test_verify_refuses_a_nan_cj(capsys):
    rc, out, err = run_cli(capsys, "verify", "--max-twice-j", "2", "--max-size", "8", "--corrupt-cj", "nan")
    assert (rc, out) == (2, "")
    assert err == "spinmoments: C_J = nan is not below the Jx^2 + Jy^2 spectrum floor 0.5 for twice_j = 1\n"


def test_verify_prints_every_point_within_the_oracles_limits(capsys):
    # --max-size 10^20 reaches 2^66 and 3^41, past the oracle's int64 index
    # range of 2^62: the 26 states beyond it (2J = 1, N = 63..66, in four
    # families; 2J = 2, N = 40 and 41, in five) are counted and the first is
    # named on one stderr line, after every other point's row, with exit 3
    argv = ("verify", "--max-twice-j", "2", "--max-size", str(10**20))
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 3
    last = {}
    for row in parse_csv(out):
        last[row["family"], row["twice_j"]] = int(row["n"])
    assert last == {
        ("uniform-max", "1"): 62, ("uniform-max", "2"): 39, ("bosonic", "1"): 62, ("bosonic", "2"): 39,
        ("ghz", "1"): 62, ("spin1r", "2"): 39,
    }
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("verify: 1736 points, max relative discrepancy ")
    assert lines[1] == (
        "verify: skipped 26 states beyond the oracle, the first at family uniform-max, 2J = 1, N = 63"
        f" (d^N = 2^63 exceeds the oracle's int64 index range of 2^62 = {2**62})"
    )
    # the printed points are exactly the grid's up to 2^62, byte for byte
    assert run_cli(capsys, "verify", "--max-twice-j", "2", "--max-size", str(2**62)) == (0, out, lines[0] + "\n")
    # a disagreeing point still exits 1, with the same skip line
    rc, _, err = run_cli(capsys, *argv, "--corrupt-cj", "0.05")
    assert rc == 1 and err.splitlines()[1] == lines[1]


def test_verify_empty_grid(capsys):
    rc, _, err = run_cli(capsys, "verify", "--max-size", "3")
    assert rc == 2
    assert "empty grid" in err


@pytest.mark.parametrize("command", ["verify", "cj-table"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_twice_j_below_one_exits_2(capsys, command, value):
    # refused as a setting of its own, not as an empty --max-size grid
    rc, out, err = run_cli(capsys, command, "--max-twice-j", value)
    assert (rc, out) == (2, "")
    assert err == "spinmoments: --max-twice-j must be >= 1\n"


@pytest.mark.parametrize("tokens", [",", " , ,", ""])
def test_scan_without_a_kind_exits_2(capsys, tokens):
    for source in (["--optimized"], ["--family", "uniform-max"]):
        rc, out, err = run_cli(capsys, "scan", "--axis", "n", "--j", "1", "--n", "2..3", *source, "--kinds", tokens)
        assert (rc, out) == (2, "")
        assert err == "spinmoments: --kinds must name at least one kind\n"


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "eval", "--j", "1/2", "--n", "3", "--family", "ghz",
                   "--theta", "0.5", "--kind", "weird")[0] == 2
    assert run_cli(capsys, "eval", "--n", "3", "--family", "bosonic", "--kind", "bell")[0] == 2
    assert run_cli(capsys, "eval", "--j", "1/3", "--n", "3", "--family", "bosonic",
                   "--kind", "bell")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    # family/spin mismatch is also a config error
    assert run_cli(capsys, "eval", "--j", "1", "--n", "3", "--family", "ghz",
                   "--theta", "0.5", "--kind", "bell")[0] == 2


@pytest.mark.parametrize(
    "spin,n_range,message",
    [
        ("1.5", "2..5", "spin must be an integer or a half like 3/2, got '1.5'"),
        ("3/4", "2..5", "spin must be an integer or a half like 3/2, got '3/4'"),
        ("x/2", "2..5", "spin must be an integer or a half like 3/2, got 'x/2'"),
        ("1", "2..", "a range must read N or LO..HI, got '2..'"),
        ("1", "two", "a range must read N or LO..HI, got 'two'"),
        ("1", "5..2", "empty range '5..2'"),
        # int() would read a '_' separator and non-ASCII digits: the token rule refuses them
        ("1_0", "2..5", "spin must be an integer or a half like 3/2, got '1_0'"),
        ("\uff13/2", "2..5", "spin must be an integer or a half like 3/2, got '\uff13/2'"),
        ("1", "1_0", "a range must read N or LO..HI, got '1_0'"),
        ("1", "2..\u0663", "a range must read N or LO..HI, got '2..\u0663'"),
    ],
)
def test_spin_and_range_usage_messages_name_the_option(capsys, spin, n_range, message):
    rc, out, err = run_cli(
        capsys, "scan", "--axis", "n", "--j", spin, "--n", n_range, "--family", "uniform-max", "--kinds", "bell"
    )
    assert (rc, out, err) == (2, "", f"spinmoments: {message}\n")


@pytest.mark.parametrize(
    "argv, option, token, plain",
    [
        (("eval", "--j", "1", "--n", "1_0", "--family", "uniform-max", "--kind", "bell"), "--n", "1_0", "10"),
        (("eval", "--j", "1", "--n", "\uff13", "--family", "uniform-max", "--kind", "bell"), "--n", "\uff13", "3"),
        (("eval", "--twice-j", "1_0", "--n", "3", "--family", "uniform-max", "--kind", "bell"),
         "--twice-j", "1_0", "10"),
        (("eval", "--j", "1", "--n", "3", "--family", "spin1r", "--r", "1_0", "--kind", "bell"), "--r", "1_0", "10"),
        (("eval", "--j", "1/2", "--n", "3", "--family", "ghz", "--theta", "0_7", "--kind", "bell"),
         "--theta", "0_7", "07"),
        (("min-sites", "--kind", "bell", "--max-d", "0_3", "--n-max", "5"), "--max-d", "0_3", "03"),
        (("min-sites", "--kind", "bell", "--max-d", "3", "--n-max", "1_0"), "--n-max", "1_0", "10"),
        (("verify", "--max-twice-j", "\u0663"), "--max-twice-j", "\u0663", "3"),
        (("verify", "--max-size", "6_4"), "--max-size", "6_4", "64"),
        (("verify", "--corrupt-cj", "0_1"), "--corrupt-cj", "0_1", "01"),
        (("cj-table", "--max-twice-j", "1_0"), "--max-twice-j", "1_0", "10"),
        (("cj-table", "--max-twice-j", "2", "--seed", "1_0"), "--seed", "1_0", "10"),
    ],
    ids=["eval-n", "eval-n-fullwidth", "twice-j", "r", "theta", "max-d", "n-max", "max-twice-j-arabic-indic",
         "max-size", "corrupt-cj", "cj-table", "seed"],
)
def test_a_numeric_token_with_a_separator_or_non_ascii_exits_2(capsys, argv, option, token, plain):
    # argparse's own message for a bad token; the plain spelling parses
    from spinmoments import cli

    rc, out, err = run_cli(capsys, *argv)
    convert = "float" if option in ("--r", "--theta", "--corrupt-cj") else "int"
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == f"spinmoments {argv[0]}: error: argument {option}: invalid {convert} value: {token!r}"
    cli.config_from_args(cli.build_parser().parse_args([plain if a == token else a for a in argv]))


def test_spin_and_range_parse_every_accepted_spelling():
    from spinmoments.cli import _parse_range, _parse_spin

    assert [_parse_spin(text, None) for text in ("1", "3/2", " 3 / 2 ", "-1/2", "+2")] == [2, 3, 3, -1, 4]
    assert _parse_spin(None, 5) == 5
    assert _parse_range("3") == [3] and _parse_range("2..5") == [2, 3, 4, 5] and _parse_range(" 2 .. 3") == [2, 3]


def test_oracle_runs_beyond_d_1024(capsys):
    # d is not an oracle limit: 2J = 1024 prints the closed form's B
    rc, out, err = run_cli(
        capsys, "eval", "--twice-j", "1024", "--n", "2", "--family", "uniform-max",
        "--kind", "bell", "--backend", "oracle",
    )
    assert (rc, err) == (0, "")
    assert parse_csv(out)[0]["B"] == "0.912871146396"


def test_infeasible_oracle_exits_3(capsys):
    rc, out, err = run_cli(
        capsys, "eval", "--j", "1/2", "--n", "17", "--family", "ghz", "--theta", "0.5",
        "--kind", "bell", "--strategy", "exhaustive",
    )
    assert (rc, out) == (3, "")
    assert err == "spinmoments: exhaustive sign search is capped at N <= 16 sites, got N = 17\n"


@pytest.mark.parametrize(
    "theta, csv_row, b_json",
    [
        ("0", "1,3,ghz,ent-hz,3,0,0,,false,---,+--,analytic", None),
        ("0.785", "1,3,ghz,ent-hz,3,0.249999841466,0,inf,true,---,+--,analytic", "inf"),
    ],
    ids=["L=R=0", "R=0<L"],
)
def test_undefined_and_infinite_b_cells(capsys, theta, csv_row, b_json):
    # spin-1/2 ent-hz has R = 0: B is undefined (nan) at L = 0 and infinite at L > 0
    argv = ("eval", "--j", "1/2", "--n", "3", "--family", "ghz", "--theta", theta, "--kind", "ent-hz")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out.splitlines()[1] == csv_row
    rc, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (rc, err) == (0, "")
    (row,) = json.loads(out)["rows"]
    assert row["B"] == b_json and row["R"] == 0.0
    assert f'"B": {json.dumps(b_json)},' in out


@pytest.mark.parametrize(
    "j,n,size",
    [("1", 40, f"3^40 = {3**40}"), ("1", 10_000, "3^10000"), ("1", 1_000_000, "3^1000000"), ("1/2", 63, "2^63")],
    ids=["40", "10000", "1000000", "qubit-63"],
)
def test_oracle_refuses_beyond_the_int64_index_range(capsys, j, n, size):
    # 3^40 > 2^63: flat int64 indices would wrap, so the oracle refuses it
    # (exit 3) rather than print a wrapped-index B.  Beyond N = 62, d^N is
    # named as a power and never computed, so N = 10^6 exits as fast.
    rc, out, err = run_cli(
        capsys, "eval", "--j", j, "--n", str(n), "--family", "uniform-max",
        "--kind", "bell", "--backend", "oracle",
    )
    assert (rc, out) == (3, "")
    assert err == f"spinmoments: d^N = {size} exceeds the oracle's int64 index range of 2^62 = {2**62}\n"


def test_exhaustive_search_runs_beyond_a_dense_vector(capsys):
    # at 3^16 > 2^20 amplitudes the search finds the analytic L
    rows = []
    for strategy in ("exhaustive", "canonical"):
        rc, out, _ = run_cli(
            capsys, "eval", "--j", "1", "--n", "16", "--family", "uniform-max",
            "--kind", "ent-hz", "--strategy", strategy, "--format", "json",
        )
        assert rc == 0
        rows.append(json.loads(out)["rows"][0])
    assert rows[0]["backend"] == "oracle" and rows[1]["backend"] == "analytic"
    assert rows[0]["L"] == pytest.approx(rows[1]["L"], rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        # 2J = 2, N = 30: 3^30 amplitudes (3.3 PB as a dense vector), 3 nonzero
        ("--j", "1", "--n", "30", "--family", "uniform-max", "--kind", "bell"),
        ("--j", "1", "--n", "30", "--family", "uniform-max", "--kind", "ent-cj"),
        # qubit GHZ states: 2 of 2^N amplitudes nonzero; 2^62 fills the int64 index range
        ("--j", "1/2", "--n", "25", "--family", "ghz", "--theta", "0.5", "--kind", "bell"),
        ("--j", "1/2", "--n", "62", "--family", "ghz", "--theta", "0.5", "--kind", "ent-cj"),
    ],
    ids=["bell", "ent-cj", "ghz-n25-bell", "ghz-n62-ent-cj"],
)
def test_oracle_runs_far_beyond_a_dense_vector(capsys, argv):
    # the oracle prints the analytic backend's digits
    rows = []
    for backend in ("oracle", "analytic"):
        rc, out, _ = run_cli(capsys, "eval", *argv, "--backend", backend)
        assert rc == 0
        rows.append(parse_csv(out)[0])
    assert rows[0].pop("backend") == "oracle" and rows[1].pop("backend") == "analytic"
    assert rows[0] == rows[1]


@pytest.mark.parametrize("error", [RuntimeError("optimiser diverged"), ZeroDivisionError("0/0")])
def test_internal_error_exits_4(capsys, monkeypatch, error):
    from spinmoments import cli

    def fail(cfg):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "cj-table", fail)
    rc, out, err = run_cli(capsys, "cj-table", "--max-twice-j", "2")
    assert rc == 4
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"spinmoments: internal error: {type(error).__name__}: {error}")


@pytest.mark.parametrize(
    "argv",
    [
        ("cj-table", "--max-twice-j", "2"),
        ("eval", "--j", "1/2", "--n", "3", "--family", "ghz", "--theta", "0.5", "--kind", "bell"),
        ("min-sites", "--kind", "bell", "--max-d", "2", "--n-max", "3"),
    ],
    ids=["cj-table", "eval", "min-sites"],
)
def test_restarts_is_retired(capsys, argv):
    # the optimiser is exact, so a restart count has nothing to set: --restarts is no option
    rc, out, err = run_cli(capsys, *argv, "--restarts", "1")
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --restarts 1" in err
    assert run_cli(capsys, *argv)[0] == 0


def test_config_has_no_seed_or_restarts(capsys, monkeypatch):
    # --seed stops at the parser, and SPINMOMENTS_SEED is not read
    monkeypatch.setenv("SPINMOMENTS_SEED", "not-a-number")
    rc, out, _ = run_cli(capsys, "cj-table", "--max-twice-j", "2", "--format", "json",
                         "--seed", "3")
    assert rc == 0
    config = json.loads(out)["config"]
    assert "seed" not in config and "restarts" not in config


def test_verify_negative_bound_moment_exits_4(capsys, monkeypatch):
    from spinmoments import oracle
    from spinmoments.kinds import SiteOp
    from spinmoments.spin_algebra import SpinQuantum

    # the kernel is handed Jx^2 + Jy^2 with its m = -1/2 weight negated, so the
    # ghz theta=0.7 state's epr1 R at N = 2 comes out as -cos(1.4)/8 < 0
    original = oracle._support_table
    code = oracle._site_bands(SpinQuantum(1), 1.0)[0][SiteOp.X2_PLUS_Y2]

    def negated(vec, lead, sites, d, rows, shifts):
        rows = rows.copy()
        rows[code, 0] *= -1
        return original(vec, lead, sites, d, rows, shifts)

    monkeypatch.setattr(oracle, "_support_table", negated)
    rc, out, err = run_cli(capsys, "verify", "--max-twice-j", "1", "--max-size", "8")
    assert rc == 4
    assert out == ""
    assert "ArithmeticError: bound moment came out negative (-2.12" in err


def test_the_amplitude_cap_is_gone(capsys, monkeypatch):
    # no --cap flag, no SPINMOMENTS_CAP environment variable, no RunConfig.cap
    monkeypatch.setenv("SPINMOMENTS_CAP", "not-a-number")
    argv = ("eval", "--j", "1/2", "--n", "3", "--family", "ghz", "--theta", "0.5", "--kind", "bell",
            "--backend", "oracle")
    assert run_cli(capsys, *argv)[0] == 0
    rc, out, err = run_cli(capsys, *argv, "--cap", "1024")
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --cap 1024" in err
    assert "cap" not in {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("where", ["missing/x.csv", "."], ids=["no-directory", "a-directory"])
def test_unwritable_output_exits_2(capsys, tmp_path, where):
    target = tmp_path / where
    rc, out, err = run_cli(
        capsys, "eval", "--j", "1", "--n", "3", "--family", "uniform-max", "--kind", "bell",
        "--output", str(target),
    )
    assert (rc, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"spinmoments: cannot write --output {target}: ")


class _FailingStdout(io.StringIO):
    """A stdout whose ``failing`` method, write or flush, raises ``error``."""

    def __init__(self, error, failing):
        super().__init__()
        self.error, self.failing = error, failing

    def write(self, text):
        if self.failing == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise self.error


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "error, reason",
    [(OSError(errno.ENOSPC, "No space left on device"), "No space left on device"),
     (BrokenPipeError(errno.EPIPE, "Broken pipe"), "Broken pipe")],
    ids=["disk-full", "broken-pipe"],
)
def test_unwritable_stdout_exits_2(capsys, monkeypatch, error, reason, failing):
    # stdout is --output -, so a write that fails there, buffered until the
    # flush or not, is a usage error too
    monkeypatch.setattr(sys, "stdout", _FailingStdout(error, failing))
    rc = main(["cj-table", "--max-twice-j", "2"])
    assert rc == 2
    assert capsys.readouterr().err == f"spinmoments: cannot write --output -: {reason}\n"


def test_json_config_echoes_every_field(capsys):
    # the JSON "config" carries every RunConfig field with its parsed value
    rc, out, _ = run_cli(
        capsys, "scan", "--axis", "n", "--twice-j", "2", "--family", "custom",
        "--amplitudes", "[1, 0.5, 1]", "--kinds", "bell, epr1", "--n", "2..4",
        "--format", "json",
    )
    assert rc == 0
    config = json.loads(out)["config"]
    assert list(config) == sorted(f.name for f in fields(RunConfig))
    assert config == {
        "command": "scan", "fmt": "json", "output": "-", "twice_j": 2,
        "n_values": [2, 3, 4], "d_values": [], "family": "custom", "theta": None, "r": None,
        "amplitudes": [1.0, 0.5, 1.0], "kind_tokens": ["bell", "epr1"], "strategy": "canonical",
        "backend": None, "axis": "n", "n_max": None, "max_d": None, "max_twice_j": None,
        "max_size": None, "corrupt_cj": None,
    }
    assert asdict(RunConfig(**config)) == config


def test_every_option_dest_is_a_config_field_or_a_normalised_input():
    # RunConfig takes each option's value under its dest; only these inputs are normalised first
    from spinmoments.cli import build_parser

    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {
        action.dest
        for p in (parser, *commands.choices.values())
        for action in p._actions
        if not isinstance(action, argparse._HelpAction)
    }
    config = {f.name for f in fields(RunConfig)}
    assert dests - config <= {"j", "n", "d", "kind", "kinds", "optimized", "seed"}
    assert config - dests <= {"n_values", "d_values", "kind_tokens"}


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as a reference
    src = str(Path(spinmoments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, spinmoments.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
