"""The benchmark's workloads: CLI argv lists and the checks on their output.

Each check returns (items checked, items bad, notes).  An item is one
output row or one exit code; a missing row counts as bad.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import reference

VERIFY_TOL = 1e-9
DENSE_CAP = 2**20


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    check: Callable[[list[dict]], tuple[int, int, list[str]]]

    def argvs(self, seed: int) -> list[list[str]]:
        return [[*cmd, "--seed", str(seed)] for cmd in self.commands]


def _rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _num(text: str) -> float:
    return math.nan if text == "" else float(text)


def _rel(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        same = (math.isnan(a) and math.isnan(b)) or a == b
        return 0.0 if same else math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _exit_codes(outputs: list[dict], notes: list[str]) -> int:
    bad = 0
    for out in outputs:
        if out["rc"] != 0:
            bad += 1
            notes.append(f"exit code {out['rc']}: {out['stderr'].strip()[-300:]}")
    return bad


# ---------------------------------------------------------------------------
# verify-dense


def verify_grid(max_twice_j: int = 8, cap: int = DENSE_CAP) -> Counter:
    """(family, 2J, N, kind) -> expected row count of `verify` at this cap."""
    spins = range(1, max_twice_j + 1)
    families = [("uniform-max", spins), ("bosonic", spins)]
    families += [("ghz", [1])] * 2 + [("spin1r", [2])] * 3
    grid = Counter()
    for family, tj_list in families:
        for tj in tj_list:
            n = 2
            while (tj + 1) ** n <= cap:
                for kind in ("bell", "ent-hz", "ent-cj", "epr1"):
                    grid[(family, tj, n, kind)] += 1
                n += 1
    return grid


def check_verify(outputs: list[dict]) -> tuple[int, int, list[str]]:
    notes: list[str] = []
    expected = verify_grid()
    bad = _exit_codes(outputs, notes)
    seen = Counter()
    for row in _rows(outputs[0]["stdout"]):
        key = (row["family"], int(row["twice_j"]), int(row["n"]), row["kind"])
        seen[key] += 1
        own = _rel(_num(row["b_oracle"]), _num(row["b_analytic"]))
        printed = _num(row["rel_discrepancy"])
        if not (own <= VERIFY_TOL and printed <= VERIFY_TOL) or seen[key] > expected[key]:
            bad += 1
            notes.append(f"verify row {key}: rel {own:.3e} (printed {printed:.3e})")
    missing = sum((expected - seen).values())
    if missing:
        notes.append(f"verify: {missing} rows missing")
    return sum(expected.values()) + len(outputs), bad + missing, notes


# ---------------------------------------------------------------------------
# exhaustive-signs

GHZ_THETA = 0.785


def check_exhaustive(outputs: list[dict]) -> tuple[int, int, list[str]]:
    notes: list[str] = []
    bad = _exit_codes(outputs, notes)
    ghz = _rows(outputs[0]["stdout"])
    spin1 = _rows(outputs[1]["stdout"])
    if len(ghz) != 1 or not (
        _num(ghz[0]["R"]) == 0.0
        and abs(_num(ghz[0]["L"]) - reference.ghz_ladder_moment(GHZ_THETA)) <= 1e-12
    ):
        bad += 1
        notes.append(f"ghz row {ghz}")
    if len(spin1) != 1 or not abs(_num(spin1[0]["B"]) - reference.SPIN1_UNIFORM_HZ_B) <= 1e-10:
        bad += 1
        notes.append(f"spin1 row {spin1}")
    return 2 + len(outputs), bad, notes


# ---------------------------------------------------------------------------
# optimize-sites


def check_min_sites(outputs: list[dict]) -> tuple[int, int, list[str]]:
    notes: list[str] = []
    bad = _exit_codes(outputs, notes)
    rows = {int(r["d"]): r for r in _rows(outputs[0]["stdout"])}
    for d, min_n in reference.BELL_MIN_SITES.items():
        row = rows.get(d)
        if row is None or row["min_n"] != str(min_n) or not _num(row["b_at_min_n"]) > 1.0:
            bad += 1
            notes.append(f"min-sites d={d}: {row}")
    return len(reference.BELL_MIN_SITES) + len(outputs), bad, notes


# ---------------------------------------------------------------------------
# large-spin

LARGE_TWICE_J = 9
SCAN_N = range(2, 201)
SCAN_KINDS = ("bell", "epr1", "ent-cj", "ent-hz")
LARGE_CJ_TOL = 1e-3


def check_large_spin(outputs: list[dict]) -> tuple[int, int, list[str]]:
    notes: list[str] = []
    bad = _exit_codes(outputs, notes)
    table = {int(r["twice_j"]): _num(r["c_j"]) for r in _rows(outputs[0]["stdout"])}
    for tj in range(1, LARGE_TWICE_J + 1):
        if tj in reference.QUOTED_CJ:
            want, tol = reference.QUOTED_CJ[tj]
        else:
            want, tol = reference.cj_floor(tj), LARGE_CJ_TOL
        got = table.get(tj, math.nan)
        if not abs(got - want) <= tol:
            bad += 1
            notes.append(f"cj-table 2J={tj}: {got} vs {want} +- {tol}")

    b_by_n: dict[int, dict[str, float]] = {n: {} for n in SCAN_N}
    rows = _rows(outputs[1]["stdout"])
    for row in rows:
        n, kind = int(row["n"]), row["kind"]
        values = [_num(row[c]) for c in ("L", "R", "B")]
        if n not in b_by_n or kind not in SCAN_KINDS or not all(math.isfinite(v) for v in values):
            bad += 1
            notes.append(f"scan row n={n} {kind}: L, R, B = {values}")
            continue
        b_by_n[n][kind] = values[2]
    for n, b in b_by_n.items():
        missing = [k for k in SCAN_KINDS if k not in b]
        bad += len(missing)
        if missing:
            notes.append(f"scan n={n}: missing {missing}")
        elif not b["bell"] <= b["epr1"] <= b["ent-cj"]:
            bad += 2
            notes.append(f"scan n={n}: bell <= epr1 <= ent-cj fails for {b}")
    expected = LARGE_TWICE_J + len(SCAN_N) * len(SCAN_KINDS)
    return expected + len(outputs), bad, notes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-dense",
            (("verify", "--max-twice-j", "8"),),
            check_verify,
        ),
        Workload(
            "exhaustive-signs",
            (
                ("eval", "--j", "1/2", "--n", "12", "--family", "ghz", "--theta", str(GHZ_THETA),
                 "--kind", "ent-hz", "--strategy", "exhaustive"),
                ("eval", "--j", "1", "--n", "8", "--family", "spin1r", "--r", "1.0",
                 "--kind", "ent-hz", "--strategy", "exhaustive"),
            ),
            check_exhaustive,
        ),
        Workload(
            "optimize-sites",
            (("min-sites", "--kind", "bell", "--max-d", "4", "--n-max", "30"),),
            check_min_sites,
        ),
        Workload(
            "large-spin",
            (
                ("cj-table", "--max-twice-j", str(LARGE_TWICE_J)),
                ("scan", "--axis", "n", "--twice-j", str(LARGE_TWICE_J), "--family", "bosonic",
                 "--kinds", ",".join(SCAN_KINDS), "--n", f"{SCAN_N.start}..{SCAN_N.stop - 1}"),
            ),
            check_large_spin,
        ),
    )
}
