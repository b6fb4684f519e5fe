"""Command-line interface: criterion evaluation, verification sweeps, tables.

Subcommands
    eval       evaluate one criterion on one state
    verify     oracle-vs-closed-form sweep; exit 1 if any point disagrees
    scan       grid of B values along N (fixed J) or along d (fixed N)
    min-sites  smallest violating N per dimension, optimised amplitudes
    cj-table   uncertainty bound C_J per spin

Exit codes: 0 success, 1 verification failure, 2 usage error (an unwritable
--output too), 3 infeasible (the oracle's d^N > 2^62, or the exhaustive
search's N > 16), 4 internal error (any other exception, reported
on one stderr line).  Output is CSV (default) or JSON with identical values;
floats carry 12 significant digits and rows are emitted in a fixed order, so
output bytes are reproducible for a fixed config.  The amplitude optimiser is
an exact eigenvalue search, so --seed reaches no computation: it is kept for old
command lines, the one option that no computation reads (any other exits 2).

Spin is given as --j 1/2 style rationals or --twice-j integers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

from . import __version__, analytic, criteria, kinds, optimizer, oracle
from .spin_algebra import SpinQuantum, cj_bound
from .states import (
    FAMILIES,
    Bosonic,
    CapExceededError,
    GeneralizedGHZ,
    SpinOneR,
    UniformMax,
    family_label,
    make_state,
    make_states,
    support_vector,
)

VERIFY_TOL = 1e-9
VERIFY_MAX_SIZE = 2**20  # verify's default d^N grid bound (--max-size)


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Normalised arguments of one CLI run; JSON output echoes it as ``config``."""

    command: str
    fmt: str = "csv"
    output: str = "-"
    twice_j: int | None = None
    n_values: list[int] = field(default_factory=list)
    d_values: list[int] = field(default_factory=list)
    family: str | None = None
    theta: float | None = None
    r: float | None = None
    amplitudes: tuple[float, ...] | None = None
    kind_tokens: list[str] = field(default_factory=list)
    strategy: str = "canonical"
    backend: str | None = None
    axis: str | None = None
    n_max: int | None = None
    max_d: int | None = None
    max_twice_j: int | None = None
    max_size: int | None = None
    corrupt_cj: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# argument parsing


def _plain(text: str) -> str:
    """Every numeric option's token rule: no '_' and no non-ASCII character, which int() and
    float() would read as digit separators, digits or spaces (ValueError)."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return text


def _plain_number(convert):
    """An argparse type: convert of a ``_plain`` token, named as convert in argparse's exit-2 message."""
    def parse(text: str):
        return convert(_plain(text))
    parse.__name__ = convert.__name__
    return parse


def _parse_spin(j_text: str | None, twice_j: int | None) -> int:
    if (j_text is None) == (twice_j is None):
        raise UsageError("give exactly one of --j and --twice-j")
    if twice_j is not None:
        return twice_j
    try:
        num, slash, den = _plain(j_text).partition("/")
        if not slash or den.strip() == "2":
            return int(num) if slash else 2 * int(num)
    except ValueError:
        pass
    raise UsageError(f"spin must be an integer or a half like 3/2, got {j_text!r}")


def _parse_range(text: str) -> list[int]:
    """'3' -> [3]; '2..10' -> [2, ..., 10]."""
    try:
        lo, dots, hi = _plain(text).partition("..")
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise UsageError(f"a range must read N or LO..HI, got {text!r}") from None
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _parse_amplitudes(text: str) -> tuple[float, ...]:
    """'1,0.5,1' or '[1, 0.5, 1]' -> (1.0, 0.5, 1.0); the JSON form holds numbers only, at least one."""
    try:
        stripped = _plain(text).strip()
        if stripped.startswith("["):
            parts = json.loads(stripped)  # a JSON error is a ValueError
            if not parts or not all(type(p) in (int, float) for p in parts):  # no bool, str or list
                raise ValueError
        else:
            parts = stripped.split(",")
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"amplitudes must read R,R,... or [R,R,...] with decimal R, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError("amplitudes must be finite decimals")
    return values


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing reads it and never writes it."""
    parser = argparse.ArgumentParser(prog="spinmoments", description=__doc__.splitlines()[0])
    plain_int, plain_float = _plain_number(int), _plain_number(float)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", default="-", help="output path, - for stdout")
    common.add_argument("--seed", type=plain_int, help="ignored (the optimiser is exact); kept for old command lines")

    spin = argparse.ArgumentParser(add_help=False)
    spin.add_argument("--j", help="spin as 1/2, 1, 3/2, ...")
    spin.add_argument("--twice-j", type=plain_int, dest="twice_j")

    def family_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--theta", type=plain_float, help="GHZ angle, radians")
        p.add_argument("--r", type=plain_float, help="spin1r middle amplitude")
        p.add_argument(
            "--amplitudes",
            help="custom amplitudes: 1,0.5,1 or [1,0.5,1]; a leading minus needs --amplitudes=-1,1 or [-1,1]",
        )

    p_eval = sub.add_parser("eval", parents=[common, spin], help="evaluate one criterion")
    p_eval.add_argument("--n", required=True, type=plain_int)
    p_eval.add_argument("--family", required=True, choices=tuple(FAMILIES))
    family_params(p_eval)
    p_eval.add_argument("--kind", required=True)
    p_eval.add_argument("--strategy", choices=("canonical", "exhaustive"), default="canonical")
    p_eval.add_argument("--backend", choices=("analytic", "oracle"))

    p_verify = sub.add_parser("verify", parents=[common], help="oracle vs closed forms")
    p_verify.add_argument("--max-twice-j", type=plain_int, default=9)
    p_verify.add_argument("--max-size", type=plain_int, help="d^N grid bound (default: 2^20)")
    p_verify.add_argument(
        "--corrupt-cj",
        type=plain_float,
        help="testing hook: offset the closed forms' C_J to confirm failures are caught",
    )

    p_scan = sub.add_parser("scan", parents=[common, spin], help="B along N or d")
    p_scan.add_argument("--axis", choices=("n", "d"), required=True)
    p_scan.add_argument("--n", help="site count or range, e.g. 10 or 2..10")
    p_scan.add_argument("--d", help="dimension range for axis d, e.g. 2..9")
    p_scan.add_argument("--family", choices=tuple(FAMILIES))
    p_scan.add_argument("--optimized", action="store_true", help="optimise amplitudes per point")
    family_params(p_scan)
    p_scan.add_argument("--kinds", required=True, help="comma list: bell,epr1,ent-cj,ent-hz")

    p_min = sub.add_parser("min-sites", parents=[common], help="min N for violation per d")
    p_min.add_argument("--kind", required=True)
    p_min.add_argument("--max-d", type=plain_int, required=True)
    p_min.add_argument("--n-max", type=plain_int, required=True)

    p_cj = sub.add_parser("cj-table", parents=[common], help="C_J per spin")
    p_cj.add_argument("--max-twice-j", type=plain_int, required=True)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "max_twice_j", 1) < 1:  # verify and cj-table
        raise UsageError("--max-twice-j must be >= 1")
    if getattr(args, "max_d", 2) < 2:  # min-sites
        raise UsageError("--max-d must be >= 2")
    cfg = {"command": args.command, "fmt": args.format, "output": args.output}
    if args.command == "eval":
        cfg.update(
            twice_j=_parse_spin(args.j, args.twice_j),
            n_values=[args.n],
            family=args.family,
            kind_tokens=[args.kind],
            strategy=args.strategy,
            backend=args.backend,
        )
    elif args.command == "verify":
        cfg.update(
            max_twice_j=args.max_twice_j,
            max_size=args.max_size,
            corrupt_cj=args.corrupt_cj,
        )
    elif args.command == "scan":
        if args.axis == "n":
            if args.n is None:
                raise UsageError("scan --axis n needs --n with a range")
            if args.d is not None:
                raise UsageError("scan --axis n reads no --d")
            cfg.update(
                twice_j=_parse_spin(args.j, args.twice_j), n_values=_parse_range(args.n)
            )
        else:
            if args.d is None or args.n is None:
                raise UsageError("scan --axis d needs --d with a range and a fixed --n")
            if args.j is not None or args.twice_j is not None:
                raise UsageError("scan --axis d reads no --j or --twice-j: each d sets the spin")
            d_values = _parse_range(args.d)
            if min(d_values) < 2:
                raise UsageError("dimensions must be >= 2")
            n_values = _parse_range(args.n)
            if len(n_values) != 1:
                raise UsageError("scan --axis d needs a single fixed --n")
            cfg.update(d_values=d_values, n_values=n_values)
        if args.optimized == (args.family is not None):
            raise UsageError("give exactly one of --family and --optimized")
        kind_tokens = [t.strip() for t in args.kinds.split(",") if t.strip()]
        if not kind_tokens:
            raise UsageError("--kinds must name at least one kind")
        family = "optimized" if args.optimized else args.family
        cfg.update(axis=args.axis, family=family, kind_tokens=kind_tokens)
    elif args.command == "min-sites":
        cfg.update(kind_tokens=[args.kind], max_d=args.max_d, n_max=args.n_max)
    elif args.command == "cj-table":
        cfg.update(max_twice_j=args.max_twice_j)
    if args.command in ("eval", "scan"):  # a family parameter's option is given exactly when the family reads it
        family = FAMILIES.get(cfg["family"])  # None for scan --optimized
        read = [f.name for f in fields(family)] if family else []
        owner = f"family {cfg['family']}" if family else "scan --optimized"
        for name in ("theta", "r", "amplitudes"):
            if getattr(args, name) is not None and name not in read:
                raise UsageError(f"{owner} reads no --{name}")
        for name in read:
            if getattr(args, name) is None:
                raise UsageError(f"{owner} needs --{name}")
        amplitudes = None if args.amplitudes is None else _parse_amplitudes(args.amplitudes)
        cfg.update(theta=args.theta, r=args.r, amplitudes=amplitudes)
    return RunConfig(**cfg)


# ---------------------------------------------------------------------------
# output formatting


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.12g}"
    if isinstance(value, tuple):
        return ",".join(_fmt_value(v) for v in value)
    return str(value)


def _json_value(value):
    if isinstance(value, float):  # _fmt_value's digits; inf keeps its text, nan ("") becomes null
        text = _fmt_value(value)
        return float(text) if math.isfinite(value) else text or None
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def render(cfg: RunConfig, rows: list[dict]) -> str:
    """The rows as CSV or JSON; each row's keys are the columns in output order, the first row's the header."""
    fmt = _json_value if cfg.fmt == "json" else _fmt_value
    texts = {}  # id -> formatted tuple: the rows of one state share its r_vector, formatted once

    def cell(value):
        if not isinstance(value, tuple):
            return fmt(value)
        if id(value) not in texts:
            texts[id(value)] = fmt(value)
        return texts[id(value)]

    if cfg.fmt == "json":
        doc = {
            "config": cfg.to_dict(),
            "rows": [{c: cell(v) for c, v in row.items()} for row in rows],
            "tool_version": __version__,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([cell(v) for v in row.values()])
    return buf.getvalue()


def emit(cfg: RunConfig, rows: list[dict]) -> None:
    text = render(cfg, rows)
    if cfg.output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(cfg.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --output {cfg.output}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _build_family(cfg: RunConfig):
    """The family named by cfg; each of its fields comes from the option of that name."""
    cls = FAMILIES[cfg.family]
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


def _family_name(family) -> str:
    """The family label with its parameters, e.g. 'ghz theta=0.7'."""
    return " ".join([family_label(family)] + [f"{k}={_fmt_value(v)}" for k, v in vars(family).items()])


def cmd_eval(cfg: RunConfig) -> int:
    j = SpinQuantum(cfg.twice_j)
    n = cfg.n_values[0]
    state = make_state(_build_family(cfg), j, n)
    kind = kinds.parse_kind(cfg.kind_tokens[0])
    backend = None if cfg.backend is None else criteria.Backend(cfg.backend)
    result = criteria.evaluate(state, kind, cfg.strategy, backend=backend)
    rows = [
        {
            "twice_j": cfg.twice_j,
            "n": n,
            "family": cfg.family,
            "kind": kinds.kind_token(kind),
            "t": kinds.quantum_sites(kind, n),
            "L": result.lhs,
            "R": result.rhs,
            "B": result.b,
            "violated": result.violated,
            "s_signs": result.signs.s_token(),
            "l_signs": result.signs.l_token(),
            "backend": result.backend.value,
        }
    ]
    emit(cfg, rows)
    return 0


def _rel_diff(a: float, b: float) -> float:
    """|a - b| over the larger; two nans or equal infinities give 0, other non-finite pairs inf."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _verify_points(cfg: RunConfig):
    """Deterministic sweep grid: (family, spin, N list) per family and spin, every N with d^N <= --max-size."""
    max_size = VERIFY_MAX_SIZE if cfg.max_size is None else cfg.max_size
    specs = [(family, tj) for family in (UniformMax(), Bosonic()) for tj in range(1, cfg.max_twice_j + 1)]
    specs += [(GeneralizedGHZ(math.pi / 4), 1), (GeneralizedGHZ(0.7), 1)]  # --max-twice-j is >= 1
    if cfg.max_twice_j >= 2:
        specs += [(SpinOneR(r), 2) for r in (0.5, 1.0, 2.0)]
    for family, tj in specs:
        n = 2
        while (tj + 1) ** n <= max_size:
            n += 1
        yield family, SpinQuantum(tj), list(range(2, n))


def cmd_verify(cfg: RunConfig) -> int:
    kind_list = [kinds.Bell(), kinds.EntanglementHZ(), kinds.EntanglementCJ(), kinds.Steering(1, "cj")]
    rows, names, skipped = [], [], []  # names: stderr only
    grid = [(family, state) for family, j, n_list in _verify_points(cfg) for state in make_states(family, j, n_list)]
    states = [state for _, state in grid]
    # closed forms first, B a list per kind: a bad C_J stops the run
    b_analytic = analytic.b_from_logs(*analytic.log_sweep(states, kind_list, cj_offset=cfg.corrupt_cj)).tolist()
    for (family, state), *state_b in zip(grid, *b_analytic):
        label, name, tj, n = family_label(family), _family_name(family), state.j.twice_j, state.n_sites
        signs, _ = kinds.canonical_signs(kinds.Bell(), n)  # one ladder moment serves every kind
        try:
            vec = support_vector(state)
            lhs = abs(oracle.expect_product(vec, kinds.ladder_tags(signs), state.j)) ** 2
        except CapExceededError as exc:  # past the oracle's limits: counted, reported after the rows
            skipped.append(f"family {name}, 2J = {tj}, N = {n} ({exc})")
            continue
        rhs = oracle.bound_rows(vec, [kinds.bound_tags(kind, n) for kind in kind_list], state.j).tolist()
        for kind, kind_rhs, kind_b in zip(kind_list, rhs, state_b):
            b_oracle = oracle.b_from_moments(lhs, kind_rhs)
            rows.append(
                {
                    "family": label,
                    "twice_j": tj,
                    "n": n,
                    "kind": kinds.kind_token(kind),
                    "b_oracle": b_oracle,
                    "b_analytic": kind_b,
                    "rel_discrepancy": _rel_diff(b_oracle, kind_b),
                }
            )
            names.append(name)
    if not rows:  # else a point is checked: the grid starts at 2J = 1, N = 2, inside the oracle's limits
        print("verify: empty grid (--max-size excludes every point)", file=sys.stderr)
        return 2
    emit(cfg, rows)
    top, name = max(zip(rows, names), key=lambda pair: pair[0]["rel_discrepancy"])  # the first of any tie
    worst = top["rel_discrepancy"]
    where = f"family {name}, 2J = {top['twice_j']}, N = {top['n']}, kind {top['kind']}"
    print(f"verify: {len(rows)} points, max relative discrepancy {worst:.3e} at {where}", file=sys.stderr)
    if skipped:
        print(f"verify: skipped {len(skipped)} states beyond the oracle, the first at {skipped[0]}", file=sys.stderr)
    return 1 if worst > VERIFY_TOL else 3 if skipped else 0


def cmd_scan(cfg: RunConfig) -> int:
    kind_list = [kinds.parse_kind(t) for t in cfg.kind_tokens]
    source = "optimized" if cfg.family == "optimized" else _build_family(cfg)
    twice_js = [cfg.twice_j] if cfg.axis == "n" else [d - 1 for d in cfg.d_values]
    points = [(tj, n) for tj in twice_js for n in cfg.n_values]
    emit(cfg, optimizer.scan_curve(kind_list, source, points))
    return 0


def cmd_min_sites(cfg: RunConfig) -> int:
    kind = kinds.parse_kind(cfg.kind_tokens[0])
    rows = []
    for d in range(2, cfg.max_d + 1):
        res = optimizer.min_sites_for_violation(SpinQuantum(d - 1), kind, cfg.n_max)
        rows.append(
            {"d": d, "kind": kinds.kind_token(kind), "min_n": res.min_n, "b_at_min_n": res.b_at_min_n}
        )
    emit(cfg, rows)
    return 0


def cmd_cj_table(cfg: RunConfig) -> int:
    rows = []
    for tj in range(1, cfg.max_twice_j + 1):
        bound = cj_bound(SpinQuantum(tj))
        rows.append({"twice_j": tj, "c_j": bound.c_j, "source": bound.source.value})
    emit(cfg, rows)
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "min-sites": cmd_min_sites,
    "cj-table": cmd_cj_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        cfg = config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except CapExceededError as exc:
        print(f"spinmoments: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, TypeError) as exc:
        print(f"spinmoments: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # keep exit 1 for "verification failed" only
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        print(f"spinmoments: internal error: {type(exc).__name__}: {exc} ({where})", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
