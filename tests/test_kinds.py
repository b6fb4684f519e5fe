import itertools

import pytest

from spinmoments import kinds, oracle
from spinmoments.kinds import SiteOp, bound_runs, bound_tags, canonical_signs, parse_kind


def kind_tokens(n):
    """Every kind token that fits on n sites."""
    yield from ("bell", "ent-hz", "ent-cj")
    for t in range(n + 1):
        yield f"epr{t}"
        yield f"epr{t}-hz"


def expected_layout(token, n, l_signs):
    """R's per-site tags written out site by site, quantum sites first."""
    kind = parse_kind(token)
    t = {"bell": 0, "ent-hz": n, "ent-cj": n}.get(token, getattr(kind, "t_sites", None))
    hz = token == "ent-hz" or token.endswith("-hz")
    if not hz:
        quantum = [SiteOp.CJ_SHIFTED] * t
    else:
        l = l_signs if l_signs is not None else [1] + [-1] * (t - 1) if t else []
        quantum = [SiteOp.PLUS_MINUS if s > 0 else SiteOp.MINUS_PLUS for s in l]
    return quantum + [SiteOp.X2_PLUS_Y2] * (n - t)


def test_oracle_reexports_the_definitions():
    assert oracle.SiteOp is kinds.SiteOp
    assert oracle.bound_tags is kinds.bound_tags
    assert oracle.ladder_tags is kinds.ladder_tags


@pytest.mark.parametrize("n", range(2, 7))
def test_bound_tags_expand_bound_runs(n):
    for token in kind_tokens(n):
        kind = parse_kind(token)
        t = kinds.quantum_sites(kind, n)
        patterns = [None] + list(itertools.product((1, -1), repeat=t))
        for l in patterns:
            runs = bound_runs(kind, n, l)
            assert all(sites > 0 for _, sites in runs)
            expanded = [tag for tag, sites in runs for _ in range(sites)]
            assert bound_tags(kind, n, l) == expanded == expected_layout(token, n, l), (token, l)


def test_bound_runs_stay_constant_size_in_n():
    n = 5000
    for token in ("bell", "ent-hz", "ent-cj", "epr0", "epr1", "epr2", "epr4999", "epr5000",
                  "epr0-hz", "epr1-hz", "epr2-hz", "epr4999-hz", "epr5000-hz"):
        runs = bound_runs(parse_kind(token), n)
        assert len(runs) <= 3, token
        assert sum(sites for _, sites in runs) == n


def test_bound_runs_reject_a_wrong_l_length():
    with pytest.raises(ValueError, match="length 2"):
        bound_runs(parse_kind("epr2-hz"), 4, (1, -1, -1))
    with pytest.raises(ValueError, match="exceeds"):
        bound_runs(parse_kind("epr5"), 4)


@pytest.mark.parametrize("n", range(2, 7))
def test_canonical_signs(n):
    for token in kind_tokens(n):
        kind = parse_kind(token)
        s, l = canonical_signs(kind, n)
        assert s == (-1,) * n
        t = kinds.quantum_sites(kind, n)
        hz = token == "ent-hz" or token.endswith("-hz")
        assert l == (((1,) + (-1,) * (t - 1)) if hz and t else ())
        assert bound_tags(kind, n, l) == bound_tags(kind, n)
