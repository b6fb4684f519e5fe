import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from spinmoments import kinds, oracle
from spinmoments.kinds import SiteOp, bound_counts, bound_tags, canonical_signs, parse_kind


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
def test_bound_tags_follow_the_layout_site_by_site(n):
    for token in kind_tokens(n):
        kind = parse_kind(token)
        t = kinds.quantum_sites(kind, n)
        patterns = [None] + list(itertools.product((1, -1), repeat=t))
        for l in patterns:
            assert bound_tags(kind, n, l) == expected_layout(token, n, l), (token, l)


@pytest.mark.parametrize("n", range(2, 7))
def test_bound_counts_count_the_canonical_tags(n):
    # the positive counts, in their order, are the tags of bound_tags in order of first site
    for token in kind_tokens(n):
        kind = parse_kind(token)
        counts = bound_counts(kind, n)
        positive = {tag: k for tag, k in counts.items() if k > 0}
        tags = bound_tags(kind, n)
        assert positive == Counter(tags), token
        assert list(positive) == list(dict.fromkeys(tags)), token
        assert all(type(k) is int and k >= 0 for k in counts.values()), token


def test_bound_counts_stay_constant_size_in_n():
    n = 5000
    for token in ("bell", "ent-hz", "ent-cj", "epr0", "epr1", "epr2", "epr4999", "epr5000",
                  "epr0-hz", "epr1-hz", "epr2-hz", "epr4999-hz", "epr5000-hz"):
        counts = bound_counts(parse_kind(token), n)
        assert len(counts) <= 3, token
        assert sum(counts.values()) == n


def test_layout_rejects_a_wrong_l_length_and_too_many_quantum_sites():
    with pytest.raises(ValueError, match="length 2"):
        bound_tags(parse_kind("epr2-hz"), 4, (1, -1, -1))
    for reader in (bound_counts, bound_tags, canonical_signs, kinds.quantum_sites):
        with pytest.raises(ValueError, match="^t_sites = 5 exceeds n_sites = 4$"):
            reader(parse_kind("epr5"), 4)
    for n_values in (np.array([6, 4, 3, 9]), np.array([6.0, 4.0, 3.0, 9.0])):  # the first N too small
        for reader in (bound_counts, kinds.quantum_sites):
            with pytest.raises(ValueError, match="^t_sites = 5 exceeds n_sites = 4$"):
                reader(parse_kind("epr5-hz"), n_values)


def test_quantum_sites_refuses_an_unknown_kind():
    with pytest.raises(TypeError, match="^unknown criterion kind: <object object at "):
        kinds.quantum_sites(object(), 3)


def test_int_layouts_call_no_numpy(monkeypatch):
    # a numpy call on a Python int costs microseconds; the int paths are plain
    # arithmetic.  The profiler sees numpy's Python and C functions, not ufuncs,
    # so the common ufuncs are patched to record themselves.
    calls = []

    def profile(frame, event, arg):
        if event == "call" and "numpy" in frame.f_code.co_filename:
            calls.append(frame.f_code.co_name)
        elif event == "c_call" and str(getattr(arg, "__module__", "")).startswith("numpy"):
            calls.append(arg.__name__)

    for name in ("minimum", "maximum", "greater", "less", "multiply", "subtract"):
        monkeypatch.setattr(np, name, lambda *a, _name=name, **k: calls.append(_name))
    sys.setprofile(profile)
    try:
        for token in ("bell", "ent-hz", "ent-cj", "epr0", "epr2", "epr0-hz", "epr2-hz"):
            kind = parse_kind(token)
            kinds.quantum_sites(kind, 5), bound_counts(kind, 5), canonical_signs(kind, 5)
            bound_tags(kind, 5), bound_tags(kind, 5, canonical_signs(kind, 5)[1])
        layouts = list(calls)
        np.any(np.zeros(1)), np.minimum(1, 2)  # the probe sees numpy calls
    finally:
        sys.setprofile(None)
    assert layouts == []
    assert {"any", "zeros", "minimum"} <= set(calls)


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
