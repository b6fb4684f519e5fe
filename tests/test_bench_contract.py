"""The names and call shapes the benchmark's tracer (bench/tracer.py) relies on.

The tracer wraps package functions by name and reads their arguments and
results in probes; renaming a traced function or changing what it is
called with would silently drop those metrics.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from spinmoments import cli, oracle
from spinmoments.kinds import EntanglementHZ
from spinmoments.spin_algebra import SpinQuantum, cj_bound
from spinmoments.states import SupportVector, UniformMax, dense_vector, make_state

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracer):
    for layer, functions in tracer.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"spinmoments.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"spinmoments.{layer}.{name}"


def test_expect_product_probe_reads_every_call(tracer, capsys, monkeypatch):
    calls = []
    original = oracle.expect_product

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "expect_product", spy)
    state = make_state(UniformMax(), SpinQuantum(2), 3)
    oracle.lhs_moment(state, (-1, -1, -1))
    oracle.rhs_moment(state, EntanglementHZ())
    assert len(calls) == 2
    assert cli.main(["verify", "--max-twice-j", "1", "--max-size", "8"]) == 0
    capsys.readouterr()
    assert len(calls) > 2  # verify still reaches oracle.expect_product
    probe = tracer.PROBES["oracle.expect_product"]
    counters = Counter()
    for args, kwargs in calls:
        vec, ops, j = args[:3]
        assert all(isinstance(op.value, str) for op in ops)
        # the probe reads the state's support as d^N amplitudes
        assert isinstance(vec, SupportVector) and vec.size == j.dim ** len(ops)
        probe(counters, args, kwargs, None)
    assert counters["oracle.amp_site_ops"] > 0


def test_result_probes_read_their_results(tracer):
    counters = Counter()
    j = SpinQuantum(3)
    vec = dense_vector(make_state(UniformMax(), j, 2))
    tracer.PROBES["states.dense_vector"](counters, (), {}, vec)
    tracer.PROBES["spin_algebra.cj_bound"](counters, (), {}, cj_bound(j))
    assert counters["states.dense_amplitudes"] == 16
    assert counters["cj.3"] == cj_bound(j).c_j
