"""The API the benchmark in perfbench/ relies on, checked without running it.

perfbench/ imports the program by name, wraps its traced entry points by
name, and calls a fixed set of functions with fixed argument shapes.  These
checks fail fast when a rename, a removed keyword or a changed positional
order would break the benchmark; the workloads themselves run in
``perfbench/test_bench.py``.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

import splitcert

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


def test_workload_module_builds_its_configs(perfbench):
    _, workloads = perfbench
    assert workloads.LU_CONFIG.threads == 1
    assert workloads.LU_CONFIG.flow is workloads.LU_FLOW
    assert workloads.CONSERVATION_FLOW.taylor_order == 14
    wu, ws = workloads.toy_pair(np.eye(2), 0.5)
    assert isinstance(wu, splitcert.ManifoldOracle) and isinstance(ws, splitcert.ManifoldOracle)


def test_every_traced_name_exists(perfbench):
    spans, _ = perfbench
    rec = spans.Recorder()
    uninstall = spans.install(rec)  # raises on a traced name that is gone
    try:
        assert callable(splitcert.flow.flow_jet) and splitcert.flow.flow_jet.__wrapped__
    finally:
        uninstall()
    assert not hasattr(splitcert.flow.flow_jet, "__wrapped__")


# every call workloads.py makes, with its argument shape (values are placeholders)
CALLS = [
    ("build_distance_oracle", ("cfg",), {}),
    ("make_local_graph", ("cfg", "side"), {}),
    ("chart_psi", ("cfg", "side", "forward", "box"), {}),
    ("lu_field", ("cfg",), {}),
    ("point_flow", ("field", 0.0, "x0", 9.0), {"order": 18}),
    ("chart_V", ("cfg", "inverse", "box"), {}),
    ("locate_homoclinic", ("cfg", "side"), {}),
    ("global_manifold", ("cfg", "side", "local", "eps", "box"), {}),
    ("jet2_compose", ("outer", "inner"), {}),
    ("integrals_HK", ("cfg", "box"), {}),
    ("flow_jet", ("field", "x0", "eps", 1.0, "settings"), {}),
    ("distance_fixed_point", ("wu", "ws", 0.05, "u_box"), {"k1": 0, "k2": 2}),
    ("assemble_lemma_data", ("prob",), {"subdivide": 2, "eps_subdivide": 1, "threads": 1}),
    ("verify_practical", ("cert",), {}),
    ("verify_transversal", ("cert",), {}),
    ("verify_boundary_exclusion", ("oracle", "u_box"),
     {"eps_max": 0.05, "boundary_depth": 2, "threads": 1}),
    ("SplittingProblem", (), {"k1": 0, "k2": 2, "p": "p", "R": 0.2, "eps_max": 0.05,
                              "oracle": "oracle"}),
    ("ManifoldOracle", (), {"jet": "jet", "approx": "approx", "x_proj": (0, 1),
                            "y_proj": (2, 3)}),
    ("FlowSettings", (), {"taylor_order": 18, "initial_step": 0.125, "min_step": 2.0 ** -20,
                          "wrapping_control": "parallelepiped", "max_steps": 100000}),
    ("LUConfig", (), {"lam": 1.0, "omega": 1.0, "eps_max": 1e-7, "R": 1e-5, "T": 9.0,
                      "local_radius": 1.5e-4, "lipschitz": 1e-8,
                      "second_deriv_bound": 3.518e-5, "flow": "flow", "subdivide": 1,
                      "eps_subdivide": 1, "threads": 1, "fallback_T": ()}),
]


@pytest.mark.parametrize("name, args, kwargs", CALLS, ids=[c[0] for c in CALLS])
def test_benchmark_call_binds(name, args, kwargs):
    inspect.signature(getattr(splitcert, name)).bind(*args, **kwargs)


def test_benchmark_methods_on_boxes_and_matrices():
    # workloads.py builds boxes from lists, reads box midpoints and checks
    # A22 and Delta2 of a certificate through these names
    box = splitcert.IntervalBox.point(np.array([0.5, -1.0]))
    assert isinstance(box, splitcert.IntervalBox)
    assert np.array_equal(box.mid(), [0.5, -1.0])
    assert splitcert.IntervalBox([-0.2, -0.2], [0.2, 0.2]).contains_point([0.1, -0.2])
    m = splitcert.IntervalMatrix(np.zeros((2, 2)), np.ones((2, 2)))
    assert m.contains_matrix(np.full((2, 2), 0.5)) and not m.contains_matrix(2.0 * np.eye(2))
    assert np.array_equal(m.width(), np.ones((2, 2)))
