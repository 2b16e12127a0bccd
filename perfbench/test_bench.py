"""Self-test of the benchmark: python3 -m pytest -q perfbench/test_bench.py

Each workload runs on a one-operation batch, end to end and traced.  Every
metric BENCHMARK.json names must be emitted with its unit, and checking
the same outputs against a corrupted reference must count failures.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run

run._import_program()
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())


class _CorruptedReference:
    """The workload, but each output is checked against a corrupted reference."""

    def __init__(self, wl, corrupt):
        self._wl = wl
        self._corrupt = corrupt

    def __getattr__(self, attr):
        return getattr(self._wl, attr)

    def check(self, fixture, inp, out):
        return self._wl.check(*self._corrupt(fixture, inp), out)


def _scaled_x0(fixture, inp):
    return fixture, dict(inp, x0=inp["x0"] * 1.01)


def _shifted_b(fixture, inp):
    return fixture, dict(inp, B=inp["B"] + 0.01)


def _other_field(fixture, inp):
    return dict(fixture, cfg=dataclasses.replace(fixture["cfg"], lam=1.01)), inp


CORRUPTIONS = {"lu_transport": _other_field, "conservation": _scaled_x0,
               "toy_certificate": _shifted_b}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def tiny(request):
    wl = workloads.WORKLOADS[request.param]
    fixture = wl.setup()
    return request.param, wl, fixture, wl.inputs(1, fixture)[:1]


def test_benchmark_json_names_every_workload():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.UNITS


def test_end_to_end_metrics_and_fail_ratio(tiny):
    name, wl, fixture, inputs = tiny
    res = run._end_to_end(wl, fixture, inputs, 0.0, name)
    assert res["failed"] == 0, res["reasons"]
    for m in BENCHMARK["end_to_end"]:
        assert res["units"][m["name"]] == m["unit"]
        assert res["metrics"][m["name"]] > 0, m["name"]
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}

    bad = run._end_to_end(_CorruptedReference(wl, CORRUPTIONS[name]), fixture, inputs, 0.0, name)
    assert bad["extra"]["fail_ratio"] > 0


def test_traced_metrics(tiny):
    name, wl, fixture, inputs = tiny
    res, rec = run._traced(wl, fixture, inputs, name, workloads)
    assert res["failed"] == 0, res["reasons"]
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert all(res["units"][k] for k in res["metrics"])
    assert len(rec.start) == res["extra"]["spans"] > 0


def test_raising_operation_counts_as_failed():
    class Raises(_CorruptedReference):
        def run(self, fixture, inp):
            raise ZeroDivisionError("boom")

    wl = Raises(workloads.WORKLOADS["toy_certificate"], None)
    attempted, reasons, heads = run._check(wl, {}, [{}], run._run_loop(wl, {}, [{}], 0.0)[2])
    assert attempted == 1 and not heads
    assert "ZeroDivisionError: boom (at test_bench.py:" in reasons[0]


def test_traced_run_refuses_a_silent_layer():
    wl = workloads.WORKLOADS["toy_certificate"]

    class ExpectsFlow(_CorruptedReference):
        expected = ("flow.transport.calls",)

    fixture = wl.setup()
    with pytest.raises(SystemExit, match="flow.transport.calls"):
        run._traced(ExpectsFlow(wl, None), fixture, wl.inputs(1, fixture)[:1],
                    "toy_certificate", workloads)


def test_trace_uninstall_restores_every_name():
    import splitcert
    import splitcert.lerman

    before = (splitcert.flow_jet, splitcert.lerman.flow_jet, splitcert.Interval.__add__)
    uninstall = spans.install(spans.Recorder())
    assert splitcert.lerman.flow_jet is not before[1]
    uninstall()
    assert (splitcert.flow_jet, splitcert.lerman.flow_jet, splitcert.Interval.__add__) == before
