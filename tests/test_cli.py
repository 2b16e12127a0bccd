"""CLI commands: configs, exit codes, files, reproducibility."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from splitcert.cli import main_certify_root, main_export_samples, main_lu_verify


def write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


SQRT2_CFG = {
    "map": [[[1.0, [0, 2]], [-2.0, [0, 0]]]],
    "X": [[0.0, 0.0]],
    "Y": [[1.3, 1.5]],
}


def test_certify_root_sqrt2(tmp_path):
    cfg = write(tmp_path / "c.json", SQRT2_CFG)
    out = str(tmp_path / "cert.json")
    assert main_certify_root(["--config", cfg, "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["verified"] is True
    lo, hi = doc["refined"][0]
    assert lo <= 1.4142135623730951 <= hi
    assert hi - lo <= 1e-12


def test_certify_root_no_zero(tmp_path):
    cfg = write(tmp_path / "c.json", {
        "map": [[[1.0, [0, 2]], [1.0, [0, 0]]]],
        "X": [[0.0, 0.0]],
        "Y": [[-2.0, 2.0]],
    })
    out = str(tmp_path / "cert.json")
    assert main_certify_root(["--config", cfg, "--out", out]) == 1
    assert json.loads(Path(out).read_text())["verified"] is False


def test_certify_root_malformed(tmp_path):
    cfg = write(tmp_path / "c.json", {"map": "y^2-2", "X": [[0, 0]], "Y": [[1, 2]]})
    assert main_certify_root(["--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
    cfg = write(tmp_path / "c2.json", {"map": [[[1.0, [0, 2]]]], "X": [[0, 0]],
                                       "Y": [[1, 2]], "bogus": 1})
    assert main_certify_root(["--config", cfg, "--out", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize("doc", [{"maxRefine": "abc"}, {"maxRefine": [1]}, {"maxRefine": 2.7},
                                 {"maxRefine": True}, {"maxRefine": -3}, {"y0": "abc"},
                                 {"y0": [1.4, 1.4]}, {"y0": [[1.4]]}, {"y0": [math.nan]},
                                 {"y0": [-math.inf]}],
                         ids=["maxRefine", "maxRefine_list", "maxRefine_float",
                              "maxRefine_bool", "maxRefine_negative", "y0", "y0_length",
                              "y0_shape", "y0_nan", "y0_inf"])
def test_certify_root_bad_values_are_config_errors(tmp_path, capsys, doc):
    # a value that does not convert, a float, boolean or negative count, or a
    # y0 of the wrong length, is a configuration error (exit 2), not a
    # traceback or a failed certificate
    cfg = write(tmp_path / "c.json", {**SQRT2_CFG, **doc})
    out = tmp_path / "o.json"
    assert main_certify_root(["--config", cfg, "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def test_certify_root_reproducible(tmp_path):
    cfg = write(tmp_path / "c.json", SQRT2_CFG)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main_certify_root(["--config", cfg, "--out", out1])
    main_certify_root(["--config", cfg, "--out", out2])
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_lu_verify_missing_config(tmp_path):
    rc = main_lu_verify(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_lu_verify_unknown_keys_rejected(tmp_path):
    # wrappingControl went with the direct mode: the key is now unknown
    for doc in ({"epsMax": 1e-7, "surprise": True},
                {"flow": {"wrappingControl": "parallelepiped"}}):
        cfg = write(tmp_path / "c.json", doc)
        assert main_lu_verify(["--config", cfg, "--out", str(tmp_path / "o.json")]) == 2


def test_lu_verify_invalid_values_rejected(tmp_path):
    cfg = write(tmp_path / "c.json", {"R": -1.0})
    assert main_lu_verify(["--config", cfg, "--out", str(tmp_path / "o.json")]) == 2


BAD_CERT_SETTINGS = ({"subdivide": 1.5}, {"subdivide": 0}, {"epsSubdivide": -2},
                     {"fallbackT": [5.0, -1.0]}, {"fallbackT": [5.0, float("inf")]},
                     {"T": float("nan")}, {"R": float("inf")},
                     {"flow": {"initialStep": float("inf")}},
                     {"flow": {"taylorOrder": "many"}}, {"flow": {"taylorOrder": 12.5}},
                     {"flow": {"maxSteps": True}})


def test_lu_verify_bad_certificate_settings_rejected(tmp_path, capsys, monkeypatch):
    # rejected at config time with exit 2, before any transport runs
    import splitcert.cli

    def no_run(cfg):
        raise AssertionError("the pipeline ran on a bad config")

    monkeypatch.setattr(splitcert.cli, "run_theorem_proof", no_run)
    for doc in BAD_CERT_SETTINGS:
        cfg = write(tmp_path / "c.json", doc)
        assert main_lu_verify(["--config", cfg, "--out", str(tmp_path / "o.json")]) == 2, doc
        assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_lu_config_rejects_bad_certificate_settings():
    from splitcert.intervals import IntervalError
    from splitcert.lerman import LUConfig
    for kw in ({"subdivide": 1.5}, {"subdivide": 0}, {"eps_subdivide": -2},
               {"subdivide": True}, {"fallback_T": (5.0, -1.0)}, {"fallback_T": (0.0,)},
               {"fallback_T": (math.inf,)}, {"T": math.nan}, {"R": math.inf},
               {"eps_max": math.nan}):
        with pytest.raises(IntervalError):
            LUConfig(**kw)
    # the benchmark's explicit settings stay valid
    LUConfig(subdivide=1, eps_subdivide=1, fallback_T=())
    LUConfig(subdivide=3, eps_subdivide=2, fallback_T=(5.0, 7.5))


def test_lu_config_partial_flow_keeps_worked_example_defaults():
    from splitcert.cli import _lu_config
    from splitcert.lerman import LUConfig
    default = LUConfig().flow
    cfg = _lu_config({"flow": {"initialStep": 0.125}})
    assert cfg.flow.taylor_order == 18 and cfg.flow == default
    cfg = _lu_config({"flow": {"minStep": 1e-5}})
    assert cfg.flow.taylor_order == 18 and cfg.flow.initial_step == default.initial_step
    assert cfg.flow.min_step == 1e-5
    assert _lu_config({}).flow == default


def test_lu_verify_short_transport_fails_fast(tmp_path):
    # T=2 cannot reach the section chart: structural failure, exit 1,
    # certificate written with diagnostics
    cfg = write(tmp_path / "c.json", {
        "T": 2.0,
        "flow": {"taylorOrder": 10, "initialStep": 0.25},
    })
    out = str(tmp_path / "cert.json")
    assert main_lu_verify(["--config", cfg, "--out", out, "--verbose"]) == 1
    doc = json.loads(Path(out).read_text())
    assert doc["verdict"] == "failed"
    assert "stage_error" in doc["diagnostics"]
    assert doc["toolVersion"].startswith("splitcert")


def test_export_samples(tmp_path):
    cfg = write(tmp_path / "c.json", {
        "eps": 0.0,
        "sides": ["unstable"],
        "nParams": 3,
        "nTimes": 5,
        "boxGrid": 3,
    })
    out_dir = tmp_path / "exp"
    assert main_export_samples(["--config", cfg, "--out-dir", str(out_dir)]) == 0
    samples = (out_dir / "samples.csv").read_text().strip().splitlines()
    assert samples[0] == "eps,x1,x2,x3,x4,side"
    assert len(samples) == 1 + 3 * 5
    # separatrix rows satisfy |H|, |K| <= 1e-8 at eps = 0
    from splitcert.intervals import IntervalBox
    from splitcert.lerman import LUConfig, integrals_HK
    lu = LUConfig()
    for line in samples[1:]:
        vals = line.split(",")
        x = np.array([float(v) for v in vals[1:5]])
        h, k = integrals_HK(lu, IntervalBox.point(x))
        assert abs(h.mid) <= 1e-8 and abs(k.mid) <= 1e-8
    boxes = (out_dir / "boxes_unstable.csv").read_text().strip().splitlines()
    assert len(boxes) == 1 + 9
    for line in boxes[1:]:
        row = [float(v) for v in line.split(",")]
        assert row[6] - row[2] <= 2 * lu.lipschitz * lu.local_radius + 1e-18


def test_export_samples_empty(tmp_path):
    cfg = write(tmp_path / "c.json", {"sides": ["stable"], "nParams": 0, "nTimes": 5, "boxGrid": 2})
    out_dir = tmp_path / "exp"
    assert main_export_samples(["--config", cfg, "--out-dir", str(out_dir)]) == 0
    samples = (out_dir / "samples.csv").read_text().splitlines()
    assert samples == ["eps,x1,x2,x3,x4,side"]


@pytest.mark.parametrize("doc", [{"eps": "small"}, {"nParams": "many"}, {"nTimes": None},
                                 {"boxGrid": 1e400}, {"eps": math.nan}, {"eps": math.inf},
                                 {"nParams": 2.9}, {"nParams": -1}, {"nTimes": 0},
                                 {"nTimes": False}, {"boxGrid": 0}, {"boxGrid": -1},
                                 {"sides": "unstable"}],
                         ids=["eps", "nParams", "nTimes", "boxGrid", "eps_nan", "eps_inf",
                              "nParams_float", "nParams_negative", "nTimes_zero",
                              "nTimes_bool", "boxGrid_zero", "boxGrid_negative",
                              "sides_string"])
def test_export_samples_bad_values_are_config_errors(tmp_path, capsys, doc):
    cfg = write(tmp_path / "c.json", doc)
    out_dir = tmp_path / "exp"
    assert main_export_samples(["--config", cfg, "--out-dir", str(out_dir)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_export_samples_runtime_failure_exits_1(tmp_path, capsys):
    # a perturbation whose float transport overflows fails the sampling
    # (FlowError, an IntervalError): one error line, exit 1, nothing written
    cfg = write(tmp_path / "c.json", {"eps": 1e300, "nParams": 2, "nTimes": 3, "boxGrid": 1})
    out_dir = tmp_path / "exp"
    assert main_export_samples(["--config", cfg, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out_dir.exists()


def test_export_samples_bad_side(tmp_path):
    cfg = write(tmp_path / "c.json", {"sides": ["sideways"]})
    assert main_export_samples(["--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2
