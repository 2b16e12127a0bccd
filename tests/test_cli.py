"""CLI commands: configs, exit codes, files, reproducibility."""

import json
from pathlib import Path

import numpy as np

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


def test_export_samples_bad_side(tmp_path):
    cfg = write(tmp_path / "c.json", {"sides": ["sideways"]})
    assert main_export_samples(["--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2
