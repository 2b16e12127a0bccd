"""Command-line front end: run verifications from config files.

Three commands are installed:

* ``lu-verify --config cfg.json --out cert.json`` runs the full worked-example
  pipeline and writes the splitting certificate; exit 0 iff verified.
* ``certify-root --config cfg.json --out cert.json`` runs the parameterized
  interval Newton certification for a polynomial map.
* ``export-samples --config cfg.json --out-dir dir`` writes nonrigorous
  manifold samples and rigorous local-enclosure boxes as CSV.

Configs are JSON with documented keys; unknown keys are rejected, and
integer settings must be JSON integers in range.  Exit codes: 0
success/verified, 1 verification failed (export-samples: a rigorous
computation failed, and nothing is written), 2 configuration error.
Reruns with the same config are byte-reproducible apart from the wall-time
field of certificates.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .intervals import IntervalBox, IntervalError
from .matrices import IntervalMatrix
from .newton import FunctionOracle, newton_verify
from .polys import PolyMap
from .flow import FlowSettings
from .lerman import LUConfig, local_enclosure_boxes, run_theorem_proof, sample_manifold


class ConfigError(Exception):
    pass


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _check_keys(doc: dict, allowed: set[str], where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _integer(minimum: int):
    """A conversion that passes JSON integers >= ``minimum`` unchanged and
    rejects anything else, booleans and floats included."""
    def convert(value):
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ValueError(f"must be an integer >= {minimum}, got {value!r}")
        return value
    return convert


# flow key -> (FlowSettings field, conversion)
_FLOW_KEYS = {"taylorOrder": ("taylor_order", _integer(2)),
              "initialStep": ("initial_step", float),
              "minStep": ("min_step", float), "maxSteps": ("max_steps", _integer(1))}
_LU_KEYS = {
    "problem", "lam", "omega", "epsMax", "R", "T", "localRadius", "lipschitz",
    "secondDerivBound", "flow", "subdivide", "epsSubdivide", "fallbackT",
}


def _convert(doc: dict, key: str, kind, default=None):
    """``kind(doc[key])``, or ``default`` when the key is absent; a value
    that ``kind`` rejects, or whose numbers are not all finite, is a
    :class:`ConfigError`."""
    if key not in doc:
        return default
    try:
        value = kind(doc[key])
        finite = bool(np.isfinite(np.asarray(value, dtype=float)).all())
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {key!r}: {exc}") from exc
    if not finite:
        raise ConfigError(f"invalid {key!r}: {doc[key]!r} is not finite")
    return value


def _flow_settings(doc: dict) -> FlowSettings:
    """The worked example's flow settings with the keys of ``doc`` replaced."""
    _check_keys(doc, set(_FLOW_KEYS), "flow")
    kw = {attr: _convert(doc, key, kind) for key, (attr, kind) in _FLOW_KEYS.items()
          if key in doc}
    return replace(LUConfig().flow, **kw)


def _lu_config(doc: dict) -> LUConfig:
    _check_keys(doc, _LU_KEYS, "config")
    if doc.get("problem", "lerman-umanskii") != "lerman-umanskii":
        raise ConfigError(f"unsupported problem: {doc.get('problem')!r}")
    kw = {}
    for json_key, attr in (
        ("lam", "lam"), ("omega", "omega"), ("epsMax", "eps_max"), ("R", "R"),
        ("T", "T"), ("localRadius", "local_radius"), ("lipschitz", "lipschitz"),
        ("secondDerivBound", "second_deriv_bound"), ("subdivide", "subdivide"),
        ("epsSubdivide", "eps_subdivide"),
    ):
        if json_key in doc:
            kw[attr] = doc[json_key]
    try:
        if "flow" in doc:
            kw["flow"] = _flow_settings(doc["flow"])
        if "fallbackT" in doc:
            kw["fallback_T"] = _convert(doc, "fallbackT", lambda v: tuple(map(float, v)))
        return LUConfig(**kw)
    except (TypeError, ValueError, IntervalError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def main_lu_verify(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="lu-verify",
                                 description="verify transversal manifold splitting for the worked 4-d example")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)
    try:
        cfg = _lu_config(_load_json(args.config))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    cert = run_theorem_proof(cfg)
    cert.write_json(args.out)
    margins = cert.margins()
    print(f"verdict: {cert.verdict}")
    if margins:
        print("margins: " + ", ".join(repr(m) for m in margins))
    if cert.transversal is not None:
        print(f"transversal: {cert.transversal}")
    if args.verbose:
        for key, val in cert.diagnostics.items():
            if isinstance(val, (str, int, float, bool)):
                print(f"  {key}: {val}")
        for a in cert.assumptions:
            print(f"  assumes: {a}")
    print(f"wall time: {cert.wall_time_seconds:.1f} s")
    return 0 if cert.verified else 1


_ROOT_KEYS = {"map", "X", "Y", "y0", "maxRefine"}


def _parse_box(doc, name) -> IntervalBox:
    try:
        lo = [float(pair[0]) for pair in doc]
        hi = [float(pair[1]) for pair in doc]
        return IntervalBox(lo, hi)
    except (TypeError, ValueError, IndexError, IntervalError) as exc:
        raise ConfigError(f"invalid box {name!r}: {exc}") from exc


def _parse_polymap(doc, nvars: int) -> PolyMap:
    try:
        comps = []
        for comp in doc:
            mono = []
            for term in comp:
                coeff, exps = term
                mono.append((float(coeff), tuple(int(e) for e in exps)))
            comps.append(mono)
        return PolyMap(nvars, comps)
    except (TypeError, ValueError, IndexError, IntervalError) as exc:
        raise ConfigError(f"invalid polynomial map: {exc}") from exc


def main_certify_root(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="certify-root",
                                 description="interval Newton certification of a polynomial zero family")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)
    try:
        doc = _load_json(args.config)
        _check_keys(doc, _ROOT_KEYS, "config")
        for key in ("map", "X", "Y"):
            if key not in doc:
                raise ConfigError(f"missing key {key!r}")
        x_box = _parse_box(doc["X"], "X")
        y_box = _parse_box(doc["Y"], "Y")
        pm = _parse_polymap(doc["map"], x_box.dim + y_box.dim)
        if pm.out_dim != y_box.dim:
            raise ConfigError("map output dimension must match Y")
        y0 = _convert(doc, "y0", lambda v: np.asarray(v, dtype=float))
        if y0 is not None and y0.shape != (y_box.dim,):
            raise ConfigError(f"y0 must have one entry per Y component ({y_box.dim})")
        max_refine = _convert(doc, "maxRefine", _integer(0), 8)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    kx = x_box.dim

    def ev(xb: IntervalBox, yb: IntervalBox) -> IntervalBox:
        return pm.eval_box(xb.concat(yb))

    def dv(xb: IntervalBox, yb: IntervalBox) -> IntervalMatrix:
        jet = pm.jet(xb.concat(yb))
        return jet.d1[:, kx:]

    cert = newton_verify(FunctionOracle(ev, dv), x_box, y_box, y0=y0, max_refine=max_refine)
    with open(args.out, "w") as fh:
        json.dump(cert.to_jsonable(), fh, indent=2)
        fh.write("\n")
    print(f"verified: {cert.verified}")
    if args.verbose or cert.verified:
        widths = cert.refined.width()
        print(f"enclosure max width: {float(np.max(widths))!r}")
    if not cert.verified:
        print(f"reason: {cert.message}")
    return 0 if cert.verified else 1


_EXPORT_KEYS = {"eps", "sides", "nParams", "nTimes", "boxGrid", "lu"}


def main_export_samples(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="export-samples",
                                 description="export manifold sample points and enclosure boxes as CSV")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)
    try:
        doc = _load_json(args.config)
        _check_keys(doc, _EXPORT_KEYS, "config")
        eps = _convert(doc, "eps", float, 0.0)
        sides = doc.get("sides", ["unstable", "stable"])
        if not isinstance(sides, list):
            raise ConfigError(f"'sides' must be a list, got {sides!r}")
        for s in sides:
            if s not in ("unstable", "stable"):
                raise ConfigError(f"unknown side {s!r}")
        n_params = _convert(doc, "nParams", _integer(0), 12)
        n_times = _convert(doc, "nTimes", _integer(1), 40)
        box_grid = _convert(doc, "boxGrid", _integer(1), 8)
        cfg = _lu_config(doc.get("lu", {}))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        samples = {side: sample_manifold(cfg, side, eps, n_params=n_params, n_times=n_times)
                   for side in sides}
        boxes = {side: local_enclosure_boxes(cfg, side, n_grid=box_grid) for side in sides}
    except IntervalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    sample_path = out / "samples.csv"
    with open(sample_path, "w") as fh:
        fh.write("eps,x1,x2,x3,x4,side\n")
        for side in sides:
            for row in samples[side]:
                fh.write(",".join(repr(float(v)) for v in row) + f",{side}\n")
    written = [str(sample_path)]
    for side, rows in boxes.items():
        path = out / f"boxes_{side}.csv"
        with open(path, "w") as fh:
            fh.write("x1_lo,x2_lo,x3_lo,x4_lo,x1_hi,x2_hi,x3_hi,x4_hi\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        written.append(str(path))
    if args.verbose:
        for w in written:
            print(f"wrote {w}")
    return 0
