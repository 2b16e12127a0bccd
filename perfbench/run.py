"""splitcert benchmark: one seeded, closed-loop, single-threaded workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures end to end: set-up time (median of fresh-process
set-ups), then the workload's operations back to back, cycling through the
batch, until the next operation would overrun ``--seconds`` (at least one
whole batch).  Each operation's time is the median over its repeats.
Times are reported in reference seconds: host-speed probes taken inside
each set-up and operation divide out the shared host's drift (see
reference.py); the times as measured are printed and saved as well.
``--trace 1`` runs one untraced and one traced batch and reports the
per-layer metrics from the spans (see spans.py).  Every operation's output
is checked; an operation that raises or fails its check counts as failed.

The program is imported from ``src/`` next to this directory, never from an
installed copy.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment, is also written to
``perfbench/out/``; a traced run writes its spans there too.
"""

from __future__ import annotations

import os

# pinned before numpy loads its BLAS; set-up probes inherit them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 5
SETUP_MAX_REPS = 11
SETUP_BUDGET_S = 1.0
# host-speed probe intervals (reference.py): one probe costs about 0.2 ms
LOOP_PROBE_S = 0.02
SETUP_PROBE_S = 0.005
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB",
         "width_max": "1"}

_clock = time.perf_counter


def _import_program():
    if not (SRC / "splitcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no splitcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import splitcert

    if Path(splitcert.__file__).resolve().parent != SRC / "splitcert":
        raise SystemExit(f"error: imported splitcert from {splitcert.__file__}, not {SRC}")


def _environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "platform": platform.platform(), "seed": seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _setup_seconds(name: str) -> tuple[list[float], list[float]]:
    """Cold set-up times, each in a fresh interpreter, one after another.

    At least SETUP_REPS of them; more while their sum stays within
    SETUP_BUDGET_S, so that a short set-up gets a steadier median.
    Returns (measured seconds, reference seconds).
    """
    times, ref = [], []
    while len(times) < SETUP_REPS or (len(times) < SETUP_MAX_REPS
                                      and sum(times) < SETUP_BUDGET_S):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(SRC),
                               str(SETUP_PROBE_S)],
                              capture_output=True, text=True, timeout=120, check=True)
        measured, scaled = map(float, done.stdout.split()[-2:])
        times.append(measured)
        ref.append(scaled)
    return times, ref


def _run_loop(wl, fixture, inputs, seconds: float, on_op=None, probes=None):
    """Closed loop cycling through the batch: (op seconds, op reference seconds, rounds).

    Runs one whole batch, then goes on op by op until the next one would
    overrun ``seconds`` by its previous time.  Cycling op by op rather than
    batch by batch spends the whole budget, so every op gets as many
    repeats as fit.  The op times are lists per op; the reference seconds
    are those the ``probes`` taken inside each op give (empty without
    probes).  ``rounds`` holds the outputs of each pass over the batch; the
    last pass may stop early.
    """
    op_s, ref_s, rounds = [[] for _ in inputs], [[] for _ in inputs], []
    t_begin = _clock()
    for k in itertools.count():
        j = k % len(inputs)
        if k >= len(inputs) and _clock() - t_begin + op_s[j][-1] > seconds:
            break
        if j == 0:
            rounds.append([])
        if on_op is not None:
            on_op(j)
        first = len(probes.samples) if probes is not None else 0
        t0 = _clock()
        try:
            out = wl.run(fixture, inputs[j])
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        op_s[j].append(_clock() - t0)
        if probes is not None:
            ref_s[j].append(probes.scaled(op_s[j][-1], first))
        rounds[-1].append(out)
    return op_s, ref_s, rounds


def _check(wl, fixture, inputs, rounds) -> tuple[int, list[str], dict]:
    """Check every output; a repeated op must reproduce its first headline.

    ``rounds`` holds the outputs of each pass over the batch, as
    ``_run_loop`` returns them.  Returns (attempted, failure reasons,
    headline of each checked op).
    """
    attempted, reasons, heads = 0, [], {}
    for b, outs in enumerate(rounds):
        for j, (inp, out) in enumerate(zip(inputs, outs)):
            attempted += 1
            if isinstance(out, Exception):
                where = traceback.extract_tb(out.__traceback__)[-1]
                reasons.append(f"pass {b + 1} op {j}: {type(out).__name__}: {out} "
                               f"(at {Path(where.filename).name}:{where.lineno})")
                continue
            try:
                why = wl.check(fixture, inp, out)
                head = wl.headline(inp, out)
            except Exception as exc:  # a check that cannot run is a failed output
                why = f"check raised {type(exc).__name__}: {exc}"
            if why is None and heads.setdefault(j, head) != head:
                why = f"not reproducible: {head} != {heads[j]}"
            if why is not None:
                reasons.append(f"pass {b + 1} op {j}: {why}")
    return attempted, reasons, heads


def _end_to_end(wl, fixture, inputs, seconds: float, name: str) -> dict:
    setup, setup_ref = _setup_seconds(name)
    with reference.Probes(LOOP_PROBE_S) as probes:
        op_s, ref_s, rounds = _run_loop(wl, fixture, inputs, seconds, probes=probes)
    attempted, reasons, heads = _check(wl, fixture, inputs, rounds)
    failed = len(reasons)
    heads = list(heads.values())
    op_med = [statistics.median(t) for t in op_s]
    ref_med = [statistics.median(t) for t in ref_s]
    reps = sorted(len(t) for t in op_s)
    measured = {"setup_s": statistics.median(setup), "wall_s": sum(op_med),
                "op_p50_s": statistics.median(op_med)}
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "wall_s": sum(ref_med),
        "op_p50_s": statistics.median(ref_med),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "width_max": max((h["width_max"] for h in heads), default=0.0),
    }
    basis = {
        "setup_s": f"median of {len(setup)} fresh-process set-ups, reference seconds",
        "wall_s": f"sum over the batch's {len(inputs)} ops of each op's median, "
                  "reference seconds",
        "op_p50_s": f"median over {len(inputs)} ops of each op's median, reference seconds; "
                    f"{'-'.join(map(str, sorted({reps[0], reps[-1]})))} repeats each, "
                    f"{attempted} ops in all",
        "peak_rss_mb": "max resident set of this process",
        "width_max": f"max over the {len(heads)} checked ops",
    }
    basis.update({f"measured.{k}": "the same, as measured on the host" for k in measured})
    basis["probes"] = (f"host-speed probes inside the ops, mean "
                       f"{statistics.fmean(probes.samples) * 1e6:.1f} us "
                       f"(reference {reference.NOMINAL_S * 1e6:.0f} us)")
    extra = {"setup_samples_s": setup, "setup_ref_s": setup_ref, "op_s": op_s, "op_ref_s": ref_s,
             "probes": len(probes.samples), "fail_ratio": failed / attempted,
             **{f"measured.{k}": v for k, v in measured.items()}}
    margins = [h["margin_min"] for h in heads if "margin_min" in h]
    if margins:
        extra["margin_min"] = min(margins)
        basis["margin_min"] = f"min over the {len(margins)} checked ops"
    return {"attempted": attempted, "failed": failed, "reasons": reasons,
            "metrics": metrics, "units": UNITS, "basis": basis, "extra": extra}


def _traced(wl, fixture, inputs, name: str, workloads) -> tuple[dict, object]:
    """One untraced and one traced batch (the traced one includes set-up)."""
    import spans

    plain_ops, _, plain = _run_loop(wl, fixture, inputs, 0.0)
    rec = spans.Recorder()
    uninstall = spans.install(rec, extra_namespaces=(workloads,))
    try:
        traced_ops, _, traced = _run_loop(wl, wl.setup(), inputs, 0.0,
                                          on_op=lambda j: setattr(rec, "op", j))
    finally:
        uninstall()
    attempted, reasons, _ = _check(wl, fixture, inputs, plain + traced)
    plain_s, traced_s = sum(map(sum, plain_ops)), sum(map(sum, traced_ops))
    metrics = spans.layer_metrics(rec, traced_s / plain_s - 1.0)
    silent = [m for m in wl.expected if not metrics[m] > 0]
    if silent:
        raise SystemExit(f"error: traced run of {name} recorded nothing for {', '.join(silent)}; "
                         "a traced entry point was probably renamed or bypassed")
    res = {"attempted": attempted, "failed": len(reasons), "reasons": reasons,
           "metrics": metrics, "units": spans.UNITS, "basis": {}, "extra": {
               "spans": len(rec.start), "plain_batch_s": plain_s, "traced_batch_s": traced_s,
               "fail_ratio": len(reasons) / attempted}}
    return res, rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    fixture = wl.setup()
    inputs = wl.inputs(args.seed, fixture)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        res, rec = _traced(wl, fixture, inputs, args.workload, workloads)
        rec.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
    else:
        res = _end_to_end(wl, fixture, inputs, args.seconds, args.workload)
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               environment=_environment(args.seed))

    print(f"splitcert benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} closed loop, 1 thread")
    print(f"ops attempted={res['attempted']} failed={res['failed']} "
          f"fail_ratio={res['failed'] / res['attempted']:.4g}")
    for reason in res["reasons"][:10]:
        print(f"  FAILED {reason}")
    rows = dict(res["metrics"])
    rows.update((k, v) for k, v in res["extra"].items()
                if k in ("margin_min", "probes") or k.startswith("measured."))
    for key, value in rows.items():
        print(f"  {key:<28} {value:<14.6g} {res['units'].get(key.removeprefix('measured.'), '1'):<6} "
              f"{res['basis'].get(key, '')}")
    print("env " + json.dumps(res["environment"]))
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(res, fh, indent=1)
        fh.write("\n")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
