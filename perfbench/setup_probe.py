"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py WORKLOAD SRC_DIR PROBE_INTERVAL_S

Prints the seconds from importing splitcert to a finished ``setup()``, as
measured and at the reference speed of the host-speed probes taken every
PROBE_INTERVAL_S meanwhile (see reference.py).  numpy is imported before
the clock starts: it is not splitcert's cost.  run.py starts several of
these one after another and reports the median.
"""

import sys
import time

import numpy  # noqa: F401

import reference

sys.path.insert(0, sys.argv[2])
with reference.Probes(float(sys.argv[3])) as probes:
    t0 = time.perf_counter()
    from workloads import WORKLOADS  # noqa: E402  (imports splitcert)

    WORKLOADS[sys.argv[1]].setup()
    seconds = time.perf_counter() - t0
print(repr(seconds), repr(probes.scaled(seconds, 0)))
