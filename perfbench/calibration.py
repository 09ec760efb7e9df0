"""Host-speed calibration.

On a shared virtual machine the speed of the host drifts with its other
tenants' load: by up to a factor of two over minutes on a 2-vCPU Xeon VM.
``calibrate()`` times a fixed piece of work of the same kind as the
package's trials: a per-trial numpy stream, then a min-score scan over a
triangular adjacency in plain Python. It never changes with the package, so
dividing the package's times by it removes most of the drift (over ten
runs, the quartile spread of trials/s fell from 14-20% to 2-7%). It runs in
the process that runs the package, before and after it, because the CPUs of
a shared host do not drift alike.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

CAL_SEED = 0
CAL_ROUNDS = 1000
CAL_SIDE = 30


def calibrate() -> float:
    """Seconds taken by a fixed workload that does not depend on the package."""
    t0 = perf_counter()
    for t in range(CAL_ROUNDS):
        score = np.random.default_rng((CAL_SEED, t)).random(CAL_SIDE).tolist()
        taken = [False] * CAL_SIDE
        for b in range(CAL_SIDE):
            best_j, best_s = -1, 2.0
            for j in range(b + 1):
                if not taken[j] and score[j] < best_s:
                    best_j, best_s = j, score[j]
            if best_j >= 0:
                taken[best_j] = True
    return perf_counter() - t0


def calibrate_on(procs: int) -> tuple[float, list[int]]:
    """Mean calibration time of `procs` processes running calibrate() at once,
    for invocations whose process pool keeps that many CPUs busy.

    Also returns the pids of the forked helpers, which have exited but are
    not yet reaped: a caller that measures RUSAGE_CHILDREN reaps them with
    reap() after its last reading, so they stay out of it."""
    readers, pids = [], []
    for _ in range(procs - 1):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the forked helper
            os.close(r)
            os.write(w, repr(calibrate()).encode())
            os._exit(0)
        os.close(w)
        readers.append(r)
        pids.append(pid)
    times = [calibrate()]
    for r in readers:
        with os.fdopen(r) as f:
            times.append(float(f.read()))
    return sum(times) / len(times), pids


def reap(pids: list[int]) -> None:
    for pid in pids:
        os.waitpid(pid, 0)
