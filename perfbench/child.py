"""One CLI invocation of ranking_market in a fresh process.

Run as ``python3 perfbench/child.py`` with the package on PYTHONPATH. The
protocol on stdin/stdout is line-oriented JSON:

1. once ``ranking_market.cli`` is imported, print ``ready``;
2. read one request ``{"argv": [...], "trace": bool, "procs": int}``;
3. run ``cli.main(argv)`` with its machine output captured, between two
   host-speed calibrations on ``procs`` processes, and print one result line
   with the exit code, the output, wall and CPU time (this process plus its
   reaped pool workers), peak RSS, the calibration times and, when traced,
   the span table.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stdout
from time import perf_counter

from calibration import calibrate_on, reap
from ranking_market import cli
from tracing import Tracer


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    request = json.loads(sys.stdin.readline())
    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    result = {"source": cli.__file__}
    cal_before, helpers = calibrate_on(request["procs"])
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    try:
        with redirect_stdout(captured):
            if tracer is None:
                result["rc"] = cli.main(request["argv"])
            else:
                result["rc"] = tracer.run(cli.main, request["argv"])
    except Exception:
        result["rc"] = None
        result["error"] = traceback.format_exc()
    wall = perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    reap(helpers)
    cal_after, helpers = calibrate_on(request["procs"])
    reap(helpers)
    result.update(
        calibration_s=(cal_before + cal_after) / 2.0,
        output=captured.getvalue(),
        wall_s=wall,
        cpu_s=_cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest worker
        peak_rss_mb=(self1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
        trace=tracer.table() if tracer is not None else None,
    )
    out.write(json.dumps(result) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
