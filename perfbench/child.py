"""Run one krgraph CLI command in this fresh process and report timings.

Usage: python3 child.py RESULT_JSON [--trace SPANS_JSON] [-- CLI ARGS...]

The parent sets PERFBENCH_SPAWN_NS to the CLOCK_MONOTONIC time at which
it spawned this process, so setup_s covers interpreter start-up and the
import of krgraph.cli. With no CLI arguments the process only measures
its set-up. RESULT_JSON receives setup_s, run_s (the CLI call alone), the
exit code, and the peak resident set of this process.
"""

import json
import os
import sys
import time
import traceback


def _peak_rss_mb():
    # VmHWM is the high-water mark of this process image only; the
    # getrusage figure would also count the parent's memory inherited
    # across fork/exec.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def main(argv):
    result_path = argv[0]
    rest = argv[1:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    import krgraph.cli  # set-up ends when this import returns

    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC)
               - int(os.environ["PERFBENCH_SPAWN_NS"])) / 1e9
    tracer = None
    if spans_path:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    result = {"setup_s": setup_s, "run_s": 0.0, "exit_code": 0, "error": None}
    if cli_args:
        t0 = time.perf_counter()
        try:
            result["exit_code"] = krgraph.cli.main(cli_args)
        except Exception:
            result["exit_code"] = 1
            result["error"] = traceback.format_exc(limit=3)
        result["run_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
