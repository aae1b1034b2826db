#!/usr/bin/env python3
"""krgraph benchmark: three workloads through the real command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload snr_sweep --seed 0 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  snr_sweep    krgraph bench on configs/bench_snr_sweep.json, master_seed = seed
  fit_predict  krgraph fit, then krgraph predict, on generated RBF data
  learn_graph  krgraph learn-graph on generated graph-smooth data

Load model: a closed loop with one client. Every command runs in a fresh
child process (perfbench/child.py) and the next one starts only after the
previous one ended. BLAS is pinned to one thread in every child.

With --trace 0 the run measures set-up time, command wall time and peak
resident memory with no instrumentation. With --trace 1 it alternates
untraced and traced passes of the workload; the traced pass wraps the
public functions of each krgraph module from outside the program and
reports per-layer calls and times, and the tracing overhead. Each pass
is followed by output checks that recompute the expected outputs with
numpy. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import os

_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
os.environ.update(_BLAS_ENV)   # before numpy loads, for the checks here too

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SNR_CONFIG = ROOT / "configs" / "bench_snr_sweep.json"
REFERENCE = HERE / "snr_reference.json"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("snr_sweep", "fit_predict", "learn_graph")
CHILD_TIMEOUT_S = 160
SMOKE_SNR = {"n_train": [10], "snr_db": [0.0, 20.0], "realizations": 2,
             "num_nodes": 8, "num_samples": 24,
             "grid": {"alphas": [0.01, 1.0], "betas": [0.0, 0.3, 3.0],
                      "folds": 3}}


@dataclass
class Workload:
    name: str
    commands: list            # [(command name, CLI argument list, out dir)]
    outputs: list             # byte-stable output files, hashed per pass
    check: object             # () -> [(check name, passed, detail)]
    info: dict = field(default_factory=dict)
    # Check results by output digests: the checks are a function of the
    # output bytes, so a pass that wrote the same bytes reuses them.
    checked: dict = field(default_factory=dict)


@dataclass
class Pass:
    """One execution of every command of a workload, plus its checks."""

    run_s: list
    setup_s: list
    peak_rss_mb: float
    commands_failed: int
    checks: list
    hashes: dict
    spans: list


def snr_expected_counts(cfg):
    """Closed-form call counts of one snr_sweep bench run.

    Per (method, realization): one generated dataset, and folds + 1
    spectral builds (one per CV fold, one for the final fit). Solves, and
    cross-kernels, are |alphas| * |betas| * folds + 1 for KRG and
    |alphas| * folds + 1 for KR.
    """
    grid = cfg["grid"]
    folds = grid.get("folds", 5)
    per_method = cfg["realizations"] * len(cfg["n_train"]) * len(cfg["snr_db"])
    solves = 0
    for method in cfg["methods"]:
        betas = 1 if method in ("KR", "LR") else len(grid["betas"])
        solves += per_method * (len(grid["alphas"]) * betas * folds + 1)
    runs = per_method * len(cfg["methods"])
    return {
        "synthdata.make_synthetic_dataset.calls": runs,
        "solver.SpectralCache.build.calls": runs * (folds + 1),
        "graphs.Laplacian.eigendecomposition.calls": runs * (folds + 1),
        "solver.solve_sylvester_spectral.calls": solves,
        "kernels.kernel_cross_matrix.calls": solves,
        "evaluation.cross_validate.calls": runs,
    }


def prepare(name, work, seed, smoke=False):
    """Write the workload's inputs under `work` and describe its commands."""
    if name == "snr_sweep":
        with open(SNR_CONFIG, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if smoke:
            cfg.update(SMOKE_SNR)
        cfg["master_seed"] = seed
        cfg_path, out = work / "bench.json", work / "bench_out"
        inputs.write_json(cfg_path, cfg)
        reference = None if smoke else checks.load_reference(REFERENCE, seed)
        realizations = (cfg["realizations"] * len(cfg["n_train"])
                        * len(cfg["snr_db"]) * len(cfg["methods"]))
        return Workload(
            name, [("bench", ["bench", "--config", str(cfg_path),
                              "--out-dir", str(out)], out)],
            [out / "results.csv", out / "results.json"],
            lambda: checks.check_snr_sweep(cfg, out / "results.csv",
                                           out / "results.json", reference),
            {"config": cfg, "realizations": realizations,
             "reference": reference is not None})
    if name == "fit_predict":
        sizes = inputs.FIT_PREDICT_SMOKE if smoke else inputs.FIT_PREDICT
        p = inputs.make_fit_predict(work, seed, sizes)
        return Workload(
            name,
            [("fit", ["fit", "--config", str(p["fit"]),
                      "--out-dir", str(p["fit_dir"])], p["fit_dir"]),
             ("predict", ["predict", "--config", str(p["predict"]),
                          "--out-dir", str(p["predict_dir"])], p["predict_dir"])],
            [p["fit_dir"] / "model.json", p["fit_dir"] / "fit_report.json",
             p["predict_dir"] / "predictions.csv"],
            lambda: checks.check_fit_predict(
                p["x_train"], p["t_train"], p["x_test"], p["graph"], sizes["sigma_sq"],
                sizes["alpha"], sizes["beta"], p["fit_dir"] / "model.json",
                p["predict_dir"] / "predictions.csv"))
    if name == "learn_graph":
        sizes = inputs.LEARN_GRAPH_SMOKE if smoke else inputs.LEARN_GRAPH
        p = inputs.make_learn_graph(work, seed, sizes)
        out = p["out_dir"]
        return Workload(
            name, [("learn-graph", ["learn-graph", "--config",
                                    str(p["learn_graph"]), "--out-dir",
                                    str(out)], out)],
            [out / "laplacian.csv", out / "model.json", out / "cost_trace.json"],
            lambda: checks.check_learn_graph(out / "laplacian.csv",
                                             out / "cost_trace.json"))
    raise ValueError(f"unknown workload {name!r}")


def spawn(work, tag, cli_args=(), spans_path=None):
    """Run child.py once in a fresh interpreter; return its result dict,
    or None when it produced none."""
    result_path = work / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(result_path)]
    if spans_path is not None:
        argv += ["--trace", str(spans_path)]
    argv += ["--", *cli_args]
    env = dict(os.environ)   # carries the BLAS pinning set at import
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(work / f"{tag}.stderr", "wb") as err:
        env["PERFBENCH_SPAWN_NS"] = str(
            time.clock_gettime_ns(time.CLOCK_MONOTONIC))
        try:
            subprocess.run(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL, stderr=err,
                           timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return None
    if not result_path.exists():
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(wl, work, tag, trace=False):
    """Run every command of the workload once, then check the outputs."""
    for _, _, out in wl.commands:
        shutil.rmtree(out, ignore_errors=True)
    run_s, setup_s, rss, failed, span_docs = [], [], [], 0, []
    for i, (cmd, cli_args, _) in enumerate(wl.commands):
        spans_path = work / f"{tag}-{i}.spans.json" if trace else None
        t0 = time.monotonic()
        res = spawn(work, f"{tag}-{i}", cli_args, spans_path)
        wall = time.monotonic() - t0
        if res is None or res["exit_code"] != 0:
            failed += 1
            detail = res["error"] if res and res["error"] else \
                (work / f"{tag}-{i}.stderr").read_text(errors="replace")[-400:]
            print(f"command {cmd} failed: {detail.strip()}", file=sys.stderr)
        if res is None:
            run_s.append(wall)
            continue
        run_s.append(res["run_s"])
        setup_s.append(res["setup_s"])
        rss.append(res["peak_rss_mb"])
        if trace and spans_path.exists():
            with open(spans_path, encoding="utf-8") as fh:
                span_docs.append(json.load(fh))
            spans_path.unlink()
    hashes = {p.name: checks.sha256(p) for p in wl.outputs if p.exists()}
    key = tuple(sorted(hashes.items()))
    if key not in wl.checked:
        wl.checked[key] = wl.check()
        for name, ok, detail in wl.checked[key]:
            if not ok:
                print(f"check failed: {name}: {detail}", file=sys.stderr)
    results = wl.checked[key]
    return Pass(run_s, setup_s, max(rss, default=0.0), failed,
                results, hashes, span_docs)


def environment():
    """What the figures depend on besides the code."""
    import scipy
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg['name']} {cfg['version']}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": _BLAS_ENV}


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(wl, work, seconds, trace):
    """Run passes for about `seconds`; return (passes, traced passes,
    set-up samples)."""
    spawn(work, "warmup")   # compiles bytecode and warms the file cache
    start = time.monotonic()
    setup = []
    if not trace:   # one probe, so a single-pass run has two samples
        res = spawn(work, "probe")
        if res is not None:
            setup.append(res["setup_s"])
    plain, traced, durations = [], [], []
    while True:
        t0 = time.monotonic()
        plain.append(run_pass(wl, work, f"p{len(plain)}"))
        if trace:
            traced.append(run_pass(wl, work, f"t{len(traced)}", trace=True))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed >= seconds - 0.5 * statistics.mean(durations):
            break
    for p in plain:
        setup.extend(p.setup_s)
    return plain, traced, setup


def summarize(wl, plain, traced, setup, trace):
    """(correct, attempted, failed, metrics, report lines)."""
    attempted = failed = 0
    for p in plain + traced:
        attempted += len(wl.commands) + len(p.checks)
        failed += p.commands_failed + sum(1 for _, ok, _ in p.checks if not ok)
    # Determinism: every pass, traced or not, writes the same bytes.
    reference = plain[0].hashes
    for p in plain[1:] + traced:
        attempted += 1
        if p.hashes != reference:
            failed += 1
            print("check failed: outputs differ between passes",
                  file=sys.stderr)
    lines = [f"check {name}: {'ok' if ok else 'FAILED'}"
             + (f" ({detail})" if detail else "")
             for name, ok, detail in plain[0].checks]
    run_s = [sum(p.run_s) for p in plain]
    if not trace:
        metrics = {
            "setup_s": (_median(setup), "s"),
            "run_s": (_median(run_s), "s"),
            "fit_s": (_median([p.run_s[0] for p in plain]), "s"),
            "predict_s": (_median([p.run_s[-1] for p in plain]), "s"),
            "peak_rss_mb": (_median([p.peak_rss_mb for p in plain]), "MiB"),
        }
        extra = {"failed_frac": (failed / attempted, "1")}
        if "realizations" in wl.info:
            extra["realizations_per_s"] = (
                wl.info["realizations"] / metrics["run_s"][0], "1/s")
        lines.append(f"passes {len(plain)}, set-up samples {len(setup)}, "
                     f"run_s per pass {[round(v, 3) for v in run_s]}")
        for name, (value, unit) in {**metrics, **extra}.items():
            lines.append(f"{name} {value:.6g} {unit}")
    else:
        per_pass = [tracer.aggregate(p.spans) for p in traced]
        absent = per_pass[0][1]
        metrics = {}
        for n in tracer.metric_names():
            if n not in per_pass[0][0]:
                continue   # absent layer, or trace_overhead_s (below)
            values = [m[n] for m, _ in per_pass]
            stat = n.rsplit(".", 1)[1]
            unit = tracer.UNITS[stat]
            if unit == "s":
                metrics[n] = (_median(values), unit)
            else:
                metrics[n] = (values[0], unit)
                if any(v != values[0] for v in values):
                    lines.append(f"warning: {n} differs between passes: {values}")
        overhead = (_median([sum(p.run_s) for p in traced])
                    - _median(run_s))
        metrics["trace_overhead_s"] = (overhead, "s")
        lines.append(f"traced passes {len(traced)}, untraced run_s "
                     f"{_median(run_s):.4f} s, tracing overhead "
                     f"{overhead:.4f} s")
        if absent:
            lines.append(f"absent layers (metrics left out): {absent}")
        if wl.name == "snr_sweep":
            expected = snr_expected_counts(wl.info["config"])
            mism = {k: (metrics[k][0], v) for k, v in expected.items()
                    if k in metrics and metrics[k][0] != v}
            lines.append("call counts match the closed forms" if not mism
                         else f"call counts differ from closed forms "
                              f"(measured, expected): {mism}")
        for name, (value, unit) in metrics.items():
            lines.append(f"{name} {value:.6g} {unit}")
    correct = failed == 0
    return correct, attempted, failed, metrics, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    missing = [p for p in (SRC / "krgraph" / "cli.py", SNR_CONFIG)
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a krgraph checkout, missing "
              f"{[str(p.relative_to(ROOT)) for p in missing]}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = prepare(args.workload, work, args.seed, args.smoke)
        plain, traced, setup = measure(wl, work, args.seconds, args.trace)
        correct, attempted, failed, metrics, lines = summarize(
            wl, plain, traced, setup, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}"
          + ("" if args.workload != "snr_sweep" else
             f" (reference for this seed: "
             f"{'yes' if wl.info['reference'] else 'none recorded'})"))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
