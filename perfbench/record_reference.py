#!/usr/bin/env python3
"""Record the snr_sweep reference: results.csv digest and NMSE per seed.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py 0 1 2 2026

Runs `krgraph bench` on the shipped sweep config with each master seed,
in a child process with BLAS pinned to one thread as in the benchmark,
and merges the entries into perfbench/snr_reference.json. Record only
from a commit whose results.csv is known to be right.
"""

import json
import shutil
import sys

import checks
import run


def entry(results_csv):
    with open(results_csv, encoding="utf-8") as fh:
        values = [float(line.split(",")[4]) for line in fh.read().splitlines()[1:]]
    return {"sha256": checks.sha256(results_csv), "nmse_db": values}


def main(seeds):
    refs = {}
    if run.REFERENCE.exists():
        with open(run.REFERENCE, encoding="utf-8") as fh:
            refs = json.load(fh)
    work = run.WORK_ROOT / "reference"
    for seed in seeds:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = run.prepare("snr_sweep", work, seed)
        _, cli_args, out = wl.commands[0]
        res = run.spawn(work, "bench", cli_args)
        if res is None or res["exit_code"] != 0:
            print(f"seed {seed}: bench failed", file=sys.stderr)
            return 1
        refs[str(seed)] = entry(out / "results.csv")
        print(f"seed {seed}: {refs[str(seed)]['sha256']}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(refs[k])}"
            for k in sorted(refs, key=int)) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
