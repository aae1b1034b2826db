"""NMSE sweeps of KR vs KRG on synthetic ER graphs.

Runs the bench command with a bench config and prints the test-split
curve, sorted by (method, n_train, snr_db). The default config sweeps SNR
at N = 50; configs/bench_train_size_sweep.json sweeps N at 5 dB SNR. Plot
data lands in <out-dir>/plot_nmse_vs_*.csv.
"""

import argparse
import csv
import sys
from pathlib import Path

from krgraph.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config",
                    default=str(ROOT / "configs" / "bench_snr_sweep.json"))
    ap.add_argument("--out-dir", default="out/sweep")
    args = ap.parse_args(argv)

    rc = cli_main(["bench", "--config", args.config,
                   "--out-dir", args.out_dir])
    if rc != 0:
        return rc

    results = Path(args.out_dir) / "results.csv"
    with open(results, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["split"] == "test"]
    print(f"{'method':>6} {'n_train':>8} {'snr_db':>8} {'nmse_db':>10}")
    for r in sorted(rows, key=lambda r: (r["method"], int(r["n_train"]),
                                         float(r["snr_db"]))):
        print(f"{r['method']:>6} {int(r['n_train']):>8d} "
              f"{float(r['snr_db']):>8.1f} {float(r['nmse_db']):>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
