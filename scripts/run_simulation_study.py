#!/usr/bin/env python3
"""Desk-scale simulation study: shape and form scenarios on the built-in truth.

Replicates the synthetic benchmark: balanced binary + smooth tilt effect with
three nuisance terms, irregular subsampled grids, residual noise calibrated to
a target noise-to-signal ratio, random similarity frames.  Reports median
relative mean squared errors per effect and nuisance selection shares.  The
cells and seeds are ``simulate.study_configs``, so ``--reps 20`` runs exactly
the replicates of acceptance criterion 7.

Usage:
    python scripts/run_simulation_study.py [--reps 20] [--out results.csv]
"""

import argparse
import csv
import sys
import time
import warnings

import numpy as np

from shapeboost.simulate import gen_truth, run_replicate, study_configs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--kbar", type=float, default=40.0)
    parser.add_argument("--eta", type=float, default=0.25)
    parser.add_argument("--iterations", type=int, default=250)
    parser.add_argument("--df", type=float, default=4.0)
    parser.add_argument("--out", default="simulation_results.csv")
    args = parser.parse_args(argv)

    warnings.filterwarnings("ignore")
    truth = gen_truth()
    rows = []
    t0 = time.time()
    for cfg in study_configs(args.reps, k_bar=args.kbar):
        row = {"kind": cfg.kind.value, "n": cfg.n, "k_bar": cfg.k_bar, "seed": cfg.seed}
        rows.append(row | run_replicate(truth, cfg, eta=args.eta, iterations=args.iterations, df=args.df))
        cell = [r for r in rows if (r["kind"], r["n"]) == (row["kind"], row["n"])]
        if len(cell) == args.reps:
            med_t = np.median([r["rmse_tilt"] for r in cell])
            med_g = np.median([r["rmse_group"] for r in cell])
            print(
                f"{row['kind']} n={row['n']}: median rMSE tilt {med_t:.4f}, group {med_g:.4f} "
                f"({time.time() - t0:.0f}s elapsed)"
            )

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
