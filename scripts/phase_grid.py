#!/usr/bin/env python3
"""Phase-transition grids for two transforms, side by side.

Sweeps rank ratio x sparsity ratio, records the fraction of exact
recoveries per cell for DCT and a random orthogonal transform, writes both
CSVs, and prints the matrices (1.0 = always recovered).
"""

import argparse

import numpy as np

from trpca import synth
from trpca.cli import _parse_ratios


def write_csv(path, grid):
    with open(path, "w", encoding="utf-8") as f:
        f.write("rank_ratio\\sparsity_ratio,"
                + ",".join(f"{v:.17g}" for v in grid.sparsity_ratios) + "\n")
        for i, rr in enumerate(grid.rank_ratios):
            f.write(f"{rr:.17g}," + ",".join(f"{v:.17g}" for v in grid.success[i])
                    + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--n3", type=int, default=15)
    ap.add_argument("--ratios", default="0.05:0.1:0.45",
                    help="a:b:c range or comma list, used for both axes")
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--sign-model", default="random_signs",
                    choices=list(synth.SIGN_MODELS))
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--rom-seed", type=int, default=11)
    ap.add_argument("--out-prefix", default="phase")
    args = ap.parse_args()

    ratios = _parse_ratios(args.ratios)
    grids = {}
    for label, spec in (("dct", "dct"), ("rom", f"rom:{args.rom_seed}")):
        base = synth.RecoveryTrialConfig(
            n1=args.n, n2=args.n, n3=args.n3, r=1, m=0,
            sign_model=args.sign_model, transform_spec=spec, seed=args.seed,
        )
        grids[label] = synth.run_phase_grid(base, ratios, ratios, args.trials)
        out = f"{args.out_prefix}_{label}.csv"
        write_csv(out, grids[label])
        print(f"\n{label} (rows: rank ratio, cols: sparsity ratio) -> {out}")
        with np.printoptions(precision=2, suppress=True):
            print(grids[label].success)
        print(f"certified failures: {int(grids[label].certified.sum())}, "
              f"of which {grids[label].certified_disagreements} had "
              f"rel_err_low_rank <= {synth.SUCCESS_REL_ERR:g}")

    diff = int(np.sum(grids["dct"].success != grids["rom"].success))
    print(f"\ncells differing between transforms: {diff}/{grids['dct'].success.size}")


if __name__ == "__main__":
    main()
