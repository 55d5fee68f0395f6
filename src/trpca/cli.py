"""Command-line entry point: solve, synth-recover, phase-grid, denoise-image,
diagnose.

Every flag can be overridden by an environment variable named
``TRPCA_<FLAG>`` (dashes become underscores). Exit codes: 0 success, 1 usage
error, 2 runtime error. Each command writes a JSON run manifest next to its
primary output so any run can be reproduced from the manifest alone.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, imaging, synth, tensor3
from . import transform as transform_mod
from .seeding import derive_seed
from .solver import SolverConfig, solve
from .tensor3 import load_tensor, write_tensor
from .tlinalg import incoherence, nuclear_norm, spectral_norm, tubal_rank

ENV_PREFIX = "TRPCA_"
FORMAT_VERSION = 1  # binary tensor container version (see tensor3.MAGIC)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunManifest:
    """Everything needed to reproduce a run: command, resolved config, seed."""

    command: str
    config: dict
    seed: int
    version: str = __version__
    format_version: int = FORMAT_VERSION
    wall_seconds: float = 0.0


def _write_manifest(manifest: RunManifest, primary_output: str | None) -> None:
    if primary_output:
        path = Path(str(primary_output) + ".manifest.json")
    else:
        path = Path(f"trpca-{manifest.command}.manifest.json")
    path.write_text(json.dumps(dataclasses.asdict(manifest), indent=2) + "\n")


def _add(parser, flag: str, *, required: bool = False, default=None, type=str, **kw):
    """add_argument with the TRPCA_* environment override applied."""
    name = ENV_PREFIX + flag.lstrip("-").replace("-", "_").upper()
    env = os.environ.get(name)
    if env is not None:
        try:
            default, required = type(env), False
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"{name}={env!r}: {exc}") from None
    parser.add_argument(flag, required=required, default=default, type=type, **kw)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _limit_threads(k: int | None):
    if k is None:
        return contextlib.nullcontext()
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return contextlib.nullcontext()
    return threadpool_limits(limits=k)


def _add_common(parser) -> None:
    _add(parser, "--seed", type=int, default=0, help="root seed (default 0)")
    _add(parser, "--threads", type=_positive_int, default=None,
         help="cap BLAS-level parallelism (1 = reference mode)")


def _solver_config(args) -> SolverConfig:
    kw = {}
    if getattr(args, "lam", None) is not None and args.lam != "auto":
        kw["lam"] = float(args.lam)
    if getattr(args, "tol", None) is not None:
        kw["tol"] = args.tol
    if getattr(args, "max_iters", None) is not None:
        kw["max_iters"] = args.max_iters
    return SolverConfig(**kw)


def build_parser() -> _Parser:
    parser = _Parser(prog="trpca", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"trpca {__version__} (tensor container format v{FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decompose a tensor file into low-rank + sparse")
    _add(p, "--input", required=True, help="tensor file (binary container or CSV)")
    _add(p, "--transform", required=True, help="dct | rom:<seed> | hadamard | file:<path>")
    _add(p, "--lambda", dest="lam", default=None, help="sparsity weight (default auto)")
    _add(p, "--tol", type=float, default=None)
    _add(p, "--max-iters", type=int, default=None)
    _add(p, "--out-lowrank", required=True)
    _add(p, "--out-sparse", required=True)
    _add(p, "--trace", default=None, help="per-iteration CSV trace")
    _add_common(p)

    p = sub.add_parser("synth-recover", help="one synthetic exact-recovery trial")
    _add(p, "--n", type=int, required=True, help="n1 = n2")
    _add(p, "--n3", type=int, required=True)
    _add(p, "--r", type=int, required=True, help="target tubal rank")
    _add(p, "--m", type=int, required=True, help="sparse support size")
    _add(p, "--transform", required=True)
    _add(p, "--sign-model", default="random_signs",
         choices=list(synth.SIGN_MODELS))
    _add(p, "--report", default=None, help="also write the report row as CSV")
    _add_common(p)

    p = sub.add_parser("phase-grid", help="success fractions over a rank/sparsity grid")
    _add(p, "--n", type=int, required=True)
    _add(p, "--n3", type=int, required=True)
    _add(p, "--rank-ratios", required=True, help="a:b:c range or comma list")
    _add(p, "--sparsity-ratios", required=True)
    _add(p, "--trials", type=int, default=3)
    _add(p, "--transform", required=True)
    _add(p, "--sign-model", default="random_signs",
         choices=list(synth.SIGN_MODELS))
    _add(p, "--out", required=True, help="CSV matrix of success fractions")
    _add_common(p)

    p = sub.add_parser("denoise-image", help="corrupt a PPM image and recover it")
    _add(p, "--input", required=True, help="binary PPM (P6) image")
    _add(p, "--fraction", type=float, default=0.1, help="fraction of pixels corrupted")
    _add(p, "--transform", default="dct")
    _add(p, "--out", required=True, help="recovered image (PPM)")
    _add(p, "--out-corrupted", default=None, help="save the corrupted image too")
    _add(p, "--report", default=None, help="PSNR report CSV")
    _add_common(p)

    p = sub.add_parser("diagnose", help="rank, norms, and incoherence of a tensor")
    _add(p, "--input", required=True)
    _add(p, "--transform", required=True)
    _add_common(p)

    return parser


def _cmd_solve(args) -> str:
    x = load_tensor(args.input)
    t = transform_mod.from_spec(args.transform, x.n3)
    cfg = _solver_config(args)
    # materialize resolved defaults so the manifest reproduces this run exactly
    args.lam = cfg.lam_for(x.n1, x.n2, t)
    args.tol, args.max_iters = cfg.tol, cfg.max_iters
    sol = solve(x, t, cfg)
    write_tensor(sol.low_rank, args.out_lowrank)
    write_tensor(sol.sparse, args.out_sparse)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            f.write("iter,primal_inf_norm,dL_inf,dS_inf,mu,objective\n")
            for row in sol.trace:
                f.write(
                    f"{row.iteration},{_fmt(row.primal_inf)},{_fmt(row.dl_inf)},"
                    f"{_fmt(row.ds_inf)},{_fmt(row.mu)},{_fmt(row.objective)}\n"
                )
    print(
        f"solve: dims={x.dims} iterations={sol.iterations} "
        f"converged={sol.converged} rank_t={tubal_rank(sol.low_rank, t)}"
    )
    return args.out_lowrank


def _cmd_synth_recover(args) -> str | None:
    cfg = synth.RecoveryTrialConfig(
        n1=args.n, n2=args.n, n3=args.n3, r=args.r, m=args.m,
        sign_model=args.sign_model, transform_spec=args.transform, seed=args.seed,
    )
    rep = synth.run_recovery_trial(cfg)
    header = ("n,r,m,rank_est,sparse_support,rel_err_low_rank,rel_err_sparse,"
              "success,iterations,certified_failure")
    row = (
        f"{args.n},{args.r},{args.m},{rep.rank_est},{rep.sparse_support},"
        f"{_fmt(rep.rel_err_low_rank)},{_fmt(rep.rel_err_sparse)},"
        f"{str(rep.success).lower()},{rep.iterations},"
        f"{str(rep.certified_failure).lower()}"
    )
    print(header)
    print(row)
    if args.report:
        Path(args.report).write_text(header + "\n" + row + "\n")
    return args.report


def _parse_ratios(spec: str) -> list[float]:
    """Parse ``start:step:stop`` (inclusive stop) or a comma list."""
    if ":" in spec:
        parts = [float(v) for v in spec.split(":")]
        if len(parts) != 3:
            raise ValueError(f"ratio range must be start:step:stop, got {spec!r}")
        start, step, stop = parts
        if step <= 0:
            raise ValueError("ratio range step must be positive")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(max(count, 0))]
    return [float(v) for v in spec.split(",")]


def _cmd_phase_grid(args) -> str:
    base = synth.RecoveryTrialConfig(
        n1=args.n, n2=args.n, n3=args.n3, r=1, m=0,
        sign_model=args.sign_model, transform_spec=args.transform, seed=args.seed,
    )
    grid = synth.run_phase_grid(
        base, _parse_ratios(args.rank_ratios), _parse_ratios(args.sparsity_ratios),
        trials_per_cell=args.trials,
    )
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("rank_ratio\\sparsity_ratio,"
                + ",".join(_fmt(v) for v in grid.sparsity_ratios) + "\n")
        for i, rr in enumerate(grid.rank_ratios):
            f.write(_fmt(rr) + ","
                    + ",".join(_fmt(v) for v in grid.success[i]) + "\n")
    print(f"phase-grid: wrote {len(grid.rank_ratios)}x{len(grid.sparsity_ratios)} "
          f"grid to {args.out}")
    print(f"phase-grid: {int(grid.certified.sum())} of "
          f"{grid.success.size * grid.trials_per_cell} trials were certified "
          f"failures; {grid.certified_disagreements} of them had "
          f"rel_err_low_rank <= {synth.SUCCESS_REL_ERR:g}")
    return args.out


def _cmd_denoise_image(args) -> str:
    img = imaging.load_image(args.input)
    corrupted, _ = imaging.corrupt(
        img, args.fraction, seed=derive_seed(args.seed, "corrupt")
    )
    t = transform_mod.from_spec(args.transform, 3)
    start = time.perf_counter()
    recovered, sol = imaging.denoise(corrupted, t)
    wall = time.perf_counter() - start
    imaging.save_image(recovered, args.out)
    if args.out_corrupted:
        imaging.save_image(corrupted, args.out_corrupted)
    psnr_corrupted = imaging.psnr(corrupted, img)
    psnr_recovered = imaging.psnr(recovered, img)
    header = "image,psnr_corrupted_db,psnr_recovered_db,iterations,wall_seconds"
    row = (
        f"{args.input},{_fmt(psnr_corrupted)},{_fmt(psnr_recovered)},"
        f"{sol.iterations},{_fmt(wall)}"
    )
    print(header)
    print(row)
    if args.report:
        Path(args.report).write_text(header + "\n" + row + "\n")
    return args.out


def _cmd_diagnose(args) -> None:
    x = load_tensor(args.input)
    t = transform_mod.from_spec(args.transform, x.n3)
    rep = incoherence(x, t)
    print(f"dims: {x.dims}")
    print(f"transform: {args.transform} (ell={_fmt(t.ell)})")
    print(f"tubal_rank: {tubal_rank(x, t)}")
    print(f"spectral_norm: {_fmt(spectral_norm(x, t))}")
    print(f"nuclear_norm: {_fmt(nuclear_norm(x, t))}")
    print(f"frobenius_norm: {_fmt(tensor3.norm(x, 'frobenius'))}")
    print(f"mu1: {_fmt(rep.mu1)}")
    print(f"mu2: {_fmt(rep.mu2)}")
    print(f"mu3: {_fmt(rep.mu3)}")
    print(f"mu: {_fmt(rep.mu)}")
    return None


_COMMANDS = {
    "solve": _cmd_solve,
    "synth-recover": _cmd_synth_recover,
    "phase-grid": _cmd_phase_grid,
    "denoise-image": _cmd_denoise_image,
    "diagnose": _cmd_diagnose,
}


def dispatch(argv) -> int:
    parser = None
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"trpca: error: {exc}", file=sys.stderr)
        if parser is not None:
            parser.print_usage(sys.stderr)
        return 1
    start = time.perf_counter()
    try:
        with _limit_threads(args.threads):
            primary = _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"trpca: {args.command}: {exc}", file=sys.stderr)
        return 2
    config = {k: v for k, v in vars(args).items() if k != "command"}
    manifest = RunManifest(
        command=args.command,
        config=config,
        seed=args.seed,
        wall_seconds=time.perf_counter() - start,
    )
    _write_manifest(manifest, primary)
    return 0


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
