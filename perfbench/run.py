"""trpca benchmark: one workload, one seed, one fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload recovery_n100 --seed 0 --seconds 15 --trace 0

BLAS and OpenMP threads are pinned to 1 before numpy loads. An untraced run
first times set-up in SETUP_SAMPLES fresh child interpreters (``setup_s`` is
their median). It then sets up once in this process and runs a closed loop:
one caller, one op at a time. The op count is fixed from ``--seconds`` and
the workload's nominal op time, so every commit does the same work. Every
op's output is checked; an op that raises or fails its check counts as
failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each op
twice, untraced and then traced, and reports the per-layer metrics from the
traced copies; the difference between the two is ``trace.overhead_s``.

The last line of standard output is the result as one JSON object. The full
record, with the environment block and every op, goes to ``--out`` (default
``.bench_out/<workload>-seed<seed>-trace<trace>.json``).
"""

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "trpca" / "__init__.py").is_file():
    sys.exit(f"perfbench: no trpca sources at {SRC / 'trpca'}")
sys.path.insert(0, str(SRC))

import trpca  # noqa: E402

if Path(trpca.__file__).resolve().parent != SRC / "trpca":
    sys.exit(f"perfbench: imported trpca from {trpca.__file__}, not from {SRC}")

import envinfo  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "total_s": "s",
    "ok_frac": "fraction",
    "recovered_frac": "fraction",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or name.endswith("_s_p90"):
        return "s"
    for suffix, unit in (
        ("_mb", "MB"), ("_db", "dB"), ("_frac", "fraction"), ("_share", "fraction"),
        ("gflops", "GFLOP/s"), ("gflop_computed", "GFLOP"), ("gbytes_computed", "GB"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the benchmark's own tests")
    p.add_argument("--out", type=Path, default=None, help="full record (JSON)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@contextlib.contextmanager
def workdir():
    """A working directory for input and output files, removed afterwards."""
    path = OUT_DIR / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_samples(args) -> list[float]:
    """Set-up time of SETUP_SAMPLES fresh interpreters, one after another."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size,
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=SETUP_TIMEOUT_S, check=True,
            )
        except subprocess.CalledProcessError as exc:
            sys.stderr.write(exc.stderr)
            raise
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_ops(wl, state, ops: int, tracer) -> list[dict]:
    """The closed loop. With a tracer, op ``i`` runs untraced, then traced."""
    records = []
    for i in range(ops):
        for traced in (False, True) if tracer else (False,):
            rec = {"op": i, "traced": traced}
            patches = tracer.installed() if traced else contextlib.nullcontext()
            try:
                with patches:
                    start = time.perf_counter()
                    try:
                        with tracer.root("bench.op") if traced else contextlib.nullcontext():
                            result = wl.op(state, i)
                    finally:
                        rec["seconds"] = time.perf_counter() - start
                outcome = wl.check(state, i, result)
            except Exception as exc:  # an op that raises counts as failed
                rec.setdefault("seconds", 0.0)
                rec.update(ok=False, detail=f"{type(exc).__name__}: {exc}",
                           recovered=0, trials=0)
            else:
                rec.update(ok=outcome.ok, detail=outcome.detail,
                           recovered=outcome.recovered, trials=outcome.trials)
                if outcome.psnr_db is not None:
                    rec["psnr_db"] = outcome.psnr_db
            print(f"op {i}{' traced' if traced else ''}: {rec['seconds']:.4f} s "
                  f"{'ok' if rec['ok'] else 'FAILED'} {rec['detail']}", file=sys.stderr)
            records.append(rec)
    return records


def end_to_end(records, setup: list[float]) -> dict[str, float]:
    seconds = [r["seconds"] for r in records]
    trials = sum(r["trials"] for r in records)
    return {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median(seconds),
        "total_s": sum(seconds),
        "ok_frac": sum(r["ok"] for r in records) / len(records),
        "recovered_frac": sum(r["recovered"] for r in records) / trials if trials else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(records, tracer, ops: int) -> dict[str, float]:
    m = tracing.layer_metrics(tracer, ops)
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    m["trace.untraced_op_s"] = statistics.median(r["seconds"] for r in untraced)
    m["trace.overhead_s"] = (
        sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in untraced)
    ) / ops
    psnr = [r["psnr_db"] for r in traced if "psnr_db" in r]
    m["imaging.psnr_db"] = statistics.median(psnr) if psnr else 0.0
    return m


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    wl = WORKLOADS[args.workload]
    ops = wl.ops_per_run(args.seconds, args.size)

    if args.setup_only:
        with workdir() as path:
            wl.setup(args.seed, path, args.size, ops)
            elapsed = time.perf_counter() - _START
        print(json.dumps({"setup_s": elapsed}))
        return 0

    env = envinfo.environment(ROOT)
    setup = [] if args.trace else setup_samples(args)  # setup_s is untraced
    tracer = tracing.Tracer() if args.trace else None
    with workdir() as path:
        if tracer:
            with tracer.installed(), tracer.root("bench.setup"):
                state = wl.setup(args.seed, path, args.size, ops)
        else:
            state = wl.setup(args.seed, path, args.size, ops)
        records = run_ops(wl, state, ops, tracer)

    if tracer:
        metrics = per_layer(records, tracer, ops)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = end_to_end(records, setup)
        units = END_TO_END_UNITS
    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    out = args.out or OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "ops": ops, "environment": env, "setup_samples_s": setup,
        "records": records, "result": result,
    }
    out.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
