"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/sweep.py --workloads denoise_image --seeds 0-4
    python3 perfbench/sweep.py --seeds 0-9 --out perfbench/baseline/<name>.json

Runs are sequential, one fresh process each, seeds in the outer loop so that
drift in the machine's speed spreads over every workload. For each workload
and metric it prints the median, the quartiles (``statistics.quantiles`` with
``n=4``) and the spread ``(q3 - q1) / median``. It exits 1 when an op failed
or when an end-to-end metric other than ``setup_s`` spreads wider than its
bound in ``BENCHMARK.json``.
``--out`` writes the values, the summary and the environment block as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(spec: str) -> list[int]:
    """``a-b`` (inclusive) or a comma list."""
    if "-" in spec:
        lo, hi = (int(v) for v in spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in spec.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed: dict[str, int] = {w: 0 for w in workloads}
    env = None
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            record_path = ROOT / ".bench_out" / "sweep" / f"{w}-seed{seed}-trace{args.trace}.json"
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", w,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(record_path),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"sweep: {w} seed {seed} exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed[w] += result["failed"]
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            env = env or json.loads(record_path.read_text())["environment"]
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), file=sys.stderr)

    summary = {w: {k: summarize(v) for k, v in values[w].items()} for w in workloads}
    flagged = 0
    for w in workloads:
        print(f"\n{w} (failed ops: {failed[w]})")
        for name, s in sorted(summary[w].items()):
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound:
                flag = f"  <-- spread above its bound {bound}"
                flagged += 1
            print(f"  {name:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seeds": parse_seeds(args.seeds), "seconds": args.seconds,
            "trace": args.trace, "environment": env, "failed_ops": failed,
            "summary": summary,
        }, indent=1) + "\n")
    return 1 if flagged or any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
