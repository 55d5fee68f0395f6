"""Span tracing of calls into trpca, done from outside the package.

While installed, a :class:`Tracer` replaces trpca's public functions with
wrappers that record one span per call: name, start, end, the index of the
enclosing span, and a few work counts. It patches every trpca module that
binds the function, so names imported at module load (``solver.tsvt_array``,
``synth.solve``, ``imaging.solve``, ...) are traced too, and it restores the
originals on exit. ``numpy.linalg.svd`` is wrapped as well and attributed to
``prox`` or ``tlinalg`` by its enclosing span.

A span's layer is the part of its name before the first dot. Self time is a
span's duration minus that of its direct children, so the self times of all
spans under a root partition the root's duration.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from trpca import imaging, prox, solver, synth, tensor3, tlinalg, transform

LAYERS = ("solver", "prox", "transform", "tlinalg", "synth", "imaging", "tensor3")
"""trpca's modules that the trace times; ``bench`` is the benchmark's own code."""

_perf = time.perf_counter


def _transform_work(args, kwargs, result) -> dict:
    n1, n2, n3 = args[1].shape
    return {
        "flop": 2.0 * n1 * n2 * n3 * n3,
        "bytes": 8.0 * (2 * n1 * n2 * n3 + n3 * n3),
    }


def _svd_work(args, kwargs, result, tau) -> dict:
    """Nominal Golub-Van Loan flop counts for the batch of slices computed,
    and how many singular values survive a shrink by ``tau``."""
    a = args[0]
    m, n = a.shape[-2:]
    big, k = max(m, n), min(m, n)
    values_only = kwargs.get("compute_uv", True) is False
    per_slice = (
        4.0 * big * k * k - 4.0 * k**3 / 3.0
        if values_only
        else 14.0 * big * k * k + 8.0 * k**3
    )
    s = result if values_only else result[1]
    slices = s.size // k if k else 0
    work = {"flop": slices * per_slice, "slices": slices, "values": s.size}
    if tau is not None:
        work["kept"] = int(np.count_nonzero(s > tau))
    return work


def _solve_work(args, kwargs, result) -> dict:
    return {"iterations": result.iterations}


def _nbytes(value) -> int:
    """Payload bytes of a Tensor3 or an ImageTensor."""
    return getattr(value, "tensor", value).data.nbytes


def _read_work(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(result)}


def _write_work(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(args[0])}


# (module or class, attribute, span name, work counter or None)
TARGETS = (
    (solver, "solve", "solver.solve", _solve_work),
    (prox, "tsvt_array", "prox.tsvt", None),
    (prox, "soft_threshold_array", "prox.soft_threshold", None),
    (transform.Transform, "apply_array", "transform.apply", _transform_work),
    (transform.Transform, "apply_inverse_array", "transform.apply_inverse",
     _transform_work),
    (transform, "from_spec", "transform.build", None),
    (transform, "make_dct", "transform.build", None),
    (transform, "make_random_orthogonal", "transform.build", None),
    (transform, "make_scaled_hadamard", "transform.build", None),
    (tlinalg, "tprod", "tlinalg.tprod", None),
    (tlinalg, "ttranspose", "tlinalg.ttranspose", None),
    (tlinalg, "tsvd", "tlinalg.tsvd", None),
    (tlinalg, "tubal_rank", "tlinalg.tubal_rank", None),
    (tlinalg, "spectral_norm", "tlinalg.norms", None),
    (tlinalg, "nuclear_norm", "tlinalg.norms", None),
    (tlinalg, "incoherence", "tlinalg.incoherence", None),
    (synth, "gen_low_rank", "synth.gen", None),
    (synth, "gen_sparse", "synth.gen", None),
    (synth, "run_recovery_trial", "synth.trial", None),
    (synth, "run_phase_grid", "synth.phase_grid", None),
    (imaging, "load_image", "imaging.io", _read_work),
    (imaging, "save_image", "imaging.io", _write_work),
    (imaging, "corrupt", "imaging.corrupt", None),
    (imaging, "psnr", "imaging.psnr", None),
    (imaging, "denoise", "imaging.denoise", None),
    (imaging, "synthetic_low_rank_image", "imaging.synthetic", None),
    (tensor3, "write_tensor", "tensor3.io", _write_work),
    (tensor3, "read_tensor", "tensor3.io", _read_work),
    (tensor3, "load_tensor", "tensor3.io", _read_work),
    (tensor3, "norm", "tensor3.norm", None),
    (tensor3, "inner", "tensor3.norm", None),
)


class Tracer:
    """Records spans in memory; ``spans[i] = [name, start, end, parent, work]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._open_args: list[tuple[tuple, dict]] = []

    def _record(self, name, fn, work, args, kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self._open.append(index)
        self._open_args.append((args, kwargs))
        span[1] = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = _perf()
            self._open.pop()
            self._open_args.pop()
        if work is not None:
            span[4] = work(args, kwargs, result)
        return result

    def _wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            return self._record(name, fn, work, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_svd(self, fn):
        def traced(*args, **kwargs):
            name, tau = self._svd_caller(kwargs)
            return self._record(
                name, fn, lambda a, kw, r: _svd_work(a, kw, r, tau), args, kwargs
            )

        traced.__wrapped__ = fn
        return traced

    def _svd_caller(self, kwargs) -> tuple[str, float | None]:
        """Span name of an SVD from its nearest enclosing trpca layer, and the
        shrink level ``tau`` when that caller is ``prox.tsvt``."""
        for depth in range(len(self._open) - 1, -1, -1):
            name = self.spans[self._open[depth]][0]
            if name == "prox.tsvt":
                args, kwargs = self._open_args[depth]
                return "prox.svd", args[1] if len(args) > 1 else kwargs["tau"]
            if name.startswith("tlinalg."):
                break
        if kwargs.get("compute_uv", True) is False:
            return "tlinalg.svd_values", None
        return "tlinalg.svd_full", None

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a root span that stays open for the body of the ``with``."""
        if self._open:
            raise RuntimeError("root spans cannot nest")
        index = len(self.spans)
        span = [name, 0.0, 0.0, -1, None]
        self.spans.append(span)
        self._open.append(index)
        self._open_args.append(((), {}))
        span[1] = _perf()
        try:
            yield
        finally:
            span[2] = _perf()
            self._open.pop()
            self._open_args.pop()

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of each target; restore the originals on exit."""
        patched = []
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "trpca"]
        try:
            for owner, attr, name, work in TARGETS:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, work)
                holders = [owner] + [
                    m for m in modules
                    if m is not owner and getattr(m, attr, None) is original
                ]
                for holder in holders:
                    patched.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            patched.append((np.linalg, "svd", np.linalg.svd))
            np.linalg.svd = self._wrap_svd(np.linalg.svd)
            yield self
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics: per op from the spans under ``bench.op`` roots, and
    ``setup.*`` from the one traced ``bench.setup`` root."""
    spans = tracer.spans
    dur = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    phase = [""] * len(spans)
    by_name: dict[tuple[str, str], list[int]] = defaultdict(list)
    outer: dict[tuple[str, str], list[int]] = defaultdict(list)
    outer_time: dict[tuple[str, str], float] = defaultdict(float)
    self_time: dict[tuple[str, str], float] = defaultdict(float)
    for i, (name, _, _, parent, _) in enumerate(spans):
        phase[i] = name if parent < 0 else phase[parent]
        by_name[phase[i], name].append(i)
        if parent >= 0:
            child_time[parent] += dur[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:  # outermost span of its name: nested calls are not re-counted
            outer[phase[i], name].append(i)
            outer_time[phase[i], name] += dur[i]
    for i, (name, _, _, _, _) in enumerate(spans):
        self_time[phase[i], name] += dur[i] - child_time[i]

    op, setup = "bench.op", "bench.setup"
    per = 1.0 / ops

    def total(name, where=op):
        return outer_time[where, name]

    def work(name, key):
        return float(sum(spans[i][4].get(key, 0) for i in outer[op, name]))

    def layer_self(layer, where=op):
        return sum(
            t for (ph, name), t in self_time.items()
            if ph == where and name.split(".", 1)[0] == layer
        )

    op_s = total(op) * per
    m: dict[str, float] = {"trace.op_s": op_s}
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = layer_self(layer) * per

    iterations = work("solver.solve", "iterations")
    m["solver.iterations"] = iterations * per
    m["solver.iter_s"] = total("solver.solve") / iterations if iterations else 0.0

    svd_s = total("prox.svd")
    svd_flop = work("prox.svd", "flop")
    computed = work("prox.svd", "values")
    kept = work("prox.svd", "kept")
    m.update({
        "prox.tsvt_s": total("prox.tsvt") * per,
        "prox.tsvt_self_s": self_time[op, "prox.tsvt"] * per,
        "prox.soft_threshold_s": total("prox.soft_threshold") * per,
        "prox.svd_s": svd_s * per,
        "prox.svd_share": svd_s * per / op_s if op_s else 0.0,
        "prox.svd_slices": work("prox.svd", "slices") * per,
        "prox.svd_gflop_computed": svd_flop * per / 1e9,
        "prox.svd_gflops": svd_flop / svd_s / 1e9 if svd_s else 0.0,
        "prox.sv_computed": computed * per,
        "prox.sv_kept": kept * per,
        "prox.sv_kept_frac": kept / computed if computed else 0.0,
    })

    apply_s, inverse_s = total("transform.apply"), total("transform.apply_inverse")
    t_flop = work("transform.apply", "flop") + work("transform.apply_inverse", "flop")
    t_bytes = work("transform.apply", "bytes") + work("transform.apply_inverse", "bytes")
    calls = len(by_name[op, "transform.apply"]) + len(by_name[op, "transform.apply_inverse"])
    m.update({
        "transform.apply_s": apply_s * per,
        "transform.apply_inverse_s": inverse_s * per,
        "transform.build_s": total("transform.build") * per,
        "transform.calls": calls * per,
        "transform.gflop_computed": t_flop * per / 1e9,
        "transform.gbytes_computed": t_bytes * per / 1e9,
        "transform.gflops": t_flop / (apply_s + inverse_s) / 1e9
        if apply_s + inverse_s else 0.0,
    })

    m.update({
        "tlinalg.svd_values_s": total("tlinalg.svd_values") * per,
        "tlinalg.svd_full_s": total("tlinalg.svd_full") * per,
        "tlinalg.svd_gflop_computed": (
            work("tlinalg.svd_values", "flop") + work("tlinalg.svd_full", "flop")
        ) * per / 1e9,
        "tlinalg.tsvd_s": total("tlinalg.tsvd") * per,
        "tlinalg.tubal_rank_s": total("tlinalg.tubal_rank") * per,
        "tlinalg.norms_s": total("tlinalg.norms") * per,
        "tlinalg.incoherence_s": total("tlinalg.incoherence") * per,
        "tlinalg.tprod_s": total("tlinalg.tprod") * per,
    })

    # scoring is the part of a trial after its solve returned
    trials = by_name[op, "synth.trial"]
    solve_end = {spans[j][3]: spans[j][2] for j in by_name[op, "solver.solve"]}
    score = sum(spans[i][2] - solve_end.get(i, spans[i][2]) for i in trials)
    trial_s = sorted(dur[i] for i in trials)
    m.update({
        "synth.gen_s": total("synth.gen") * per,
        "synth.score_s": score * per,
        "synth.trials": len(trials) * per,
        "synth.trial_s": statistics.median(trial_s) if trial_s else 0.0,
        "synth.trial_s_p90": _nearest_rank(trial_s, 0.9),
    })

    m.update({
        "imaging.io_s": total("imaging.io") * per,
        "imaging.psnr_s": total("imaging.psnr") * per,
        "imaging.corrupt_s": total("imaging.corrupt", setup),
        "tensor3.io_s": total("tensor3.io") * per,
        "tensor3.io_mb": work("tensor3.io", "bytes") * per / 1e6,
    })

    m["setup.traced_s"] = total(setup, setup)
    for layer in LAYERS + ("bench",):
        m[f"setup.{layer}_s"] = layer_self(layer, setup)
    m["trace.spans"] = sum(1 for p in phase if p == op) * per
    return m


def _nearest_rank(ascending: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not ascending:
        return 0.0
    return ascending[max(1, math.ceil(q * len(ascending))) - 1]
