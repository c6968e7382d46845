"""In-process tracing of the airpolicy layers, from outside the package.

``Tracer.install`` replaces public functions at the module attribute each
caller looks up (``cli.read_grid``, ``evaluation.build_supervised``,
``kernels.best_split``, ...) with wrappers that record a span per call:
name, start, end, parent span and run id. Spans stay in memory until the
run ends; ``write_spans`` then writes them out. Self time is a span's
duration minus the time its child spans cover. ``layer_metrics`` folds the
recorded boundaries into the per-layer metrics the benchmark reports.

SplitMix64 draws are the one hot leaf: a rfr fit makes about 58 000 of
them, so they are timed and counted like every other boundary but folded
into their parent's statistics instead of being kept one span per call.
Draws made inside another draw (``randint`` -> ``u64``) are part of the
outer draw and are not counted again.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

RNG = "rng.draw"
RNG_METHODS = ("u64", "spawn", "uniform", "normal", "randint", "shuffle", "normals")


def _dtw_cells(cost, window: int) -> int:
    """DP cells the accumulation fills: all of them, or those with |i - j| <= window."""
    n, m = cost.shape
    if window < 0:
        return n * m
    i = np.arange(n)
    width = np.minimum(m - 1, i + window) - np.maximum(0, i - window) + 1
    return int(np.maximum(width, 0).sum())


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Stacks are per thread, so the benchmark's worker threads nest their own
    spans; totals are merged under a lock.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, *args, keep=True, **kwargs):
        """Call ``fn`` inside a span; ``name`` may be a callable of the result."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [next(self._ids), 0.0, name]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
        label = name(args, result) if callable(name) else name
        with self._lock:
            self.calls[label] += 1
            self.total[label] += dur
            self.self_time[label] += dur - frame[1]
            if keep:
                self.spans.append((frame[0], parent[0] if parent else 0,
                                   label, t0, t1))
        return result

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name, after=None) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def _wrap_rng(self, cls, method: str) -> None:
        fn = getattr(cls, method)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][2] == RNG:
                return fn(*args, **kwargs)
            return self.span(RNG, fn, *args, keep=False, **kwargs)

        self._patch(cls, method, wrapper)

    def install(self) -> None:
        """Wrap every traced boundary; ``uninstall`` restores the originals."""
        from airpolicy import cli, evaluation, kernels, models, report, similarity
        from airpolicy.models.base import TrainedModel
        from airpolicy.rng import SplitMix64

        # A grid is a CSV body plus a JSON sidecar; the other parsers open one file.
        for attr, files in (("parse_policy_csv", 1), ("parse_density_csv", 1), ("read_grid", 2)):
            self._wrap(cli, attr, f"ingest.{attr}",
                       after=lambda a, k, r, n=files: self.count("ingest.files_read", n))
        for attr in ("aggregate_periods", "aggregate_stat_periods", "build_city_dataset"):
            self._wrap(cli, attr, f"ingest.{attr}")
        for attr in ("write_city_csv", "read_city_csv"):
            self._wrap(cli, attr, f"dataset.{attr}")
        for attr in ("build_supervised", "fit_scaling", "split"):
            self._wrap(evaluation, attr, f"dataset.{attr}")

        self._wrap(similarity, "screen_all", "similarity.screen_all")
        self._wrap(similarity, "pearson", "similarity.pearson")
        self._wrap(similarity, "dtw", "similarity.dtw")
        self._wrap(kernels, "dtw_accumulate", "kernels.dtw_accumulate",
                   after=lambda a, k, r: self.count(
                       "kernels.dtw_cells",
                       _dtw_cells(a[0], a[1] if len(a) > 1 else k.get("window", -1))))
        self._wrap(kernels, "best_split", "kernels.best_split")
        self._wrap(kernels, "lasso_cd", "kernels.lasso_cd",
                   after=lambda a, k, r: self.count("kernels.lasso_cd.sweeps", r[1]))
        for method in RNG_METHODS:
            self._wrap_rng(SplitMix64, method)

        self._wrap(models, "fit", lambda a, r: f"models.fit.{a[0].kind}")
        self._wrap(models, "save_model", lambda a, r: f"models.save.{a[0].spec.kind}",
                   after=lambda a, k, r: self.count(
                       f"models.bytes.{a[0].spec.kind}", os.path.getsize(a[1])))
        self._wrap(models, "load_model", lambda a, r: f"models.load.{r.spec.kind}")
        self._wrap(TrainedModel, "predict", lambda a, r: f"models.predict.{a[0].spec.kind}")

        self._wrap(evaluation, "run_benchmark", "evaluation.run_benchmark",
                   after=lambda a, k, r: self.count(
                       "evaluation.jobs", max(1, k.get("jobs", 1))))
        # A cell's busy time is its thread's CPU time: under the interpreter
        # lock a worker thread's wall time also counts its wait for the lock.
        run_cell = evaluation._run_cell

        def cell_cpu(*args, **kwargs):
            c0 = time.thread_time()
            try:
                return run_cell(*args, **kwargs)
            finally:
                self.count("evaluation.cell_cpu_s", time.thread_time() - c0)

        self._patch(evaluation, "_run_cell", cell_cpu)
        self._wrap(evaluation, "_run_cell", "evaluation.cell")

        self._wrap(report, "write_figure", "report.write_figure")
        self._wrap(similarity, "write_screen_csv", "report.write_screen_csv")
        self._wrap(evaluation, "write_report_csv", "report.write_report_csv")
        self._wrap(evaluation, "write_report_json", "report.write_report_json")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, parent, name, start, end, run."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "run": self.run_id}))
                fh.write("\n")


# Boundaries a workload must reach; zero calls on one fails the traced run,
# so a renamed internal call cannot silently zero a layer.
REQUIRED = {
    "quickstart": (
        "ingest.parse_policy_csv", "ingest.parse_density_csv",
        "ingest.aggregate_stat_periods", "ingest.build_city_dataset",
        "dataset.write_city_csv", "dataset.read_city_csv",
        "dataset.build_supervised", "dataset.fit_scaling", "dataset.split",
        "similarity.screen_all", "similarity.pearson", "similarity.dtw",
        "kernels.dtw_accumulate", "kernels.best_split", "kernels.lasso_cd", RNG,
        "evaluation.run_benchmark", "evaluation.cell",
        "report.write_figure", "report.write_screen_csv",
        "report.write_report_csv", "report.write_report_json",
    ),
    "screen-sweep": (
        "ingest.parse_policy_csv", "ingest.parse_density_csv", "ingest.read_grid",
        "ingest.aggregate_periods", "ingest.aggregate_stat_periods",
        "ingest.build_city_dataset", "dataset.write_city_csv", "dataset.read_city_csv",
        "similarity.screen_all", "similarity.pearson", "similarity.dtw",
        "kernels.dtw_accumulate", "report.write_figure", "report.write_screen_csv",
    ),
    "benchmark-jobs2": (
        "dataset.read_city_csv", "dataset.build_supervised", "dataset.fit_scaling",
        "dataset.split", "kernels.best_split", "kernels.lasso_cd", RNG,
        "evaluation.run_benchmark", "evaluation.cell",
        "report.write_figure", "report.write_report_csv", "report.write_report_json",
    ),
}


def required_for(workload: str, kinds) -> list[str]:
    names = list(REQUIRED[workload])
    if workload != "screen-sweep":
        names += [f"models.{b}.{k}" for b in ("fit", "save", "predict") for k in kinds]
    if workload == "quickstart":
        names += [f"models.load.{k}" for k in kinds]
    return names


def missing_boundaries(tracer: Tracer, names) -> list[str]:
    return [n for n in names if tracer.calls.get(n, 0) == 0]


def layer_metrics(tracer: Tracer, kinds) -> dict[str, float]:
    """Fold boundary totals into the per-layer metrics (seconds and counts).

    Module layers report self time; ``similarity.screen_all_s``,
    ``evaluation.run_benchmark_s`` and the per-kind model times are
    inclusive, since they answer "how long did this call take". Under
    ``--jobs 2`` times are summed over both worker threads and can exceed
    the stage's wall time.
    """
    selft, total, calls, counts = tracer.self_time, tracer.total, tracer.calls, tracer.counts

    def self_sum(*names):
        return sum(selft.get(n, 0.0) for n in names)

    dtw_s = selft.get("kernels.dtw_accumulate", 0.0)
    cells = counts.get("kernels.dtw_cells", 0.0)
    bench_wall = total.get("evaluation.run_benchmark", 0.0)
    jobs = counts.get("evaluation.jobs", 0.0) / max(1, calls.get("evaluation.run_benchmark", 0))
    out = {
        "ingest.parse_s": self_sum("ingest.parse_policy_csv", "ingest.parse_density_csv",
                                   "ingest.read_grid"),
        "ingest.aggregate_s": self_sum("ingest.aggregate_periods",
                                       "ingest.aggregate_stat_periods",
                                       "ingest.build_city_dataset"),
        "ingest.files_read": counts.get("ingest.files_read", 0.0),
        "dataset.city_io_s": self_sum("dataset.write_city_csv", "dataset.read_city_csv"),
        "dataset.prep_s": self_sum("dataset.build_supervised", "dataset.fit_scaling",
                                   "dataset.split"),
        "dataset.build_supervised.calls": calls.get("dataset.build_supervised", 0),
        "similarity.screen_all_s": total.get("similarity.screen_all", 0.0),
        "similarity.pearson_s": selft.get("similarity.pearson", 0.0),
        "similarity.dtw_s": selft.get("similarity.dtw", 0.0),
        "similarity.dtw.calls": calls.get("similarity.dtw", 0),
        "kernels.dtw_accumulate_s": dtw_s,
        "kernels.dtw_cells": cells,
        "kernels.dtw_cells_per_s": cells / dtw_s if dtw_s > 0 else 0.0,
        "kernels.best_split_s": selft.get("kernels.best_split", 0.0),
        "kernels.best_split.calls": calls.get("kernels.best_split", 0),
        "kernels.lasso_cd_s": selft.get("kernels.lasso_cd", 0.0),
        "kernels.lasso_cd.sweeps": counts.get("kernels.lasso_cd.sweeps", 0.0),
        "rng.draw_s": selft.get(RNG, 0.0),
        "rng.draw.calls": calls.get(RNG, 0),
        "evaluation.run_benchmark_s": bench_wall,
        "evaluation.parallel_efficiency": (
            counts.get("evaluation.cell_cpu_s", 0.0) / (bench_wall * jobs)
            if bench_wall > 0 else 0.0),
        "report.write_s": self_sum("report.write_figure", "report.write_screen_csv",
                                   "report.write_report_csv", "report.write_report_json"),
    }
    for k in kinds:
        out[f"models.fit_s.{k}"] = total.get(f"models.fit.{k}", 0.0)
        out[f"models.save_s.{k}"] = total.get(f"models.save.{k}", 0.0)
        out[f"models.load_s.{k}"] = total.get(f"models.load.{k}", 0.0)
        out[f"models.predict_s.{k}"] = total.get(f"models.predict.{k}", 0.0)
        out[f"models.bytes.{k}"] = counts.get(f"models.bytes.{k}", 0.0)
    return out
