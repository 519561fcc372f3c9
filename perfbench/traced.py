"""Traced in-process sweep: per-layer metrics of the entmi modules.

The benchmark's own code opens a span around each call into a layer
(``sampling``, ``states``, ``histogram``, ``pipeline``, ``verify``,
``curves``, and ``cli`` for the CLI subprocesses).  A span records name,
start, end, parent and the trace it belongs to; spans stay in memory and
are written to ``perfbench/.work/trace-<workload>-<seed>.json`` at the
end.  Spans from pool workers use the same monotonic clock and are sent
back with each block's result.

The sweep is the same for every workload, so every per-layer metric is
reported on every traced run:

* a replica of the ``sample`` job that calls the public functions block
  by block over ``block_plan`` (same streams, same pool, same per-block
  histogram returned to the parent), at the coarse and at the fine grid.
  Each merged histogram must match the CLI's output row for row;
* the same coarse job through ``run_histogram_job`` untraced, for the
  tracing overhead, and the fine job at one worker, for the serial
  baseline;
* ``write_csv``/``read_csv`` of the fine histogram;
* each ``check_*`` of ``verify --all`` at its n, and ``check_ridge`` on
  the fine histogram;
* a few extra blocks for the samplers and functions the sample job does
  not call.

Peak bytes come from ``tracemalloc`` and are computed counts that repeat
exactly.  A 250k x 4 float64 block (8 MB) fits in the last-level cache,
so no memory-bandwidth figure is derived from these timings.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import time
import tracemalloc
from contextlib import contextmanager
from statistics import median

import numpy as np

import harness as h
from entmi import (
    Ensemble,
    JointHistogram,
    SeedSpec,
    check_angle_oracle,
    check_bound,
    check_ridge,
    check_zero_mi_family,
    concurrence,
    entanglement_from_concurrence,
    mi_from_angles,
    mutual_information,
    probabilities,
    ridge_concurrence,
    run_histogram_job,
    sample_amplitudes,
    stream_generator,
)
from entmi.pipeline import BLOCK_SIZE, block_plan

# Extra blocks drawn for the samplers and functions the sample job skips.
SWEEP_BLOCKS = 5
RIDGE_CALLS = 100
LAYERS = ("sampling", "states", "histogram", "pipeline", "verify", "curves", "cli")


class Tracer:
    """Spans held in memory until the sweep ends."""

    def __init__(self, prefix: str = "", parent: str | None = None, trace: str | None = None):
        self.spans: list[dict] = []
        self._prefix = prefix
        self._stack = [(parent, trace)]
        self._count = 0

    @contextmanager
    def span(self, name: str, trace: str | None = None):
        self._count += 1
        span_id = f"{self._prefix}{self._count}"
        parent, parent_trace = self._stack[-1]
        trace = trace or parent_trace
        self._stack.append((span_id, trace))
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append({"id": span_id, "parent": parent, "trace": trace,
                               "name": name, "start_ns": start, "end_ns": end})

    def durations(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans if s["name"] == name]


def self_time_by_layer(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[str, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        covered = 0
        cursor = s["start_ns"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, cursor), min(hi, s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        layer = s["name"].split(".", 1)[0]
        if layer in totals:
            totals[layer] += (s["end_ns"] - s["start_ns"] - covered) / 1e9
    return totals


def _replica_block(args):
    seed, stream, count, delta, parent, trace = args
    tracer = Tracer(prefix=f"{os.getpid()}.{stream}.", parent=parent, trace=trace)
    with tracer.span("sampling.sample_amplitudes[real-s3]"):
        amplitudes = sample_amplitudes(Ensemble.REAL_S3, SeedSpec(seed, stream), count)
    with tracer.span("states.concurrence"):
        c = concurrence(amplitudes)
    with tracer.span("states.probabilities"):
        probs = probabilities(amplitudes)
    with tracer.span("states.mutual_information"):
        info = mutual_information(probs)
    local = JointHistogram(delta, delta)
    with tracer.span(f"histogram.accumulate_many[{delta!r}]"):
        local.accumulate_many(c, info)
    return local.counts, tracer.spans


def replica_job(tracer: Tracer, trace: str, seed: int, delta: float):
    """``run_histogram_job`` rebuilt from public calls.

    Returns the merged histogram, the job's wall time, the seconds the
    workers spent inside layer calls, and the number of blocks.
    """
    plan = block_plan(h.N_SAMPLE, BLOCK_SIZE)
    out = JointHistogram(delta, delta)
    start = time.perf_counter()
    with tracer.span("pipeline.replica_job", trace) as job:
        tasks = [(seed, j, count, delta, job, trace) for j, count in plan]
        # The program's own pool (default start method) so that the traced
        # and untraced jobs pay the same worker start-up.
        with multiprocessing.Pool(processes=min(h.WORKERS, len(tasks))) as pool:
            for counts, spans in pool.imap_unordered(_replica_block, tasks, chunksize=1):
                out.counts += counts
                tracer.spans.extend(spans)
    wall = time.perf_counter() - start
    out.total = h.N_SAMPLE
    busy = sum((s["end_ns"] - s["start_ns"]) / 1e9 for s in tracer.spans
               if s["trace"] == trace and s["parent"] == job)
    return out, wall, busy, len(plan)


def _data_lines(text: str) -> list[str]:
    """Header and count rows of a histogram CSV, without ``# meta`` comments."""
    lines = text.splitlines()
    return lines[:1] + [line for line in lines[1:] if not line.startswith("#")]


def cli_sample(tracer: Tracer, trace: str, seed: int, delta: float, checks: dict) -> str:
    out = h.WORK / f"trace-{trace}.csv"
    out.unlink(missing_ok=True)
    with tracer.span("cli.sample", trace):
        inv = h.run_cli(["sample", "--ensemble", "real-s3", "--n", str(h.N_SAMPLE),
                         "--seed", str(seed), "--bins", repr(delta),
                         "--workers", str(h.WORKERS), "--out", str(out)])
    checks[f"{trace}: cli exit 0"] = inv.returncode == 0
    return out.read_text(encoding="utf-8") if inv.returncode == 0 else ""


def same_as_cli(hist: JointHistogram, cli_text: str) -> bool:
    buf = io.StringIO()
    hist.write_csv(buf)
    return _data_lines(buf.getvalue()) == _data_lines(cli_text)


def peak_bytes(fn, *args) -> int:
    """Peak bytes ``fn`` allocates while it runs, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def block_sweep(tracer: Tracer, seed: int) -> dict:
    with tracer.span("bench.block_sweep", "blocks"):
        for j in range(SWEEP_BLOCKS):
            spec = SeedSpec(seed, j)
            for kind in (Ensemble.COMPLEX_S7, Ensemble.ZERO_MI):
                with tracer.span(f"sampling.sample_amplitudes[{kind.value}]"):
                    sample_amplitudes(kind, spec, BLOCK_SIZE)
            c = concurrence(sample_amplitudes(Ensemble.REAL_S3, spec, BLOCK_SIZE))
            with tracer.span("states.entanglement_from_concurrence"):
                entanglement_from_concurrence(c)
            angles = stream_generator(spec).random((BLOCK_SIZE, 2)) * (2.0 * np.pi)
            with tracer.span("curves.mi_from_angles"):
                mi_from_angles(angles[:, 0], angles[:, 1])
        for k in range(RIDGE_CALLS):
            with tracer.span("curves.ridge_concurrence"):
                ridge_concurrence((k + 0.5) / RIDGE_CALLS)
    amplitudes = sample_amplitudes(Ensemble.REAL_S3, SeedSpec(seed, 0), BLOCK_SIZE)
    probs = probabilities(amplitudes)
    return {
        "sampling.draw_peak_bytes": peak_bytes(
            sample_amplitudes, Ensemble.REAL_S3, SeedSpec(seed, 0), BLOCK_SIZE),
        "states.mutual_information_peak_bytes": peak_bytes(mutual_information, probs),
    }


def run(workload: str, seed: int) -> dict:
    tracer = Tracer()
    checks: dict[str, bool] = {}
    computed = block_sweep(tracer, seed)

    # Coarse job: traced replica against the untraced program and the CLI.
    coarse, coarse_wall, _, _ = replica_job(tracer, "coarse", seed, h.COARSE)
    start = time.perf_counter()
    untraced = run_histogram_job(Ensemble.REAL_S3, h.N_SAMPLE, seed, h.COARSE, h.COARSE,
                                 workers=h.WORKERS)
    untraced_wall = time.perf_counter() - start
    checks["coarse: replica == run_histogram_job"] = coarse == untraced
    checks["coarse: replica == cli output"] = same_as_cli(
        coarse, cli_sample(tracer, "coarse", seed, h.COARSE, checks))

    # Fine job: traced replica, the CLI, the serial baseline, CSV round trip.
    fine, fine_wall, fine_busy, blocks = replica_job(tracer, "fine", seed, h.FINE)
    checks["fine: replica == cli output"] = same_as_cli(
        fine, cli_sample(tracer, "fine", seed, h.FINE, checks))
    start = time.perf_counter()
    serial = run_histogram_job(Ensemble.REAL_S3, h.N_SAMPLE, seed, h.FINE, h.FINE, workers=1)
    serial_wall = time.perf_counter() - start
    checks["fine: replica == serial run_histogram_job"] = fine == serial
    path = h.WORK / "trace-fine-roundtrip.csv"
    with tracer.span("histogram.write_csv", "csv"):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fine.write_csv(fh)
    with tracer.span("histogram.read_csv", "csv"):
        with open(path, encoding="utf-8") as fh:
            back = JointHistogram.read_csv(fh)
    checks["fine: read_csv(write_csv) round trip"] = back == fine

    # verify --all at its n, and the ridge check on both grids.
    spec = SeedSpec(seed)
    with tracer.span("verify.check_bound[real-s3]", "verify"):
        reports = [check_bound(h.N_VERIFY, spec, Ensemble.REAL_S3, workers=h.WORKERS)]
    with tracer.span("verify.check_bound[complex-s7]", "verify"):
        reports.append(check_bound(h.N_VERIFY, spec, Ensemble.COMPLEX_S7, workers=h.WORKERS))
    with tracer.span("verify.check_zero_mi_family", "verify"):
        reports.append(check_zero_mi_family(h.N_VERIFY, spec))
    with tracer.span("verify.check_angle_oracle", "verify"):
        reports.append(check_angle_oracle(h.N_VERIFY, spec))
    with tracer.span("verify.check_ridge[fine]", "verify"):
        fine_ridge = check_ridge(fine)
    for report in reports + [check_ridge(coarse)]:
        checks[f"verify: {report.name} passes"] = report.passed

    def block_ms(name):
        return 1e3 * median(tracer.durations(name))

    def once_s(name):
        (value,) = tracer.durations(name)
        return value

    nbins = round(1 / h.FINE)
    serial_rate = h.N_SAMPLE / serial_wall
    metrics = {
        "sampling.real-s3.draw_ms": (block_ms("sampling.sample_amplitudes[real-s3]"), "ms"),
        "sampling.complex-s7.draw_ms": (block_ms("sampling.sample_amplitudes[complex-s7]"), "ms"),
        "sampling.zero-mi.draw_ms": (block_ms("sampling.sample_amplitudes[zero-mi]"), "ms"),
        "sampling.draw_peak_bytes": (computed["sampling.draw_peak_bytes"], "bytes"),
        "states.concurrence_ms": (block_ms("states.concurrence"), "ms"),
        "states.probabilities_ms": (block_ms("states.probabilities"), "ms"),
        "states.mutual_information_ms": (block_ms("states.mutual_information"), "ms"),
        "states.mutual_information_peak_bytes": (
            computed["states.mutual_information_peak_bytes"], "bytes"),
        "states.entanglement_from_concurrence_ms": (
            block_ms("states.entanglement_from_concurrence"), "ms"),
        "histogram.accumulate_coarse_ms": (
            block_ms(f"histogram.accumulate_many[{h.COARSE!r}]"), "ms"),
        "histogram.accumulate_fine_ms": (block_ms(f"histogram.accumulate_many[{h.FINE!r}]"), "ms"),
        "histogram.write_csv_s": (once_s("histogram.write_csv"), "s"),
        "histogram.read_csv_s": (once_s("histogram.read_csv"), "s"),
        "histogram.nonzero_bins": (int(np.count_nonzero(fine.counts)), "count"),
        "histogram.csv_bytes": (path.stat().st_size, "bytes"),
        "pipeline.blocks": (blocks, "count"),
        "pipeline.result_bytes": (blocks * nbins * nbins * 8, "bytes"),
        "pipeline.overhead_s": (fine_wall - fine_busy / h.WORKERS, "s"),
        "pipeline.serial_states_per_s": (serial_rate, "1/s"),
        "pipeline.scaling_efficiency": (h.N_SAMPLE / fine_wall / (serial_rate * h.WORKERS),
                                        "ratio"),
        "verify.bound_s": (once_s("verify.check_bound[real-s3]"), "s"),
        "verify.bound_complex_s": (once_s("verify.check_bound[complex-s7]"), "s"),
        "verify.zero_mi_s": (once_s("verify.check_zero_mi_family"), "s"),
        "verify.mi_oracle_s": (once_s("verify.check_angle_oracle"), "s"),
        "verify.ridge_s": (once_s("verify.check_ridge[fine]"), "s"),
        "curves.mi_from_angles_ms": (block_ms("curves.mi_from_angles"), "ms"),
        "curves.ridge_concurrence_us": (1e3 * block_ms("curves.ridge_concurrence"), "us"),
        "trace.overhead_frac": (coarse_wall / untraced_wall - 1.0, "ratio"),
    }
    for layer, seconds in self_time_by_layer(tracer.spans).items():
        metrics[f"{layer}.self_s"] = (seconds, "s")

    record = {
        "workload": workload,
        "seed": seed,
        "checks": checks,
        "ridge_on_fine_grid": fine_ridge.to_json_dict(),
        "computed": ["sampling.draw_peak_bytes", "states.mutual_information_peak_bytes",
                     "histogram.nonzero_bins", "histogram.csv_bytes", "pipeline.blocks",
                     "pipeline.result_bytes"],
        "spans": tracer.spans,
    }
    trace_path = h.WORK / f"trace-{workload}-{seed}.json"
    trace_path.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({"checks": checks, "computed": record["computed"],
                      "spans": len(tracer.spans), "trace_file": str(trace_path)}))
    failed = sum(not ok for ok in checks.values())
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
