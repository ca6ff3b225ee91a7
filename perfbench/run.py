#!/usr/bin/env python3
"""promptmt benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload train|translate|tokenize \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. BLAS is pinned to one thread before numpy
loads. The run sets the workload up at least five times and for at
least a second (the median is ``setup_s``), measures for ``--seconds`` seconds, checks every output, and
prints each figure by name with its unit. The last line of standard output
is one JSON object: with ``--trace 0`` it holds the end-to-end metrics of
BENCHMARK.json, measured untraced; with ``--trace 1`` the run measures half
the time untraced and half traced, and the object holds the per-layer
metrics. A run record (machine, seed, sample counts, every figure) goes to
``.perfbench/records/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time

from common import ROOT, SRC, BLAS_THREADS, BenchSetupError, pin_and_import

try:
    pin_and_import()
except BenchSetupError as err:
    sys.exit(f"perfbench: {err}")

import numpy as np  # noqa: E402

from promptmt import text, vision  # noqa: E402

from speed import NOMINAL_S, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import MODEL_STAGES, WORKLOADS, Sizes  # noqa: E402

# set up at least this many times and for at least this long; the median
# is setup_s
SETUPS = 5
SETUP_SECONDS = 1.0
OUT = ROOT / ".perfbench"

# Each workload's own figures under their usual names: printed name, the
# value it is read from, a scale and the unit it is printed in.
NAMED = {
    "train": [("step_ms_p50", "op_ms_p50", 1, "ms/step"),
              ("step_ms_p90", "op_ms_p90", 1, "ms/step"),
              ("train_tok_s", "tok_s", 1, "target-tokens/s"),
              ("loss_final", "loss_final", 1, "nats/token")],
    "translate": [("sent_ms_p50", "op_ms_p50", 1, "ms/request"),
                  ("sent_ms_p90", "op_ms_p90", 1, "ms/request"),
                  ("gen_tok_s", "tok_s", 1, "hypothesis-tokens/s"),
                  ("bleu", "bleu", 1, "BLEU")],
    "tokenize": [("bpe_train_s", "pass_s", 1, "s"),
                 ("encode_us_p50", "op_ms_p50", 1e3, "us/sentence"),
                 ("encode_us_p90", "op_ms_p90", 1e3, "us/sentence")],
}
COMMON_NAMED = [("setup_s", "setup_s", 1, "s"),
                ("peak_rss_mb", "peak_rss_mb", 1, "MiB")]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def blas_info() -> dict:
    """BLAS library and the thread count it reports at run time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_pinned": BLAS_THREADS, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {m.group(1) for m in re.finditer(r"(/\S*blas\S*\.so\S*)",
                                                    maps.read())}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def install_setup_trace(tracer: Tracer) -> dict:
    merges = {"count": 0}

    def learned(args, kwargs, vocab):
        merges["count"] = max(merges["count"], len(vocab.merges))

    tracer.span(text, "train_bpe", "text.train_bpe", after=learned)
    tracer.span(text, "encode", "text.encode")
    tracer.span(vision, "read_vtok", "vision.read_vtok")
    return merges


def scaled(triples, probe: SpeedProbe | None) -> list[float]:
    """Seconds at the reference speed (raw seconds without a probe)."""
    if probe is None:
        return [seconds for seconds, _, _ in triples]
    return [probe.scale(*t) for t in triples]


def windowed_rate(tokens, seconds, size: int = 10) -> float:
    """Median of tokens per second over consecutive windows of ``size``
    operations; one stalled operation moves a window, not the figure."""
    rates = [sum(tokens[i:i + size]) / sum(seconds[i:i + size])
             for i in range(0, max(len(seconds) - size, 0) + 1, size)]
    return statistics.median(rates)


def end_to_end(phase, setups, probe: SpeedProbe | None) -> dict:
    op = scaled(phase.ops, probe)
    return {
        "setup_s": statistics.median(scaled(setups, probe)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "op_ms_p50": percentile(op, 50) * 1e3,
        "op_ms_p90": percentile(op, 90) * 1e3,
        "tok_s": windowed_rate(phase.op_tokens, op),
        "pass_s": statistics.median(scaled(phase.passes, probe)),
    }


def per_layer(workload, phase, base, probe: SpeedProbe, tracer: Tracer,
              setup_tracer: Tracer, setup_window, merges: dict) -> dict:
    """Layer metrics per operation (train step, translate request, encoded
    sentence), times at the reference speed; a layer idle on this workload
    reads 0."""
    n = len(phase.ops)
    speed = probe.factor(phase.ops[0][1], phase.ops[-1][2])
    setup_speed = probe.factor(*setup_window)
    inclusive, _ = tracer.totals()
    setup_inclusive, _ = setup_tracer.totals()

    def per_op(name):
        return inclusive.get(name, 0.0) / n * 1e3 / speed

    out = {}
    for stage in MODEL_STAGES + ("loss",):
        out[f"model.{stage}_ms"] = per_op(f"model.{stage}")
        out[f"model.{stage}_calls"] = tracer.calls[f"model.{stage}"] / n
    out["model.forward_loss_ms"] = per_op("model.forward_loss")
    out["autodiff.graph_nodes"] = tracer.counts["autodiff.graph_nodes"] / n
    out["autodiff.backward_ms"] = per_op("autodiff.backward")
    encode_calls = tracer.calls["text.encode"] \
        + setup_tracer.calls["text.encode"]
    encode_s = inclusive.get("text.encode", 0.0) / speed \
        + setup_inclusive.get("text.encode", 0.0) / setup_speed
    out["text.encode_us"] = encode_s / encode_calls * 1e6 \
        if encode_calls else 0.0
    out["text.encode_calls"] = tracer.calls["text.encode"] / n
    out["text.train_bpe_merges"] = merges["count"]
    reads = setup_tracer.calls["vision.read_vtok"]
    out["vision.read_vtok_ms"] = setup_inclusive.get("vision.read_vtok", 0.0) \
        / reads * 1e3 / setup_speed if reads else 0.0
    out["trace.overhead"] = percentile(scaled(phase.ops, probe), 50) \
        / percentile(scaled(base.ops, probe), 50) - 1.0
    out.update(workload.layers(phase, tracer, speed))
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes()) -> dict:
    """Set up, measure and check one workload; returns the run record."""
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name](seed, work_dir, sizes)
    probe = SpeedProbe()
    spans = None
    try:
        for _ in range(3):
            probe.burst()
        setups = []
        start = time.perf_counter()
        while (len(setups) < SETUPS
               or time.perf_counter() - start < SETUP_SECONDS):
            t0 = time.perf_counter()
            workload.setup()
            t1 = time.perf_counter()
            setups.append((t1 - t0, t0, t1))
            probe.burst()
        if not trace:
            phase = workload.run(seconds, probe)
            phases = [phase]
        else:
            setup_tracer = Tracer()
            merges = install_setup_trace(setup_tracer)
            try:
                t0 = time.perf_counter()
                workload.setup()
                setup_window = (t0, time.perf_counter())
            finally:
                setup_tracer.uninstall()
            base = workload.run(seconds / 2, probe)
            tracer = Tracer()
            required = workload.install(tracer)
            try:
                phase = workload.run(seconds / 2, probe, tracer)
            finally:
                tracer.uninstall()
            tracer.require_calls(required)
            phases = [base, phase]
            spans = {"setup": setup_tracer.dump(), "run": tracer.dump()}
        for _ in range(2):
            probe.burst()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    measured = base if trace else phase
    e2e = end_to_end(measured, setups, probe)
    raw = end_to_end(measured, setups, None)
    values = dict(e2e, **measured.named)
    named = {name: {"value": values[key] * scale, "unit": unit}
             for name, key, scale, unit
             in NAMED[workload_name] + COMMON_NAMED}
    spec = load_spec()
    if trace:
        layers = per_layer(workload, phase, base, probe, tracer,
                           setup_tracer, setup_window, merges)
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
        unknown = sorted(set(layers) - set(metrics))
        if unknown:
            raise RuntimeError(f"layer metrics missing from BENCHMARK.json: "
                               f"{unknown}")
    else:
        metrics = {m["name"]: {"value": float(e2e[m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "sizes": vars(sizes),
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__, "blas": blas_info(),
                    "platform": platform.platform()},
        "src_lines": src_lines(),
        "samples": {"op_percentiles": len(measured.ops),
                    "pass_median": len(measured.passes),
                    "setup_median": len(setups),
                    "speed_bursts": len(probe.bursts)},
        "speed": {"nominal_burst_s": NOMINAL_S,
                  "median_burst_s": statistics.median(probe.bursts),
                  "slowdown": probe.overall()},
        "attempted": attempted, "failed": failed,
        "errors": [e for p in phases for e in p.errors],
        "named": named, "raw_end_to_end": raw, "result": result,
    }
    _write_record(record, spans)
    return record


def _write_record(record: dict, spans):
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")
    if spans is not None:
        (records / f"{stem}-spans.json").write_text(json.dumps(spans),
                                                    encoding="utf-8")


def report(record: dict):
    """Print every figure by name with its unit; the result goes last."""
    print(f"# {record['workload']} seed {record['seed']}: "
          f"{record['attempted']} operations, {record['failed']} failed, "
          f"{record['samples']['op_percentiles']} timed samples, "
          f"BLAS {record['machine']['blas']['name']} "
          f"x{record['machine']['blas']['threads']}")
    for error in record["errors"]:
        print(f"# FAILED: {error}")
    print(f"# times scaled to the reference speed; this run ran at "
          f"1/{record['speed']['slowdown']:.3f} of it")
    for name, m in record["named"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, m in record["result"]["metrics"].items():
        if name not in record["named"]:
            print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record["result"]))


def main(argv=None, sizes: Sizes = Sizes()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     sizes)
    except BenchSetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
