#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute on one core):

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints every metric of
BENCHMARK.json by name with its unit and ends with the result object; that
a corrupted hypothesis and a corrupted encoding are each counted as failed
operations, which proves the output checks run; and that a missing trace
target fails loudly.
"""

from __future__ import annotations

import contextlib
import io
import json

import run  # pins BLAS and imports promptmt from this checkout first
from promptmt import decoding, text
from tracing import Tracer, TraceError
from workloads import WORKLOADS, Sizes

TINY = Sizes(train_epochs=1, translate_requests=4, tokenize_lexicon=200,
             tokenize_lines=40, tokenize_merges=30, replays=1,
             min_ops=1)
SECONDS = 0.5


def check_report(workload: str, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds",
                         str(SECONDS), "--trace", str(trace)], sizes=TINY)
    assert code == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    spec = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    printed = {line.split(" ")[0]: line.split(" ")[2] for line in lines[:-1]
               if not line.startswith("#")}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        assert printed[m["name"]] == m["unit"], (m["name"], printed)
    for name, _, _, unit in run.NAMED[workload] + run.COMMON_NAMED:
        assert printed[name] == unit, (name, printed)
    if not trace:
        for name in ("setup_s", "op_ms_p50", "tok_s", "pass_s"):
            assert result["metrics"][name]["value"] > 0, name
    print(f"ok   {workload} trace={trace}: {len(spec)} metrics with units")


@contextlib.contextmanager
def replaced(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def corrupt_hypothesis(beam_search):
    def wrapper(*args, **kwargs):
        hyp = beam_search(*args, **kwargs)
        hyp.logprob += 1e-3
        return hyp
    return wrapper


def corrupt_encoding(encode):
    def wrapper(line, vocab):
        ids = encode(line, vocab)
        return [(ids[0] + 1) % len(vocab)] + ids[1:]
    return wrapper


def check_failures_counted():
    with replaced(decoding, "beam_search", corrupt_hypothesis):
        record = run.run("translate", 7, SECONDS, False, TINY)
    assert not record["result"]["correct"]
    assert record["failed"] >= TINY.translate_requests
    print(f"ok   corrupted hypothesis: {record['failed']} of "
          f"{record['attempted']} requests failed")

    with replaced(text, "encode", corrupt_encoding):
        record = run.run("tokenize", 7, SECONDS, False, TINY)
    encodes = record["samples"]["op_percentiles"]
    assert not record["result"]["correct"]
    assert record["failed"] == encodes >= TINY.tokenize_lines
    print(f"ok   corrupted encoding: {record['failed']} of {encodes} "
          "encodes failed")


def check_missing_target():
    tracer = Tracer()
    try:
        tracer.span(text, "encode_renamed", "text.encode")
    except TraceError as err:
        print(f"ok   missing trace target: {err}")
    else:
        raise AssertionError("a missing trace target was accepted")
    tracer.span(text, "encode", "text.encode")
    try:
        tracer.require_calls(["text.encode"])
    except TraceError:
        print("ok   silent trace target detected")
    else:
        raise AssertionError("a layer that recorded nothing was accepted")
    finally:
        tracer.uninstall()


def main():
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_report(workload, trace)
    check_failures_counted()
    check_missing_target()
    print("selftest passed")


if __name__ == "__main__":
    main()
