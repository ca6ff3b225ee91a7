#!/usr/bin/env python3
"""Fingerprint a training run: SHA-256 of its encoded examples, its
per-step losses, its final parameters and its Adam moments; of the
benchmark's tokenize encodings; of the trained model after a checkpoint
round trip; of the benchmark's translate hypotheses; and of the BPE
tables `train_bpe` learns.

Builds the benchmark's `train` workload (perfbench/workloads.py,
`TrainWorkload`) at seed 921, trains its fresh model for 2 epochs, then
prints the BLAS thread count and the four training digests. The examples
digest covers each example's id, source ids, target ids and image id, in
load order, so it checks the text pipeline on its own. Two checkouts that
print the same digests at the same thread count encode and train
bit-identically; a change that only reorders float32 rounding prints
different losses, parameters and moments.

The fifth digest, tokenize, covers the ids `encode` gives each of the
1000 Zipf-like lines of the benchmark's `tokenize` workload
(`TokenizeWorkload`) at seed 921, under the 500-merge table `train_bpe`
learns on them: the merge count the benchmark times encoding at, where
the toy vocabulary of the examples digest has 95. It does not depend on
BLAS.

The sixth digest, checkpoint, covers the trained parameters and moments
as `save_checkpoint` then `load_checkpoint` give them back, in file order
(parameters, then first and then second moments), so a change to
checkpoint reading or writing gets the same bit-for-bit check.

The seventh digest, translate, covers the beam-5 hypothesis of each of
the 96 requests of the benchmark's `translate` workload
(`TranslateWorkload`) at seed 921 against its frozen checkpoint: the
tokens, the float64 bytes of the logprob and the forced flag, in request
order. So a change to decoding or to the no-grad forward pass gets the
same bit-for-bit check as training.

The eighth digest, bpe, covers the tokens and merges `train_bpe` learns
in four runs: on the tokenize corpus at 500 merges and at its full table
(every pair reaching a count of 2 merged), and on the toy corpus of the
examples digest at 360 and at 600 tokens. So a change to the learner is
checked on its own, past the merges the other digests reach.

    python3 scripts/train_digest.py
    OPENBLAS_NUM_THREADS=1 python3 scripts/train_digest.py
    OPENBLAS_NUM_THREADS=2 python3 scripts/train_digest.py

BLAS picks its thread count from the environment, so set
OPENBLAS_NUM_THREADS for the 1- and 2-thread runs; the first line printed
is the count BLAS reports. The script imports `promptmt` from the `src/`
next to it, not an installed copy.

`train_digest.json` next to this script records the eight digests and the
numpy/OpenBLAS build they were recorded on (`blas_build`);
`tests/test_train_digest.py` computes them through `run` and compares. A
change that moves a digest on purpose records the new value there.
"""

import ctypes
import hashlib
import json
import re
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 921
EPOCHS = 2
RECORDED = Path(__file__).with_name("train_digest.json")


def _openblas(name: str, restype):
    """Call OpenBLAS's ``openblas_<name>`` (under any of its exported
    spellings) in the library this process loaded; None if it cannot."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = set(re.findall(r"(/\S*blas\S*\.so\S*)", maps.read()))
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                    f"openblas_{name}"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def blas_threads():
    """The thread count OpenBLAS reports, or None if it cannot be asked."""
    return _openblas("get_num_threads", ctypes.c_int)


def blas_build() -> dict:
    """The build the digests depend on: numpy's version, the configuration
    string of the OpenBLAS numpy was built against, and the core whose
    kernels OpenBLAS picked at run time."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas("get_corename", ctypes.c_char_p)
    return {"numpy": np.__version__,
            "openblas": blas.get("openblas configuration"),
            "core": core.decode("ascii") if core else None}


def digest(arrays) -> str:
    h = hashlib.sha256()
    for name, a in arrays:
        h.update(name.encode("utf-8"))
        h.update(str(a.dtype).encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()


def json_digest(items) -> str:
    """SHA-256 of the JSON text of each item, one after another."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item).encode("utf-8"))
    return h.hexdigest()


def hypotheses_digest(hyps) -> str:
    h = hashlib.sha256()
    for hyp in hyps:
        h.update(json.dumps(hyp.tokens).encode("utf-8"))
        h.update(struct.pack("<d?", hyp.logprob, hyp.forced))
    return h.hexdigest()


def run() -> tuple[int, float, dict[str, str]]:
    """Train, round-trip, translate and learn as described above; returns
    the step count, the final loss and the eight digests by name, in the
    order they print."""
    for path in (str(ROOT / "perfbench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy as np
    from promptmt import text, toydata
    from promptmt.model import load_checkpoint, save_checkpoint
    from promptmt.train import train_loop
    from workloads import (TOY, Sizes, TokenizeWorkload, TrainWorkload,
                           TranslateWorkload)

    with tempfile.TemporaryDirectory() as tmp:
        workload = TrainWorkload(SEED, Path(tmp), Sizes(train_epochs=EPOCHS))
        workload.setup()
        tokenize = TokenizeWorkload(SEED, Path(tmp), Sizes())
        tokenize.setup()
        vocab = text.train_bpe([tokenize.corpus], len(text.RESERVED_TOKENS)
                               + 256 + tokenize.sizes.tokenize_merges)
        toy = text.load_manifest(toydata.make_toy_corpus(Path(tmp) / "toy",
                                                         **TOY))
        toy_paths = [toy.text_paths[lang] for lang in toy.languages]
        # 10**6 tokens is past the full table: merging stops at min_freq
        vocabs = [vocab, text.train_bpe([tokenize.corpus], 10 ** 6)] + [
            text.train_bpe(toy_paths, size, 2, toy.languages)
            for size in (360, 600)]
        model, state = workload._fresh()
        rows = train_loop(model, workload.examples, workload.visual, state)
        ckpt = Path(tmp) / "model.lvpm"
        save_checkpoint(ckpt, model, state.to_checkpoint_dict())
        loaded, stored = load_checkpoint(ckpt)
        translate = TranslateWorkload(SEED, Path(tmp), Sizes())
        translate.setup()
        hyps = [translate.request(req)[1] for req in translate.requests]

    losses = np.array([r.loss for r in rows], dtype=np.float64)
    names = list(model.params)
    moments = ([("m." + n, state.m[n]) for n in names]
               + [("v." + n, state.v[n]) for n in names])
    reloaded = ([(n, p.data) for n, p in loaded.params.items()]
                + [(f"{s}.{n}", a) for s in "mv" for n, a in stored[s].items()])
    return len(rows), rows[-1].loss, {
        "examples": json_digest([e.example_id, e.source_ids, e.target_ids,
                                 e.image_id] for e in workload.examples),
        "losses": digest([("loss", losses)]),
        "parameters": digest((n, model.params[n].data) for n in names),
        "moments": digest(moments),
        "tokenize": json_digest(text.encode(line, vocab)
                                for line in tokenize.lines),
        "checkpoint": digest(reloaded),
        "translate": hypotheses_digest(hyps),
        "bpe": json_digest([v.tokens, v.merges] for v in vocabs),
    }


def main():
    steps, final_loss, digests = run()
    print(f"blas threads  {blas_threads()}")
    print(f"steps         {steps}")
    print(f"final loss    {final_loss!r}")
    for name, value in digests.items():
        print(f"{name:<14}{value}")


if __name__ == "__main__":
    main()
