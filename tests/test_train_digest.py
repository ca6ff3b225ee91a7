"""The bit-identity gate: the eight digests `scripts/train_digest.py`
prints (training, checkpoint, translate, tokenize and BPE learning) must
equal the ones recorded in `scripts/train_digest.json`, on the
numpy/OpenBLAS build that recorded them. On another build the rounding of
a GEMM may differ, so the test skips there, naming both builds."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "train_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("train_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_equal_the_recorded_ones():
    script = load_script()
    recorded = json.loads(script.RECORDED.read_text(encoding="utf-8"))
    build = script.blas_build()
    if build != recorded["build"]:
        pytest.skip(f"digests recorded on {recorded['build']}, this build "
                    f"is {build}")
    _, _, digests = script.run()
    moved = [f"{name} {recorded['digests'][name][:8]}... -> "
             f"{digests.get(name, 'missing')[:8]}..."
             for name in recorded["digests"]
             if digests.get(name) != recorded["digests"][name]]
    assert not moved and digests.keys() == recorded["digests"].keys(), (
        f"digests moved: {'; '.join(moved)}; at {script.blas_threads()} "
        f"BLAS thread(s); recorded build {recorded['build']}, current build "
        f"{build}")
