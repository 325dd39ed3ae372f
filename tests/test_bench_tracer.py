"""The traced benchmark run patches public names of `hfp`; they must exist.

`hfpbench/spans.py`'s ``Tracer.install`` wraps ``step``, ``vi_residual``,
``power``, the certifiers, the fixture factories and more, in every `hfp`
module that holds them.  A name it cannot find makes ``install`` fail, so
this test catches a removed or renamed public name in the tier-1 suite.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "hfpbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("hfpbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_on_current_hfp():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner!r}.{attr} not patched"
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} not restored"
