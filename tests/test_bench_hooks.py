"""The names the benchmark's layer trace wraps are where it looks for them.

perfbench/layertrace.py wraps each entry of its LAYERS table by name, from
outside the package.  A rename in walkrange would only show when the
benchmark runs, so this resolves the table the way its `install` does.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from walkrange import walks

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layers():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def test_benchmark_layer_hooks_resolve():
    layers = _layers()
    for modname, attr, _span in layers:
        owner = importlib.import_module(f"walkrange.{modname}")
        *owner_path, leaf = attr.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        fn = owner.__dict__[leaf] if owner_path else getattr(owner, leaf)
        assert callable(fn) and fn.__name__ == leaf, (modname, attr)
    # the trace counts DP layers from the first positional argument, n
    assert ("walks", "local_time_probabilities", "walks.dp_float") in layers
    first = next(iter(
        inspect.signature(walks.local_time_probabilities).parameters.values()))
    assert first.name == "n"
    assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
