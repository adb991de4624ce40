"""The benchmark tracer wraps pktilt's layer entry points by name.

benchmarks/tracing.py lists each (owner, attribute) it wraps; a refactor
that drops or renames one of them would leave that layer untraced. The
tracer module is loaded read-only from its path, and only its list of
entry points is used.
"""

import types
from pathlib import Path

import pktilt
import pktilt.cli  # noqa: F401  (the tracer wraps names in pktilt.cli)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    # compiled from its source text, so no bytecode cache is written beside it
    module = types.ModuleType("_pktilt_bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_entry_point_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _load_tracing().entry_points(pktilt)
        if attr not in vars(owner)
    ]
    assert missing == []
