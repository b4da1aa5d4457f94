"""The per-layer tracer in perfbench/ patches kgraphs by (module, attribute);
every name it lists must still exist, or a traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # reads the tables; installs nothing
    missing = []
    for name, module, attr in tracing.SPANS + tracing.COUNTS:
        owner = importlib.import_module(module)
        *cls, fn = attr.split(".")
        if cls:
            owner = vars(owner).get(cls[0])
        if owner is None or fn not in vars(owner):
            missing.append(f"{name}: {module}.{attr}")
    assert missing == []
    assert len(tracing.SPANS + tracing.COUNTS) >= 31
