"""Every exported name, and every layer the benchmark tracer wraps, exists.

A stale ``__all__`` entry or a renamed layer function would otherwise
surface only when a traced benchmark run refuses to start.
"""

import functools
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import commdeg

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _modules():
    yield commdeg
    for info in pkgutil.iter_modules(commdeg.__path__):
        yield importlib.import_module(f"commdeg.{info.name}")


def test_all_exports_resolve():
    checked = set()
    for module in _modules():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
        checked.add(module.__name__)
    assert "commdeg.jsontext" in checked


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for prefix, module_name, path in tracer.LAYERS:
        owner = importlib.import_module(f"commdeg.{module_name}")
        try:
            functools.reduce(getattr, path.split("."), owner)
        except AttributeError:
            missing.append(prefix)
    assert not missing


def test_package_exports_are_pinned():
    # Probabilities are count vectors over a space size; a change to this
    # list is a change to the public surface and should be deliberate.
    assert tuple(commdeg.__all__) == (
        "__version__",
        "brute_counts",
        "comm_distribution",
        "final_counts",
        "prob_class_formula",
        "prob_fast",
        "space_size",
        "CommdegError",
        "GroupTable",
        "SubgroupRef",
        "direct_product",
        "named_group",
        "parse_group_spec",
        "parse_subgroup_spec",
        "CharacterTable",
        "character_table",
        "AuditConfig",
        "AuditReport",
        "default_config",
        "run_battery",
    )
