"""Exact commutator-value probabilities and claim audits on finite groups."""

import importlib

from .errors import CommdegError

__version__ = "0.1.0"

__all__ = [
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
]

# Exported names resolved on first access (PEP 562), so that importing
# the package, or a command that needs none of them, imports neither
# numpy nor the modules built on it.
_LAZY = {
    "brute_counts": "engine",
    "comm_distribution": "engine",
    "final_counts": "engine",
    "prob_class_formula": "engine",
    "prob_fast": "engine",
    "space_size": "engine",
    "GroupTable": "groups",
    "SubgroupRef": "groups",
    "direct_product": "groups",
    "named_group": "groups",
    "parse_group_spec": "groupspec",
    "parse_subgroup_spec": "groupspec",
    "CharacterTable": "chartab",
    "character_table": "chartab",
    "AuditConfig": "audit",
    "AuditReport": "audit",
    "default_config": "audit",
    "run_battery": "audit",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
