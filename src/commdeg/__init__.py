"""Exact commutator-value probabilities and claim audits on finite groups."""

from .engine import (
    brute_counts,
    comm_distribution,
    final_counts,
    prob_class_formula,
    prob_fast,
    space_size,
)
from .errors import CommdegError
from .groups import GroupTable, SubgroupRef, direct_product, named_group
from .groupspec import parse_group_spec, parse_subgroup_spec
from .chartab import CharacterTable, character_table
from .audit import AuditConfig, AuditReport, default_config, run_battery

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
