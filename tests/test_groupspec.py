import random
import re

import pytest

from commdeg import groups, groupspec
from commdeg.errors import (
    ClosureTooLarge,
    InvalidPermutation,
    UnknownFamily,
    UsageError,
)


@pytest.mark.parametrize(
    "text,order",
    [
        ("S3", 6),
        ("C12", 12),
        ("D4", 8),
        ("A4", 12),
        ("Q8", 8),
        ("D4xC2", 16),
        ("S3xS3", 36),
        ("C2xC2xC2", 8),
    ],
)
def test_parse_named_and_products(text, order):
    assert groupspec.parse_group_spec(text).order == order


def test_parse_raw_permutations():
    G = groupspec.parse_group_spec("perm(3): (1 2 3); (1 2)")
    assert G.order == 6
    single = groupspec.parse_group_spec("perm(3): (1 2 3)")
    assert single.order == 3


def test_parse_raw_fixed_points_allowed():
    G = groupspec.parse_group_spec("perm(5): (1 2)")
    assert G.order == 2


@pytest.mark.parametrize("text", ["X5", "Q9", "S0"])
def test_parse_rejects_unknown_families(text):
    with pytest.raises(UnknownFamily):
        groupspec.parse_group_spec(text)


@pytest.mark.parametrize("text", ["", "Qx", "perm(two): (1 2)", "S3x"])
def test_parse_rejects_malformed_specs(text):
    with pytest.raises(UsageError):
        groupspec.parse_group_spec(text)


def test_parse_rejects_bad_cycles():
    with pytest.raises(InvalidPermutation):
        groupspec.parse_group_spec("perm(3): (1 4)")
    with pytest.raises(InvalidPermutation):
        groupspec.parse_group_spec("perm(3): (1 1 2)")


def test_parse_respects_order_cap():
    with pytest.raises(ClosureTooLarge):
        groupspec.parse_group_spec("C30", max_order=24)
    with pytest.raises(ClosureTooLarge):
        groupspec.parse_group_spec("S3xS3", max_order=24)


def _rewrite_cycles(text, degree):
    """The reference parse: the whole image list rewritten once per cycle."""
    img = list(range(degree))
    for cyc in groupspec._CYCLE_RE.findall(text):
        pts = [int(e) - 1 for e in re.split(r"[,\s]+", cyc.strip()) if e]
        step = {pts[i]: pts[(i + 1) % len(pts)] for i in range(len(pts))}
        img = [step.get(v, v) for v in img]
    return tuple(img)


def test_cycles_apply_left_to_right_as_the_list_rewrite():
    rng = random.Random(11)
    for _ in range(300):
        degree = rng.randint(1, 12)
        cycles = []
        for _ in range(rng.randint(0, 6)):
            # Cycles overlap freely, so their left-to-right order matters.
            pts = rng.sample(range(1, degree + 1), rng.randint(1, degree))
            sep = rng.choice([" ", ",", ", "])
            cycles.append("(" + sep.join(map(str, pts)) + ")")
        text = "".join(cycles) or "()"
        assert groupspec._parse_cycles(text, degree) == _rewrite_cycles(
            text, degree
        ), text
    # Read left to right, (1 2)(2 3) sends 1 to 3, 2 to 1 and 3 to 2.
    assert groupspec._parse_cycles("(1 2)(2 3)", 3) == (2, 0, 1)
    assert groupspec._parse_cycles("(1 2)(2 3)", 3) != groupspec._parse_cycles(
        "(2 3)(1 2)", 3
    )


def test_subgroup_spec_keywords(s3):
    assert groupspec.parse_subgroup_spec(s3, "triv").members == (0,)
    assert groupspec.parse_subgroup_spec(s3, "full").order == 6
    assert groupspec.parse_subgroup_spec(s3, "center").order == 1
    assert groupspec.parse_subgroup_spec(s3, "gen[1]").members == (0, 1, 3)
    assert groupspec.parse_subgroup_spec(s3, "gen[1,2]").order == 6


def test_subgroup_spec_rejects_garbage(s3):
    for text in ("", "gen[", "gen[x]", "middle", "gen[99]"):
        with pytest.raises(Exception):
            groupspec.parse_subgroup_spec(s3, text)
