"""Symbolic exploration of a per-pair filter over the bits of the trees.

A per-pair oracle filter (``tests/oracles/relate_filters.py``,
``tests/oracles/find_filters.py``) reads its pair only through the MBR
case, two strict MBR containments, ``connected`` and eleven Sec. 3.2
relations of the P/C lists. Given stand-ins that answer those reads
from a table, the filter is explored symbolically: each read of an
unset fact forks the run, so the runs partition the whole space into
cubes, each with the filter's verdict (:func:`cubes`). A tree is then
evaluated by the product's own ``decide`` over every row of that space
(:func:`space`, :class:`TableBits`) and must give each cube's verdict
on each of its rows. Inconsistent rows (a strict containment with
crossing MBRs, say) are included: the two flows agree there too.
"""

from __future__ import annotations

import numpy as np

from repro.filters.mbr import MBRRelationship as M
from repro.filters.pair_bits import BIT_NAMES, MBR_BITS

CASES = tuple(M)
LIST_BITS = tuple(b for b in BIT_NAMES if b not in MBR_BITS and b != "connected")
#: The facts a relate_p handler may read, with their values.
DOMAIN = {
    "case": CASES,
    "mbr_r_strictly_in_s": (False, True),
    "mbr_s_strictly_in_r": (False, True),
    "connected": (False, True),
    **{bit: (False, True) for bit in LIST_BITS},
}


def space(domain: dict) -> dict[str, np.ndarray]:
    """Every row of ``domain``'s product, one column per fact (cases as
    indices into ``CASES``)."""
    radices = [len(values) for values in domain.values()]
    index = np.arange(int(np.prod(radices)))
    columns = {}
    for name, radix in zip(domain, radices):
        index, digit = np.divmod(index, radix)
        columns[name] = digit if name == "case" else digit.astype(bool)
    return columns


def rows_of(columns: dict[str, np.ndarray], fixed: dict) -> np.ndarray:
    """The mask of the rows of ``columns`` inside the cube ``fixed``."""
    mask = np.ones(next(iter(columns.values())).size, dtype=bool)
    for name, value in fixed.items():
        mask &= columns[name] == (CASES.index(value) if name == "case" else value)
    return mask


class TableBits:
    """:class:`~repro.filters.pair_bits.PairBits` over the rows of
    :func:`space`; a bit outside the space's columns is a failure."""

    def __init__(self, columns):
        self.columns = columns
        case = columns["case"]

        def is_case(*cases):
            return np.isin(case, [CASES.index(c) for c in cases])

        self.derived = {
            "mbr_disjoint": is_case(M.DISJOINT),
            "mbr_equal": is_case(M.EQUAL),
            "mbr_cross": is_case(M.CROSS),
            "mbr_r_in_s": is_case(M.EQUAL, M.R_INSIDE_S),
            "mbr_s_in_r": is_case(M.EQUAL, M.R_CONTAINS_S),
        }

    def bit(self, name, rows):
        assert name in BIT_NAMES, name
        column = self.derived[name] if name in self.derived else self.columns[name]
        return column[rows]


class Need(Exception):
    """A filter read a fact the current run has not set."""


class Facts:
    def __init__(self, domain, fixed):
        self.domain, self.fixed = domain, fixed

    def __call__(self, name):
        assert name in self.domain, f"the filter reads {name}, which the domain lacks"
        if name not in self.fixed:
            raise Need(name)
        return self.fixed[name]


class StandInBox:
    """A box that answers every question from the facts."""

    def __init__(self, side, facts):
        self.side, self.facts = side, facts

    def disjoint(self, other):
        return self.facts("case") is M.DISJOINT

    def __eq__(self, other):
        return self.facts("case") is M.EQUAL

    def __ne__(self, other):
        return not self == other

    __hash__ = None

    def contains_box(self, other):
        own = M.R_INSIDE_S if self.side == "s" else M.R_CONTAINS_S
        return self.facts("case") in (M.EQUAL, own)

    def strictly_contains_box(self, other):
        return self.facts(f"mbr_{other.side}_strictly_in_{self.side}")

    def crosses(self, other):
        return self.facts("case") is M.CROSS


class StandInList:
    def __init__(self, operand, facts):
        self.operand, self.facts = operand, facts

    def _pair(self, relation, other, symmetric):
        a, b = self.operand, other.operand
        if symmetric and a[0] == "s":
            a, b = b, a
        return self.facts(f"{relation}_{a}_{b}")

    def overlaps(self, other):
        return self._pair("overlap", other, True)

    def inside(self, other):
        return self._pair("inside", other, False)

    def contains(self, other):
        return other.inside(self)

    def matches(self, other):
        return self._pair("match", other, True)

    def __bool__(self):
        return self.facts(f"nonempty_{self.operand}")


class StandInGrid:
    """The one grid every stand-in is on."""

    def compatible_with(self, other):
        return True


class StandInApril:
    grid = StandInGrid()

    def __init__(self, side, facts):
        self.p = StandInList(side + "P", facts)
        self.c = StandInList(side + "C", facts)


class StandInFlag:
    def __init__(self, name, facts):
        self.name, self.facts = name, facts

    def __bool__(self):
        return self.facts(self.name)


class StandInObject:
    """A :class:`~repro.join.objects.SpatialObject` of stand-ins; the
    pair's connectivity rides on r."""

    def __init__(self, side, facts):
        self.box = StandInBox(side, facts)
        self.april = StandInApril(side, facts)
        self.is_connected = StandInFlag("connected", facts) if side == "r" else True

    def require_april(self):
        return self.april


def cubes(domain: dict, run) -> list[tuple[dict, object]]:
    """``run(facts)``'s verdict on every cube of ``domain``: ``(fixed
    facts, verdict)`` pairs whose cubes partition the product."""
    found, todo = [], [{}]
    while todo:
        fixed = todo.pop()
        try:
            verdict = run(Facts(domain, fixed))
        except Need as need:
            todo += [{**fixed, need.args[0]: value} for value in domain[need.args[0]]]
            continue
        found.append((fixed, verdict))
    return found
