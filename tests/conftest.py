"""Shared fixtures: canonical specifications used across the test suite."""

from __future__ import annotations

import copyreg
import io
import pickle
from array import array
from itertools import chain

import pytest

from repro.sg import SGBuilder, StateGraph
from repro.stg import elaborate, parse_g

C_ELEMENT_G = """
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
"""

XYZ_RING_G = """
.model xyz
.inputs x
.outputs y z
.graph
x+ y+
y+ z+
z+ x-
x- y-
y- z-
z- x+
.marking { <z-,x+> }
.end
"""


def sabotage_code(sg: StateGraph, state, mask: int) -> None:
    """Flip the bits ``mask`` of one state's code behind the builder's
    back, so the arcs touching it become inconsistent (``StateGraph``
    refuses such arcs at insertion)."""
    g = sg.dense()
    g.codes[g.number[state]] ^= mask


def legacy_pickle(sg: StateGraph, layout: str = "dicts") -> bytes:
    """``sg`` pickled in the layout of older store entries, rebuilt by
    ``copyreg.__newobj__`` from a state dict that holds the id-keyed
    ``_code``/``_succ``/``_pred`` dicts (``"dicts"``, before the graph
    was stored as a ``DenseGraph``),
    ``storage = (ids, codes, succ, pred order)`` (``"ids"``, before
    elaborated graphs kept their markings as place bitmasks) or
    ``storage = (markings, codes, succ, pred order, places)``
    (``"lists"``, before the arcs were stored as one flat table)."""
    if layout == "dicts":
        state = {
            "signals": sg.signals,
            "_index": {s: i for i, s in enumerate(sg.signals)},
            "inputs": sg.inputs,
            "_code": {s: sg.code(s) for s in sg.states()},
            "_succ": {s: dict(sg.successors(s)) for s in sg.states()},
            "_pred": {s: sg.predecessors(s) for s in sg.states()},
            "initial": sg.initial,
        }
    elif layout == "ids":
        g = sg.dense()
        state = {
            "signals": sg.signals,
            "inputs": sg.inputs,
            "initial": sg.initial,
            "_regions": None,
            "storage": (g.ids, g.codes, g.succ, array("i", chain.from_iterable(g.pred))),
        }
    else:
        g = sg.dense()
        state = {
            "signals": sg.signals,
            "inputs": sg.inputs,
            "_initial": sg.initial_number,
            "_regions": None,
            "storage": (
                g.markings, g.codes, g.succ, array("i", chain.from_iterable(g.pred)), g.places
            ),
        }

    class Pickler(pickle.Pickler):
        def reducer_override(self, obj):
            if obj is sg:
                return copyreg.__newobj__, (StateGraph,), state
            return NotImplemented

    out = io.BytesIO()
    Pickler(out, protocol=pickle.HIGHEST_PROTOCOL).dump(sg)
    return out.getvalue()


@pytest.fixture()
def celem_sg() -> StateGraph:
    """The Muller C-element SG (8 states, distributive)."""
    return elaborate(parse_g(C_ELEMENT_G))


@pytest.fixture()
def xyz_sg() -> StateGraph:
    """A simple sequential ring (6 states)."""
    return elaborate(parse_g(XYZ_RING_G))


@pytest.fixture()
def handshake_sg() -> StateGraph:
    """Four-phase handshake ``+r +y -r -y`` (4 states)."""
    b = SGBuilder(["r", "y"], ["r"])
    b.arc("00", "+r", "10")
    b.arc("10", "+y", "11")
    b.arc("11", "-r", "01")
    b.arc("01", "-y", "00")
    b.initial("00")
    return b.build()


@pytest.fixture()
def or_element_sg() -> StateGraph:
    """Non-distributive OR-rise / AND-fall element (CSC holds)."""
    from repro.bench.circuits import figure1_csc_sg

    return figure1_csc_sg()
