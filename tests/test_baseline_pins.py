"""The Lavagno and Beerel baseline results of every Table 2 row, pinned.

A row's area/delay cell can survive a change of its cover (a cube
swapped for another of the same size), so each row also pins the
flow's counters and a digest of its covers' cube strings in cover
order.  A refused row pins its failure code and diagnostic instead.

Each row is ``(lavagno, beerel)``:

* ``lavagno``: ``(cell, hazard_cubes_added, delay_lines_inserted,
  padded_signals, covers digest)``;
* ``beerel``: ``(cell, ack_gates_added, covers digest)``;
* a refusal: ``("<code> <diagnostic message>",)``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import BaselineRefusal, synthesize_beerel, synthesize_lavagno
from repro.bench.circuits import TABLE2_CIRCUITS
from repro.bench.runner import sg_of

PINNED = {
    "chu133": (
        ("488/6.0", 0, 3, ("d", "e", "f"), "9d29f7d465050260"),
        ("560/4.8", 0, "e8b1f2d3c3bcd46d"),
    ),
    "chu150": (
        ("456/6.0", 0, 3, ("c", "d", "e"), "71df81532a44aa2d"),
        ("432/4.8", 0, "a920880348c29149"),
    ),
    "chu172": (
        ("64/2.4", 0, 0, (), "fc3e2b7e561946b0"),
        ("256/4.8", 0, "6cccac1faf066b32"),
    ),
    "converta": (
        ("240/3.6", 1, 0, (), "0c207ef2a9142437"),
        ("656/6.0", 0, "2997df46f2e67d42"),
    ),
    "ebergen": (
        ("96/2.4", 0, 0, (), "e4a46b4fd4553903"),
        ("384/4.8", 0, "fefb5a208f82e00c"),
    ),
    "full": (
        ("96/2.4", 0, 0, (), "e4a46b4fd4553903"),
        ("384/4.8", 0, "fefb5a208f82e00c"),
    ),
    "hazard": (
        ("216/6.0", 0, 1, ("q",), "6c68efe27b1d8621"),
        ("400/4.8", 0, "9bb3804362efdfe6"),
    ),
    "hybridf": (
        ("256/4.8", 0, 4, ("x", "y", "u", "v"), "15f61d7ddd09efeb"),
        ("512/4.8", 0, "91bfbcadf635d6ee"),
    ),
    "pe-send-ifc": (
        ("824/6.0", 0, 6, ("c0", "c1", "c2", "c3", "c4", "ack"), "07f7e2dbd2ec826a"),
        ("848/4.8", 0, "dc322e2a7624b6cf"),
    ),
    "qr42": (
        ("96/2.4", 0, 0, (), "e4a46b4fd4553903"),
        ("384/4.8", 0, "fefb5a208f82e00c"),
    ),
    "vbe10b": (
        ("976/6.0", 0, 7, ("c0", "c1", "c2", "c3", "c4", "c5", "ack"), "769a7356805a534c"),
        ("992/4.8", 0, "c58bbb0f8f7de3b8"),
    ),
    "vbe5b": (
        ("456/6.0", 0, 3, ("d", "e", "f"), "c4c2f9152397999b"),
        ("432/4.8", 0, "d03830336e1a7508"),
    ),
    "wrdatab": (
        ("648/6.0", 0, 6, ("c0", "c1", "c2", "ack", "p", "q"), "263ce0133a6817b9"),
        ("816/4.8", 0, "aacfadb0975a6829"),
    ),
    "sbuf-send-ctl": (
        ("240/4.8", 0, 3, ("g1", "g2", "g3"), "2bb6fe7d19e01b23"),
        ("720/6.0", 0, "ac6470d8170ca9fe"),
    ),
    "pr-rcv-ifc": (
        ("672/6.0", 0, 5, ("c0", "c1", "c2", "c3", "ack"), "f311b80587da25dc"),
        ("704/4.8", 0, "ca7bbe8879fd8cd9"),
    ),
    "master-read": (
        ("1432/6.0", 0, 10, ("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "ack"), "49b1506647c69706"),
        ("1424/4.8", 0, "1b81531e7b761315"),
    ),
    "read-write": (
        ("712/6.0", 0, 7, ("c0", "c1", "c2", "ack", "b", "c", "d"), "36beeacb7e73d4e7"),
        ("944/4.8", 0, "f49c323f405f5c32"),
    ),
    "tsbmsi": (
        ("1280/6.0", 0, 9, ("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "ack"), "d8cf8b4a5cc675e4"),
        ("1280/4.8", 0, "81667b3377b53b2b"),
    ),
    "tsbmsiBRK": (
        ("1584/6.0", 0, 11, ("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "ack"), "f131d297f6bab5a2"),
        ("1568/4.8", 0, "90b4f374714691f6"),
    ),
    "pmcm1": (
        ("(1) detonant (OR-caused) signals: c",),
        ("(1) detonant (OR-caused) signals: c",),
    ),
    "pmcm2": (
        ("(1) detonant (OR-caused) signals: c",),
        ("(1) detonant (OR-caused) signals: c",),
    ),
    "combuf1": (
        ("(1) detonant (OR-caused) signals: c",),
        ("(1) detonant (OR-caused) signals: c",),
    ),
    "combuf2": (
        ("(1) detonant (OR-caused) signals: c",),
        ("(1) detonant (OR-caused) signals: c",),
    ),
    "sing2dual-inp": (
        ("(1) detonant (OR-caused) signals: c",),
        ("(1) detonant (OR-caused) signals: c",),
    ),
    "sing2dual-out": (
        ("(1) detonant (OR-caused) signals: c",),
        ("(1) detonant (OR-caused) signals: c",),
    ),
}


def covers_digest(covers) -> str:
    """sha256 (first 16 hex digits) of the covers' cube strings, in order."""
    text = "\n".join(
        f"{key}: {' '.join(c.input_string() for c in cover.cubes)}"
        for key, cover in covers.items()
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def refusal(e: BaselineRefusal) -> tuple:
    return (f"{e.code} {e.diagnostics[0].message}",)


def baseline_row(name: str) -> tuple:
    sg = sg_of(name)
    try:
        sis = synthesize_lavagno(sg, name=f"sis_{name}")
        lavagno = (
            sis.stats().row(),
            sis.hazard_cubes_added,
            sis.delay_lines_inserted,
            tuple(sis.padded_signals),
            covers_digest(sis.covers),
        )
    except BaselineRefusal as e:
        lavagno = refusal(e)
    try:
        syn = synthesize_beerel(sg, name=f"syn_{name}")
        beerel = (syn.stats().row(), syn.ack_gates_added, covers_digest(syn.covers))
    except BaselineRefusal as e:
        beerel = refusal(e)
    return lavagno, beerel


def test_every_row_pinned():
    assert list(PINNED) == list(TABLE2_CIRCUITS)


@pytest.mark.parametrize("name", TABLE2_CIRCUITS)
def test_baseline_row(name):
    assert baseline_row(name) == PINNED[name]
