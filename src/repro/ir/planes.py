"""Bit-plane packing views over lowered-IR signal vectors.

The bit-parallel skeleton engine (:mod:`repro.skeleton.bitsim`) stores
one Python integer per IR signal (hop valid, hop stop, register), where
bit *p* is the value of that signal in experiment plane *p* — the
classic SBFI layout: plane 0 is the golden run, planes 1..N-1 are fault
experiments, and one bitwise operation advances every plane at once.

These helpers are the single definition of that layout.  They work for
arbitrary plane counts (Python integers are arbitrary-width, so a batch
is not limited to the machine word).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

__all__ = ["pack_planes", "unpack_planes", "plane_words"]


def pack_planes(bits: Sequence[bool]) -> int:
    """Pack one boolean per plane into a plane word (bit p = plane p)."""
    word = 0
    for plane, bit in enumerate(bits):
        if bit:
            word |= 1 << plane
    return word


def unpack_planes(word: int, planes: int) -> Tuple[bool, ...]:
    """Inverse of :func:`pack_planes` for a *planes*-wide batch.

    Bits at or above *planes* are ignored, so a masked engine word
    round-trips even when intermediate ops left high garbage bits.
    """
    if word < 0:
        raise ValueError("plane words are unsigned; mask before unpacking")
    return tuple(bool((word >> p) & 1) for p in range(planes))


def plane_words(columns: Iterable[Sequence[bool]]) -> List[int]:
    """Transpose per-plane boolean columns into per-row plane words.

    ``columns[p][i]`` is signal *i* in plane *p*; the result is one
    packed word per signal — the shape the bitsim engine keeps its
    script tables in.  All columns must have equal length.
    """
    cols = [tuple(col) for col in columns]
    if not cols:
        return []
    length = len(cols[0])
    if any(len(col) != length for col in cols):
        raise ValueError("plane columns must have equal length")
    return [
        pack_planes([col[i] for col in cols])
        for i in range(length)
    ]
