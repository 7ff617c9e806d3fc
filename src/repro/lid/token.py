"""Tokens: the unit of information travelling on LID channels.

A latency-insensitive channel carries, each clock cycle, either a *valid*
datum or a *void* (the paper renders voids as ``N`` in its figures; the
literature also calls them tau events or bubbles).  A :class:`Token`
pairs the payload with the valid bit so block implementations can move
both together.

Tokens are immutable value objects; ``VOID`` is the canonical invalid
token.
"""

from __future__ import annotations

from typing import Any


class Token:
    """An immutable (payload, valid) pair.

    ``Token(x)`` makes a valid token carrying ``x``; ``Token.void()``
    (or the module-level ``VOID``) is the invalid token.  The payload of
    a void token is ``None`` by convention — the protocol never looks at
    it, mirroring hardware where the data wires are don't-care when
    ``valid`` is low.
    """

    __slots__ = ("value", "valid")

    def __init__(self, value: Any = None, valid: bool = True):
        object.__setattr__(self, "value", value if valid else None)
        object.__setattr__(self, "valid", bool(valid))

    def __setattr__(self, name, _value):  # pragma: no cover - guard
        raise AttributeError(f"Token is immutable; cannot set {name!r}")

    def __reduce__(self):
        # The immutability guard blocks the default slot-by-slot
        # reconstruction, so pickle and deepcopy rebuild through the
        # constructor instead.
        return (Token, (self.value, self.valid))

    @staticmethod
    def void() -> "Token":
        """The invalid token."""
        return VOID

    @property
    def void_p(self) -> bool:
        """True when the token is invalid (a bubble)."""
        return not self.valid

    def __eq__(self, other) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        if not self.valid and not other.valid:
            return True
        return self.valid == other.valid and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.valid, self.value))

    def __repr__(self) -> str:
        if not self.valid:
            return "Token.void()"
        return f"Token({self.value!r})"

    def __str__(self) -> str:
        # Matches the rendering used in the paper's figures.
        return "N" if not self.valid else str(self.value)


#: The canonical void token.
VOID = Token(valid=False)


def valid_stream(values) -> list:
    """Wrap an iterable of payloads into a list of valid tokens."""
    return [Token(v) for v in values]


def payloads(tokens) -> list:
    """Extract the payloads of the valid tokens, discarding voids.

    This is the *latency-equivalence projection* from the LID theory:
    two streams are latency equivalent iff their projections are equal.
    """
    return [t.value for t in tokens if t.valid]
