"""Unit tests for tokens."""

import copy
import pickle

import pytest

from repro.lid.token import Token, VOID, payloads, valid_stream


class TestToken:
    def test_valid_token_carries_value(self):
        tok = Token(42)
        assert tok.valid and tok.value == 42

    def test_void_token(self):
        assert not VOID.valid
        assert VOID.value is None

    def test_void_factory_is_singleton(self):
        assert Token.void() is VOID

    def test_void_discards_payload(self):
        tok = Token(99, valid=False)
        assert tok.value is None

    def test_immutability(self):
        tok = Token(1)
        with pytest.raises(AttributeError):
            tok.value = 2

    def test_equality_valid(self):
        assert Token(3) == Token(3)
        assert Token(3) != Token(4)

    def test_all_voids_equal(self):
        assert Token(valid=False) == VOID

    def test_valid_not_equal_void(self):
        assert Token(0) != VOID

    def test_eq_other_types(self):
        assert Token(1).__eq__(1) is NotImplemented

    def test_hashable(self):
        assert len({Token(1), Token(1), VOID, Token.void()}) == 2

    def test_void_p(self):
        assert VOID.void_p
        assert not Token(0).void_p

    def test_str_matches_paper_rendering(self):
        assert str(VOID) == "N"
        assert str(Token(7)) == "7"

    def test_repr(self):
        assert repr(VOID) == "Token.void()"
        assert repr(Token(5)) == "Token(5)"


ROUND_TRIPS = {
    "pickle": lambda tok: pickle.loads(pickle.dumps(tok)),
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
class TestTokenRoundTrip:
    """Checkpoints hold registers by value, so tokens must survive
    pickling (``--jobs`` workers, the disk cache) and deep copies."""

    def test_valid_token(self, trip):
        tok = ROUND_TRIPS[trip](Token(3))
        assert tok == Token(3)
        assert tok.valid and tok.value == 3

    def test_void_token(self, trip):
        tok = ROUND_TRIPS[trip](VOID)
        assert tok == VOID
        assert not tok.valid and tok.value is None

    def test_tuple_payload(self, trip):
        tok = ROUND_TRIPS[trip](Token(("corrupt", 7)))
        assert tok == Token(("corrupt", 7))
        assert tok.value == ("corrupt", 7)


class TestStreamHelpers:
    def test_valid_stream(self):
        toks = valid_stream([1, 2, 3])
        assert all(t.valid for t in toks)
        assert [t.value for t in toks] == [1, 2, 3]

    def test_payloads_projection(self):
        toks = [Token(1), VOID, Token(2), VOID, VOID, Token(3)]
        assert payloads(toks) == [1, 2, 3]

    def test_payloads_empty(self):
        assert payloads([]) == []
        assert payloads([VOID, VOID]) == []
