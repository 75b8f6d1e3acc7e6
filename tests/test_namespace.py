"""Namespace wrapping and peeling: one unwrap per physical message.

``Namespace.wrap`` re-tags a message as ``<name>/<protocol>``; ``peel``
splits it again and memoises the split on the message, so every receiver
of a broadcast shares one inner object (and whatever the inner protocol
memoises on it).  The memo must be invisible: equal messages, equal sizes,
nothing carried across pickling or re-payloading.
"""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net import message as message_module
from repro.net.message import Message
from repro.protocols.base import Namespace, peel
from repro.protocols.topology import ShardedTopology

_names = st.text(
    alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)
_payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-1000, 1000),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=8),
    ),
    lambda children: st.lists(children, max_size=4),
    max_leaves=12,
)
_messages = st.builds(
    Message,
    protocol=st.text(max_size=12),
    mtype=st.text(max_size=6),
    round=st.one_of(st.none(), st.integers(0, 10**6)),
    payload=_payloads,
)


def fresh(message: Message) -> Message:
    """An un-memoised message with the same four fields."""
    return Message(message.protocol, message.mtype, message.round, message.payload)


def memo_free(message: Message) -> bool:
    return not any(hasattr(message, memo) for memo in ("_peel", "_bundle_memo", "_wire"))


class TestNamespace:
    @pytest.mark.parametrize("name", ["", "a/b", "/", "group:1/"])
    def test_rejects_names_that_cannot_round_trip(self, name):
        with pytest.raises(ConfigurationError):
            Namespace(name)

    def test_wrap_prefixes_the_protocol(self):
        wrapped = Namespace("epoch:3").wrap(Message("dora", "REPORT", None, [1.0]))
        assert wrapped.protocol == "epoch:3/dora"
        assert (wrapped.mtype, wrapped.round, wrapped.payload) == ("REPORT", None, [1.0])

    def test_group_1_does_not_match_group_10(self):
        one, ten = Namespace("group:1"), Namespace("group:10")
        inner = Message("delphi", "BUNDLE", None, {})
        assert one.unwrap(ten.wrap(inner)) is None
        assert ten.unwrap(one.wrap(inner)) is None
        assert one.unwrap(one.wrap(inner)) == inner
        # The same holds for a message that arrived without a memo.
        assert one.unwrap(fresh(ten.wrap(inner))) is None
        assert ten.unwrap(fresh(ten.wrap(inner))) == inner

    def test_bare_protocol_has_no_namespace(self):
        assert peel(Message("delphi", "BUNDLE", None, {})) == (None, None)
        assert Namespace("reps").unwrap(Message("reps", "BUNDLE", None, {})) is None

    def test_every_receiver_gets_the_same_inner_object(self):
        # Built without `wrap`, as after unpickling or `with_payload`.
        physical = Message("group:2/delphi", "BUNDLE", None, {"k": 1})
        first = Namespace("group:2").unwrap(physical)
        assert first is Namespace("group:2").unwrap(physical)
        assert first is peel(physical)[1]

    @given(_messages, st.lists(_names, min_size=1, max_size=3))
    def test_wrap_then_peel_is_the_identity(self, message, names):
        wrapped = message
        for name in names:
            wrapped = Namespace(name).wrap(wrapped)
        assert wrapped.size_bits() == fresh(wrapped).size_bits()
        for memoised in (wrapped, fresh(wrapped)):
            for name in reversed(names):
                head, memoised = peel(memoised)
                assert head == name
            assert memoised == message
            assert memoised.size_bits() == fresh(message).size_bits()

    @given(_messages, _names, _payloads)
    def test_memos_do_not_survive_pickle_or_with_payload(self, message, name, payload):
        wrapped = Namespace(name).wrap(message)
        peel(wrapped)
        clone = pickle.loads(pickle.dumps(wrapped))
        assert clone == wrapped and memo_free(clone)
        repayloaded = wrapped.with_payload(payload)
        if repayloaded is not wrapped:
            assert memo_free(repayloaded)
            assert peel(repayloaded)[1] == message.with_payload(payload)


class TestBoundedCaches:
    def test_header_intern_is_capped(self, monkeypatch):
        monkeypatch.setattr(message_module, "_HEADER_INTERN_CAP", 8)
        monkeypatch.setattr(message_module, "_HEADER_INTERN", {})
        for epoch in range(100):
            message = Message(f"epoch:{epoch}/dora", "REPORT", None, None)
            assert message.size_bits() == fresh(message).size_bits()
            assert len(message_module._HEADER_INTERN) <= 8

    def test_unknown_heads_are_not_cached_by_the_topology(self):
        topology = ShardedTopology(12, group_size=4)
        scopes = dict(topology._scopes)
        for junk in ("group:99/x", "group:x/x", "group:01/x", "reps2/x", "/x", "x"):
            targets = topology.broadcast_targets(0, Message(junk, "T", None, None))
            assert list(targets) == list(range(12))
        assert topology._scopes == scopes
        assert sorted(scopes) == ["group:0", "group:1", "group:2", "reps"]
