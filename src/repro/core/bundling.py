"""Bundled message encoding for Delphi (Section III-C).

Running one BinAA instance per checkpoint naively would require a separate
physical message per checkpoint per round.  Delphi instead bundles all of a
node's sub-protocol traffic produced in one processing step into a single
physical message.  Per level, a bundle carries:

* ``explicit`` — sub-messages for checkpoints the sender tracks explicitly,
  keyed by checkpoint index;
* ``default`` — sub-messages of the sender's shared all-zero block, which
  apply to every checkpoint the sender does *not* track explicitly;
* ``exclude`` — the sender's current explicit checkpoint set, so the
  receiver knows exactly which checkpoints the ``default`` entry does not
  cover (this is what makes out-of-order delivery safe).

Because the explicit set only ever contains checkpoints near some node's
input (at most ``min(2 delta / rho_l + 2, 2n)`` per level), the encoded
bundle stays small and the measured per-round communication reproduces the
paper's ``O(n^2 min(delta / rho_0, n l_max))`` bits.

Codec hot-path design.  A bundle is encoded once per processing step and
decoded once per distinct content (:func:`shared_decode`: the decode is
memoised on the physical message, and behind that in a bounded table keyed
by the payload's value, because equal payloads also arrive in distinct
messages: honest payloads repeat across senders, epochs and processes), but
with ~n^2 messages per round the codec used to dominate after the event
loop got cheap.  The wire payload is therefore *flat tuples* instead of
nested lists:

* sub-message triples are already tuples — encoding reuses them zero-copy,
  and encoded sub-sequences are interned per content key, so the recurring
  fragments (a level's default block, one checkpoint's echoes) are shared
  objects across bundles with their size computed exactly once, as is each
  exclude tuple's (a level state hands out one until its next split);
* :func:`encode_bundle_sized` returns the payload *and* its wire size in
  bits, accumulated from the interned fragment sizes, so the enclosing
  :class:`~repro.net.message.Message` never walks the payload at all (the
  number it produces is exactly ``estimate_size_bits(payload)``);
* :func:`decode_bundle` also computes the *receive plan*: per level, every
  fact the receive path needs that depends on the payload alone (sorted and
  set projections of ``exclude`` and the explicit keys, the flattened
  explicit sub-messages), so the n receivers of a broadcast share one plan
  instead of re-deriving it per delivery.

Tuples and lists are charged identically by
:func:`~repro.net.message.estimate_size_bits` (8 bits of framing plus the
items), so the flat-tuple payload is byte-identical to the old nested-list
payload for wire-size accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import copysign
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.net.message import Message, int_size_bits, submessage_payload_bits
from repro.protocols.binaa import SubMessage

#: Interned encoded sub-message sequences: content key -> (payload fragment,
#: fragment size in bits).  Honest runs produce few distinct sequences
#: (mtypes x rounds x dyadic values), so the memo stays tiny; the cap only
#: guards against adversarial floods of unique triples.
_SUBS_INTERN: Dict[Tuple[SubMessage, ...], Tuple[Tuple[SubMessage, ...], int]] = {}
_SUBS_INTERN_CAP = 65536


def _encode_subs(subs: Sequence[SubMessage]) -> Tuple[Tuple[SubMessage, ...], int]:
    """Encode a sub-message sequence, returning ``(fragment, size_bits)``.

    The fragment is interned per content so repeated sequences share one
    tuple object and one size computation.
    """
    key = tuple(subs)
    entry = _SUBS_INTERN.get(key)
    if entry is None:
        if len(_SUBS_INTERN) >= _SUBS_INTERN_CAP:
            _SUBS_INTERN.clear()
        bits = 8
        for sub in key:
            bits += submessage_payload_bits(sub)
        entry = _SUBS_INTERN[key] = (key, bits)
    return entry


#: Exclude fragment sizes in bits, by exclude tuple (capped like the above).
_EXCLUDE_BITS: Dict[Tuple[int, ...], int] = {}


@dataclass
class LevelBundle:
    """One level's share of a bundled Delphi message, as a sender builds it.

    A decoded bundle carries these too, as a read-only view of the payload;
    what the receive path reads is the bundle's :attr:`Bundle.plan`.
    """

    level: int
    exclude: Tuple[int, ...] = ()
    default: List[SubMessage] = field(default_factory=list)
    explicit: Dict[int, List[SubMessage]] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        """Whether this level contributes nothing to the bundle."""
        return not self.default and not self.explicit


@dataclass
class Bundle:
    """A full bundled Delphi message: one :class:`LevelBundle` per level,
    and, once decoded, its receive plan (see :func:`decode_bundle`)."""

    levels: Dict[int, LevelBundle] = field(default_factory=dict)
    plan: Tuple[Tuple, ...] = ()

    def level(self, level: int, exclude: Sequence[int]) -> LevelBundle:
        """Get (or create) the bundle entry for ``level`` with the sender's
        current explicit set ``exclude``.

        A tuple ``exclude`` is trusted to be pre-sorted (the level-state
        cache hands those out); any other sequence is sorted defensively.
        """
        entry = self.levels.get(level)
        if entry is None:
            if type(exclude) is not tuple:
                exclude = tuple(sorted(exclude))
            entry = self.levels[level] = LevelBundle(level=level, exclude=exclude)
        return entry

    def add_default(self, level: int, exclude: Sequence[int], subs: Sequence[SubMessage]) -> None:
        """Append default-block sub-messages for ``level``."""
        self.level(level, exclude).default.extend(subs)

    def add_explicit(
        self, level: int, exclude: Sequence[int], index: int, subs: Sequence[SubMessage]
    ) -> None:
        """Append explicit sub-messages for checkpoint ``index`` at ``level``."""
        entry = self.level(level, exclude)
        existing = entry.explicit.get(index)
        if existing is None:
            entry.explicit[index] = list(subs)
        else:
            existing.extend(subs)

    @property
    def empty(self) -> bool:
        """Whether the bundle carries no sub-messages at all."""
        return all(entry.empty for entry in self.levels.values())


def encode_bundle_sized(bundle: Bundle) -> Tuple[Tuple, int]:
    """Encode ``bundle`` and return ``(payload, payload_size_bits)``.

    Layout (all tuples): ``((level, (exclude...), (default subs...),
    ((index, (subs...)), ...)), ...)``.  The size is accumulated from the
    interned fragment sizes and equals ``estimate_size_bits(payload)``
    exactly — so the carrying message can be constructed pre-sized.
    """
    payload: List[Tuple] = []
    bits = 8  # outer container framing
    levels = bundle.levels
    for level in sorted(levels):
        entry = levels[level]
        explicit = entry.explicit
        if not entry.default and not explicit:
            continue
        default_fragment, default_bits = _encode_subs(entry.default)
        explicit_items: List[Tuple[int, Tuple[SubMessage, ...]]] = []
        explicit_bits = 8  # explicit-list framing
        for index in sorted(explicit):
            subs_fragment, subs_bits = _encode_subs(explicit[index])
            explicit_items.append((index, subs_fragment))
            explicit_bits += 8 + int_size_bits(index) + subs_bits
        exclude = entry.exclude
        exclude_bits = _EXCLUDE_BITS.get(exclude)
        if exclude_bits is None:
            if len(_EXCLUDE_BITS) >= _SUBS_INTERN_CAP:
                _EXCLUDE_BITS.clear()
            exclude_bits = _EXCLUDE_BITS[exclude] = 8 + sum(map(int_size_bits, exclude))
        payload.append((level, exclude, default_fragment, tuple(explicit_items)))
        bits += (
            8  # level-entry framing
            + int_size_bits(level)
            + exclude_bits
            + default_bits
            + explicit_bits
        )
    return tuple(payload), bits


def encode_bundle(bundle: Bundle) -> Tuple:
    """Encode a bundle into the flat-tuple payload carried by one message."""
    return encode_bundle_sized(bundle)[0]


def _decode_subs(raw: Sequence) -> List[SubMessage]:
    subs: List[SubMessage] = []
    append = subs.append
    for item in raw:
        # Fast path: honest senders transmit exact (str, int, float) tuples,
        # which are reused zero-copy.
        if (
            type(item) is tuple
            and len(item) == 3
            and type(item[0]) is str
            and type(item[1]) is int
            and type(item[2]) is float
        ):
            append(item)
            continue
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise ProtocolError(f"malformed sub-message {item!r}")
        append((str(item[0]), int(item[1]), float(item[2])))
    return subs


def decode_bundle(payload: Sequence) -> Bundle:
    """Decode a bundle payload produced by :func:`encode_bundle`.

    Levels and explicit checkpoints iterate in sorted order, and ``plan``
    has one row per level, ``(level, divergent_set, divergent,
    explicit_pairs, default_subs, exclude_set)``: ``divergent`` is the sorted
    union of ``exclude`` and the explicit keys, ``explicit_pairs`` the
    index-sorted ``(index, sub)`` pairs.

    Raises
    ------
    ProtocolError
        If the payload is structurally malformed or a field does not convert
        to its type (Byzantine senders may craft such payloads; the caller
        discards the whole message).
    """
    if not isinstance(payload, (list, tuple)):
        raise ProtocolError("bundle payload must be a list")
    try:
        return _decode_levels(payload)
    except (TypeError, ValueError, OverflowError) as exc:
        # ``int(None)``, ``int("x")``, ``int(inf)``, iterating an int ...
        raise ProtocolError(f"malformed bundle payload: {exc}") from exc


def _decode_levels(payload: Sequence) -> Bundle:
    bundle = Bundle()
    levels = bundle.levels
    for raw_level in payload:
        if not isinstance(raw_level, (list, tuple)) or len(raw_level) != 4:
            raise ProtocolError(f"malformed level entry {raw_level!r}")
        level = int(raw_level[0])
        # Sort defensively: honest senders always transmit sorted excludes,
        # but the old codec normalised Byzantine ones too.
        exclude = tuple(sorted(int(i) for i in raw_level[1]))
        entry = bundle.level(level, exclude)
        entry.default.extend(_decode_subs(raw_level[2]))
        explicit = entry.explicit
        for raw_explicit in raw_level[3]:
            if not isinstance(raw_explicit, (list, tuple)) or len(raw_explicit) != 2:
                raise ProtocolError(f"malformed explicit entry {raw_explicit!r}")
            index = int(raw_explicit[0])
            decoded = _decode_subs(raw_explicit[1])
            existing = explicit.get(index)
            if existing is None:
                explicit[index] = decoded
            else:
                existing.extend(decoded)
    # Normalise for the per-delivery hot path: a broadcast is decoded once
    # and processed by n receivers, so sort and project here, not there.
    if len(levels) > 1 and list(levels) != sorted(levels):
        bundle.levels = {level: levels[level] for level in sorted(levels)}
    plan = []
    for entry in bundle.levels.values():
        explicit = entry.explicit
        if len(explicit) > 1 and list(explicit) != sorted(explicit):
            explicit = entry.explicit = {index: explicit[index] for index in sorted(explicit)}
        exclude_set = frozenset(entry.exclude)
        divergent_set = exclude_set.union(explicit)
        divergent = tuple(sorted(divergent_set))
        pairs = tuple((index, sub) for index, subs in explicit.items() for sub in subs)
        plan.append((entry.level, divergent_set, divergent, pairs, entry.default, exclude_set))
    bundle.plan = tuple(plan)
    return bundle


#: Decoded bundles by payload value: the level behind ``Message._bundle_memo``.
#: A ``delphi-n40-aws`` round decodes 145 distinct payloads, ``sharded-n64-aws``
#: 280, a live n=7 epoch about 50, so 512 holds a round's working set; 4096
#: entries cost +22 % peak RSS for no further hits.  Overflow starts over.
#: Honest bundles are a few KiB even at large n; the per-entry size bound
#: keeps a peer from parking 512 frame-cap-sized payloads here.
_DECODED: Dict[Tuple, Bundle] = {}
_DECODED_CAP = 512
_DECODED_MAX_BITS = 8 * 65536


def _internable(payload: object) -> bool:
    """Whether ``payload`` may be looked up and stored by value.

    True only for exactly what :func:`encode_bundle_sized` emits: exact
    ``tuple`` containers holding an exact ``int``, ``str`` or ``float`` at
    the positions the layout puts one, and no ``-0.0``.  Two such payloads
    that compare equal are then indistinguishable to :func:`decode_bundle`,
    which is what sharing one decoded bundle needs; ``1`` / ``1.0`` /
    ``True``, ``0.0`` / ``-0.0``, lists, and objects with their own
    ``__eq__`` or ``__hash__`` compare equal without being so, and are
    never hashed or compared here.  This admits, it does not validate.
    """
    if type(payload) is not tuple:
        return False
    for entry in payload:
        if type(entry) is not tuple or len(entry) != 4:
            return False
        level, exclude, default, explicit = entry
        if type(level) is not int or type(exclude) is not tuple or type(explicit) is not tuple:
            return False
        for index in exclude:
            if type(index) is not int:
                return False
        fragments = [default]
        for pair in explicit:
            if type(pair) is not tuple or len(pair) != 2 or type(pair[0]) is not int:
                return False
            fragments.append(pair[1])
        for subs in fragments:
            if type(subs) is not tuple:
                return False
            for sub in subs:
                if type(sub) is not tuple or len(sub) != 3:
                    return False
                mtype, round_number, value = sub
                if (
                    type(mtype) is not str
                    or type(round_number) is not int
                    or type(value) is not float
                    or (not value and copysign(1.0, value) < 0.0)
                ):
                    return False
    return True


def shared_decode(message: Message) -> Optional[Bundle]:
    """The decoded, read-only bundle ``message`` carries; ``None`` if malformed.

    Receivers only read the decoded structure, so one :class:`Bundle` serves
    every receiver of a physical message (``_bundle_memo``; ``False`` marks
    a malformed payload so it is rejected once, not per receiver) and every
    message with the same content (:data:`_DECODED`).  :func:`decode_bundle`
    runs for content not seen before and for every payload
    :func:`_internable` turns away.
    """
    bundle = getattr(message, "_bundle_memo", None)
    if bundle is None:
        payload = message.payload
        internable = _internable(payload)
        if internable:
            bundle = _DECODED.get(payload)
        if bundle is None:
            try:
                bundle = decode_bundle(payload)
            except ProtocolError:
                bundle = False
            else:
                if internable and message.size_bits() <= _DECODED_MAX_BITS:
                    if len(_DECODED) >= _DECODED_CAP:
                        _DECODED.clear()
                    _DECODED[payload] = bundle
        object.__setattr__(message, "_bundle_memo", bundle)
    return None if bundle is False else bundle
