"""State-machine-replication (blockchain) channel model.

The oracle protocols in Section V all terminate by submitting an attested
report to an external blockchain, modelled — as in the DORA paper — as an
SMR channel: submissions from all nodes are totally ordered, every node
reads the same prefix, and the *first* valid report in the order is the one
smart contracts consume.  The channel itself is not a contribution of the
paper, so a simple deterministic total-order queue with validity checking is
sufficient: what matters to the evaluation is how many submissions and
signature verifications the channel (and therefore the chain) must perform
per report, which this model counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.errors import CertificateShortfall


@dataclass(frozen=True)
class SMREntry:
    """One ordered entry: who submitted what, and whether it was valid."""

    position: int
    submitter: int
    payload: object
    valid: bool


@dataclass
class SMRChannel:
    """A totally ordered, validity-checking submission log.

    Parameters
    ----------
    validator:
        Callable deciding whether a submission is valid (e.g. "carries an
        aggregate signature from at least t+1 oracles").  Invalid entries are
        still ordered (a real chain cannot prevent them being posted) but are
        never returned as the consumed report, and each validation is counted
        as work the chain performed.
    """

    validator: Optional[Callable[[object], bool]] = None
    entries: List[SMREntry] = field(default_factory=list)
    validations: int = 0

    def submit(self, submitter: int, payload: object) -> SMREntry:
        """Order one submission and validate it."""
        valid = True
        if self.validator is not None:
            self.validations += 1
            valid = bool(self.validator(payload))
        entry = SMREntry(
            position=len(self.entries), submitter=submitter, payload=payload, valid=valid
        )
        self.entries.append(entry)
        return entry

    def first_valid(self, since: int = 0) -> Optional[SMREntry]:
        """The first valid entry ordered at or after position ``since``.

        A reporting round takes ``since = len(entries)`` before it submits,
        so the entry it consumes is its own; the default scans the whole
        log (the first report the chain ever consumed).
        """
        for entry in self.entries[since:]:
            if entry.valid:
                return entry
        return None

    def consume(self, submissions: Iterable[Tuple[int, object]]) -> object:
        """Submit one reporting round's ``(submitter, payload)`` pairs, in
        order, and return the payload the chain consumes: the first valid
        one of *these* (earlier rounds' entries never count).

        Raises
        ------
        CertificateShortfall
            If none of the round's submissions is valid.
        """
        since = len(self.entries)
        for submitter, payload in submissions:
            self.submit(submitter, payload)
        entry = self.first_valid(since)
        if entry is None:
            raise CertificateShortfall("epoch produced no valid attested certificate")
        return entry.payload

    @property
    def distinct_valid_payloads(self) -> int:
        """Number of distinct valid payload values submitted (the paper notes
        Delphi produces at most two, DORA up to O(n))."""
        seen = set()
        for entry in self.entries:
            if entry.valid:
                seen.add(repr(entry.payload))
        return len(seen)
