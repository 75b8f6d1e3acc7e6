"""Byzantine adversary strategies used for fault-injection testing."""

from repro.adversary.base import AdversaryStrategy, HonestWithInput
from repro.adversary.strategies import (
    BogusPayloadStrategy,
    CrashStrategy,
    DelayedHonestStrategy,
    EquivocatingStrategy,
    RandomBitStrategy,
    ScheduledStrategy,
    SpamStrategy,
)

__all__ = [
    "AdversaryStrategy",
    "BogusPayloadStrategy",
    "CrashStrategy",
    "DelayedHonestStrategy",
    "EquivocatingStrategy",
    "HonestWithInput",
    "RandomBitStrategy",
    "ScheduledStrategy",
    "SpamStrategy",
]
