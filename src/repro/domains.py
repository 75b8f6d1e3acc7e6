"""Which values a spec field may hold.  Delphi's model delivers every honest
message after a finite delay and drops none, so a NaN or infinite delay,
window or timeout describes a run it excludes: a spec passes each numeric
field through its domain in ``__post_init__`` (:func:`coerce`), so a value
outside it is refused at construction, never on a per-message path."""

import math
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError


def domain(interval: str, holds: Callable, kind: type = float) -> Callable:
    """A converter: ``kind(value)`` if ``holds`` it, else a ``ValueError``
    naming the value and ``interval``.  NaN fails every comparison."""

    def convert(value: Any) -> Any:
        if holds(x := kind(value)):
            return x
        raise ValueError(f"{x} is not in {interval}")

    return convert


NON_NEGATIVE = domain("[0, inf)", lambda x: 0 <= x < math.inf)  # times, delays
NON_NEGATIVE_OR_INF = domain("[0, inf]", lambda x: 0 <= x)  # a window end, a time cap
POSITIVE = domain("(0, inf)", lambda x: 0 < x < math.inf)  # epsilon, timeouts
POSITIVE_OR_INF = domain("(0, inf]", lambda x: 0 < x)  # a rate; inf = unthrottled
PROBABILITY = domain("[0, 1]", lambda x: 0 <= x <= 1)
FINITE = domain("(-inf, inf)", math.isfinite)
AT_LEAST_ONE = domain("[1, inf)", lambda x: x >= 1, int)  # counts, epochs


def optional(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``convert``, letting ``None`` (= unset) through."""
    return lambda value: None if value is None else convert(value)


def coerce(
    owner: Any, converters: Mapping[str, Callable], *,
    store: bool = True, error: type = ConfigurationError,
) -> None:
    """Pass each named field of ``owner`` through its converter and store the
    result (``store=False`` only checks).  A refused value raises ``error``
    naming the class, the field, the value and the interval."""
    for name, convert in converters.items():
        try:
            value = convert(getattr(owner, name))
        except (TypeError, ValueError, OverflowError) as problem:
            raise error(f"{type(owner).__name__}.{name}: {problem}") from None
        if store:
            object.__setattr__(owner, name, value)
