"""Pytest configuration for the test suite.

Shared helpers live in :mod:`helpers` (``tests/helpers.py``) — tests import
them with ``from helpers import ...``.  The path insertion below makes that
module importable regardless of where pytest is invoked from; fixtures that
tests request by name stay here.

Hypothesis profiles
-------------------
Two shared profiles are registered and selected via the
``HYPOTHESIS_PROFILE`` environment variable (default ``ci``):

* ``ci`` — no deadline (simulated runs legitimately vary in wall-clock time
  on shared CI workers, which used to cause flaky ``DeadlineExceeded``
  failures in the perf-smoke job) and *derandomized*: the example sequence
  is derived from each test, so every CI run sees the same examples.
* ``dev`` — more examples, randomised, for local property-bug hunting:
  ``HYPOTHESIS_PROFILE=dev pytest tests/test_properties.py``.

Per-test ``@settings(...)`` decorators still win for the attributes they
set; the profile fills in the rest.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True)
settings.register_profile("dev", deadline=None, max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

from helpers import small_delphi_params  # noqa: E402

from repro.analysis.parameters import DelphiParameters  # noqa: E402


@pytest.fixture
def make_delphi_params():
    """Factory fixture: the single place tests get Delphi parameters from.

    Returns :func:`helpers.small_delphi_params`, so parameter tweaks happen
    in exactly one module while tests stay free of direct helper imports.
    """
    return small_delphi_params


@pytest.fixture
def delphi_params(make_delphi_params) -> DelphiParameters:
    """Default small Delphi configuration used across tests."""
    return make_delphi_params()


@pytest.fixture
def bundle_codec_calls(monkeypatch):
    """Every payload the Delphi core encodes for sending and every payload
    the codec decodes on receipt, starting from an empty content table."""
    from repro.core import bundling, delphi

    encoded, decoded = [], []
    encode, decode = delphi.encode_bundle_sized, bundling.decode_bundle

    def counting_encode(bundle):
        payload, bits = encode(bundle)
        if payload:
            encoded.append(payload)
        return payload, bits

    def counting_decode(payload):
        decoded.append(payload)
        return decode(payload)

    monkeypatch.setattr(delphi, "encode_bundle_sized", counting_encode)
    monkeypatch.setattr(bundling, "decode_bundle", counting_decode)
    monkeypatch.setattr(bundling, "_DECODED", {})
    return encoded, decoded
