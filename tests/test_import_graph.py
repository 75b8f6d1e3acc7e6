"""What ``import repro`` drags in: scipy stays off every path but the fits.

Each check runs in a fresh interpreter — the test session itself has long
since imported scipy (``tests/test_distributions.py``), which would mask a
module-level import creeping back.  CI runs ``IMPORT_GUARD`` a second time
under ``python -X importtime`` and publishes the most expensive imports.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: The CLI, a cluster node, the gateway and the fault campaign: everything a
#: live process or a benchmark worker imports before its first event.
IMPORT_GUARD = (
    "import sys, repro, repro.experiments.cli, repro.oracle.cluster, "
    "repro.oracle.gateway, repro.faults.campaign; "
    "assert 'scipy' not in sys.modules, 'scipy is back on the import path'"
)

#: Makes ``import scipy`` fail the way it does on the numpy-only image.
BLOCK_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, _NoScipy())
"""

WITHOUT_SCIPY = BLOCK_SCIPY + """
import pytest
from repro.analysis import analyse_ranges, derive_parameters
from repro.distributions import best_fit, fit_distributions
from repro.errors import AnalysisError
from repro.runner import run_delphi

samples = [1.0 + 0.1 * k for k in range(40)]

# Everything but the fit works: range statistics, and a Delphi cell.
stats = analyse_ranges(samples, thresholds=(2.0,), fit=False)
assert stats.fit is None and stats.count == 40
params = derive_parameters(n=4, epsilon=1.0, delta_max=8.0, max_rounds=3)
result = run_delphi(params, [10.0, 10.5, 11.0, 11.5])
assert result.all_decided and result.output_spread <= 1.0

# The fit itself raises the typed error, naming the missing package ...
for fit in (fit_distributions, best_fit):
    with pytest.raises(AnalysisError, match="scipy"):
        fit(samples)
# ... which analyse_ranges treats like any failed fit (max-based fallback).
assert analyse_ranges(samples).fit is None

# Argument errors come first: they never reach the import.
with pytest.raises(AnalysisError, match="at least 10 samples"):
    fit_distributions(samples[:5])
with pytest.raises(AnalysisError, match="unknown candidate distribution 'nope'"):
    fit_distributions(samples, ["gamma", "nope"])
assert "scipy" not in sys.modules
"""


#: One of each on the live wire: text a second receive or send path, a
#: queue fallback or a per-target ``Envelope`` would have to bring back.
ABSENT = {
    "net/socket_transport.py": (
        "StreamReader", "start_server", "start_unix_server", "asyncio.Queue",
        "_reader_tasks", "_CLOSED",
    ),
    "sim/asyncio_runtime.py": ("Envelope", "asyncio.Queue"),
}  # fmt: skip


def _fresh_interpreter(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_live_and_cli_imports_leave_scipy_out():
    _fresh_interpreter(IMPORT_GUARD)


def test_numpy_random_waits_for_the_first_draw():
    """A random stream builds its generator on its first draw, so importing
    the live and CLI modules and building a network that has not drawn yet
    leaves ``numpy.random`` (about 3 MB resident) unimported."""
    _fresh_interpreter(
        IMPORT_GUARD + "; from repro.net.network import AsynchronousNetwork, "
        "DeliveryPolicy; from repro.net.latency import UniformLatency; "
        "AsynchronousNetwork(4, UniformLatency(seed=1), policy=DeliveryPolicy(seed=1)); "
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported before a draw'"
    )


def test_everything_but_the_fit_works_without_scipy():
    _fresh_interpreter(WITHOUT_SCIPY)


def test_the_live_wire_has_one_receive_path_one_send_path_and_one_inbox():
    package = Path(SRC) / "repro"
    for name, words in ABSENT.items():
        text = (package / name).read_text()
        assert [word for word in words if word in text] == [], name
    wire = (package / "net/socket_transport.py").read_text()
    # The only task a transport starts is a channel's dial task.
    assert wire.count("create_task(") == 1 and "create_task(self._run())" in wire
    sources = {path: path.read_text() for path in package.rglob("*.py")}
    assert [str(p.relative_to(package)) for p, t in sources.items() if "class Inbox" in t] == [
        "net/inbox.py"
    ]
    engines = ("sim/fastpath.py", "sim/runtime.py", "sim/asyncio_runtime.py")
    for name in engines:
        assert "event_observers(" in (package / name).read_text(), name
    definitions = [p for p, t in sources.items() if "def event_observers(" in t]
    assert definitions == [package / "sim/observers.py"]
