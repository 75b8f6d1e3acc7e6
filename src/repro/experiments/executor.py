"""Parallel sweep execution with deterministic seeding and result caching.

:class:`SweepExecutor` fans a sweep's cells out across worker processes via
:class:`concurrent.futures.ProcessPoolExecutor`.  Because every cell is a
pure function of its :class:`~repro.experiments.spec.ScenarioSpec` (all
randomness derives from ``spec.seed``), parallel and serial execution
produce bit-identical metrics, and the spec's content hash can key an
on-disk result cache: re-running a sweep skips every already-computed cell.

Example
-------
>>> from repro.experiments import ScenarioSpec, SweepSpec, SweepExecutor
>>> sweep = SweepSpec(
...     name="demo",
...     base=ScenarioSpec(epsilon=1.0, delta_max=8.0, max_rounds=4),
...     axes={"n": [4, 5], "protocol": ["delphi", "fin"]},
... )
>>> executor = SweepExecutor(cache_dir=".repro-cache", progress=None)
>>> result = executor.run(sweep)          # doctest: +SKIP
>>> executor.run(sweep).cached_count      # doctest: +SKIP
4
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError

from repro.experiments.artifacts import CellResult, SweepResult
from repro.experiments.cells import run_cell
from repro.experiments.spec import ScenarioSpec, SweepSpec

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment variable overriding the per-submission chunk size.
CHUNK_ENV = "REPRO_SWEEP_CHUNK"

#: Cap on automatically chosen chunk sizes (keeps progress responsive and
#: stragglers bounded even for very large grids).
MAX_AUTO_CHUNK = 16

ProgressFn = Callable[[str], None]


def stderr_progress(message: str) -> None:
    """The default progress sink (the executor's and the CLI's): stderr."""
    print(message, file=sys.stderr, flush=True)


def _jsonify(value: Any) -> Any:
    """Normalise metrics through a JSON round-trip.

    Guarantees fresh and cache-loaded results are structurally identical
    (tuples become lists, numpy scalars become floats) so equality checks
    and artifact writers never see two shapes of the same result.
    """
    return json.loads(json.dumps(value, default=float))


def execute_cell(spec: ScenarioSpec) -> Tuple[str, Dict[str, Any], float]:
    """Worker entry point: run one cell, return (hash, metrics, seconds).

    Module-level so it pickles into :class:`ProcessPoolExecutor` workers
    under every start method (fork and spawn).
    """
    started = time.perf_counter()
    metrics = _jsonify(run_cell(spec))
    return spec.spec_hash(), metrics, time.perf_counter() - started


def execute_cells(
    specs: Sequence[ScenarioSpec],
) -> List[Tuple[str, Dict[str, Any], float]]:
    """Worker entry point for a chunk of cells (one IPC round-trip).

    Grids of sub-second cells used to pay one process-pool submission —
    pickling, queueing, result transfer — per cell, which dominated the
    wall clock.  Chunked submission amortises that overhead; each cell is
    still timed individually.
    """
    return [execute_cell(spec) for spec in specs]


class SweepExecutor:
    """Executes sweeps: cache lookup, parallel fan-out, progress, artifacts.

    Parameters
    ----------
    cache_dir:
        Directory for per-cell result files (``<spec_hash>.json``).  ``None``
        disables caching.
    max_workers:
        Worker process count.  Defaults to ``REPRO_SWEEP_WORKERS`` or the
        machine's CPU count.
    parallel:
        ``True`` forces the process pool, ``False`` forces in-process serial
        execution, ``None`` (default) picks parallel only when it can help
        (more than one pending cell and more than one worker available).
    chunk_size:
        Cells per worker submission.  ``None`` (default) picks automatically
        from the pending-cell count (one submission per cell for small
        grids, bounded chunks for large ones) so ProcessPoolExecutor IPC no
        longer dominates grids of sub-second cells.  ``1`` restores
        per-cell submission.  ``REPRO_SWEEP_CHUNK`` overrides the default.
    progress:
        Callable receiving one human-readable line per completed cell
        (default: stderr).  Pass ``None`` to silence.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        parallel: Optional[bool] = None,
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressFn] = stderr_progress,
    ) -> None:
        self.cache_dir = cache_dir
        env_workers = os.environ.get(WORKERS_ENV)
        if max_workers is None and env_workers:
            try:
                max_workers = max(1, int(env_workers))
            except ValueError:
                raise ConfigurationError(
                    f"{WORKERS_ENV} must be an integer, got {env_workers!r}"
                )
        self.max_workers = max_workers or os.cpu_count() or 1
        self.parallel = parallel
        env_chunk = os.environ.get(CHUNK_ENV)
        if chunk_size is None and env_chunk:
            try:
                chunk_size = int(env_chunk)
            except ValueError:
                raise ConfigurationError(
                    f"{CHUNK_ENV} must be an integer, got {env_chunk!r}"
                )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be a positive integer, got {chunk_size}"
            )
        self.chunk_size = chunk_size
        self.progress = progress or (lambda message: None)

    def _effective_chunk(self, pending: int, workers: int) -> int:
        """Cells per submission for this run (auto unless configured).

        Auto mode targets ~4 submissions per worker — enough slack for load
        balancing across uneven cells — capped at :data:`MAX_AUTO_CHUNK`.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        if workers <= 0:
            return 1
        auto = pending // (workers * 4)
        return max(1, min(MAX_AUTO_CHUNK, auto))

    # ------------------------------------------------------------------
    def _cache_path(self, spec_hash: str) -> Optional[str]:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, f"{spec_hash}.json")

    def _load_cached(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        path = self._cache_path(spec_hash)
        if not path or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None  # unreadable/corrupt cache entries are recomputed
        return payload.get("metrics")

    def _store(self, result: CellResult) -> None:
        path = self._cache_path(result.spec_hash)
        if not path:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        temporary = f"{path}.tmp.{os.getpid()}"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
        os.replace(temporary, path)  # atomic: concurrent sweeps never see partial files

    # ------------------------------------------------------------------
    def run(
        self,
        sweep: Union[SweepSpec, Sequence[ScenarioSpec]],
        force: bool = False,
    ) -> SweepResult:
        """Execute every cell of ``sweep``, serving cached cells from disk.

        Results come back in grid order regardless of which worker finished
        first.  ``force=True`` recomputes (and overwrites) cached cells.
        """
        if isinstance(sweep, SweepSpec):
            name, specs = sweep.name, sweep.cells()
        else:
            specs = list(sweep)
            name = specs[0].label if len(specs) == 1 else "adhoc"
        total = len(specs)
        hashes = [spec.spec_hash() for spec in specs]
        slots: List[Optional[CellResult]] = [None] * total

        pending: List[int] = []
        for index, (spec, spec_hash) in enumerate(zip(specs, hashes)):
            cached = None if force else self._load_cached(spec_hash)
            if cached is not None:
                slots[index] = CellResult(
                    spec=spec, spec_hash=spec_hash, metrics=cached, cached=True
                )
            else:
                pending.append(index)

        completed = total - len(pending)
        for index in range(total):
            if slots[index] is not None:
                self.progress(self._line(index, total, slots[index]))

        workers = min(self.max_workers, len(pending)) if pending else 0
        use_pool = (
            self.parallel if self.parallel is not None else (len(pending) > 1 and workers > 1)
        )

        if pending and use_pool:
            chunk = self._effective_chunk(len(pending), workers)
            chunks = [pending[i : i + chunk] for i in range(0, len(pending), chunk)]
            with concurrent.futures.ProcessPoolExecutor(max_workers=max(1, workers)) as pool:
                futures = {
                    pool.submit(execute_cells, [specs[index] for index in indices]): indices
                    for indices in chunks
                }
                for future in concurrent.futures.as_completed(futures):
                    indices = futures[future]
                    for index, (spec_hash, metrics, elapsed) in zip(
                        indices, future.result()
                    ):
                        slots[index] = CellResult(
                            spec=specs[index],
                            spec_hash=spec_hash,
                            metrics=metrics,
                            elapsed_seconds=elapsed,
                        )
                        self._store(slots[index])
                        completed += 1
                        self.progress(self._line(index, total, slots[index], completed))
        else:
            for index in pending:
                spec_hash, metrics, elapsed = execute_cell(specs[index])
                slots[index] = CellResult(
                    spec=specs[index],
                    spec_hash=spec_hash,
                    metrics=metrics,
                    elapsed_seconds=elapsed,
                )
                self._store(slots[index])
                completed += 1
                self.progress(self._line(index, total, slots[index], completed))

        return SweepResult(name=name, results=[slot for slot in slots if slot is not None])

    def run_one(self, spec: ScenarioSpec, force: bool = False) -> CellResult:
        """Execute a single scenario (with the same caching semantics)."""
        return self.run([spec], force=force).results[0]

    # ------------------------------------------------------------------
    @staticmethod
    def _line(
        index: int, total: int, result: CellResult, completed: Optional[int] = None
    ) -> str:
        spec = result.spec
        status = "cached" if result.cached else f"{result.elapsed_seconds:.2f}s"
        position = completed if completed is not None else index + 1
        return (
            f"[{position:>3}/{total}] {spec.label} n={spec.n} {spec.testbed} "
            f"seed={spec.seed} ({result.spec_hash}) {status}"
        )
