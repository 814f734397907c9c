"""On-disk cache of simulated experiment points.

The simulator is deterministic: a :class:`~repro.harness.parallel.PointSpec`
fully determines its :class:`~repro.harness.runner.ExperimentResult`. The
cache therefore keys results by a content fingerprint of the spec —
the SHA-256 of its canonical form plus the package version — and figure
regeneration after the first run costs only unpickling.

Invalidation is structural: anything that changes the canonical form (a
workload parameter, a config override, the seed) or the package version
changes the fingerprint, so stale entries are never *read*; they are merely
left on disk until the directory is cleared.

The cache directory resolves, in order: explicit ``directory`` argument,
``REPRO_CACHE_DIR``, ``$XDG_CACHE_HOME/repro-commtm``, and finally
``~/.cache/repro-commtm``. Each entry is the SHA-256 digest of its pickled
payload followed by the payload, and ``get`` checks the digest before it
unpickles: a corrupt, truncated or unreadable entry is a miss, so the point
is recomputed and stored again rather than crashing the harness or
returning a wrong number. Writes are atomic (temp file + ``os.replace``),
so a sweep interrupted mid-write never poisons later runs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from .. import __version__
from ..obs.hostprof import HARNESS_PROF
from .parallel import PointSpec

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Length of the SHA-256 digest that heads every entry.
_DIGEST_BYTES = 32


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-commtm"


def fingerprint(spec: PointSpec) -> str:
    """Content hash identifying a point across processes and sessions."""
    payload = f"{__version__}\n{spec.canonical()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-per-point cache under a single directory.

    ``hits``/``misses`` count ``get`` outcomes, ``stores`` counts ``put``
    writes — handy for tests and for the CLI's cache summary.
    """

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, spec: PointSpec) -> Path:
        return self.directory / f"{fingerprint(spec)}.pkl"

    def get(self, spec: PointSpec):
        """Cached result for ``spec``, or None. Never raises on a bad
        entry — a digest mismatch or an unpickling error is a miss."""
        t0 = HARNESS_PROF.start()
        try:
            with open(self._path(spec), "rb") as fh:
                digest = fh.read(_DIGEST_BYTES)
                payload = fh.read()
            if hashlib.sha256(payload).digest() != digest:
                raise ValueError("cache entry digest mismatch")
            result = pickle.loads(payload)
        except Exception:
            # Unreadable, corrupt, or intact but pickled by code that no
            # longer loads it: recompute the point.
            self.misses += 1
            return None
        finally:
            HARNESS_PROF.stop("cache_get", t0)
        self.hits += 1
        return result

    def put(self, spec: PointSpec, result) -> None:
        """Store ``result`` atomically; a failed write is non-fatal (the
        point simply stays uncached)."""
        t0 = HARNESS_PROF.start()
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(spec)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory,
                                       prefix=path.stem, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(hashlib.sha256(payload).digest())
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return
        finally:
            HARNESS_PROF.stop("cache_put", t0)
        self.stores += 1

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.pkl"))


__all__ = ["CACHE_DIR_ENV", "ResultCache", "default_cache_dir",
           "fingerprint"]
