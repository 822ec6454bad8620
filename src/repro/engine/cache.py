"""On-disk result cache keyed by ``(circuit_hash, stage, params)``.

One JSON file per entry, fanned into 256 two-hex-digit subdirectories.
Two properties the engine relies on:

* **atomic writes** -- entries are written to a temp file in the target
  directory, **fsync'd**, and published with :func:`os.replace`, so a
  concurrent reader (another worker process on the same cache, or the
  serve daemon's pool) sees either the old bytes, the new bytes, or no
  file -- never a torn write, even across a crash mid-publish;
* **corruption-tolerant reads** -- a truncated, garbled, or wrong-shape
  entry is a *miss*, never an exception.  A malformed file is evicted
  on detection so a subsequent ``put`` starts clean.

The stored entry echoes its full key, so a hash collision (or a file
renamed into the wrong slot) is detected and treated as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

SCHEMA = "repro.engine.cache/2"


def cache_key(circuit_hash: str, stage: str, params: Dict[str, Any]) -> str:
    """Deterministic hex key for one stage result."""
    blob = json.dumps(
        {"circuit": circuit_hash, "stage": stage, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed stage-result store.

    ``root=None`` disables the cache: every ``get`` returns ``None`` and
    ``put`` is a no-op, so callers never branch on "is caching on".
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root else None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / key[:2] / f"{key}.json"

    def get(
        self, circuit_hash: str, stage: str, params: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The stored value dict, or ``None`` on miss/corruption."""
        if self.root is None:
            return None
        key = cache_key(circuit_hash, stage, params)
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            self.misses += 1
            return None
        except ValueError:  # truncated / non-JSON / bad encoding
            self._evict(path)
            self.misses += 1
            return None
        try:
            if entry["schema"] != SCHEMA:
                raise ValueError("schema mismatch")
            stored = entry["key"]
            if (
                stored["circuit"] != circuit_hash
                or stored["stage"] != stage
                or stored["params"] != params
            ):
                raise ValueError("key mismatch")
            value = entry["value"]
        except (ValueError, KeyError, TypeError):
            # the file exists but is garbage (torn write survivor,
            # foreign schema, misplaced slot): evict it so the slot
            # heals instead of mis-parsing on every lookup
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            return
        self.evictions += 1

    def put(
        self,
        circuit_hash: str,
        stage: str,
        params: Dict[str, Any],
        value: Dict[str, Any],
    ) -> None:
        """Store a value atomically (best effort; I/O errors are swallowed
        -- the cache is an accelerator, not a ledger)."""
        if self.root is None:
            return
        key = cache_key(circuit_hash, stage, params)
        path = self._path(key)
        entry = {
            "schema": SCHEMA,
            "key": {"circuit": circuit_hash, "stage": stage, "params": params},
            "value": value,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{key[:8]}.", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle, separators=(",", ":"))
                    # flush + fsync BEFORE the rename: os.replace makes
                    # the *name* atomic, but without the fsync a crash
                    # can publish a name whose bytes never hit disk,
                    # and a later reader would see a truncated entry.
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass

    def entry_count(self) -> int:
        """Number of entries on disk (diagnostics only)."""
        if self.root is None:
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters (this handle) plus on-disk size.

        ``hits``/``misses``/``evictions`` are per-handle -- every worker
        process counts its own traffic; ``entries``/``bytes`` walk the
        shared directory, so they reflect all writers.
        """
        entries = 0
        size = 0
        if self.root is not None:
            for path in self.root.glob("*/*.json"):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": entries,
            "bytes": size,
        }

    def trim(self, max_bytes: int) -> int:
        """Evict oldest entries (by mtime) until the store fits in
        ``max_bytes``.  Returns the number of entries evicted."""
        if self.root is None or max_bytes < 0:
            return 0
        aged = []
        total = 0
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            aged.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        aged.sort(key=lambda item: (item[0], str(item[2])))
        evicted = 0
        for _, size, path in aged:
            if total <= max_bytes:
                break
            before = self.evictions
            self._evict(path)
            if self.evictions > before:
                total -= size
                evicted += 1
        return evicted

    def clear(self) -> None:
        """Delete every entry (leaves the directory tree in place)."""
        if self.root is None:
            return
        for path in self.root.glob("*/*.json"):
            self._evict(path)
