"""The content-addressed shard cache (checkpoint store).

One JSON file per shard result, named by the shard's content address
(:func:`repro.fleet.spec.shard_key`).  Because the key covers the full
generation spec *and* the code version, a cache directory can be shared
across runs, seeds, and population sizes without collision — a stale
or foreign entry simply never matches.

Writes are atomic (temp file + ``os.replace``), so a shard is either
fully checkpointed or absent; a killed run never leaves a torn entry.
Corrupt files (truncated by hand, bad JSON, or a payload the caller's
``valid`` predicate rejects) are treated as misses and quietly replaced
on the next store.  A run killed *mid-write* (SIGKILL,
OOM, watchdog reap) can strand ``.tmp-*`` spool files; opening the
cache sweeps any older than :data:`STALE_TMP_SECONDS` so an
interrupt/resume cycle cannot slowly fill the cache dir with litter.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional

#: Age (seconds) after which an orphaned ``.tmp-*`` spool file in the
#: cache directory is deleted on open.  Generous: a live writer holds a
#: tmp file for well under a second.
STALE_TMP_SECONDS = 3600.0


class ShardCache:
    """Content-addressed JSON store for shard results."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self.swept = self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        """Delete orphaned atomic-write spool files; returns the count."""
        swept = 0
        cutoff = time.time() - STALE_TMP_SECONDS
        try:
            entries = list(self.root.iterdir())
        except OSError:
            return 0
        for entry in entries:
            if not entry.name.startswith(".tmp-"):
                continue
            try:
                if entry.stat().st_mtime < cutoff:
                    entry.unlink()
                    swept += 1
            except OSError:
                continue  # already gone, or another run's live write
        return swept

    def path_for(self, key: str) -> Path:
        return self.root / f"shard-{key}.json"

    def load(self, key: str,
             valid: Optional[Callable[[dict], bool]] = None) -> Optional[dict]:
        """The cached result for ``key``, or ``None`` (counted as miss).

        An entry that is not a JSON object, or that ``valid`` rejects, is
        counted as corrupt and as a miss.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.corrupt += 1
            self.misses += 1
            return None
        if not isinstance(payload, dict) or (valid is not None and not valid(payload)):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, key: str, payload: dict) -> Path:
        """Atomically write ``payload`` under ``key``; returns the path."""
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), prefix=".tmp-shard-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # ``dumps``, not ``dump``: only ``dumps`` without ``indent``
                # runs the C encoder.
                handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        return path

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }
