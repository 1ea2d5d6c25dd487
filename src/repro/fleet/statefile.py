"""Crash-safe state files: the one durable writer.

``fleet status`` trusts whatever ``fleet-state/fleet-status.json``
holds, a resumed campaign trusts its shard checkpoints, and a tenant
is provisioned from whatever the artifact registry returns; a writer
dying mid-write must never leave a truncated or interleaved file for
any of those readers to parse. :func:`write_text_atomic` is the one
writer all of them go through, atomic in the POSIX sense:

- the payload goes to a **uniquely named** temp file in the *same
  directory* (created exclusively, so two concurrent writers can never
  clobber each other's temp, unlike a fixed ``.tmp`` name; its mode
  follows the umask like any plain file write);
- the temp file is flushed and ``fsync``'d before rename, so the
  rename can never promote a page-cache-only file that a host crash
  would truncate;
- ``os.replace`` swaps it in atomically (readers see the old complete
  file or the new complete file, nothing in between);
- the directory is fsync'd afterwards so the rename itself is durable;
- a write that fails removes its temp file.

A writer killed at any point leaves at worst an orphaned
``.fleet-*.tmp`` alongside a still-valid file; :func:`write_json_atomic`
(the fleet state files) reclaims those with :func:`sweep_stale_tmp` on
the next write.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Prefix of every temp file the atomic writer creates.
TMP_PREFIX = ".fleet-"
TMP_SUFFIX = ".tmp"


def sweep_stale_tmp(directory: "Path | str") -> int:
    """Remove orphaned temp files a crashed writer left; returns count."""
    directory = Path(directory)
    removed = 0
    for stale in directory.glob(f"{TMP_PREFIX}*{TMP_SUFFIX}"):
        try:
            stale.unlink()
            removed += 1
        except OSError:  # pragma: no cover - racing writer owns it
            continue
    return removed


def write_text_atomic(path: "Path | str", text: str) -> Path:
    """Durably replace ``path`` with ``text``; returns the final path.

    Crash-safe per the module docstring.
    """
    path = Path(path)
    directory = path.parent
    directory.mkdir(parents=True, exist_ok=True)
    tmp = directory / (f"{TMP_PREFIX}{path.name}.{os.getpid()}."
                       f"{os.urandom(4).hex()}{TMP_SUFFIX}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def write_json_atomic(path: "Path | str", payload: dict) -> Path:
    """Atomically publish ``payload`` as JSON at ``path``.

    Sweeps the directory's orphaned temp files first, then writes
    through :func:`write_text_atomic`.
    """
    path = Path(path)
    sweep_stale_tmp(path.parent)
    return write_text_atomic(
        path, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def read_json(path: "Path | str") -> dict:
    """Load a state file written by :func:`write_json_atomic`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
