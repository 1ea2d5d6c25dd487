"""Persistent, content-addressed corpus of coverage-expanding gadgets.

Each corpus entry is one minimized gadget plus the coverage signature
that earned its admission.  Entries are content-addressed by a
:func:`~repro.utils.digest.config_digest` over the gadget's
instruction-variant names (unique per
:class:`~repro.isa.spec.InstructionSpec`), written atomically via
``fleet/statefile.write_json_atomic`` so a crashed campaign never
leaves a torn entry, and re-loaded on resume.  Damaged or unparseable
entries are treated as misses — counted, skipped, never fatal — the
same policy as damaged shard checkpoints.  The ``search.corpus.write``
fault point covers the write path for chaos runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.fuzzer.grammar import Gadget
from repro.fleet.statefile import read_json, write_json_atomic
from repro.resilience import runtime as resilience
from repro.resilience.faults import InjectedFault, corrupt_text, stable_key
from repro.telemetry import runtime as telemetry
from repro.utils.digest import config_digest

CORPUS_ENTRY_VERSION = 1


def gadget_digest(reset, trigger) -> str:
    """Content address of a gadget: digest over its variant names."""
    return config_digest({"reset": list(reset), "trigger": list(trigger)})


def build_name_index(legal) -> dict:
    """Variant-name -> spec map for materializing corpus entries."""
    return {spec.name: spec for spec in legal}


@dataclass(frozen=True)
class CorpusEntry:
    """One admitted seed: gadget (by variant names) + coverage record."""

    digest: str
    reset: tuple[str, ...]
    trigger: tuple[str, ...]
    features: tuple[int, ...]
    responses: tuple[tuple[int, float], ...]
    near: tuple[int, ...]
    parent: str = ""
    round_index: int = 0
    eval_index: int = 0

    def to_payload(self) -> dict:
        return {
            "version": CORPUS_ENTRY_VERSION,
            "digest": self.digest,
            "reset": list(self.reset),
            "trigger": list(self.trigger),
            "features": list(self.features),
            "responses": [[event, delta] for event, delta in self.responses],
            "near": list(self.near),
            "parent": self.parent,
            "round_index": self.round_index,
            "eval_index": self.eval_index,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CorpusEntry":
        return cls(
            digest=str(payload["digest"]),
            reset=tuple(str(n) for n in payload["reset"]),
            trigger=tuple(str(n) for n in payload["trigger"]),
            features=tuple(int(f) for f in payload["features"]),
            responses=tuple((int(e), float(d))
                            for e, d in payload["responses"]),
            near=tuple(int(e) for e in payload["near"]),
            parent=str(payload.get("parent", "")),
            round_index=int(payload.get("round_index", 0)),
            eval_index=int(payload.get("eval_index", 0)),
        )

    def materialize(self, by_name: dict) -> Gadget:
        """Rebuild the gadget from a :func:`build_name_index` map."""
        return Gadget(reset=tuple(by_name[n] for n in self.reset),
                      trigger=tuple(by_name[n] for n in self.trigger))


class Corpus:
    """In-memory corpus, optionally mirrored to a directory on disk.

    With ``directory=None`` the corpus is purely in-memory (tests,
    throwaway searches).  With a directory, every admission writes
    ``<digest>.json`` atomically and :meth:`load` restores surviving
    entries; a damaged entry is a miss (counted in ``misses`` and the
    ``search.corpus.miss`` telemetry counter), never an error.
    """

    def __init__(self, directory: "str | Path | None" = None) -> None:
        self.directory = Path(directory) if directory else None
        self.entries: dict[str, CorpusEntry] = {}
        self.misses = 0
        self.write_failures = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self.entries

    def get(self, digest: str) -> "CorpusEntry | None":
        return self.entries.get(digest)

    # -- persistence ---------------------------------------------------

    def _entry_path(self, digest: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{digest}.json"

    def _persist(self, entry: CorpusEntry) -> None:
        """Write one entry, honoring the ``search.corpus.write`` fault.

        ``corrupt`` mode damages the payload before an otherwise-normal
        atomic write (the on-disk entry is torn; the loader will treat
        it as a miss).  ``raise``/demoted-``kill`` faults are absorbed:
        the in-memory entry survives and the campaign continues.
        """
        path = self._entry_path(entry.digest)
        payload = entry.to_payload()
        try:
            key = stable_key(entry.digest)
            spec = resilience.check("search.corpus.write", key=key)
            if spec is not None and spec.mode == "corrupt":
                text = corrupt_text(json.dumps(payload, sort_keys=True),
                                    key=key)
                tmp = path.with_suffix(".json.tmp")
                tmp.write_text(text, encoding="utf-8")
                tmp.replace(path)
            else:
                write_json_atomic(path, payload)
        except InjectedFault:
            self.write_failures += 1
            registry = telemetry.metrics()
            if registry.enabled:
                registry.counter("search.corpus.write_failed").inc()

    def add(self, entry: CorpusEntry) -> bool:
        """Admit one entry; returns False if the digest already exists."""
        if entry.digest in self.entries:
            return False
        self.entries[entry.digest] = entry
        if self.directory is not None:
            self._persist(entry)
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("search.corpus.admitted").inc()
        return True

    def load(self) -> int:
        """Restore entries from disk; returns how many were loaded.

        Every malformed file — invalid JSON, missing fields, or a
        digest that does not match the entry's own content — counts as
        a miss and is skipped.
        """
        if self.directory is None:
            return 0
        loaded = 0
        for path in sorted(self.directory.glob("*.json")):
            entry = self._load_entry(path)
            if entry is None:
                self.misses += 1
                registry = telemetry.metrics()
                if registry.enabled:
                    registry.counter("search.corpus.miss").inc()
                continue
            if entry.digest not in self.entries:
                self.entries[entry.digest] = entry
                loaded += 1
        return loaded

    def _load_entry(self, path: Path) -> "CorpusEntry | None":
        try:
            payload = read_json(path)
            entry = CorpusEntry.from_payload(payload)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if path.stem != entry.digest:
            return None
        if gadget_digest(entry.reset, entry.trigger) != entry.digest:
            return None
        return entry

    # -- identity ------------------------------------------------------

    def replay_digest(self) -> str:
        """SHA-256 over the canonical serialization of all entries.

        Two corpora built by runs with different worker counts (or one
        resumed run) match iff they admitted exactly the same entries —
        the bit-identity gate CI compares across 1 and 4 workers.
        """
        h = hashlib.sha256()
        for digest in sorted(self.entries):
            payload = self.entries[digest].to_payload()
            h.update(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")).encode())
        return h.hexdigest()

    def to_payload(self) -> dict:
        return {"entries": [self.entries[d].to_payload()
                            for d in sorted(self.entries)]}

    @classmethod
    def from_payload(cls, payload: dict,
                     directory: "str | Path | None" = None) -> "Corpus":
        corpus = cls(directory=None)
        for raw in payload.get("entries", ()):
            entry = CorpusEntry.from_payload(raw)
            corpus.entries[entry.digest] = entry
        corpus.directory = Path(directory) if directory else None
        if corpus.directory is not None:
            corpus.directory.mkdir(parents=True, exist_ok=True)
        return corpus
