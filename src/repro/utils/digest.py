"""Stable short digests of plain-type configuration mappings."""

from __future__ import annotations

import hashlib
import json


def config_digest(fields: dict) -> str:
    """Short stable digest of a plain-type configuration mapping."""
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
