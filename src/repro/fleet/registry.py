"""The fleet artifact registry: versioned deployment artifacts.

A fleet serves many tenants from the offline stage's output, so the
hand-off object — the :class:`~repro.core.artifacts.DeploymentArtifact`
— graduates from "a JSON file somewhere" to a registry keyed by
``(processor model, workload)``. Publishing assigns the next version
number and writes atomically; loading verifies a content digest and
the compatibility of the artifact with the requesting host before a
single tenant is wired to it. Both checks fail *closed*: a torn write
or a cross-processor artifact raises instead of silently deploying a
mis-calibrated obfuscator fleet-wide.

Layout under the registry root::

    <root>/<processor_model>/<workload>/v0001.json

Each version file wraps the artifact document with its SHA-256 so
corruption is detectable without trusting the payload itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.artifacts import DeploymentArtifact
from repro.core.obfuscator.injector import default_noise_components
from repro.cpu.events import processor_catalog
from repro.fleet.statefile import write_text_atomic

_VERSION_RE = re.compile(r"^v(\d{4})\.json$")
_KEY_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class RegistryIntegrityError(RuntimeError):
    """A stored artifact failed its digest check (fail closed)."""


class ArtifactCompatibilityError(RuntimeError):
    """A loaded artifact does not fit the requesting deployment."""


def _check_key(value: str, what: str) -> str:
    if not _KEY_RE.match(value):
        raise ValueError(
            f"{what} {value!r} is not a valid registry key "
            f"(letters, digits, '.', '_', '-' only)")
    return value


@dataclass(frozen=True)
class RegistryEntry:
    """One published artifact version."""

    processor_model: str
    workload: str
    version: int
    path: Path
    digest: str


class ArtifactRegistry:
    """Directory-backed registry of deployment artifacts.

    Parameters
    ----------
    root:
        Registry directory; created on first publish.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)

    # -- layout --------------------------------------------------------

    def _series_dir(self, processor_model: str, workload: str) -> Path:
        return (self.root / _check_key(processor_model, "processor_model")
                / _check_key(workload, "workload"))

    def versions(self, processor_model: str, workload: str) -> list[int]:
        """Published version numbers for one series, ascending."""
        series = self._series_dir(processor_model, workload)
        if not series.is_dir():
            return []
        found = []
        for name in os.listdir(series):
            match = _VERSION_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def series(self) -> list[tuple[str, str]]:
        """All ``(processor_model, workload)`` series with versions."""
        out = []
        if not self.root.is_dir():
            return out
        for processor in sorted(os.listdir(self.root)):
            processor_dir = self.root / processor
            if not processor_dir.is_dir():
                continue
            for workload in sorted(os.listdir(processor_dir)):
                if self.versions(processor, workload):
                    out.append((processor, workload))
        return out

    # -- publish -------------------------------------------------------

    def publish(self, artifact: DeploymentArtifact,
                workload: str) -> RegistryEntry:
        """Store ``artifact`` as the next version of its series.

        The write goes through the durable writer
        (:func:`~repro.fleet.statefile.write_text_atomic`), so a crashed
        or failed publish never leaves a half-written version or a temp
        file for loaders to trip on.
        """
        series = self._series_dir(artifact.processor_model, workload)
        series.mkdir(parents=True, exist_ok=True)
        existing = self.versions(artifact.processor_model, workload)
        version = (existing[-1] + 1) if existing else 1
        document = artifact.to_json()
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        payload = json.dumps({"sha256": digest, "artifact": document},
                             indent=2)
        path = write_text_atomic(series / f"v{version:04d}.json", payload)
        return RegistryEntry(processor_model=artifact.processor_model,
                             workload=workload, version=version,
                             path=path, digest=digest)

    # -- load ----------------------------------------------------------

    def latest(self, processor_model: str,
               workload: str) -> "RegistryEntry | None":
        """The newest published entry of a series, or ``None``."""
        versions = self.versions(processor_model, workload)
        if not versions:
            return None
        return self.entry(processor_model, workload, versions[-1])

    def entry(self, processor_model: str, workload: str,
              version: int) -> RegistryEntry:
        """The entry for one explicit version (digest read, not checked)."""
        path = self._series_dir(processor_model,
                                workload) / f"v{version:04d}.json"
        if not path.is_file():
            raise FileNotFoundError(
                f"no artifact v{version:04d} for "
                f"({processor_model}, {workload}) under {self.root}")
        wrapper = json.loads(path.read_text(encoding="utf-8"))
        return RegistryEntry(processor_model=processor_model,
                             workload=workload, version=version,
                             path=path, digest=wrapper.get("sha256", ""))

    def load(self, processor_model: str, workload: str,
             version: "int | None" = None) -> DeploymentArtifact:
        """Load (and verify) an artifact; the latest version by default.

        Raises :class:`RegistryIntegrityError` when the stored document
        no longer matches its digest, and
        :class:`ArtifactCompatibilityError` when the artifact was built
        for a different processor than the series it sits in — both
        before any tenant could be provisioned from it.
        """
        if version is None:
            versions = self.versions(processor_model, workload)
            if not versions:
                raise FileNotFoundError(
                    f"no artifacts published for "
                    f"({processor_model}, {workload}) under {self.root}")
            version = versions[-1]
        entry = self.entry(processor_model, workload, version)
        wrapper = json.loads(entry.path.read_text(encoding="utf-8"))
        document = wrapper.get("artifact", "")
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        if digest != wrapper.get("sha256"):
            raise RegistryIntegrityError(
                f"artifact {entry.path} failed its digest check; "
                f"refusing to deploy a possibly-corrupt calibration")
        artifact = DeploymentArtifact.from_json(document)
        check_compatible(artifact, processor_model)
        return artifact


def check_compatible(artifact: DeploymentArtifact,
                     processor_model: str) -> None:
    """Verify ``artifact`` can calibrate obfuscators on this host.

    The event catalog differs per processor, so an artifact profiled on
    another model would rank the wrong events and mis-convert noise
    counts to gadget repetitions — a silent privacy failure. The
    reference event must also exist in the host catalog.
    """
    if artifact.processor_model != processor_model:
        raise ArtifactCompatibilityError(
            f"artifact was profiled on {artifact.processor_model!r} but "
            f"this fleet runs {processor_model!r}")
    catalog = processor_catalog(processor_model)
    try:
        catalog.index_of(artifact.reference_event)
    except (KeyError, ValueError) as exc:
        raise ArtifactCompatibilityError(
            f"reference event {artifact.reference_event!r} is not in "
            f"the {processor_model!r} catalog") from exc


def default_artifact(processor_model: str = "amd-epyc-7252",
                     epsilon: float = 1.0, sensitivity: float = 200.0,
                     clip_bound: float = 2000.0) -> DeploymentArtifact:
    """A synthetic artifact for demos and the ``fleet`` CLI.

    Stands in for a real offline stage: the default six-component
    noise profile, the paper's four monitored events, and an untouched
    budget. Real deployments publish campaign output instead.
    """
    from repro.attacks.collector import DEFAULT_ATTACK_EVENTS
    events = list(DEFAULT_ATTACK_EVENTS)
    return DeploymentArtifact(
        processor_model=processor_model,
        vulnerable_events=events,
        mutual_information_bits=[0.0] * len(events),
        covering_gadgets=[f"default-{i}" for i in range(6)],
        segment_signals=default_noise_components(),
        reference_event="RETIRED_UOPS",
        sensitivity=float(sensitivity),
        mechanism="laplace",
        epsilon=float(epsilon),
        clip_bound=float(clip_bound),
        accountant_state=None,
    )


def event_weight_matrix(artifact: DeploymentArtifact,
                        events: "list[str] | None" = None) -> np.ndarray:
    """The ``(NUM_SIGNALS, E)`` projection onto the monitored events.

    The fleet serves noised *HPC reads* — counts of the monitored
    events — so serving happens in this projected space rather than on
    full signal matrices.
    """
    catalog = processor_catalog(artifact.processor_model)
    names = events if events is not None else artifact.vulnerable_events
    rows = [catalog.weights[catalog.index_of(name)] for name in names]
    return np.stack(rows).T
