"""Scene-manifest records: the ``manifest.jsonl`` rows that ``scene`` and
``dataset`` write and ``featurize`` and ``stats`` read. Standard library
only, so a command that reads a manifest loads no scene renderer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import DataError

MANIFEST_SCHEMA = "beambank-scene-v1"


@dataclass(frozen=True)
class Segment:
    start: int
    end: int
    speaker: str
    transcript: str


@dataclass
class SceneManifest:
    """Everything needed to interpret one rendered scene."""

    schema: str
    fs: int
    num_samples: int
    geometry_id: str
    segments: list[Segment]
    reference: str
    scene: dict
    audio_path: str | None = None

    def validate(self):
        for seg in self.segments:
            if seg.start < 0 or seg.end <= seg.start or seg.end > self.num_samples:
                raise DataError(
                    f"segment [{seg.start}, {seg.end}) outside audio of {self.num_samples} samples"
                )
        starts = [s.start for s in self.segments]
        if starts != sorted(starts):
            raise DataError("segments must be ordered by start sample")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SceneManifest":
        """A manifest from a complete row; read it inside ``_container.parsing``."""
        if not isinstance(doc, dict):
            raise TypeError(f"row is a JSON {type(doc).__name__}, not an object")
        if doc.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(f"not a {MANIFEST_SCHEMA} row (schema {doc.get('schema')!r})")
        audio_path = doc.get("audio_path")
        if not isinstance(audio_path, (str, type(None))):
            raise TypeError(f"audio_path {audio_path!r} is not a string")
        manifest = cls(
            schema=doc["schema"],
            fs=int(doc["fs"]),
            num_samples=int(doc["num_samples"]),
            geometry_id=str(doc["geometry_id"]),
            segments=[
                Segment(int(s["start"]), int(s["end"]), str(s["speaker"]), str(s["transcript"]))
                for s in doc["segments"]
            ],
            reference=str(doc["reference"]),
            scene=doc["scene"],
            audio_path=audio_path,
        )
        manifest.validate()
        return manifest
