"""Whole-pipeline persistence: crash-safe save/load of an NCL deployment.

A deployable NCL instance is more than the COM-AID weights: it needs
the model configuration, the shared vocabulary, the pre-trained word
vectors (query rewriting), the ontology, and the knowledge-base aliases
(Phase-I index + scoring vocabulary).  These helpers lay all of it out
in one directory:

.. code-block:: text

    <dir>/
      config.json        ComAidConfig fields
      vocab.json         Vocabulary snapshot
      model.npz          COM-AID parameters
      vectors.npz        word-vector matrix + words + tag words (optional)
      ontology.json      concept tree
      kb.json            aliases per concept
      manifest.json      format version + per-file sha256/byte sizes

``save_pipeline`` / ``load_pipeline`` round-trip exactly; the loaded
linker reproduces the original's rankings bit-for-bit (tested).

Crash safety: every file is written (and fsynced) into a hidden
``<dir>.staging-<pid>`` directory first, then the staging directory is
renamed into place.  A process killed anywhere during the writes leaves
an existing deployment at ``<dir>`` completely untouched; the torn
staging directory is swept by the next save.  ``manifest.json`` records
the SHA-256 of every artifact, so :func:`verify_pipeline` (and the
``repro verify-pipeline`` command) can prove a directory is complete
and uncorrupted before it is put behind traffic.  ``load_pipeline``
converts every underlying failure — missing file, truncated ``.npz``,
malformed JSON — into one :class:`~repro.utils.errors.DataError` that
names the offending artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.comaid import ComAid
from repro.core.config import ComAidConfig, LinkerConfig
from repro.core.linker import NeuralConceptLinker
from repro.embeddings.similarity import WordVectors
from repro.kb.knowledge_base import KnowledgeBase
from repro.nn.serialization import load_module, save_module
from repro.ontology.loaders import load_ontology_json, save_ontology_json
from repro.ontology.ontology import Ontology
from repro.text.vocab import Vocabulary
from repro.utils.errors import DataError, ReproError
from repro.utils.faults import probe

PathLike = Union[str, Path]

PIPELINE_FORMAT = 1
MANIFEST_FILE = "manifest.json"
_STAGING_MARKER = ".staging-"

#: Artifacts a complete pipeline must contain.
REQUIRED_FILES = ("config.json", "vocab.json", "model.npz", "ontology.json")
#: Artifacts that may be absent (no KB / no pre-trained vectors).
OPTIONAL_FILES = ("kb.json", "vectors.npz")


def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _fsync_dir_files(directory: Path) -> None:
    for entry in directory.iterdir():
        if entry.is_file():
            fd = os.open(entry, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def _sweep_stale_staging(target: Path) -> None:
    """Remove staging/backup leftovers from a previously killed save."""
    for entry in target.parent.glob(f"{target.name}{_STAGING_MARKER}*"):
        if entry.is_dir():
            shutil.rmtree(entry, ignore_errors=True)


@contextmanager
def atomic_directory(directory: PathLike) -> Iterator[Path]:
    """Stage writes to a sibling temp dir; commit atomically on success.

    The generic crash-safety core shared by :func:`save_pipeline` and
    the compiled-artifact writer (:mod:`repro.engine.compile`).  The
    body receives a staging directory to fill; on normal exit every
    staged file is fsynced and the staging directory is renamed over
    ``directory`` (parking any existing deployment first, so a crash in
    the one non-atomic instant still leaves the old bytes on disk under
    the backup name).  On exception the staging directory is removed
    and ``directory`` is untouched.
    """
    target = Path(directory)
    target.parent.mkdir(parents=True, exist_ok=True)
    _sweep_stale_staging(target)
    staging = target.parent / f"{target.name}{_STAGING_MARKER}{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        yield staging
        _fsync_dir_files(staging)
        probe("persistence.commit")
        if target.exists():
            # The one non-atomic instant: park the old deployment, move
            # the new one in, then drop the parked copy.  A crash inside
            # this window leaves the old deployment intact under the
            # backup name; the next save sweeps it.
            backup = target.parent / f"{target.name}{_STAGING_MARKER}old-{os.getpid()}"
            os.replace(target, backup)
            os.replace(staging, target)
            shutil.rmtree(backup, ignore_errors=True)
        else:
            os.replace(staging, target)
    except BaseException:
        # Failed saves must not leave a half-written staging directory
        # masquerading as progress — but never touch ``target`` itself.
        shutil.rmtree(staging, ignore_errors=True)
        raise


def write_manifest(
    staging: PathLike,
    format_version: int,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Checksum every staged file into ``manifest.json``.

    Returns the manifest written: format version, caller metadata, and
    per-file SHA-256 / byte sizes for everything already staged.
    """
    staging_dir = Path(staging)
    manifest: Dict[str, Any] = {
        "format": format_version,
        "metadata": metadata or {},
        "files": {
            entry.name: {
                "sha256": _sha256_of(entry),
                "bytes": entry.stat().st_size,
            }
            for entry in sorted(staging_dir.iterdir())
            if entry.is_file()
        },
    }
    probe("persistence.write.manifest.json")
    (staging_dir / MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    return manifest


def verify_manifest_dir(
    directory: PathLike,
    required_files: Sequence[str],
    kind: str = "pipeline",
) -> Dict[str, Any]:
    """Prove a manifest-carrying directory is complete and uncorrupted.

    Checks the manifest exists, every file in ``required_files`` is
    listed, and every manifest-listed file matches its recorded byte
    size and SHA-256.  Returns the parsed manifest on success; raises
    :class:`DataError` naming the first offending file otherwise.
    ``kind`` labels the error messages ("pipeline", "artifact", …).
    """
    source = Path(directory)
    if not source.is_dir():
        raise DataError(f"{source} is not a {kind} directory")
    manifest_path = source / MANIFEST_FILE
    if not manifest_path.exists():
        raise DataError(
            f"{source} has no {MANIFEST_FILE}; re-save the {kind} to "
            "adopt the checksummed format"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(
            f"{kind} manifest {manifest_path} is not valid JSON: {exc}"
        ) from exc
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise DataError(f"{kind} manifest {manifest_path} lists no files")
    for name in required_files:
        if name not in files:
            raise DataError(
                f"{kind} manifest {manifest_path} is missing required "
                f"artifact {name}"
            )
    for name, expected in files.items():
        artifact = source / name
        if not artifact.exists():
            raise DataError(f"{kind} {source} is missing {name}")
        size = artifact.stat().st_size
        if size != expected.get("bytes"):
            raise DataError(
                f"{kind} file {artifact} is truncated: {size} bytes, "
                f"manifest says {expected.get('bytes')}"
            )
        digest = _sha256_of(artifact)
        if digest != expected.get("sha256"):
            raise DataError(
                f"{kind} file {artifact} is corrupt (sha256 "
                f"{digest[:12]}… != manifest {str(expected.get('sha256'))[:12]}…)"
            )
    return manifest


def save_pipeline(
    directory: PathLike,
    model: ComAid,
    ontology: Ontology,
    kb: Optional[KnowledgeBase] = None,
    word_vectors: Optional[WordVectors] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a complete NCL deployment to ``directory``, crash-safely.

    All artifacts are staged into a sibling temp directory and renamed
    into place only once every byte (and the checksum manifest) is on
    disk, so a crash mid-save never corrupts an existing deployment at
    ``directory``.  ``metadata`` (e.g. training/checkpoint provenance)
    is embedded verbatim in ``manifest.json`` and surfaced by the
    serving layer's ``/metrics``.
    """
    target = Path(directory)
    with atomic_directory(target) as staging:
        probe("persistence.write.config.json")
        (staging / "config.json").write_text(
            json.dumps(dataclasses.asdict(model.config), indent=2),
            encoding="utf-8",
        )
        probe("persistence.write.vocab.json")
        (staging / "vocab.json").write_text(
            json.dumps(model.vocab.to_dict()), encoding="utf-8"
        )
        probe("persistence.write.model.npz")
        save_module(model, staging / "model.npz")
        probe("persistence.write.ontology.json")
        save_ontology_json(ontology, staging / "ontology.json")
        if kb is not None:
            probe("persistence.write.kb.json")
            kb.save_json(staging / "kb.json")
        if word_vectors is not None:
            probe("persistence.write.vectors.npz")
            np.savez_compressed(
                staging / "vectors.npz",
                matrix=word_vectors.vectors_for(list(word_vectors.words)),
                words=np.array(word_vectors.words, dtype=object),
                tags=np.array(sorted(word_vectors.tag_words), dtype=object),
            )
        write_manifest(staging, PIPELINE_FORMAT, metadata)
    return target


def verify_pipeline(directory: PathLike) -> Dict[str, Any]:
    """Prove a pipeline directory is complete and uncorrupted.

    Checks the manifest exists, every required artifact is present,
    and every manifest-listed file matches its recorded byte size and
    SHA-256.  Returns the parsed manifest on success; raises
    :class:`DataError` naming the first offending file otherwise.
    Pipelines saved before manifests existed fail verification —
    re-save them to adopt the format.
    """
    return verify_manifest_dir(directory, REQUIRED_FILES, kind="pipeline")


def load_manifest(directory: PathLike) -> Optional[Dict[str, Any]]:
    """The parsed ``manifest.json`` of a pipeline, or None if absent."""
    manifest_path = Path(directory) / MANIFEST_FILE
    if not manifest_path.exists():
        return None
    try:
        return json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(
            f"pipeline manifest {manifest_path} is not valid JSON: {exc}"
        ) from exc


def _load_artifact(path: Path, loader: Callable[[Path], Any]) -> Any:
    """Run ``loader`` on ``path``, converting failures to one DataError."""
    if not path.exists():
        raise DataError(f"pipeline {path.parent} is missing {path.name}")
    try:
        return loader(path)
    except ReproError:
        raise
    except (
        json.JSONDecodeError,
        zipfile.BadZipFile,
        UnicodeDecodeError,
        KeyError,
        ValueError,
        TypeError,
        OSError,
    ) as exc:
        raise DataError(
            f"pipeline file {path} is corrupt or unreadable: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def load_pipeline_parts(
    directory: PathLike,
    verify: bool = False,
) -> Tuple[
    ComAid, Ontology, Optional[KnowledgeBase], Optional[WordVectors], Dict[str, Any]
]:
    """:func:`load_pipeline` without the linker.

    Returns ``(model, ontology, kb, word_vectors, metadata)``, loaded
    and checked exactly as :func:`load_pipeline` does; ``metadata`` is
    the manifest's.  For callers that need the pieces but no linker
    (``repro compile``): building one would compile every concept in
    memory only to discard it.
    """
    source = Path(directory)
    if not (source / "config.json").exists():
        raise DataError(f"{source} does not look like a saved pipeline")
    if verify:
        verify_pipeline(source)
    manifest = load_manifest(source)
    # Optional artifacts are only optional when the manifest agrees: a
    # manifest that lists kb.json describes a deployment whose Phase-I
    # index was built over aliases, and silently loading without them
    # would serve different rankings than were tested.
    if manifest is not None:
        for name in OPTIONAL_FILES:
            listed = name in manifest.get("files", {})
            if listed and not (source / name).exists():
                raise DataError(f"pipeline {source} is missing {name}")
    config = _load_artifact(
        source / "config.json",
        lambda path: ComAidConfig(
            **json.loads(path.read_text(encoding="utf-8"))
        ),
    )
    vocab = _load_artifact(
        source / "vocab.json",
        lambda path: Vocabulary.from_dict(
            json.loads(path.read_text(encoding="utf-8"))
        ),
    )
    model = ComAid(config, vocab, rng=0)
    _load_artifact(
        source / "model.npz", lambda path: load_module(model, path)
    )
    ontology = _load_artifact(source / "ontology.json", load_ontology_json)
    kb: Optional[KnowledgeBase] = None
    if (source / "kb.json").exists():
        kb = _load_artifact(
            source / "kb.json",
            lambda path: KnowledgeBase.load_json(ontology, path),
        )
    vectors: Optional[WordVectors] = None
    if (source / "vectors.npz").exists():

        def _load_vectors(path: Path) -> WordVectors:
            with np.load(path, allow_pickle=True) as archive:
                return WordVectors(
                    words=[str(word) for word in archive["words"]],
                    matrix=archive["matrix"],
                    tag_words=[str(tag) for tag in archive["tags"]],
                )

        vectors = _load_artifact(source / "vectors.npz", _load_vectors)
    return model, ontology, kb, vectors, (manifest or {}).get("metadata", {})


def load_pipeline(
    directory: PathLike,
    linker_config: Optional[LinkerConfig] = None,
    verify: bool = False,
) -> Tuple[ComAid, Ontology, Optional[KnowledgeBase], Optional[WordVectors], NeuralConceptLinker]:
    """Load a deployment saved by :func:`save_pipeline`.

    Returns ``(model, ontology, kb, word_vectors, linker)``; ``kb`` and
    ``word_vectors`` are ``None`` when absent from the directory.  Any
    missing, truncated, or corrupt artifact raises a single
    :class:`DataError` naming the file.  With ``verify=True`` every
    artifact is additionally checksummed against ``manifest.json``
    before anything is deserialised (what ``repro serve`` does at
    startup).  The loaded linker carries the manifest's metadata as
    ``linker.pipeline_metadata`` for the serving layer to report.
    """
    model, ontology, kb, vectors, metadata = load_pipeline_parts(
        directory, verify=verify
    )
    linker = NeuralConceptLinker(
        model,
        ontology,
        linker_config if linker_config is not None else LinkerConfig(),
        kb=kb,
        word_vectors=vectors,
    )
    linker.pipeline_metadata = metadata
    return model, ontology, kb, vectors, linker
