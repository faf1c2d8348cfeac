"""The audit's single definition of "byte-identical".

Both the golden-artifact regression suite and the ``repro audit`` CLI
compare artifacts through this module, so the test fixture and the
user-facing tool can never disagree about what counts as a reproduction.

Two digest primitives cover the two kinds of pipeline output:

* :func:`artifact_digest` — experiments (tables/figures) digest by their
  *rendered text*, exactly the bytes committed under ``artifacts/``. This
  is the user-facing contract: two runs agree iff their reports agree.
* :func:`structural_digest` — study-stage values (response sets, job
  tables, the assembled study) digest by a *memo-free* pickle stream.
  Raw cache blobs are NOT comparable across executor modes: pickle's
  memo is identity-based, and a value that round-trips through a process
  pool loses string-interning sharing, shifting ``BINGET`` references
  into fresh ``SHORT_BINUNICODE`` emits without changing the value.
  Disabling the memo (``Pickler.fast``) makes the stream a pure function
  of structure and content, so sequential, thread, and process runs of
  the same step digest identically.

:func:`cache_digests` walks a disk cache directory and digests every
*artifact* entry, skipping the ``<key>.lock`` advisory files left by
:class:`repro.io.locks.FileLock` and any in-flight ``*.tmp`` publishes —
a concurrent audit must never hash lock metadata as an artifact.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "GOLDEN_STUDY",
    "render_artifact",
    "artifact_files",
    "artifact_digest",
    "text_digest",
    "structural_digest",
    "blob_digest",
    "cache_digests",
    "golden_ids",
    "compare_to_goldens",
]

#: Hex digits kept from each sha256 — plenty to make collisions a
#: non-concern at pipeline scale while keeping report cards readable.
DIGEST_LEN = 16

#: Cache-directory suffixes that are not artifacts and must never be
#: digested: advisory entry locks and in-flight atomic-publish temp files.
NON_ARTIFACT_SUFFIXES = (".lock", ".tmp")


#: The study the committed ``artifacts/`` goldens are rendered from:
#: ``build_default_study(**GOLDEN_STUDY)``. ``examples/full_reproduction.py``
#: writes them and the golden suite checks them, both at these arguments.
GOLDEN_STUDY: Mapping[str, Any] = {
    "seed": 888,
    "n_baseline": 120,  # the 2011 survey interviewed ~114 researchers
    "n_current": 300,  # the revisit wave is larger (online instrument)
    "months": 24,
    "jobs_per_day": 450.0,
}


def render_artifact(artifact: Any) -> str:
    """The canonical byte form of one experiment artifact.

    Exactly what ``examples/full_reproduction.py`` writes to
    ``artifacts/<id>.txt``: the ASCII rendering plus a trailing newline.
    Every byte-identity comparison — golden suite, audit concordance —
    goes through this one function.
    """
    return artifact.render_ascii() + "\n"


def artifact_files(experiment_id: str, artifact: Any) -> dict[str, str]:
    """Every file one experiment artifact is committed as: ``{name: text}``.

    ``<id>.txt`` is :func:`render_artifact`; a figure also has its data
    as ``<id>.json`` and a standalone plot as ``<id>.svg``. This is what
    ``examples/full_reproduction.py`` writes and what the golden suite
    compares, file for file.
    """
    from repro.report import FigureSeries, figure_to_svg  # local: avoid cycle at import

    files = {f"{experiment_id}.txt": render_artifact(artifact)}
    if isinstance(artifact, FigureSeries):
        files[f"{experiment_id}.json"] = json.dumps(artifact.to_dict(), indent=2)
        files[f"{experiment_id}.svg"] = figure_to_svg(artifact)
    return files


def text_digest(text: str) -> str:
    """Truncated sha256 of a text's UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_LEN]


def artifact_digest(artifact: Any) -> str:
    """Digest of an experiment artifact's rendered bytes."""
    return text_digest(render_artifact(artifact))


class _HashSink:
    """File-like object that hashes writes instead of storing them."""

    def __init__(self) -> None:
        self.h = hashlib.sha256()

    def write(self, data) -> int:
        # The C pickler hands large contiguous payloads (e.g. numpy
        # arrays under protocol 5) to ``write`` as PickleBuffer or
        # memoryview chunks, not bytes; hashlib takes any buffer, but
        # ``len`` does not — measure through a memoryview.
        self.h.update(data)
        return memoryview(data).nbytes


def structural_digest(value: Any) -> str:
    """Sharing-independent digest of an arbitrary picklable value.

    Streams a memo-free pickle (``Pickler.fast``) into the hash, so the
    digest depends only on the value's structure and content — never on
    which sub-objects happen to share identity, which is exactly what a
    trip through a process pool perturbs. Not safe for self-referential
    graphs (memo-free pickling would recurse forever); pipeline artifacts
    are trees.
    """
    sink = _HashSink()
    pickler = pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(value)
    return sink.h.hexdigest()[:DIGEST_LEN]


def blob_digest(blob: bytes) -> str:
    """Structural digest of a stored cache blob (decode, then digest).

    Understands both the protocol-5 out-of-band artifact container the
    cache writes and legacy plain-pickle blobs. Raises whatever the
    decoder raises on a corrupt blob — the caller decides whether a
    damaged entry is a finding or an error.
    """
    # The cache's container codec is the single source of truth for the
    # stored format; the audit must observe exactly what a reader would.
    from repro.core.pipeline import _decode_artifact

    return structural_digest(_decode_artifact(blob))


def cache_digests(root: str | Path) -> dict[str, str]:
    """Structural digest per cache key for a disk cache directory.

    Only ``*.pkl`` artifact entries are read; ``<key>.lock`` files from
    cross-process entry locking and ``*.tmp`` atomic-publish leftovers
    are skipped, as is anything that vanishes mid-walk (a concurrent
    evict). Corrupt entries are skipped too — a digest walk is a
    read-only observer and must not crash on damage the cache itself
    would heal by recomputing.
    """
    digests: dict[str, str] = {}
    root = Path(root)
    if not root.is_dir():
        return digests
    for path in sorted(root.iterdir()):
        if path.suffix != ".pkl" or path.name.endswith(NON_ARTIFACT_SUFFIXES):
            continue
        try:
            blob = path.read_bytes()
            digests[path.stem] = blob_digest(blob)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            continue
    return digests


# -- golden artifacts ---------------------------------------------------------


def golden_ids(artifact_dir: str | Path) -> list[str]:
    """Experiment ids with a committed golden rendering, sorted."""
    return sorted(p.stem for p in Path(artifact_dir).glob("*.txt"))


def compare_to_goldens(
    artifacts: Mapping[str, Any], artifact_dir: str | Path
) -> dict[str, bool]:
    """Byte-compare regenerated artifacts against the committed goldens.

    Returns ``{experiment_id: matched}`` for every golden id present in
    ``artifacts``, matched when every file of :func:`artifact_files` is
    committed with the same bytes; ids without a regenerated artifact are
    omitted (the golden suite asserts registry/golden set equality
    separately).
    """
    root = Path(artifact_dir)
    results: dict[str, bool] = {}
    for eid in golden_ids(root):
        artifact = artifacts.get(eid)
        if artifact is None:
            continue
        results[eid] = all(
            (root / name).is_file() and (root / name).read_text(encoding="utf-8") == text
            for name, text in artifact_files(eid, artifact).items()
        )
    return results
