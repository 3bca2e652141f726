"""Dataset files, run configuration, and atomic output writing.

Datasets are JSON-lines: a header line {format_version, D, ordered,
section_name} followed by one line per sequence {id, steps, loss_mask}.
Files ending in .gz are compressed transparently.
"""
from __future__ import annotations

import gzip
import json
import logging
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, ParseError
from .simplex import SimplexSeries, normalize

log = logging.getLogger(__name__)

DATASET_FORMAT_VERSION = 1


def _read_text(path, what: str) -> str:
    """The text of a file, a .gz path decompressed; text that is not UTF-8
    or bytes that are not one whole gzip stream are a ParseError naming the
    file."""
    import zlib  # already loaded by gzip

    opened = gzip.open(path, "rt") if str(path).endswith(".gz") else open(path)
    with opened as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {what}: {exc}") from exc
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise ParseError(f"{path}: not a whole gzip file: {exc}") from exc


@dataclass
class IngestResult:
    sequences: list
    dropped_rows: int
    section_name: str
    ordered: bool
    dim: int


def write_dataset(path, seqs, section_name: str = "") -> None:
    """Writes a dataset atomically (temp file + rename)."""
    if not seqs:
        raise InvalidValue("cannot write an empty dataset")
    dim = seqs[0].steps.shape[1]
    ordered = seqs[0].ordered
    for s in seqs:
        if s.steps.shape[1] != dim or s.ordered != ordered:
            raise InvalidValue("all sequences must share D and orderedness")
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "D": dim,
        "ordered": ordered,
        "section_name": section_name,
    }

    def emit(fh):
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in seqs:
            row = {
                "id": s.id,
                "steps": s.steps.tolist(),
                "loss_mask": s.loss_mask.tolist(),
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    atomic_write(path, emit)


def ingest(path) -> IngestResult:
    """Reads a dataset file; rows are normalized, and rows whose total mass
    is zero anywhere are dropped and counted. A header whose D is not an
    integer >= 2, whose ordered is not a boolean or whose section_name is
    not a string, a loss_mask entry that is not a boolean, a non-finite or
    negative value, and an id repeated within the file are each a
    ParseError naming its line; so are a file that `_read_text` rejects and
    an unsupported format_version, without a line."""
    lines = _read_text(path, "not a text file").splitlines()
    if not lines:
        raise ParseError("empty dataset file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad header: {exc}", line=1) from exc
    if not isinstance(header, dict) or "format_version" not in header:
        raise ParseError("header must be an object with format_version", line=1)
    if header["format_version"] != DATASET_FORMAT_VERSION:
        raise ParseError(
            f"dataset format {header['format_version']} "
            f"(supported: {DATASET_FORMAT_VERSION})"
        )
    for key in ("D", "ordered", "section_name"):
        if key not in header:
            raise ParseError(f"header missing {key!r}", line=1)
    dim, ordered = header["D"], header["ordered"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
        raise ParseError(f"header D must be an integer >= 2, got {dim!r}", line=1)
    if not isinstance(ordered, bool):
        raise ParseError(f"header ordered must be true or false, got {ordered!r}", line=1)
    if not isinstance(header["section_name"], str):
        raise ParseError("header section_name must be a string", line=1)

    sequences = []
    seen_ids: set = set()
    dropped = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            row = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad row: {exc}", line=lineno) from exc
        try:
            steps = np.asarray(row["steps"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad steps: {exc}", line=lineno) from exc
        if steps.ndim != 2 or steps.shape[1] != dim:
            raise ParseError(
                f"steps must be (T, {dim}), got {steps.shape}", line=lineno
            )
        if not np.all(np.isfinite(steps)):
            raise ParseError("steps must be finite (no NaN or Infinity)", line=lineno)
        if "id" not in row:
            raise ParseError("row missing id", line=lineno)
        seq_id = str(row["id"])
        if seq_id in seen_ids:
            raise ParseError(f"repeated id {seq_id!r}", line=lineno)
        seen_ids.add(seq_id)
        mask = row.get("loss_mask")
        if mask is not None:
            if not isinstance(mask, list) or not all(isinstance(x, bool) for x in mask):
                raise ParseError("loss_mask must be a list of true/false", line=lineno)
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (len(steps) - 1,):
                raise ParseError(
                    f"loss_mask must have length {len(steps) - 1}", line=lineno
                )
        if np.any(steps < 0):
            raise ParseError("steps must be nonnegative", line=lineno)
        if np.any(steps.sum(axis=1) == 0):
            dropped += 1
            continue
        sequences.append(SimplexSeries(seq_id, ordered, normalize(steps), mask))
    if dropped:
        log.warning("dropped %d rows with no usable mass from %s", dropped, path)
    return IngestResult(
        sequences=sequences,
        dropped_rows=dropped,
        section_name=header["section_name"],
        ordered=ordered,
        dim=dim,
    )


def atomic_write(path, emit, binary: bool = False) -> None:
    """Writes via a same-directory temp file and rename; `emit` receives the
    open handle, text or, with `binary`, bytes. A .gz path is compressed."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        if path.endswith(".gz"):
            os.close(fd)
            with gzip.open(tmp, "wb" if binary else "wt") as fh:
                emit(fh)
        else:
            with os.fdopen(fd, "wb" if binary else "w") as fh:
                emit(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    atomic_write(
        path, lambda fh: fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    )


# ------------------------------------------------------------- run config


_RUN_CONFIG_FIELDS = {
    "variant": str,
    "feature_mode": str,
    "iters": int,
    "batch_size": int,
    "lr": float,
    "warmup": int,
    "weight_decay": float,
}


def load_run_config(path) -> dict:
    """The `train --config` file: ModelConfig/TrainConfig values that a flag
    given on the command line overrides. Unknown keys and wrong types are
    rejected before any work starts."""
    try:
        raw = json.loads(_read_text(path, "bad config"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad config: {exc}", line=exc.lineno) from exc
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object")
    for key, value in raw.items():
        if key not in _RUN_CONFIG_FIELDS:
            raise ParseError(f"unknown config key {key!r}")
        expected = _RUN_CONFIG_FIELDS[key]
        ok = isinstance(value, (float, int) if expected is float else expected)
        # JSON true/false load as bool, which Python counts as an int
        if isinstance(value, bool) or not ok:
            raise ParseError(f"config key {key!r} must be {expected.__name__}")
    return raw
