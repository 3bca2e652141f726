"""Dataset files, run configuration, and atomic output writing.

Datasets are JSON-lines: a header line {format_version, D, ordered,
section_name} followed by one line per sequence {id, steps, loss_mask}, id
a string. Files ending in .gz are compressed transparently. `json_type_ok`
decides which JSON value a field may hold in every file the package reads.
"""
from __future__ import annotations

import gzip
import json
import logging
import os
import tempfile
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain

import numpy as np

from .errors import InvalidValue, ParseError
from .simplex import SimplexSeries, normalize

log = logging.getLogger(__name__)

DATASET_FORMAT_VERSION = 1


def json_type_ok(value, hint) -> bool:
    """Whether a value decoded from JSON has the type `hint`: int, bool, str,
    dict and list take only themselves (no bool is an int), float an int or
    a float, `list[item]` a list of `item`s, tuple a list of numbers, and a
    dataclass a list of numbers with one entry per field."""
    if hint is tuple or is_dataclass(hint):
        return json_type_ok(value, list[float]) and (
            hint is tuple or len(value) == len(fields(hint)))
    if getattr(hint, "__origin__", None) is list:
        # one scan of the entries' types, not a call per entry
        return type(value) is list and _json_types(*hint.__args__).issuperset(map(type, value))
    return type(value) in _json_types(hint)


def _json_types(hint) -> set:
    """The Python types that `json.loads` gives a value of type `hint`."""
    return {int, float} if hint is float else {hint}


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
    not a string, a steps entry that is not a JSON number, a loss_mask entry
    that is not a boolean, a non-finite or negative value, an id that is not
    a JSON string and an id repeated within the file are each a ParseError
    naming its line; so are a file that `_read_text` rejects and a
    format_version other than the integer 1, without a line."""
    lines = _read_text(path, "not a text file").splitlines()
    if not lines:
        raise ParseError("empty dataset file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad header: {exc}", line=1) from exc
    if not json_type_ok(header, dict) or "format_version" not in header:
        raise ParseError("header must be an object with format_version", line=1)
    version = header["format_version"]
    if not json_type_ok(version, int) or version != DATASET_FORMAT_VERSION:
        raise ParseError(
            f"dataset format {version} "
            f"(supported: {DATASET_FORMAT_VERSION})"
        )
    for key in ("D", "ordered", "section_name"):
        if key not in header:
            raise ParseError(f"header missing {key!r}", line=1)
    dim, ordered = header["D"], header["ordered"]
    if not json_type_ok(dim, int) or dim < 2:
        raise ParseError(f"header D must be an integer >= 2, got {dim!r}", line=1)
    if not json_type_ok(ordered, bool):
        raise ParseError(f"header ordered must be true or false, got {ordered!r}", line=1)
    if not json_type_ok(header["section_name"], str):
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
        # numpy would read true as 1.0 and "1e-1" as 0.1
        if not json_type_ok([*chain.from_iterable(row["steps"])], list[float]):
            raise ParseError("steps must be JSON numbers", line=lineno)
        if not np.all(np.isfinite(steps)):
            raise ParseError("steps must be finite (no NaN or Infinity)", line=lineno)
        if "id" not in row:
            raise ParseError("row missing id", line=lineno)
        seq_id = row["id"]
        if not json_type_ok(seq_id, str):
            raise ParseError(f"id must be a JSON string, got {json.dumps(seq_id)}", line=lineno)
        if seq_id in seen_ids:
            raise ParseError(f"repeated id {seq_id!r}", line=lineno)
        seen_ids.add(seq_id)
        mask = row.get("loss_mask")
        if mask is not None:
            if not json_type_ok(mask, list[bool]):
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


def load_run_config(path, types: dict) -> dict:
    """The `train --config` file: values of the config fields that `types`
    maps to their annotated types, which a flag given on the command line
    overrides. Any other key and a value of the wrong JSON type
    (`json_type_ok`) are rejected before any work starts."""
    try:
        raw = json.loads(_read_text(path, "bad config"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad config: {exc}", line=exc.lineno) from exc
    if not json_type_ok(raw, dict):
        raise ParseError("config must be a JSON object")
    for key, value in raw.items():
        if key not in types:
            raise ParseError(f"unknown config key {key!r}")
        if not json_type_ok(value, types[key]):
            raise ParseError(f"config key {key!r} must be {types[key].__name__}")
    return raw
