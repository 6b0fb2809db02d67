"""Version-1 output files, written by converting version-2 ones in place.

Version 1 differs from version 2 in three ways. A binary chain row has an
f64 ``reserved`` slot, written as 0.0, after ``adaptation_measure``. A
restart record lacks the last three checkpoint fields: the chain's two byte
sizes and the epsilon inflations. The ascii restart and the report name v1
in their first line, and the report has no ``eps_inflations`` line. Ascii
chains are the same in both versions. Bytes past the last complete row or
record, as an interrupt leaves them, are kept as a torn tail.
"""

from __future__ import annotations

import os
import struct

import numpy as np

import dramforge as df

V2_ONLY = ("chain_compact_bytes", "chain_verbose_bytes", "eps_inflations")
CHAIN_HEADER = "<4sIIQ"  # magic, version, ndim, rows
RESTART_HEADER = "<4sIII"  # magic, version, ndim, spec echo bytes


def v1_row_dtype(ndim: int) -> np.dtype:
    return np.dtype([
        ("process_id", "<i4"), ("dr_stage", "<i4"), ("mean_accept_rate", "<f8"),
        ("adaptation_measure", "<f8"), ("reserved", "<f8"), ("burnin_loc", "<i8"),
        ("weight", "<i8"), ("logf", "<f8"), ("state", "<f8", (ndim,)),
    ])


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)


def _repacked(blob: bytes, offset: int, new: np.dtype, old: np.dtype) -> tuple[np.ndarray, bytes]:
    """The complete ``new`` records from ``offset`` on, as ``old`` records, and the torn tail."""
    n = (len(blob) - offset) // new.itemsize
    rows = np.frombuffer(blob, new, n, offset)
    out = np.zeros(n, old)
    for name in old.names:
        if name in new.names:
            out[name] = rows[name]
    # A tail as long as an old record would read as one.
    return out, blob[offset + n * new.itemsize :][: old.itemsize - 1]


def chain_to_v1(path: str) -> None:
    blob = _read(path)
    if not blob.startswith(b"DRMF"):
        return  # an ascii chain
    magic, version, ndim, rows = struct.unpack_from(CHAIN_HEADER, blob)
    assert version == 2, path
    old, tail = _repacked(blob, struct.calcsize(CHAIN_HEADER), df.chainio.chain_row_dtype(ndim),
                          v1_row_dtype(ndim))
    _write(path, struct.pack(CHAIN_HEADER, magic, 1, ndim, rows) + old.tobytes() + tail)


def _text_to_v1(path: str, what: str, drop: tuple[str, ...]) -> None:
    lines = _read(path).decode("utf-8").split("\n")
    assert lines[0] == f"# dramforge {what} v2", path
    lines = [f"# dramforge {what} v1"] + [
        line for line in lines[1:] if line.partition(" = ")[0] not in drop]
    _write(path, "\n".join(lines).encode("utf-8"))


def restart_to_v1(path: str) -> None:
    blob = _read(path)
    if not blob.startswith(b"DRRS"):
        _text_to_v1(path, "restart", V2_ONLY)
        return
    magic, version, ndim, echo_bytes = struct.unpack_from(RESTART_HEADER, blob)
    assert version == 2, path
    first = struct.calcsize(RESTART_HEADER) + echo_bytes
    count_at = first + df.chainio.checkpoint_dtype(ndim, 0).fields["rng_count"][1]
    n_streams = int.from_bytes(blob[count_at : count_at + 4], "little")
    new = df.chainio.checkpoint_dtype(ndim, n_streams)
    old = np.dtype([(name, new.fields[name][0]) for name in new.names if name not in V2_ONLY])
    records, tail = _repacked(blob, first, new, old)
    records["length"] = old.itemsize - 4
    echo = blob[struct.calcsize(RESTART_HEADER) : first]
    _write(path, struct.pack(RESTART_HEADER, magic, 1, ndim, echo_bytes) + echo
           + records.tobytes() + tail)


def report_to_v1(path: str) -> None:
    _text_to_v1(path, "report", ("eps_inflations",))


def to_v1(paths: dict) -> None:
    """Convert a run's chain, restart and report files to version 1; missing ones are skipped."""
    for name, convert in (("chain", chain_to_v1), ("restart", restart_to_v1),
                          ("report", report_to_v1)):
        if os.path.exists(paths[name]):
            convert(paths[name])
