"""Readers and writers for the five output files, plus checkpoint records.

Files per run prefix: chain (compact or verbose, ascii or binary),
restart, sample, report, progress. Two definitions fix the record
layouts. ``chain_row_dtype`` is the chain row: the binary file row and
the row of ``CompactChain``, the one in-memory row store, which the
sampler appends to and the readers fill. ``CHECKPOINT_FIELDS`` lists the
restart checkpoint fields in record order and drives both encodings.
ASCII reals carry 17 significant digits so every 64-bit float round-trips
exactly; binary layouts are little-endian and versioned by a 4-byte
magic. Readers tolerate a truncated final row or record, because
interrupts happen mid-write, and re-compact verbose chains on read.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import SIMSPEC_FIELDS, SimSpec, UsageError
from .proposal import ProposalState, factorize

CHAIN_MAGIC = b"DRMF"
RESTART_MAGIC = b"DRRS"
FORMAT_VERSION = 1

CHAIN_COLUMNS = (
    "ProcessID",
    "DelayedRejectionStage",
    "MeanAcceptanceRate",
    "AdaptationMeasure",
    "BurninLocation",
    "SampleWeight",
    "SampleLogFunc",
)


class ParseError(UsageError):
    """Malformed file content, with path and line context."""


def fmt_float(x: float) -> str:
    """17 significant digits: the minimum that round-trips binary64."""
    return format(x, ".17g")


def output_paths(prefix: str, encoding: str) -> dict:
    ext = "txt" if encoding == "ascii" else "bin"
    return {
        "chain": f"{prefix}_chain.{ext}",
        "restart": f"{prefix}_restart.{ext}",
        "sample": f"{prefix}_sample.txt",
        "report": f"{prefix}_report.txt",
        "progress": f"{prefix}_progress.txt",
    }


def chain_row_dtype(ndim: int) -> np.dtype:
    """Layout of one chain row: a binary chain file row, and a row in memory.

    Packed little-endian fields in this order. ``reserved`` is an f64 slot
    of the version-1 binary format, written as 0.0 and never read. The
    ascii columns are the other fields in the same order, with ``state``
    spread over Var1..VarD. Indexing rows of this dtype yields records
    whose fields read as attributes (``row.weight``).
    """
    return np.dtype((np.record, [
        ("process_id", "<i4"),
        ("dr_stage", "<i4"),
        ("mean_accept_rate", "<f8"),
        ("adaptation_measure", "<f8"),
        ("reserved", "<f8"),
        ("burnin_loc", "<i8"),
        ("weight", "<i8"),
        ("logf", "<f8"),
        ("state", "<f8", (ndim,)),
    ]))


# The row fields that carry data, in ascii column order.
_ROW_FIELDS = tuple(name for name in chain_row_dtype(1).names if name != "reserved")


def _chain_header(ndim: int) -> list[str]:
    return list(CHAIN_COLUMNS) + [f"Var{i + 1}" for i in range(ndim)]


class _Column:
    """A chain column: one row field, viewed over the rows the chain holds."""

    def __init__(self, field: str):
        self.field = field

    def __get__(self, chain, owner=None):
        if chain is None:
            return self
        return chain.records[self.field]

    def __set__(self, chain, values):
        chain.records[self.field] = values


class CompactChain:
    """Weighted sequence of unique accepted states, stored columnar.

    The rows live in one array of ``chain_row_dtype(ndim)`` with spare
    capacity at its end, so ``append`` is amortized O(1). Each column
    attribute (``weight``, ``states``, ...) is a view of one row field.
    """

    process_id = _Column("process_id")
    dr_stage = _Column("dr_stage")
    mean_accept_rate = _Column("mean_accept_rate")
    adaptation_measure = _Column("adaptation_measure")
    burnin_loc = _Column("burnin_loc")
    weight = _Column("weight")
    logf = _Column("logf")
    states = _Column("state")

    def __init__(
        self,
        ndim: int,
        process_id=(),
        dr_stage=(),
        mean_accept_rate=(),
        adaptation_measure=(),
        burnin_loc=(),
        weight=(),
        logf=(),
        states=(),
        truncated: bool = False,
    ):
        ndim = int(ndim)
        records = np.zeros(np.size(weight), chain_row_dtype(ndim))
        columns = (
            process_id, dr_stage, mean_accept_rate, adaptation_measure, burnin_loc,
            weight, logf, np.asarray(states, dtype=float).reshape(-1, ndim),
        )
        for name, values in zip(_ROW_FIELDS, columns):
            records[name] = values
        self._hold(records, truncated)

    @classmethod
    def _of_records(cls, records: np.ndarray, truncated: bool = False) -> "CompactChain":
        chain = cls.__new__(cls)
        chain._hold(records, truncated)
        return chain

    def _hold(self, records: np.ndarray, truncated: bool) -> None:
        if np.any(records["weight"] < 1):
            raise UsageError("chain row weights must be >= 1")
        self.ndim = records.dtype["state"].shape[0]
        self._buf = records
        self._n = records.size
        self.truncated = truncated

    @property
    def records(self) -> np.ndarray:
        """The rows held, as one array of ``chain_row_dtype(ndim)``."""
        return self._buf[: self._n]

    def append(self, process_id, dr_stage, mean_accept_rate, adaptation_measure,
               burnin_loc, weight, logf, state) -> None:
        """Add one row at the end; the spare capacity doubles when full."""
        n = self._n
        if n == self._buf.size:
            grown = np.zeros(max(2 * n, 64), self._buf.dtype)
            grown[:n] = self._buf
            self._buf = grown
        self._buf[n] = (process_id, dr_stage, mean_accept_rate, adaptation_measure, 0.0,
                        burnin_loc, weight, logf, state)
        self._n = n + 1

    @property
    def header(self) -> list[str]:
        return _chain_header(self.ndim)

    @property
    def n_rows(self) -> int:
        return self._n

    @property
    def total_weight(self) -> int:
        return int(self.weight.sum())

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other):
        if not isinstance(other, CompactChain):
            return NotImplemented
        return self.ndim == other.ndim and all(
            np.array_equal(self.records[name], other.records[name]) for name in _ROW_FIELDS
        )

    def sliced(self, n_rows: int) -> "CompactChain":
        return CompactChain._of_records(self.records[:n_rows].copy())


_CHAIN_HEADER = struct.Struct("<IIQ")  # format version, ndim, row count


def _ascii_format(ndim: int) -> str:
    """The %-format of one ascii chain line: ints as ``%d``, floats as fmt_float."""
    return "%d,%d,%.17g,%.17g,%d,%d,%.17g" + ",%.17g" * ndim + "\n"


def _ascii_line(fmt: str, fields: tuple, weight: int) -> str:
    """The ascii chain line of one row, given as ``row.item()``, with the given weight."""
    process_id, dr_stage, rate, measure, _, burnin_loc, _, logf, state = fields
    return fmt % (process_id, dr_stage, rate, measure, burnin_loc, weight, logf,
                  *state.tolist())


class ChainWriter:
    """Streaming chain writer; rows become durable only on flush().

    The sampler flushes right before each checkpoint so that everything a
    checkpoint refers to is already on disk. The writer also keeps exact
    byte tallies of what the chain occupies in BOTH formats so the report
    can state the compact-versus-verbose ratio without re-serializing.
    """

    def __init__(self, path: str, ndim: int, chain_format: str, encoding: str,
                 append: bool = False, initial_bytes: tuple[int, int] | None = None):
        self.path = path
        self.ndim = ndim
        self.chain_format = chain_format
        self.encoding = encoding
        self._row_size = chain_row_dtype(ndim).itemsize
        self._format = _ascii_format(ndim)
        if encoding == "ascii":
            header = ",".join(_chain_header(ndim)) + "\n"
            base = len(header.encode("utf-8"))
            mode = "a" if append else "w"
            self._fh = open(path, mode, encoding="utf-8", newline="\n")
            if not append:
                self._fh.write(header)
        else:
            base = len(CHAIN_MAGIC) + _CHAIN_HEADER.size
            if append:
                self._fh = open(path, "r+b")
                self._fh.seek(0, os.SEEK_END)
            else:
                self._fh = open(path, "wb")
                self._fh.write(CHAIN_MAGIC)
                self._fh.write(_CHAIN_HEADER.pack(FORMAT_VERSION, ndim, 0))
        self.compact_bytes, self.verbose_bytes = initial_bytes or (base, base)

    def append(self, chain: CompactChain, i: int) -> None:
        """Write row ``i`` of ``chain``: once if compact, weight times if verbose."""
        records = chain.records
        if self.encoding == "ascii":
            fields = records[i].item()
            w = fields[6]
            # Row content is pure ASCII: len(str) == byte count.
            if self.chain_format == "verbose":
                line = _ascii_line(self._format, fields, 1)
                self._fh.write(line * w)
                unit = len(line)
                self.verbose_bytes += unit * w
                # The compact twin differs only in the weight column.
                self.compact_bytes += unit - 1 + len(str(w))
            else:
                line = _ascii_line(self._format, fields, w)
                self._fh.write(line)
                unit = len(line)
                self.compact_bytes += unit
                self.verbose_bytes += (unit - len(str(w)) + 1) * w
        else:
            row = records[i : i + 1]
            w = int(row["weight"][0])
            if self.chain_format == "verbose":
                row = row.copy()
                row["weight"] = 1
                self._fh.write(row.tobytes() * w)
            else:
                self._fh.write(row.tobytes())
            self.compact_bytes += self._row_size
            self.verbose_bytes += self._row_size * w

    def flush(self) -> None:
        self._fh.flush()
        if self.encoding == "binary":
            pos = self._fh.tell()
            rows = (pos - len(CHAIN_MAGIC) - _CHAIN_HEADER.size) // self._row_size
            self._fh.seek(len(CHAIN_MAGIC) + 8)
            self._fh.write(struct.pack("<Q", rows))
            self._fh.seek(pos)
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()


def write_chain(chain: CompactChain, path: str, chain_format: str = "compact",
                encoding: str = "ascii") -> None:
    """Write a whole chain in one shot."""
    writer = ChainWriter(path, chain.ndim, chain_format, encoding)
    try:
        for i in range(chain.n_rows):
            writer.append(chain, i)
    finally:
        writer.close()


def chain_byte_sizes(chain: CompactChain, encoding: str) -> tuple[int, int]:
    """Byte sizes ``(compact, verbose)`` the chain would occupy on disk.

    One pass over the rows: a verbose ascii line is the compact line with
    its weight column set to 1, repeated weight times. Row content is pure
    ASCII, so string length equals byte length.
    """
    if encoding == "ascii":
        fmt = _ascii_format(chain.ndim)
        compact = verbose = len(",".join(chain.header)) + 1
        for fields in chain.records.tolist():
            w = fields[6]
            unit = len(_ascii_line(fmt, fields, w))
            compact += unit
            verbose += (unit - len(str(w)) + 1) * w
        return compact, verbose
    header = len(CHAIN_MAGIC) + _CHAIN_HEADER.size
    row_size = chain_row_dtype(chain.ndim).itemsize
    return header + chain.n_rows * row_size, header + chain.total_weight * row_size


def chain_byte_size(chain: CompactChain, chain_format: str, encoding: str) -> int:
    """Byte size the chain would occupy on disk in the given format."""
    return chain_byte_sizes(chain, encoding)[chain_format == "verbose"]


def read_chain(path: str) -> CompactChain:
    """Read a chain file, auto-detecting encoding from its magic bytes.

    Verbose files are re-compacted on read. A truncated final row is
    dropped and flagged via the returned chain's ``truncated`` attribute.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(CHAIN_MAGIC))
    if head == CHAIN_MAGIC:
        records, truncated = _binary_records(path)
    else:
        records, truncated = _ascii_records(path)
    return CompactChain._of_records(_merge_repeats(records), truncated)


def _merge_repeats(records: np.ndarray) -> np.ndarray:
    """Merge each row into the row before it when logf and state are equal.

    This is the inverse of the verbose expansion. Merged runs keep their
    first row, with the run's summed weight.
    """
    logf, states = records["logf"], records["state"]
    first = np.ones(records.size, dtype=bool)
    first[1:] = (logf[1:] != logf[:-1]) | np.any(states[1:] != states[:-1], axis=1)
    starts = np.flatnonzero(first)
    merged = records[starts]
    if starts.size:
        merged["weight"] = np.add.reduceat(records["weight"], starts)
    return merged


# Ascii chain lines split and converted at once; it bounds the memory that
# the split cells take while a file is read.
_PARSE_LINES = 2048


def _ascii_records(path: str) -> tuple[np.ndarray, bool]:
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        content = fh.read()
    lines = content.split("\n")
    truncated = not content.endswith("\n")
    # The last element is either "" (complete final line) or a partial
    # line cut off by an interrupt; both are dropped.
    lines.pop()
    if not lines:
        raise ParseError(f"{path}:1: no complete chain header")
    header = lines[0].split(",")
    ndim = len(header) - len(CHAIN_COLUMNS)
    if ndim < 1 or header[: len(CHAIN_COLUMNS)] != list(CHAIN_COLUMNS):
        raise ParseError(f"{path}:1: unrecognized chain header")
    records = np.zeros(len(lines) - 1, chain_row_dtype(ndim))
    for start in range(1, len(lines), _PARSE_LINES):
        chunk = lines[start : start + _PARSE_LINES]
        try:
            records[start - 1 : start - 1 + len(chunk)] = _parse_ascii_lines(chunk, ndim)
        except (ValueError, OverflowError):
            # Parse line by line to name the first malformed one.
            for lineno, line in enumerate(chunk, start=start + 1):
                try:
                    _parse_ascii_lines([line], ndim)
                except (ValueError, OverflowError) as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
            raise
    return records, truncated


def _parse_ascii_lines(lines: list[str], ndim: int) -> np.ndarray:
    """Chain records from ascii chain lines; ValueError if one is malformed."""
    cells = [line.split(",") for line in lines]
    width = len(CHAIN_COLUMNS) + ndim
    if any(len(row) != width for row in cells):
        raise ValueError("wrong column count")
    table = np.array(cells, dtype=float).reshape(len(cells), width)
    records = np.zeros(len(cells), chain_row_dtype(ndim))
    for j, name in enumerate(_ROW_FIELDS[:-1]):
        if records.dtype[name].kind == "i":
            # int() rejects a fractional value that a float cast would keep.
            records[name] = [int(row[j]) for row in cells]
        else:
            records[name] = table[:, j]
    records["state"] = table[:, len(CHAIN_COLUMNS):]
    return records


def _binary_records(path: str) -> tuple[np.ndarray, bool]:
    with open(path, "rb") as fh:
        blob = fh.read()
    header_len = len(CHAIN_MAGIC) + _CHAIN_HEADER.size
    if len(blob) < header_len:
        raise ParseError(f"{path}: truncated binary header")
    version, ndim, _count = _CHAIN_HEADER.unpack_from(blob, len(CHAIN_MAGIC))
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported chain format version {version}")
    dtype = chain_row_dtype(ndim)
    n_complete, remainder = divmod(len(blob) - header_len, dtype.itemsize)
    return np.frombuffer(blob, dtype, n_complete, header_len), remainder != 0


# ---------------------------------------------------------------------------
# Simulation spec echo (shared by the restart header and the report file)


def _floats_text(values) -> str:
    return ",".join(fmt_float(v) for v in values)


def spec_value_to_text(spec: SimSpec, name: str, kind: str) -> str:
    value = getattr(spec, name)
    if kind == "point":
        return _floats_text(value)
    if kind == "window":
        return "none" if value is None else _floats_text(value)
    if kind == "float":
        return fmt_float(value)
    return str(value)


def spec_text_to_value(kind: str, text: str):
    if kind in ("int", "u64"):
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "point":
        return np.array([float(v) for v in text.split(",")], dtype=float)
    if kind == "window":
        if text == "none":
            return None
        lo, hi = text.split(",")
        return (float(lo), float(hi))
    return text


def spec_echo_lines(spec: SimSpec, with_provenance: bool = False) -> list[str]:
    lines = []
    for name, kind in SIMSPEC_FIELDS:
        text = spec_value_to_text(spec, name, kind)
        if with_provenance:
            lines.append(f"{name} = {text}  # {spec.provenance.get(name, 'user')}")
        else:
            lines.append(f"{name} = {text}")
    return lines


def spec_from_echo(pairs: dict, provenance: dict | None = None) -> SimSpec:
    kwargs = {}
    for name, kind in SIMSPEC_FIELDS:
        if name not in pairs:
            raise ParseError(f"spec echo is missing field {name!r}")
        kwargs[name] = spec_text_to_value(kind, pairs[name])
    return SimSpec(provenance=dict(provenance or {}), **kwargs)


# ---------------------------------------------------------------------------
# Restart checkpoints


# (name, kind) of every checkpoint field, in record order; this one table
# drives the ascii and binary codecs and RestartCheckpoint equality. Kinds:
#   section  u32; in ascii it heads the record as "[checkpoint N]"
#   i32, u64, f64  scalars (ascii reals at 17 significant digits)
#   vector   ndim f64 values (ascii: comma-separated)
#   sym      symmetric ndim x ndim matrix as its ndim*(ndim+1)/2 upper
#            triangle values, row by row (ascii key "<name>_upper")
#   rngs     u32 stream count, then per stream: u64 state, u64 stream id,
#            u8 has-cache flag, f64 Box-Muller cache (0.0 when absent);
#            ascii: "rng_count = K" then "rng_i = state,stream,cache|none"
CHECKPOINT_FIELDS = (
    ("checkpoint_index", "section"),
    ("iteration", "u64"),
    ("rows_emitted", "u64"),
    ("measure", "f64"),
    ("pending_weight", "u64"),
    ("current_logf", "f64"),
    ("current_state", "vector"),
    ("live_dr_stage", "i32"),
    ("live_process_id", "i32"),
    ("rng_states", "rngs"),
    ("scale", "f64"),
    ("epsilon", "f64"),
    ("eps_rel", "f64"),
    ("dr_scale", "f64"),
    ("sample_count", "u64"),
    ("adaptation_count", "u64"),
    ("mean", "vector"),
    ("cov", "sym"),
    ("scatter", "sym"),
)

_SCALARS = {kind: struct.Struct(fmt) for kind, fmt in
            (("section", "<I"), ("i32", "<i"), ("u64", "<Q"), ("f64", "<d"))}
_ARRAY_KINDS = ("vector", "sym")
_RNG_RECORD = struct.Struct("<QQBd")


@dataclass
class RestartCheckpoint:
    """Everything needed to continue a run exactly as if never stopped."""

    checkpoint_index: int
    iteration: int
    rows_emitted: int
    measure: float
    rng_states: list[tuple[int, int, float | None]]
    pending_weight: int
    current_logf: float
    current_state: np.ndarray
    live_dr_stage: int
    live_process_id: int
    mean: np.ndarray
    cov: np.ndarray
    scatter: np.ndarray
    scale: float
    epsilon: float
    eps_rel: float
    dr_scale: float
    sample_count: int
    adaptation_count: int

    def __eq__(self, other):
        if not isinstance(other, RestartCheckpoint):
            return NotImplemented
        for name, kind in CHECKPOINT_FIELDS:
            a, b = getattr(self, name), getattr(other, name)
            if not (np.array_equal(a, b) if kind in _ARRAY_KINDS else a == b):
                return False
        return True


def checkpoint_proposal(ck: RestartCheckpoint) -> ProposalState:
    """Rebuild the proposal from a checkpoint, bit-identical to the run's.

    The checkpointed epsilon already factorized, so ``factorize`` succeeds
    on its first try and keeps it.
    """
    return factorize(ProposalState(
        mean=ck.mean.copy(),
        scatter=ck.scatter.copy(),
        cov=ck.cov.copy(),
        chol_lower=None,
        chol_inv=None,
        chol_logdet=0.0,
        scale=ck.scale,
        epsilon=ck.epsilon,
        eps_rel=ck.eps_rel,
        dr_scale=ck.dr_scale,
        sample_count=ck.sample_count,
        adaptation_count=ck.adaptation_count,
    ))


def _triu_pack(mat: np.ndarray) -> np.ndarray:
    i, j = np.triu_indices(mat.shape[0])
    return mat[i, j]


def _triu_unpack(flat: np.ndarray, ndim: int) -> np.ndarray:
    mat = np.zeros((ndim, ndim))
    i, j = np.triu_indices(ndim)
    mat[i, j] = flat
    mat[j, i] = flat
    return mat


def _rng_state_text(state: tuple[int, int, float | None]) -> str:
    s, stream, cache = state
    cache_text = "none" if cache is None else fmt_float(cache)
    return f"{s},{stream},{cache_text}"


def _rng_state_parse(text: str) -> tuple[int, int, float | None]:
    s, stream, cache = text.split(",")
    return (int(s), int(stream), None if cache == "none" else float(cache))


def _field_text(name: str, kind: str, value) -> list[str]:
    """The ascii lines of one checkpoint field."""
    if kind == "section":
        return [f"[checkpoint {value}]"]
    if kind == "rngs":
        return [f"rng_count = {len(value)}"] + [
            f"rng_{i} = {_rng_state_text(st)}" for i, st in enumerate(value, start=1)
        ]
    if kind == "sym":
        return [f"{name}_upper = {_floats_text(_triu_pack(value))}"]
    if kind == "vector":
        return [f"{name} = {_floats_text(value)}"]
    return [f"{name} = {fmt_float(value) if kind == 'f64' else value}"]


def _field_parse(name: str, kind: str, pairs: dict, ndim: int):
    """One checkpoint field from the key/value pairs of an ascii record.

    The record's section header supplies ``pairs[name]`` for the section.
    """
    if kind == "rngs":
        count = int(pairs["rng_count"])
        return [_rng_state_parse(pairs[f"rng_{i}"]) for i in range(1, count + 1)]
    if kind == "sym":
        return _triu_unpack(spec_text_to_value("point", pairs[f"{name}_upper"]), ndim)
    if kind == "vector":
        return spec_text_to_value("point", pairs[name])
    return float(pairs[name]) if kind == "f64" else int(pairs[name])


def _field_pack(kind: str, value) -> bytes:
    """The binary bytes of one checkpoint field."""
    if kind == "rngs":
        return struct.pack("<I", len(value)) + b"".join(
            _RNG_RECORD.pack(s, stream, cache is not None, cache or 0.0)
            for s, stream, cache in value
        )
    if kind in _ARRAY_KINDS:
        flat = _triu_pack(value) if kind == "sym" else value
        return np.asarray(flat, dtype="<f8").tobytes()
    return _SCALARS[kind].pack(value)


def _field_unpack(kind: str, payload: bytes, off: int, ndim: int):
    """One checkpoint field read from ``payload`` at ``off``: (value, next off)."""
    if kind == "rngs":
        (count,) = struct.unpack_from("<I", payload, off)
        off += 4
        states = []
        for _ in range(count):
            s, stream, has_cache, cache = _RNG_RECORD.unpack_from(payload, off)
            states.append((s, stream, cache if has_cache else None))
            off += _RNG_RECORD.size
        return states, off
    if kind in _ARRAY_KINDS:
        size = ndim if kind == "vector" else ndim * (ndim + 1) // 2
        flat = np.frombuffer(payload, "<f8", size, off).astype(float)
        value = _triu_unpack(flat, ndim) if kind == "sym" else flat
        return value, off + 8 * size
    scalar = _SCALARS[kind]
    return scalar.unpack_from(payload, off)[0], off + scalar.size


class RestartWriter:
    """Appends checkpoint records; each record is flushed immediately.

    IO errors here are fatal: without a durable checkpoint the run could
    not honor its restart guarantee.
    """

    def __init__(self, path: str, spec: SimSpec, append: bool = False):
        self.path = path
        self.encoding = spec.file_encoding
        if self.encoding == "ascii":
            mode = "a" if append else "w"
            self._fh = open(path, mode, encoding="utf-8", newline="\n")
            if not append:
                self._fh.write("# dramforge restart v1\n[spec]\n")
                for line in spec_echo_lines(spec):
                    self._fh.write(line + "\n")
        else:
            if append:
                self._fh = open(path, "r+b")
                self._fh.seek(0, os.SEEK_END)
            else:
                self._fh = open(path, "wb")
                echo = "\n".join(spec_echo_lines(spec)).encode("utf-8")
                self._fh.write(RESTART_MAGIC)
                self._fh.write(struct.pack("<III", FORMAT_VERSION, spec.ndim, len(echo)))
                self._fh.write(echo)

    def append(self, ck: RestartCheckpoint) -> None:
        if self.encoding == "ascii":
            lines = [
                line
                for name, kind in CHECKPOINT_FIELDS
                for line in _field_text(name, kind, getattr(ck, name))
            ]
            self._fh.write("\n".join(lines) + "\n")
        else:
            payload = b"".join(
                _field_pack(kind, getattr(ck, name)) for name, kind in CHECKPOINT_FIELDS
            )
            self._fh.write(struct.pack("<I", len(payload)) + payload)
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def write_restart_checkpoint(ck: RestartCheckpoint, path: str, spec: SimSpec) -> None:
    """Append one checkpoint record, creating the file if needed."""
    writer = RestartWriter(path, spec, append=os.path.exists(path))
    try:
        writer.append(ck)
    finally:
        writer.close()


def read_restart(path: str) -> tuple[SimSpec, list[RestartCheckpoint]]:
    """Read the spec echo and all complete checkpoint records."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == RESTART_MAGIC:
        return _read_restart_binary(path)
    return _read_restart_ascii(path)


def _read_restart_ascii(path: str) -> tuple[SimSpec, list[RestartCheckpoint]]:
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        content = fh.read()
    lines = content.split("\n")
    if not content.endswith("\n"):
        # Partial final line from an interrupt; the block it belongs to
        # will be dropped below for missing keys.
        lines.pop()
    blocks: list[tuple[str, dict]] = []
    current: dict | None = None
    name = ""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"{path}:{lineno}: malformed section header")
            name = line[1:-1]
            current = {}
            blocks.append((name, current))
        elif current is not None and "=" in line:
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
        else:
            raise ParseError(f"{path}:{lineno}: unexpected line {line!r}")
    if not blocks or blocks[0][0] != "spec":
        raise ParseError(f"{path}: missing [spec] section")
    spec = spec_from_echo(blocks[0][1])
    checkpoints = []
    for bi, (name, pairs) in enumerate(blocks[1:], start=1):
        if not name.startswith("checkpoint "):
            raise ParseError(f"{path}: unexpected section [{name}]")
        pairs["checkpoint_index"] = name.partition(" ")[2]
        try:
            checkpoints.append(RestartCheckpoint(**{
                field: _field_parse(field, kind, pairs, spec.ndim)
                for field, kind in CHECKPOINT_FIELDS
            }))
        except (KeyError, ValueError, IndexError):
            # A truncated trailing block is expected after an interrupt.
            if bi == len(blocks) - 1:
                break
            raise ParseError(f"{path}: malformed checkpoint block [{name}]") from None
    return spec, checkpoints


def _read_restart_binary(path: str) -> tuple[SimSpec, list[RestartCheckpoint]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise ParseError(f"{path}: truncated restart header")
    version, ndim, echo_len = struct.unpack_from("<III", blob, 4)
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported restart format version {version}")
    off = 16
    echo = blob[off : off + echo_len].decode("utf-8")
    off += echo_len
    pairs = {}
    for line in echo.split("\n"):
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    spec = spec_from_echo(pairs)
    checkpoints = []
    while off + 4 <= len(blob):
        (length,) = struct.unpack_from("<I", blob, off)
        if off + 4 + length > len(blob):
            break  # truncated trailing record
        payload = blob[off + 4 : off + 4 + length]
        values, pos = {}, 0
        try:
            for name, kind in CHECKPOINT_FIELDS:
                values[name], pos = _field_unpack(kind, payload, pos, ndim)
        except (struct.error, ValueError):
            break
        checkpoints.append(RestartCheckpoint(**values))
        off += 4 + length
    return spec, checkpoints


def rewrite_restart(path: str, spec: SimSpec, checkpoints: list[RestartCheckpoint]) -> None:
    """Replace the restart file atomically: an interrupt leaves the old or the new one."""
    tmp = path + ".tmp"
    writer = RestartWriter(tmp, spec)
    try:
        for ck in checkpoints:
            writer.append(ck)
    finally:
        writer.close()
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Sample, report, and progress files


def write_sample(refined, path: str) -> None:
    """Refined sample as `logFunc,var1..varD` rows."""
    states = np.asarray(refined.states, dtype=float)
    logf = np.asarray(refined.logf, dtype=float)
    ndim = states.shape[1] if states.ndim == 2 else 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("logFunc," + ",".join(f"var{i + 1}" for i in range(ndim)) + "\n")
        for lf, row in zip(logf, states):
            fh.write(fmt_float(lf) + "," + ",".join(fmt_float(v) for v in row) + "\n")


def read_sample(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Returns (states, logf) from a sample file."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines or not lines[0].startswith("logFunc"):
        raise ParseError(f"{path}:1: not a sample file")
    ndim = len(lines[0].split(",")) - 1
    logf, states = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != ndim + 1:
            raise ParseError(f"{path}:{lineno}: wrong column count")
        logf.append(float(parts[0]))
        states.append([float(v) for v in parts[1:]])
    return np.array(states, dtype=float).reshape(-1, ndim), np.array(logf, dtype=float)


@dataclass
class ParallelStats:
    """Fork-join post-processing block for the report file."""

    mu: float
    fitted_p: float
    fit_distance: float
    optimal_workers: int
    speedup: list[float]  # S(1..N)


@dataclass
class ReportStats:
    """Everything echoed and summarized in the report file."""

    spec: SimSpec
    accepted_count: int
    mean_accept_rate: float
    burnin_loc: int
    iac_history: list[float]
    ess: float
    compact_bytes: int
    verbose_bytes: int
    size_ratio: float
    parallel: ParallelStats | None = None


def write_report(stats: ReportStats, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# dramforge report v1\n[spec]\n")
        for line in spec_echo_lines(stats.spec, with_provenance=True):
            fh.write(line + "\n")
        fh.write("[stats]\n")
        fh.write(f"accepted_count = {stats.accepted_count}\n")
        fh.write(f"mean_accept_rate = {fmt_float(stats.mean_accept_rate)}\n")
        fh.write(f"burnin_loc = {stats.burnin_loc}\n")
        iac = ",".join(fmt_float(v) for v in stats.iac_history) or "none"
        fh.write(f"iac_history = {iac}\n")
        fh.write(f"ess = {fmt_float(stats.ess)}\n")
        fh.write(f"compact_bytes = {stats.compact_bytes}\n")
        fh.write(f"verbose_bytes = {stats.verbose_bytes}\n")
        fh.write(f"size_ratio = {fmt_float(stats.size_ratio)}\n")
        if stats.parallel is not None:
            p = stats.parallel
            fh.write("[parallelism]\n")
            fh.write(f"MeanAcceptancePerCandidate = {fmt_float(p.mu)}\n")
            fh.write(f"FittedGeometricP = {fmt_float(p.fitted_p)}\n")
            fh.write(f"FitDistanceTV = {fmt_float(p.fit_distance)}\n")
            fh.write(f"PredictedOptimalWorkers = {p.optimal_workers}\n")
            for n, s in enumerate(p.speedup, start=1):
                fh.write(f"PredictedSpeedup({n}) = {fmt_float(s)}\n")


def read_report(path: str) -> ReportStats:
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = fh.read().split("\n")
    section = ""
    spec_pairs: dict = {}
    provenance: dict = {}
    stats_pairs: dict = {}
    par_pairs: dict = {}
    speedup: dict[int, float] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line[1:-1]
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section == "spec":
            text, _, prov = value.partition("#")
            spec_pairs[key] = text.strip()
            provenance[key] = prov.strip() or "user"
        elif section == "stats":
            stats_pairs[key] = value
        elif section == "parallelism":
            if key.startswith("PredictedSpeedup("):
                n = int(key[len("PredictedSpeedup(") : -1])
                speedup[n] = float(value)
            else:
                par_pairs[key] = value
        else:
            raise ParseError(f"{path}:{lineno}: line outside any section")
    spec = spec_from_echo(spec_pairs, provenance)
    iac_text = stats_pairs.get("iac_history", "none")
    iac = [] if iac_text == "none" else [float(v) for v in iac_text.split(",")]
    parallel = None
    if par_pairs:
        parallel = ParallelStats(
            mu=float(par_pairs["MeanAcceptancePerCandidate"]),
            fitted_p=float(par_pairs["FittedGeometricP"]),
            fit_distance=float(par_pairs["FitDistanceTV"]),
            optimal_workers=int(par_pairs["PredictedOptimalWorkers"]),
            speedup=[speedup[n] for n in sorted(speedup)],
        )
    return ReportStats(
        spec=spec,
        accepted_count=int(stats_pairs["accepted_count"]),
        mean_accept_rate=float(stats_pairs["mean_accept_rate"]),
        burnin_loc=int(stats_pairs["burnin_loc"]),
        iac_history=iac,
        ess=float(stats_pairs["ess"]),
        compact_bytes=int(stats_pairs["compact_bytes"]),
        verbose_bytes=int(stats_pairs["verbose_bytes"]),
        size_ratio=float(stats_pairs["size_ratio"]),
        parallel=parallel,
    )


class ProgressWriter:
    def __init__(self, path: str, append: bool = False):
        self._fh = open(path, "a" if append else "w", encoding="utf-8", newline="\n")
        if not append:
            self._fh.write("iter,accepted,meanAccRate,adaptationMeasure,elapsed_seconds\n")

    def line(self, iteration: int, accepted: int, rate: float, measure: float,
             elapsed: float) -> None:
        self._fh.write(
            f"{iteration},{accepted},{fmt_float(rate)},{fmt_float(measure)},"
            f"{elapsed:.3f}\n"
        )
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def inspect_outputs(spec: SimSpec) -> tuple[str, CompactChain | None]:
    """Classify existing output for a prefix: absent, incomplete, complete."""
    path = output_paths(spec.output_prefix, spec.file_encoding)["chain"]
    if not os.path.exists(path):
        return "absent", None
    chain = read_chain(path)
    if chain.total_weight >= spec.chain_size:
        return "complete", chain
    return "incomplete", chain
