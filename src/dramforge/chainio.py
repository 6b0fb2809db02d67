"""Readers and writers for the five output files, plus checkpoint records.

Files per run prefix: chain (compact or verbose, ascii or binary),
restart, sample, report, progress. ``chain_row_dtype`` is the chain
row: the binary file row and the row of ``CompactChain``, the one
in-memory row store, which the sampler appends to and the readers fill.
The restart checkpoint (``RestartCheckpoint``) and the report's sections
(``ReportStats``, ``ParallelStats``) are dataclasses whose fields carry
their codec kind, in record order; ``CHECKPOINT_FIELDS`` and
``REPORT_FIELDS`` list them. The first drives the ascii codec and
``checkpoint_dtype``, the binary record. Every ``key = value``
text (ascii restart, binary spec echo, report, CLI config) is read by
``read_sections`` and its fields by one per-kind codec.
ASCII reals carry 17 significant digits so every 64-bit float round-trips
exactly; binary layouts are little-endian and versioned by a 4-byte
magic. Writers write format version 2; readers read versions 1 and 2,
the header's version picking the layout. The chain and restart readers
tolerate a truncated final row or record, because interrupts happen
mid-write, and verbose chains are re-compacted on read. Every
comma-separated table (chain, sample, postproc exports, convergence
rows) is written by ``_format_rows``; the chain and the sample are read
by ``_parse_rows``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from .core import SIMSPEC_FIELDS, ResumeRefused, SimSpec, UsageError, codec, codec_fields

CHAIN_MAGIC = b"DRMF"
RESTART_MAGIC = b"DRRS"
FORMAT_VERSION = 2

# The binary files' headers. The chain's rows follow its header; the
# restart's spec echo, of echo_bytes bytes, and its records follow its own.
_CHAIN_HEADER = np.dtype([("magic", "S4"), ("version", "<u4"), ("ndim", "<u4"), ("rows", "<u8")])
_RESTART_HEADER = np.dtype([("magic", "S4"), ("version", "<u4"), ("ndim", "<u4"),
                            ("echo_bytes", "<u4")])

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


def _read_header(path: str, blob: bytes, header: np.dtype, what: str) -> np.void:
    """The header that starts ``blob``; ParseError if it is cut or of an unknown version."""
    if len(blob) < header.itemsize:
        raise ParseError(f"{path}: truncated {what} header")
    head = np.frombuffer(blob, header, 1)[0]
    if head["version"] not in (1, FORMAT_VERSION):
        raise ParseError(f"{path}: unsupported {what} format version {head['version']}")
    return head


def output_paths(prefix: str, encoding: str) -> dict:
    ext = "txt" if encoding == "ascii" else "bin"
    return {
        "chain": f"{prefix}_chain.{ext}",
        "restart": f"{prefix}_restart.{ext}",
        "sample": f"{prefix}_sample.txt",
        "report": f"{prefix}_report.txt",
        "progress": f"{prefix}_progress.txt",
    }


def chain_row_dtype(ndim: int, version: int = FORMAT_VERSION) -> np.dtype:
    """Layout of one chain row: a binary chain file row, and a row in memory.

    Packed little-endian fields in this order. The ascii columns are the
    same fields in the same order, with ``state`` spread over Var1..VarD.
    Indexing rows of this dtype yields records whose fields read as
    attributes (``row.weight``). A version-1 binary row has one more f64,
    ``reserved``, after ``adaptation_measure``; it was written as 0.0 and
    is never read.
    """
    fields = [
        ("process_id", "<i4"),
        ("dr_stage", "<i4"),
        ("mean_accept_rate", "<f8"),
        ("adaptation_measure", "<f8"),
        ("burnin_loc", "<i8"),
        ("weight", "<i8"),
        ("logf", "<f8"),
        ("state", "<f8", (ndim,)),
    ]
    if version == 1:
        fields.insert(4, ("reserved", "<f8"))
    return np.dtype((np.record, fields))


# The row fields, in ascii column order.
_ROW_FIELDS = chain_row_dtype(1).names


def _chain_header(ndim: int) -> list[str]:
    return list(CHAIN_COLUMNS) + [f"Var{i + 1}" for i in range(ndim)]


def _column(field: str) -> property:
    """A chain column: one row field, viewed over the rows the chain holds."""

    def set_column(chain, values):
        chain.records[field] = values

    return property(lambda chain: chain.records[field], set_column)


# Rows formatted by one %-format; it bounds the text held at once when a
# whole chain or sample is written or sized, and the rows a chain keeps
# pending as Python values.
_FORMAT_ROWS = 4096


class CompactChain:
    """Weighted sequence of unique accepted states, stored columnar.

    The rows live in one array of ``chain_row_dtype(ndim)`` with spare
    capacity at its end. ``append`` keeps a row's values pending, column
    by column: one Python list per scalar field and one flat list of state
    values. The first read of the rows (``records``, a column, ``==``,
    ``sliced``), or the ``_FORMAT_ROWS``-th pending row, packs them into
    the array, one column assignment per field, so the array grows once
    per batch of appends and the pending lists stay short. Each column
    attribute (``weight``, ``states``, ...) is a view of one row field.
    """

    process_id = _column("process_id")
    dr_stage = _column("dr_stage")
    mean_accept_rate = _column("mean_accept_rate")
    adaptation_measure = _column("adaptation_measure")
    burnin_loc = _column("burnin_loc")
    weight = _column("weight")
    logf = _column("logf")
    states = _column("state")

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
        self._pending = tuple([] for _ in _ROW_FIELDS)  # one list per row field
        self.truncated = truncated

    @property
    def records(self) -> np.ndarray:
        """The rows held, as one array of ``chain_row_dtype(ndim)``."""
        if self._pending[0]:
            self._pack()
        return self._buf[: self._n]

    def append(self, process_id, dr_stage, mean_accept_rate, adaptation_measure,
               burnin_loc, weight, logf, state) -> int:
        """Add one row at the end and return its index.

        The row keeps a copy of ``state``'s values, so the caller may
        reuse its array.
        """
        pids, stages, rates, measures, burnins, weights, logfs, states = self._pending
        pids.append(process_id)
        stages.append(dr_stage)
        rates.append(mean_accept_rate)
        measures.append(adaptation_measure)
        burnins.append(burnin_loc)
        weights.append(weight)
        logfs.append(logf)
        states += state.tolist()
        if len(pids) == _FORMAT_ROWS:
            self._pack()  # moves the rows to _n, leaving pids empty
        return self._n + len(pids) - 1

    def _pack(self) -> None:
        """Move the pending rows into the row array; its capacity doubles when full."""
        pending, n = self._pending, self._n
        end = n + len(pending[0])
        if end > self._buf.size:
            grown = np.zeros(max(2 * end, 64), self._buf.dtype)
            grown[:n] = self._buf[:n]
            self._buf = grown
        block = self._buf[n:end]
        for name, column in zip(_ROW_FIELDS[:-1], pending):
            block[name] = column
        block["state"] = np.reshape(pending[-1], (end - n, self.ndim))
        self._n = end
        for column in pending:
            column.clear()

    @property
    def header(self) -> list[str]:
        return _chain_header(self.ndim)

    @property
    def n_rows(self) -> int:
        return self._n + len(self._pending[0])

    @property
    def total_weight(self) -> int:
        return int(self.weight.sum())

    def __len__(self) -> int:
        return self.n_rows

    def __eq__(self, other):
        if not isinstance(other, CompactChain):
            return NotImplemented
        return self.ndim == other.ndim and all(
            np.array_equal(self.records[name], other.records[name]) for name in _ROW_FIELDS
        )

    def sliced(self, n_rows: int) -> "CompactChain":
        return CompactChain._of_records(self.records[:n_rows].copy())


def _ascii_format(ndim: int) -> str:
    """The %-format of one ascii chain line: ints as ``%d``, floats as fmt_float."""
    return "%d,%d,%.17g,%.17g,%d,%d,%.17g" + ",%.17g" * ndim + "\n"


def _format_rows(row_format: str, columns: list[list]) -> str:
    """The text of one ``row_format`` line per row, the rows given column by column.

    Each column is a list with one value per row. All rows go through one
    %-format, over the cells flattened row by row.
    """
    width, n = len(columns), len(columns[0])
    flat = [None] * (n * width)
    for j, column in enumerate(columns):
        flat[j::width] = column
    return (row_format * n) % tuple(flat)


# 10**1 .. 10**18: a weight w >= 1 has one digit more than the number of these <= w.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _ascii_block(records: np.ndarray, weight_one: bool) -> tuple[bytes, int, int]:
    """The ascii text of up to ``_FORMAT_ROWS`` rows, and its (compact, verbose) sizes.

    A line carries the row's weight, or 1 with ``weight_one``: the compact
    line, or the verbose line that is written weight times. The two differ
    only in the weight column, so both sizes follow from the text's
    newline offsets and the weights' digit counts.
    """
    n = records.size
    weights = records["weight"]
    weight_list = weights.tolist()
    # The columns in line order: the fields before the weight, the weight,
    # logf, then one column per state coordinate.
    columns = [records[name].tolist() for name in _ROW_FIELDS[:5]]
    columns += [[1] * n if weight_one else weight_list, records["logf"].tolist(),
                *records["state"].T.tolist()]
    text = _format_rows(_ascii_format(records.dtype["state"].shape[0]), columns).encode("ascii")
    lengths = np.diff(np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")), prepend=-1)
    # The weight column's width beyond the verbose line's "1".
    wider = np.searchsorted(_POW10, weights, side="right")
    units = lengths if weight_one else lengths - wider
    # The verbose size in Python ints: a product may not fit in 64 bits.
    verbose = sum(map(mul, units.tolist(), weight_list))
    return text, int(units.sum() + wider.sum()), verbose


class ChainWriter:
    """Chain writer; rows are formatted and written at each flush().

    ``append`` marks a row to write, and ``flush`` writes every marked row
    in one pass. The sampler flushes right before each checkpoint so that
    everything a checkpoint refers to is already on disk; ``close``
    flushes too. The writer also keeps exact byte tallies of what the
    chain occupies in BOTH formats, so that each checkpoint stores them
    and the report states the compact-versus-verbose ratio without
    re-serializing; a resumed writer starts from a checkpoint's tallies.
    """

    def __init__(self, path: str, ndim: int, chain_format: str, encoding: str,
                 append: bool = False, initial_bytes: tuple[int, int] | None = None):
        self.path = path
        self.ndim = ndim
        self.chain_format = chain_format
        self.encoding = encoding
        self._row_size = chain_row_dtype(ndim).itemsize
        # Rows lo..hi-1 of chain are marked and not yet written.
        self._chain, self._lo, self._hi = None, 0, 0
        if encoding == "ascii":
            header = (",".join(_chain_header(ndim)) + "\n").encode("ascii")
        else:
            header = np.array((CHAIN_MAGIC, FORMAT_VERSION, ndim, 0), _CHAIN_HEADER).tobytes()
        # Not mode "a": a binary flush seeks back to rewrite the header's row count.
        self._fh = open(path, "r+b" if append else "wb")
        if append:
            self._fh.seek(0, os.SEEK_END)
        else:
            self._fh.write(header)
        self.compact_bytes, self.verbose_bytes = initial_bytes or (len(header), len(header))

    def append(self, chain: CompactChain, i: int) -> None:
        """Mark row ``i`` of ``chain`` to write at the next flush.

        The row is written once if compact, weight times if verbose, after
        the rows marked before it. It must not change until then.
        """
        if chain is not self._chain or i != self._hi:
            self._write_marked()
            self._chain, self._lo = chain, i
        self._hi = i + 1

    def _write_marked(self) -> None:
        if self._hi == self._lo:
            return
        records = self._chain.records
        verbose = self.chain_format == "verbose"
        for lo in range(self._lo, self._hi, _FORMAT_ROWS):
            block = records[lo : min(lo + _FORMAT_ROWS, self._hi)]
            if self.encoding == "ascii":
                text, compact, expanded = _ascii_block(block, verbose)
                if verbose:
                    text = b"".join(map(mul, text.splitlines(keepends=True),
                                        block["weight"].tolist()))
                self._fh.write(text)
            else:
                weights = block["weight"]
                compact = self._row_size * block.size
                expanded = self._row_size * int(weights.sum())
                if verbose:
                    block = np.repeat(block, weights)
                    block["weight"] = 1
                self._fh.write(block.tobytes())
            self.compact_bytes += compact
            self.verbose_bytes += expanded
        self._lo = self._hi

    def flush(self) -> None:
        self._write_marked()
        self._fh.flush()
        if self.encoding == "binary":
            pos = self._fh.tell()
            rows = (pos - _CHAIN_HEADER.itemsize) // self._row_size
            self._fh.seek(_CHAIN_HEADER.fields["rows"][1])
            self._fh.write(np.array(rows, "<u8").tobytes())
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


def prefix_byte_sizes(chain: CompactChain, encoding: str,
                      row_counts: list[int]) -> list[tuple[int, int]]:
    """The byte sizes ``(compact, verbose)`` of the chain's first ``n`` rows, for each ``n``.

    ``row_counts`` must not decrease. Each row is sized once; the ascii
    sizes come from the rows' compact lines, formatted as the writer
    formats them.
    """
    if encoding == "ascii":
        compact = verbose = len(",".join(chain.header)) + 1
    else:
        compact = verbose = _CHAIN_HEADER.itemsize
    records, lo, sizes = chain.records, 0, []
    for n in row_counts:
        if encoding == "ascii":
            for start in range(lo, n, _FORMAT_ROWS):
                _, block_compact, block_verbose = _ascii_block(
                    records[start : min(start + _FORMAT_ROWS, n)], False)
                compact += block_compact
                verbose += block_verbose
        else:
            compact += records.itemsize * (n - lo)
            verbose += records.itemsize * int(records["weight"][lo:n].sum())
        lo = n
        sizes.append((compact, verbose))
    return sizes


def chain_byte_size(chain: CompactChain, chain_format: str, encoding: str) -> int:
    """Byte size the chain would occupy on disk in the given format."""
    return prefix_byte_sizes(chain, encoding, [chain.n_rows])[0][chain_format == "verbose"]


def cut_chain(path: str, sizes: tuple[int, int], chain_format: str, encoding: str) -> None:
    """Cut the chain file at ``path`` back to its first rows.

    ``sizes`` are the kept rows' byte sizes ``(compact, verbose)``, as a
    checkpoint stores them; the file is cut at the one of its format. Each
    row has one serialization, so the kept rows' bytes on disk are exactly
    what rewriting them would produce. An ascii file whose kept bytes do
    not end a line was not written by this version: ``ResumeRefused``.
    """
    cut = sizes[chain_format == "verbose"]
    if encoding == "ascii":
        with open(path, "rb") as fh:
            fh.seek(cut - 1)
            if fh.read(1) != b"\n":
                raise ResumeRefused("chain file rows were not written by this version")
    os.truncate(path, cut)


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
    return _parse_rows(path, lines[1:], chain_row_dtype(ndim), 2), truncated


def _parse_rows(path: str, lines: list[str], dtype: np.dtype, first_lineno: int) -> np.ndarray:
    """One record of ``dtype`` per comma-separated line.

    ``lines`` are the lines of ``path`` from line ``first_lineno`` on. A
    malformed line is a ParseError naming its ``path:line``, and so is a
    blank one. An int cell must spell a decimal integer: ``1.0`` and
    ``1_0`` are errors.
    """
    if not lines:
        return np.zeros(0, dtype)
    try:
        return _loadtxt(lines, dtype)
    except ValueError:
        # Parse line by line to name the first malformed one.
        for lineno, line in enumerate(lines, start=first_lineno):
            try:
                _loadtxt([line], dtype)
            except ValueError as exc:
                # Drop where loadtxt places the error: the row of its input.
                reason = str(exc).partition(" at row ")[0]
                raise ParseError(f"{path}:{lineno}: {reason}") from None
        raise


def _loadtxt(lines: list[str], dtype: np.dtype) -> np.ndarray:
    if "" in lines:
        # loadtxt would skip the line, and warn when no other is left.
        raise ValueError("blank line")
    return np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None, quotechar=None, ndmin=1)


def _binary_records(path: str) -> tuple[np.ndarray, bool]:
    with open(path, "rb") as fh:
        blob = fh.read()
    header_len = _CHAIN_HEADER.itemsize
    head = _read_header(path, blob, _CHAIN_HEADER, "chain")
    ndim, version = int(head["ndim"]), int(head["version"])
    dtype = chain_row_dtype(ndim, version)
    n_complete, remainder = divmod(len(blob) - header_len, dtype.itemsize)
    records = np.frombuffer(blob, dtype, n_complete, header_len)
    if version == 1:
        rows = np.zeros(n_complete, chain_row_dtype(ndim))
        for name in _ROW_FIELDS:
            rows[name] = records[name]
        records = rows
    return records, remainder != 0


# ---------------------------------------------------------------------------
# key = value records: the restart and report files, the binary restart's
# spec echo and the CLI config share one section reader and one field codec.


class Section(dict):
    """The ``key = value`` pairs of one ``[name]`` block, and where each was read."""

    def __init__(self, path: str, name: str, line: int):
        super().__init__()
        self.path = path
        self.name = name
        self.line = line
        self.key_lines: dict[str, int | str] = {}

    def where(self, key: str | None = None) -> str:
        """``path:line`` of ``key``, or of the section's start without it.

        A key whose line is a text (``"--set"``) was read there, not from the file.
        """
        line = self.key_lines.get(key, self.line)
        return f"{self.path}:{line}" if isinstance(line, int) else line


def read_sections(path: str, lines: list[str], implicit: str | None = None) -> list[Section]:
    """The ``[name]`` sections of ``key = value`` lines, in file order.

    Blank lines and lines starting with ``#`` or ``;`` are skipped. Lines
    before the first header form the ``implicit`` section; without one they
    are an error. A value is everything after the first ``=``, stripped, so a
    trailing ``# ...`` stays part of it. A key given twice in one section is
    an error. Errors name ``path:line``.
    """
    sections = [] if implicit is None else [Section(path, implicit, 1)]
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line[0] == "[":
            if line[-1] != "]":
                raise ParseError(f"{path}:{lineno}: malformed section header {line!r}")
            sections.append(Section(path, line[1:-1], lineno))
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"{path}:{lineno}: expected key = value, got {line!r}")
        if not sections:
            raise ParseError(f"{path}:{lineno}: key = value line outside any section")
        key = key.strip()
        if key in sections[-1]:
            raise ParseError(f"{path}:{lineno}: [{sections[-1].name}] key {key!r} repeats "
                             f"line {sections[-1].key_lines[key]}")
        sections[-1][key] = value.strip()
        sections[-1].key_lines[key] = lineno
    return sections


# The text of each field kind. A field is one "key = value" line, except:
#   section  the record's "[checkpoint N]" header
#   sym      symmetric matrix as its upper triangle, row by row, on one
#            "<key>_upper" line
#   rngs     "rng_count = K", then "rng_i = state,stream,cache|none", i = 1..K
#   series   one "<key>(i) = value" line per item, i = 1..N
# Values: int, i32 and u64 in decimal; f64 at 17 significant digits; vector,
# floats and window as comma-separated f64, where an empty floats list and a
# window of None read "none"; str as is. A matrix, read only (from a config),
# is ";"-separated rows of comma-separated f64; blank rows are skipped.
def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _window(text: str) -> tuple[float, float] | None:
    if text == "none":
        return None
    lo, hi = _floats(text)
    return (lo, hi)


def _rng_state(text: str) -> tuple[int, int, float | None]:
    s, stream, cache = text.split(",")
    return (int(s), int(stream), None if cache == "none" else float(cache))


_TEXT_PARSE = {
    "section": int, "int": int, "i32": int, "u64": int, "f64": float, "str": str,
    "vector": lambda text: np.array(_floats(text)),
    "matrix": lambda text: np.array([_floats(row) for row in text.split(";") if row.strip()],
                                    dtype=float),
    "floats": lambda text: [] if text == "none" else _floats(text),
    "window": _window,
}


def _value_text(kind: str, value) -> str:
    if kind in ("vector", "floats", "window"):
        return "none" if value is None or len(value) == 0 else ",".join(map(fmt_float, value))
    return fmt_float(value) if kind == "f64" else str(value)


def _field_text(key: str, kind: str, value) -> list[str]:
    """The lines of one field."""
    if kind == "section":
        return [f"[checkpoint {value}]"]
    if kind == "rngs":
        return [f"rng_count = {len(value)}"] + [
            f"rng_{i} = {s},{stream},{'none' if cache is None else fmt_float(cache)}"
            for i, (s, stream, cache) in enumerate(value, start=1)
        ]
    if kind == "series":
        return [f"{key}({i}) = {fmt_float(v)}" for i, v in enumerate(value, start=1)]
    if kind == "sym":
        return [f"{key}_upper = {_value_text('vector', _triu_pack(value))}"]
    return [f"{key} = {_value_text(kind, value)}"]


def _fail(pairs, key: str | None, message: str) -> ParseError:
    """A ParseError that names where ``key`` was read when ``pairs`` is a Section."""
    if isinstance(pairs, Section):
        message = f"{pairs.where(key)}: [{pairs.name}] {message}"
    return ParseError(message)


def _value(pairs, key: str, parse):
    if key not in pairs:
        raise _fail(pairs, key, f"missing key {key!r}")
    try:
        return parse(pairs[key])
    except ValueError as exc:
        raise _fail(pairs, key, f"{key} = {pairs[key]!r}: {exc}") from None


def _field_parse(key: str, kind: str, pairs, ndim: int = 0):
    """One field read from ``pairs`` (a Section, or a plain dict of texts).

    A section field reads ``pairs[key]``, which the record's reader sets
    from its header. A missing key or malformed value raises ParseError.
    """
    if kind == "rngs":
        count = _value(pairs, "rng_count", int)
        return [_value(pairs, f"rng_{i}", _rng_state) for i in range(1, count + 1)]
    if kind == "series":
        n = 0
        while f"{key}({n + 1})" in pairs:
            n += 1
        return [_value(pairs, f"{key}({i})", float) for i in range(1, n + 1)]
    if kind == "sym":
        return _value(pairs, f"{key}_upper", lambda text: _triu_unpack(_floats(text), ndim))
    return _value(pairs, key, _TEXT_PARSE[kind])


def spec_echo_lines(spec: SimSpec, with_provenance: bool = False) -> list[str]:
    lines = [line for name, kind in SIMSPEC_FIELDS
             for line in _field_text(name, kind, getattr(spec, name))]
    if with_provenance:
        return [f"{line}  # {spec.provenance.get(name, 'user')}"
                for line, (name, _) in zip(lines, SIMSPEC_FIELDS)]
    return lines


def spec_from_echo(pairs, provenance: dict | None = None) -> SimSpec:
    """The SimSpec of a spec echo's texts (a Section, or a plain dict)."""
    kwargs = {name: _field_parse(name, kind, pairs) for name, kind in SIMSPEC_FIELDS}
    try:
        return SimSpec(provenance=dict(provenance or {}), **kwargs)
    except UsageError as exc:
        raise _fail(pairs, None, str(exc)) from None


# ---------------------------------------------------------------------------
# Restart checkpoints


@dataclass
class RestartCheckpoint:
    """Everything needed to continue a run exactly as if never stopped.

    The fields are declared in record order, each with its codec kind;
    ``CHECKPOINT_FIELDS`` lists them. The last ``_V2_FIELD_COUNT``, the
    chain file's byte sizes at this checkpoint and the epsilon doublings
    so far, are not in a version-1 record: its sizes read as None and its
    count as 0.
    """

    checkpoint_index: int = codec("section")
    iteration: int = codec("u64")
    rows_emitted: int = codec("u64")
    measure: float = codec("f64")
    pending_weight: int = codec("u64")
    current_logf: float = codec("f64")
    current_state: np.ndarray = codec("vector")
    live_dr_stage: int = codec("i32")
    live_process_id: int = codec("i32")
    rng_states: list[tuple[int, int, float | None]] = codec("rngs")
    scale: float = codec("f64")
    epsilon: float = codec("f64")
    eps_rel: float = codec("f64")
    dr_scale: float = codec("f64")
    sample_count: int = codec("u64")
    adaptation_count: int = codec("u64")
    mean: np.ndarray = codec("vector")
    cov: np.ndarray = codec("sym")
    scatter: np.ndarray = codec("sym")
    chain_compact_bytes: int | None = codec("u64", None)
    chain_verbose_bytes: int | None = codec("u64", None)
    eps_inflations: int = codec("u64", 0)

    def __eq__(self, other):
        if not isinstance(other, RestartCheckpoint):
            return NotImplemented
        for name, kind in CHECKPOINT_FIELDS:
            a, b = getattr(self, name), getattr(other, name)
            if not (np.array_equal(a, b) if kind in _ARRAY_KINDS else a == b):
                return False
        return True


# (name, kind) of every checkpoint field, in record order; this one table
# drives the ascii codec (the text kinds above), the binary record
# (``checkpoint_dtype``) and RestartCheckpoint equality.
CHECKPOINT_FIELDS = codec_fields(RestartCheckpoint)
_V2_FIELD_COUNT = 3


def _checkpoint_fields(version: int) -> tuple:
    """The CHECKPOINT_FIELDS a record of format ``version`` holds."""
    return CHECKPOINT_FIELDS if version == FORMAT_VERSION else CHECKPOINT_FIELDS[:-_V2_FIELD_COUNT]


_ARRAY_KINDS = ("vector", "sym")

# One stream of a binary checkpoint; ``cache`` is 0.0 when ``has_cache`` is 0.
_RNG_DTYPE = np.dtype([("state", "<u8"), ("stream", "<u8"), ("has_cache", "u1"),
                       ("cache", "<f8")])


def checkpoint_dtype(ndim: int, n_streams: int, version: int = FORMAT_VERSION) -> np.dtype:
    """Layout of one binary restart record, the one definition of its bytes.

    Packed little-endian fields: the u32 ``length`` of the rest of the
    record, then the ``CHECKPOINT_FIELDS`` of format ``version`` in order.
    Scalars take their kind's type (``section`` a u32, ``i32``, ``u64``,
    ``f64``), a ``vector`` ndim f64 values, and a ``sym`` matrix the
    ndim*(ndim+1)/2 f64 values of its upper triangle, row by row.
    ``rng_states`` is the u32 ``rng_count``, then ``n_streams`` records of
    ``_RNG_DTYPE``.
    """
    kinds = {"section": ("<u4",), "i32": ("<i4",), "u64": ("<u8",), "f64": ("<f8",),
             "vector": ("<f8", (ndim,)), "sym": ("<f8", (ndim * (ndim + 1) // 2,))}
    fields = [("length", "<u4")]
    for name, kind in _checkpoint_fields(version):
        if kind == "rngs":
            fields += [("rng_count", "<u4"), (name, _RNG_DTYPE, (n_streams,))]
        else:
            fields.append((name, *kinds[kind]))
    return np.dtype(fields)


# Built once per ndim; callers only index with the arrays.
_triu_indices = lru_cache(maxsize=None)(np.triu_indices)


def _triu_pack(mat: np.ndarray) -> np.ndarray:
    i, j = _triu_indices(mat.shape[0])
    return mat[i, j]


def _triu_unpack(flat: np.ndarray, ndim: int) -> np.ndarray:
    mat = np.zeros((ndim, ndim))
    i, j = _triu_indices(ndim)
    mat[i, j] = flat
    mat[j, i] = flat
    return mat


def _text_version(path: str, lines: list[str], what: str) -> int:
    """The format version that a text file's first line ``# dramforge <what> vN`` names."""
    for version in (1, FORMAT_VERSION):
        if lines and lines[0] == f"# dramforge {what} v{version}":
            return version
    raise ParseError(f"{path}:1: not a dramforge {what} file of version 1 or {FORMAT_VERSION}")


def _record_bytes(ck: RestartCheckpoint, ndim: int, encoding: str) -> bytes:
    """The bytes of ``ck``'s record in a restart file of this version."""
    if encoding == "ascii":
        return "".join(f"{line}\n" for name, kind in CHECKPOINT_FIELDS
                       for line in _field_text(name, kind, getattr(ck, name))).encode("utf-8")
    record = np.zeros((), checkpoint_dtype(ndim, len(ck.rng_states)))
    record["length"] = record.itemsize - 4
    record["rng_count"] = len(ck.rng_states)
    for name, kind in CHECKPOINT_FIELDS:
        value = getattr(ck, name)
        if kind == "rngs":
            value = [(s, stream, cache is not None, 0.0 if cache is None else cache)
                     for s, stream, cache in value]
        record[name] = _triu_pack(value) if kind == "sym" else value
    return record.tobytes()


class RestartWriter:
    """Appends checkpoint records; each record is flushed immediately.

    IO errors here are fatal: without a durable checkpoint the run could
    not honor its restart guarantee.
    """

    def __init__(self, path: str, spec: SimSpec, append: bool = False):
        self.path = path
        self.ndim = spec.ndim
        self.encoding = spec.file_encoding
        self._fh = open(path, "ab" if append else "wb")
        if append:
            return
        echo = spec_echo_lines(spec)
        if self.encoding == "ascii":
            lines = [f"# dramforge restart v{FORMAT_VERSION}", "[spec]", *echo]
            self._fh.write("".join(f"{line}\n" for line in lines).encode("utf-8"))
        else:
            echo = "\n".join(echo).encode("utf-8")
            self._fh.write(np.array((RESTART_MAGIC, FORMAT_VERSION, spec.ndim, len(echo)),
                                    _RESTART_HEADER).tobytes())
            self._fh.write(echo)

    def append(self, ck: RestartCheckpoint) -> None:
        self._fh.write(_record_bytes(ck, self.ndim, self.encoding))
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


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
    fields = _checkpoint_fields(_text_version(path, lines, "restart"))
    sections = read_sections(path, lines)
    if not sections or sections[0].name != "spec":
        raise ParseError(f"{path}:1: missing [spec] section")
    spec = spec_from_echo(sections[0])
    checkpoints = []
    for section in sections[1:]:
        label, _, section["checkpoint_index"] = section.name.partition(" ")
        if label != "checkpoint":
            raise ParseError(f"{section.where()}: unexpected section [{section.name}]")
        try:
            checkpoints.append(RestartCheckpoint(**{
                name: _field_parse(name, kind, section, spec.ndim) for name, kind in fields
            }))
        except ParseError:
            # A truncated trailing block is expected after an interrupt.
            if section is sections[-1]:
                break
            raise
    return spec, checkpoints


def _read_restart_binary(path: str) -> tuple[SimSpec, list[RestartCheckpoint]]:
    """The spec echo and checkpoints of a binary restart file.

    Every record has the stream count of the first. A complete record
    whose length or stream count disagrees is a ParseError naming it; a
    record cut by the end of the file is dropped.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    head = _read_header(path, blob, _RESTART_HEADER, "restart")
    ndim, version = int(head["ndim"]), int(head["version"])
    off = _RESTART_HEADER.itemsize + int(head["echo_bytes"])
    echo = blob[_RESTART_HEADER.itemsize : off].decode("utf-8").split("\n")
    spec = spec_from_echo(read_sections(path, echo, implicit="spec")[0])
    fixed = checkpoint_dtype(ndim, 0, version)
    count_at = off + fixed.fields["rng_count"][1]
    n_streams = int.from_bytes(blob[count_at : count_at + 4], "little")
    size = fixed.itemsize + n_streams * _RNG_DTYPE.itemsize
    n_records, rest = divmod(len(blob) - off, size)
    # No record fits when the stream count is too large for the file.
    dtype = checkpoint_dtype(ndim, n_streams, version) if n_records else fixed
    records = np.frombuffer(blob, dtype, n_records, off)
    bad = np.flatnonzero((records["length"] != size - 4)
                         | (records["rng_count"] != n_streams)).tolist()
    # The bytes past the last record are a record cut by the end of the
    # file, unless they hold all the bytes its length says it has.
    tail = off + n_records * size
    if rest >= 4 and 4 + int.from_bytes(blob[tail : tail + 4], "little") <= rest:
        bad.append(n_records)
    if bad:
        i = bad[0]
        # Every byte of the record is there, so this is no cut write.
        raise ParseError(f"{path}: restart record {i} at byte {off + i * size} is not a "
                         f"checkpoint of ndim {ndim} with {n_streams} streams")
    fields = _checkpoint_fields(version)
    return spec, [_checkpoint_of(record, ndim, fields) for record in records]


def _checkpoint_of(record: np.void, ndim: int, fields: tuple) -> RestartCheckpoint:
    read = {
        "rngs": lambda v: [(s, stream, cache if has_cache else None)
                           for s, stream, has_cache, cache in v.tolist()],
        "sym": lambda v: _triu_unpack(v, ndim),
        "vector": lambda v: v.astype(float),
    }
    return RestartCheckpoint(**{name: read.get(kind, np.generic.item)(record[name])
                                for name, kind in fields})


def restart_ends_with(path: str, spec: SimSpec, ck: RestartCheckpoint) -> bool:
    """Whether the restart file at ``path`` ends with ``ck``'s record as this version writes it.

    ``ck`` must hold every field of this version, as a record read from a
    file of this version does.
    """
    record = _record_bytes(ck, spec.ndim, spec.file_encoding)
    with open(path, "rb") as fh:
        end = fh.seek(0, os.SEEK_END)
        fh.seek(max(end - len(record), 0))
        return fh.read() == record


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


def write_replacing(path: str, text: str) -> None:
    """Write ``text`` to ``<path>.tmp``, then rename it onto ``path``.

    ``path`` therefore holds either its old content or all of ``text``,
    never part of it: the report and the convergence file mark a finished
    run by existing.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_sample(refined, path: str) -> None:
    """Refined sample as `logFunc,var1..varD` rows."""
    states = np.asarray(refined.states, dtype=float)
    logf = np.asarray(refined.logf, dtype=float)
    ndim = states.shape[1] if states.ndim == 2 else 1
    states = states.reshape(-1, ndim)
    row_format = "%.17g" + ",%.17g" * ndim + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("logFunc," + ",".join(f"var{i + 1}" for i in range(ndim)) + "\n")
        for lo in range(0, logf.size, _FORMAT_ROWS):
            hi = lo + _FORMAT_ROWS
            fh.write(_format_rows(row_format, [logf[lo:hi].tolist(), *states[lo:hi].T.tolist()]))


def read_sample(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Returns (states, logf) from a sample file.

    Its rows are read as an ascii chain's are. Every line must end with a
    newline: a blank or unterminated line is a ParseError naming it.
    """
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = fh.read().split("\n")
    if not lines[0].startswith("logFunc"):
        raise ParseError(f"{path}:1: not a sample file")
    if lines.pop():
        raise ParseError(f"{path}:{len(lines) + 1}: unterminated line")
    ndim = len(lines[0].split(",")) - 1
    dtype = np.dtype([("logf", "<f8"), ("state", "<f8", (ndim,))])
    records = _parse_rows(path, lines[1:], dtype, 2)
    return records["state"], records["logf"]


@dataclass
class ParallelStats:
    """Fork-join post-processing block for the report file: its [parallelism] section."""

    mu: float = codec("f64", key="MeanAcceptancePerCandidate")
    fitted_p: float = codec("f64", key="FittedGeometricP")
    fit_distance: float = codec("f64", key="FitDistanceTV")
    optimal_workers: int = codec("int", key="PredictedOptimalWorkers")
    speedup: list[float] = codec("series", key="PredictedSpeedup")  # S(1..N)


@dataclass
class ReportStats:
    """Everything echoed and summarized in the report file; its [stats] section."""

    spec: SimSpec
    accepted_count: int = codec("int")
    mean_accept_rate: float = codec("f64")
    burnin_loc: int = codec("int")
    iac_history: list[float] = codec("floats")
    ess: float = codec("f64")
    compact_bytes: int = codec("int")
    verbose_bytes: int = codec("int")
    size_ratio: float = codec("f64")
    eps_inflations: int = codec("int", 0)
    parallel: ParallelStats | None = None


# The report's run statistics: per section, the (attribute, kind, key) of
# each field in line order, the key the attribute's name unless its field
# names another. [parallelism] is written for fork-join runs only. A
# version-1 report has no eps_inflations, which then reads as 0.
REPORT_FIELDS = {
    section: tuple((f.name, f.metadata["kind"], f.metadata.get("key", f.name))
                   for f in dataclasses.fields(record) if "kind" in f.metadata)
    for section, record in (("stats", ReportStats), ("parallelism", ParallelStats))
}


def write_report(stats: ReportStats, path: str) -> None:
    lines = [f"# dramforge report v{FORMAT_VERSION}", "[spec]"]
    lines += spec_echo_lines(stats.spec, with_provenance=True)
    for name, record in (("stats", stats), ("parallelism", stats.parallel)):
        if record is not None:
            lines.append(f"[{name}]")
            lines += [line for attr, kind, key in REPORT_FIELDS[name]
                      for line in _field_text(key, kind, getattr(record, attr))]
    write_replacing(path, "\n".join(lines) + "\n")


def read_report(path: str) -> ReportStats:
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = fh.read().split("\n")
    version = _text_version(path, lines, "report")
    sections = {}
    for section in read_sections(path, lines):
        if section.name not in ("spec", *REPORT_FIELDS) or section.name in sections:
            raise ParseError(f"{section.where()}: unexpected section [{section.name}]")
        sections[section.name] = section
    # A section lost to truncation reads as empty, at the end of the file.
    spec_pairs, stats_pairs = (sections.get(name, Section(path, name, len(lines)))
                               for name in ("spec", "stats"))
    provenance = {}
    for key, value in spec_pairs.items():
        text, _, prov = value.partition("#")
        spec_pairs[key] = text.strip()
        provenance[key] = prov.strip() or "user"

    def fields(pairs: Section) -> dict:
        return {attr: _field_parse(key, kind, pairs)
                for attr, kind, key in REPORT_FIELDS[pairs.name]
                if version == FORMAT_VERSION or key != "eps_inflations"}

    parallel = sections.get("parallelism")
    return ReportStats(
        spec=spec_from_echo(spec_pairs, provenance),
        parallel=None if parallel is None else ParallelStats(**fields(parallel)),
        **fields(stats_pairs),
    )


class ProgressWriter:
    """Appends one line per progress report to the progress file.

    The file keeps its header and its lines of iterations up to
    ``keep_through``, so a resumed run goes on with the lines of the run it
    resumes; a fresh run keeps none. A missing file counts as empty, and a
    torn last line is dropped. ``elapsed`` is the elapsed time of the last
    line kept (0.0 when none is), from which a resumed run's clock goes on.
    A kept line that does not parse raises ParseError naming its line.
    """

    def __init__(self, path: str, keep_through: int):
        try:
            with open(path, "rb") as fh:
                lines = fh.read().split(b"\n")[:-1]
        except FileNotFoundError:
            lines = []
        kept = lines[:1]
        self.elapsed = 0.0
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.split(b",")
            try:
                if int(fields[0]) > keep_through:
                    continue
                if len(fields) != 5:
                    raise ValueError(f"{len(fields)} fields, not 5")
                self.elapsed = float(fields[4])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: malformed progress line ({exc})") from None
            kept.append(line)
        self._fh = open(path, "a", encoding="utf-8", newline="\n")
        self._fh.truncate(sum(len(line) + 1 for line in kept))
        if not kept:
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


def convergence_path(prefix: str) -> str:
    return f"{prefix}_convergence.txt"


def chain_specs(spec: SimSpec, n_chains: int) -> list[SimSpec]:
    """A multi-chain run's chains: chain k is serial, at prefix ``<prefix>_c<k>``."""
    return [spec.with_updates(output_prefix=f"{spec.output_prefix}_c{k}",
                              parallelism="none", num_workers=1)
            for k in range(1, n_chains + 1)]


def run_files(spec: SimSpec) -> list[str]:
    """Every file a run of ``spec`` writes, its completion marker first.

    A chain's marker is its report, written last; a multi-chain run's is
    its convergence file, written after its chains' files, which follow
    it. The temporary files of atomic writes are listed too.
    """
    if spec.parallelism == "multi_chain":
        conv = convergence_path(spec.output_prefix)
        return [conv, conv + ".tmp"] + [path for sub in chain_specs(spec, spec.num_workers)
                                        for path in run_files(sub)]
    paths = output_paths(spec.output_prefix, spec.file_encoding)
    return [paths["report"], paths["chain"], paths["restart"], paths["progress"],
            paths["sample"], paths["report"] + ".tmp", paths["restart"] + ".tmp",
            paths["chain"] + ".tmp"]


def inspect_outputs(spec: SimSpec) -> str:
    """How far a run of ``spec`` got, from which of its files exist.

    ``"complete"`` when its completion marker exists (see ``run_files``),
    ``"incomplete"`` when any other of its files does, ``"absent"`` when
    none does. No file is read.
    """
    marker, *rest = run_files(spec)
    if os.path.exists(marker):
        return "complete"
    return "incomplete" if any(map(os.path.exists, rest)) else "absent"


def remove_outputs(spec: SimSpec) -> None:
    """Delete every file of a run of ``spec``, completion markers first.

    A removal cut short therefore leaves an unfinished run, never a
    finished one with files missing.
    """
    for path in run_files(spec):
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
