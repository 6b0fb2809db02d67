import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dramforge as df
from dramforge import CompactChain, ParseError, SimSpec
from dramforge.chainio import (
    CHECKPOINT_FIELDS,
    REPORT_FIELDS,
    ChainWriter,
    _ascii_block,
    RestartCheckpoint,
    RestartWriter,
    chain_byte_size,
    fmt_float,
    read_restart,
    spec_echo_lines,
    spec_from_echo,
    write_chain,
    write_report,
    write_sample,
)
from conftest import random_chain


class TestFloatFormat:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64)
        | st.sampled_from([0.0, -0.0, 1e308, 5e-324, -5e-324, math.pi])
    )
    def test_17_digits_roundtrip_binary64(self, x):
        assert float(fmt_float(x)) == x or (x == 0.0 and abs(float(fmt_float(x))) == 0.0)

    def test_infinities(self):
        assert float(fmt_float(math.inf)) == math.inf
        assert float(fmt_float(-math.inf)) == -math.inf


class TestChainRoundTrip:
    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    @pytest.mark.parametrize("fmt", ["compact", "verbose"])
    def test_randomized_chains(self, tmp_path, encoding, fmt):
        rng = np.random.default_rng(42)
        for trial in range(25):
            ndim = int(rng.integers(1, 5))
            chain = random_chain(rng, ndim, int(rng.integers(1, 40)))
            path = str(tmp_path / f"c{trial}.{encoding}")
            write_chain(chain, path, fmt, encoding)
            back = df.read_chain(path)
            assert back == chain
            assert not back.truncated

    def test_verbose_expands_weights(self, tmp_path):
        rng = np.random.default_rng(0)
        chain = random_chain(rng, 2, 3)
        chain.weight = np.array([3, 2, 5])
        p_compact = str(tmp_path / "a.txt")
        p_verbose = str(tmp_path / "b.txt")
        write_chain(chain, p_compact, "compact", "ascii")
        write_chain(chain, p_verbose, "verbose", "ascii")
        n_compact = len(open(p_compact).read().splitlines()) - 1
        n_verbose = len(open(p_verbose).read().splitlines()) - 1
        assert n_compact == 3 and n_verbose == 10
        assert df.read_chain(p_verbose) == chain  # re-compacted on read

    def test_logf_bitwise_after_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        chain = random_chain(rng, 3, 20)
        for encoding in ("ascii", "binary"):
            path = str(tmp_path / f"x.{encoding}")
            write_chain(chain, path, "compact", encoding)
            assert np.array_equal(df.read_chain(path).logf, chain.logf)

    def test_ascii_binary_semantic_equivalence(self, tmp_path):
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 2, 15)
        pa, pb = str(tmp_path / "a.txt"), str(tmp_path / "b.bin")
        write_chain(chain, pa, "compact", "ascii")
        write_chain(chain, pb, "compact", "binary")
        assert df.read_chain(pa) == df.read_chain(pb)

    def test_truncated_ascii_recovers_complete_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        chain = random_chain(rng, 2, 10)
        path = str(tmp_path / "t.txt")
        write_chain(chain, path, "compact", "ascii")
        blob = open(path, "rb").read()
        cut = blob[: int(len(blob) * 0.8)]
        while cut.endswith(b"\n"):
            cut = cut[:-1]  # land mid-line
        open(path, "wb").write(cut)
        back = df.read_chain(path)
        assert back.truncated
        assert 0 < back.n_rows < 10
        assert back == chain.sliced(back.n_rows)

    def test_truncated_binary_recovers_complete_rows(self, tmp_path):
        rng = np.random.default_rng(4)
        chain = random_chain(rng, 3, 10)
        path = str(tmp_path / "t.bin")
        write_chain(chain, path, "compact", "binary")
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-13])  # cut into the last row
        back = df.read_chain(path)
        assert back.truncated
        assert back.n_rows == 9
        assert back == chain.sliced(9)

    def test_malformed_interior_line_is_an_error(self, tmp_path):
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 2, 5)
        path = str(tmp_path / "bad.txt")
        write_chain(chain, path, "compact", "ascii")
        lines = open(path).read().splitlines()
        lines[2] = "garbage,line"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            df.read_chain(path)
        assert ":3:" in str(err.value)

    def test_malformed_line_in_a_later_parse_chunk_is_named(self, tmp_path):
        rng = np.random.default_rng(14)
        chain = random_chain(rng, 2, 5000)
        path = str(tmp_path / "long.txt")
        write_chain(chain, path, "compact", "ascii")
        lines = open(path).read().splitlines()
        lines[4499] = lines[4499].replace(",", ",1.5x,", 1)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            df.read_chain(path)
        assert ":4500:" in str(err.value)

    def test_byte_size_matches_disk(self, tmp_path):
        rng = np.random.default_rng(6)
        chain = random_chain(rng, 4, 30)
        for fmt in ("compact", "verbose"):
            for encoding in ("ascii", "binary"):
                path = str(tmp_path / f"s_{fmt}.{encoding}")
                write_chain(chain, path, fmt, encoding)
                assert os.path.getsize(path) == chain_byte_size(chain, fmt, encoding)

    def test_weight_validation(self):
        with pytest.raises(df.UsageError):
            CompactChain(1, [1], [0], [0.5], [0.1], [0], [0], [1.0], np.zeros((1, 1)))


def _oracle_line(row, weight):
    """Ascii chain line: ints via str, reals via format(v, ".17g"), comma-joined."""
    cols = [str(int(row.process_id)), str(int(row.dr_stage)),
            format(float(row.mean_accept_rate), ".17g"),
            format(float(row.adaptation_measure), ".17g"),
            str(int(row.burnin_loc)), str(weight), format(float(row.logf), ".17g")]
    cols += [format(v, ".17g") for v in row.state.tolist()]
    return ",".join(cols) + "\n"


class TestAsciiLineOracle:
    EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
             -1.7976931348623157e308, -1e300, math.pi, 1e-300, 2.0**-1022,
             math.inf, -math.inf, math.nan]

    def _chain(self, ndim, weights):
        rng = np.random.default_rng(ndim)
        n = len(weights)
        edges = self.EDGES
        states = np.array([[edges[(i + j) % len(edges)] if (i + j) % 3 else rng.normal()
                            for j in range(ndim)] for i in range(n)])
        return CompactChain(
            ndim,
            process_id=[1 + i % 8 for i in range(n)],
            dr_stage=[i % 3 for i in range(n)],
            mean_accept_rate=[edges[i % len(edges)] for i in range(n)],
            adaptation_measure=[edges[(i + 5) % len(edges)] for i in range(n)],
            burnin_loc=[10**i for i in range(n)],
            weight=weights,
            logf=[[-1e300, -0.0, 5e-324, -1.7976931348623157e308][i % 4] for i in range(n)],
            states=states,
        )

    @pytest.mark.parametrize("ndim", [1, 25])
    def test_writer_and_byte_size_match_oracle(self, ndim, tmp_path):
        chain = self._chain(ndim, [1, 3, 10**12, 2, 7, 1])
        header = ",".join(chain.header) + "\n"
        compact = header + "".join(_oracle_line(r, int(r.weight)) for r in chain.records)
        verbose_size = len(header) + sum(
            len(_oracle_line(r, 1)) * int(r.weight) for r in chain.records)
        assert chain_byte_size(chain, "compact", "ascii") == len(compact)
        assert chain_byte_size(chain, "verbose", "ascii") == verbose_size

        path = str(tmp_path / "compact.txt")
        writer = ChainWriter(path, ndim, "compact", "ascii")
        for i in range(chain.n_rows):
            writer.append(chain, i)
        writer.close()
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == compact
        assert (writer.compact_bytes, writer.verbose_bytes) == (len(compact), verbose_size)

        small = chain.sliced(chain.n_rows)
        small.weight = [1, 3, 4, 2, 1, 1]  # verbose files repeat each line weight times
        verbose = header + "".join(_oracle_line(r, 1) * int(r.weight) for r in small.records)
        path = str(tmp_path / "verbose.txt")
        writer = ChainWriter(path, ndim, "verbose", "ascii")
        for i in range(small.n_rows):
            writer.append(small, i)
        writer.close()
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == verbose
        assert chain_byte_size(small, "verbose", "ascii") == len(verbose)
        assert writer.verbose_bytes == len(verbose)


    @pytest.mark.parametrize("weight_one", [False, True])
    def test_block_text_and_sizes_at_every_weight_width(self, weight_one):
        # Weights on both sides of every digit-count boundary, up to the
        # largest int64; the verbose size then passes 2**64.
        weights = [1] + [w for k in range(1, 19) for w in (10**k - 1, 10**k)] + [2**63 - 1]
        chain = random_chain(np.random.default_rng(5), 3, len(weights))
        chain.weight = weights
        records = chain.records
        text, compact, verbose = _ascii_block(records, weight_one)
        lines = [_oracle_line(r, 1 if weight_one else int(r.weight)) for r in records]
        assert text == "".join(lines).encode("ascii")
        assert compact == sum(len(_oracle_line(r, int(r.weight))) for r in records)
        assert verbose == sum(len(_oracle_line(r, 1)) * int(r.weight) for r in records)
        assert verbose > 2**64

    def test_measure_column_of_repeated_values_matches_oracle(self, tmp_path):
        # One text per distinct measure: -0.0 and 0.0 are told apart, and
        # NaN of either sign prints "nan".
        measures = [0.0, 0.0, -0.0, 0.0, -0.0, 1e-5, 1e-5, math.nan, -math.nan, 0.0, 5e-324]
        n = len(measures)
        chain = CompactChain(2, [1] * n, [0] * n, [0.5] * n, measures, [0] * n,
                             list(range(1, n + 1)), [-float(i) for i in range(n)],
                             np.arange(2.0 * n).reshape(n, 2))
        header = ",".join(chain.header) + "\n"
        expected = header + "".join(_oracle_line(r, int(r.weight)) for r in chain.records)
        path = str(tmp_path / "measures.txt")
        write_chain(chain, path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == expected
        assert ",-0," in expected and ",nan," in expected
        assert chain_byte_size(chain, "compact", "ascii") == len(expected)


class TestFlushedWriter:
    """Rows marked by ``append`` and written by ``flush`` give the per-row file."""

    @staticmethod
    def _chain(rng, chain_format, n):
        chain = random_chain(rng, 3, n)
        if chain_format == "compact":
            # Weights up to 10**12, with every width of the weight column.
            chain.weight = np.where(rng.random(n) < 0.5, rng.integers(1, 10**12, n),
                                    10 ** rng.integers(0, 13, n) - rng.integers(0, 2, n))
            chain.weight = np.maximum(chain.weight, 1)
        return chain

    @staticmethod
    def _expected(chain, chain_format, encoding):
        """The chain file, row by row: ``_oracle_line`` text or the row's bytes."""
        verbose = chain_format == "verbose"
        if encoding == "ascii":
            text = ",".join(chain.header) + "\n" + "".join(
                _oracle_line(r, 1) * int(r.weight) if verbose else _oracle_line(r, int(r.weight))
                for r in chain.records)
            return text.encode("utf-8")
        rows = []
        for i in range(chain.n_rows):
            row = chain.records[i : i + 1].copy()
            w = int(row["weight"][0])
            if verbose:
                row["weight"] = 1
            rows.append(row.tobytes() * (w if verbose else 1))
        count = chain.total_weight if verbose else chain.n_rows
        return b"DRMF" + struct.pack("<IIQ", 2, chain.ndim, count) + b"".join(rows)

    @staticmethod
    def _sizes(chain, encoding):
        """``(compact, verbose)`` file sizes, row by row."""
        if encoding == "ascii":
            header = len(",".join(chain.header)) + 1
            return (header + sum(len(_oracle_line(r, int(r.weight))) for r in chain.records),
                    header + sum(len(_oracle_line(r, 1)) * int(r.weight) for r in chain.records))
        row_size = chain.records.dtype.itemsize
        return 20 + chain.n_rows * row_size, 20 + chain.total_weight * row_size

    @staticmethod
    def _byte_sizes(chain, encoding):
        """``(compact, verbose)`` sizes as ``chain_byte_size`` gives them."""
        return tuple(chain_byte_size(chain, fmt, encoding) for fmt in ("compact", "verbose"))

    @staticmethod
    def _write(writer, chain, rows, rng, share=0.1):
        """Append ``rows`` of ``chain``, flushing after a random ``share`` of them."""
        for i in rows:
            writer.append(chain, i)
            if rng.random() < share:
                writer.flush()

    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    @pytest.mark.parametrize("chain_format", ["compact", "verbose"])
    def test_flushes_at_random_rows(self, tmp_path, chain_format, encoding):
        rng = np.random.default_rng(31)
        chain = self._chain(rng, chain_format, 6000)
        path = str(tmp_path / "chain")
        writer = ChainWriter(path, 3, chain_format, encoding)
        self._write(writer, chain, range(1000), rng)
        # The last 5000 rows, more than one formatting block, wait for close.
        self._write(writer, chain, range(1000, chain.n_rows), rng, share=0.0)
        writer.close()
        with open(path, "rb") as fh:
            assert fh.read() == self._expected(chain, chain_format, encoding)
        sizes = self._sizes(chain, encoding)
        assert (writer.compact_bytes, writer.verbose_bytes) == sizes
        assert self._byte_sizes(chain, encoding) == sizes

    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    @pytest.mark.parametrize("chain_format", ["compact", "verbose"])
    def test_appending_writer_resumes_after_a_cut(self, tmp_path, chain_format, encoding):
        rng = np.random.default_rng(32)
        chain = self._chain(rng, chain_format, 400)
        path = str(tmp_path / "chain")
        first = ChainWriter(path, 3, chain_format, encoding)
        self._write(first, chain, range(250), rng)
        first.close()  # rows marked since the last flush are written too
        # As a resume does: cut the file back to the kept rows, then append.
        kept = chain.sliced(150)
        kept_sizes = self._byte_sizes(kept, encoding)
        os.truncate(path, kept_sizes[chain_format == "verbose"])
        second = ChainWriter(path, 3, chain_format, encoding, append=True,
                             initial_bytes=kept_sizes)
        self._write(second, chain, range(150, chain.n_rows), rng)
        second.close()
        with open(path, "rb") as fh:
            assert fh.read() == self._expected(chain, chain_format, encoding)
        sizes = self._sizes(chain, encoding)
        assert (second.compact_bytes, second.verbose_bytes) == sizes
        assert self._byte_sizes(chain, encoding) == sizes


class TestRowStore:
    @staticmethod
    def _row_args(chain, i):
        return (chain.process_id[i], chain.dr_stage[i], chain.mean_accept_rate[i],
                chain.adaptation_measure[i], chain.burnin_loc[i], chain.weight[i],
                chain.logf[i], chain.states[i])

    def test_appending_rows_one_at_a_time_matches_the_constructor(self):
        rng = np.random.default_rng(12)
        expected = random_chain(rng, 3, 10_000)
        chain = CompactChain(3)
        for i in range(expected.n_rows):
            chain.append(
                expected.process_id[i], expected.dr_stage[i], expected.mean_accept_rate[i],
                expected.adaptation_measure[i], expected.burnin_loc[i], expected.weight[i],
                expected.logf[i], expected.states[i],
            )
        assert chain.n_rows == 10_000
        assert chain == expected

    def test_interleaved_appends_and_reads_match_the_constructor(self):
        # Appends interleaved at random with every kind of read, and with
        # writes to the last row's burn-in, starting empty or from rows
        # already held.
        rng = np.random.default_rng(31)
        columns = ("process_id", "dr_stage", "mean_accept_rate", "adaptation_measure",
                   "burnin_loc", "weight", "logf", "states")
        for trial in range(40):
            ndim = int(rng.integers(1, 6))
            expected = random_chain(rng, ndim, int(rng.integers(1, 400)))
            start = int(rng.integers(0, expected.n_rows)) if trial % 2 else 0
            chain = expected.sliced(start) if start else CompactChain(ndim)
            for i in range(start, expected.n_rows):
                assert chain.append(*self._row_args(expected, i)) == i
                n = i + 1
                read = int(rng.integers(0, 16))
                if read == 0:
                    assert chain.records.tobytes() == expected.records[:n].tobytes()
                elif read == 1:
                    name = columns[int(rng.integers(0, len(columns)))]
                    assert np.array_equal(getattr(chain, name), getattr(expected, name)[:n])
                elif read == 2:
                    assert chain.n_rows == len(chain) == n
                elif read == 3:
                    assert chain == expected.sliced(n)
                elif read == 4:
                    k = int(rng.integers(0, n + 1))
                    assert chain.sliced(k) == expected.sliced(k)
                elif read == 5:
                    loc = int(rng.integers(0, n))
                    chain.burnin_loc[-1] = loc
                    expected.burnin_loc[i] = loc
            assert chain.n_rows == len(chain) == expected.n_rows
            assert chain == expected
            assert chain.records.tobytes() == expected.records.tobytes()

    def test_appends_crossing_the_pack_threshold_between_reads(self):
        # Reads with 1, 4,095, 0 and 1 rows pending, then after 8,807
        # appends that cross the 4,096-row pack twice, and at the end.
        rng = np.random.default_rng(44)
        expected = random_chain(rng, 2, 17_003)
        reads = {1, 4096, 8192, 8193, 17_000, 17_003}
        chain = CompactChain(2)
        for i in range(expected.n_rows):
            assert chain.append(*self._row_args(expected, i)) == i
            n = i + 1
            assert chain.n_rows == n
            if n in reads:
                assert chain.records.tobytes() == expected.records[:n].tobytes()
        assert chain == expected

    def test_append_keeps_a_copy_of_the_state(self):
        chain = CompactChain(2)
        state = np.array([1.5, -2.0])
        row = chain.append(3, 1, 0.25, 0.0, 0, 4, -1.0, state)
        state[:] = 9.0
        assert row == 0
        assert chain.states[row].tolist() == [1.5, -2.0] and chain.weight[row] == 4
        chain.append(3, 1, 0.25, 0.0, 0, 1, -2.0, state)
        state[:] = 7.0
        assert chain.states.tolist() == [[1.5, -2.0], [9.0, 9.0]]

    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    def test_verbose_read_merges_only_rows_equal_in_logf_and_state(self, tmp_path, encoding):
        # Rows 1-2 share a state but not logf; rows 2-3 share logf but not
        # the state. Only each row's own verbose repeats merge back.
        states = np.array([[0.5, 1.0], [0.5, 1.0], [0.5, 2.0]])
        chain = CompactChain(2, [1, 1, 1], [0, 0, 0], [0.5] * 3, [0.0] * 3, [0, 0, 0],
                             [2, 3, 1], [-1.0, -2.0, -2.0], states)
        path = str(tmp_path / f"v.{encoding}")
        write_chain(chain, path, "verbose", encoding)
        back = df.read_chain(path)
        assert back == chain
        assert back.n_rows == 3

    def test_torn_final_row_of_verbose_binary_is_dropped(self, tmp_path):
        rng = np.random.default_rng(13)
        chain = random_chain(rng, 2, 4)
        chain.weight = np.array([2, 1, 3, 4])
        path = str(tmp_path / "v.bin")
        write_chain(chain, path, "verbose", "binary")
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-5])  # cut into the last verbose row
        back = df.read_chain(path)
        assert back.truncated
        expected = chain.sliced(4)
        expected.weight = np.array([2, 1, 3, 3])
        assert back == expected


def make_checkpoint(rng, ndim=3, index=0, n_rngs=1):
    cov = np.eye(ndim) * rng.uniform(0.5, 2.0)
    return RestartCheckpoint(
        checkpoint_index=index,
        iteration=int(rng.integers(1, 10_000)),
        rows_emitted=int(rng.integers(0, 500)),
        measure=float(rng.uniform(0, 1)),
        rng_states=[
            (int(rng.integers(0, 2**63)), k, float(rng.normal()) if k % 2 else None)
            for k in range(1, n_rngs + 1)
        ],
        pending_weight=int(rng.integers(1, 60)),
        current_logf=float(rng.normal(-4, 3)),
        current_state=rng.normal(0, 2, ndim),
        live_dr_stage=int(rng.integers(0, 3)),
        live_process_id=int(rng.integers(1, 9)),
        mean=rng.normal(0, 1, ndim),
        cov=cov,
        scatter=cov * rng.integers(1, 300),
        scale=float(rng.uniform(0.2, 3.0)),
        epsilon=float(rng.uniform(1e-14, 1e-10)),
        eps_rel=1e-12,
        dr_scale=0.5,
        sample_count=int(rng.integers(0, 5_000)),
        adaptation_count=int(rng.integers(0, 50)),
        chain_compact_bytes=int(rng.integers(100, 10**6)),
        chain_verbose_bytes=int(rng.integers(10**6, 10**12)),
        eps_inflations=int(rng.integers(0, 30)),
    )


class TestRestartFile:
    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    def test_checkpoint_roundtrip(self, tmp_path, encoding):
        rng = np.random.default_rng(7)
        spec = SimSpec(ndim=3, output_prefix="p", file_encoding=encoding)
        path = str(tmp_path / f"r.{encoding}")
        cks = [make_checkpoint(rng, index=i, n_rngs=2) for i in range(4)]
        writer = RestartWriter(path, spec)
        for ck in cks:
            writer.append(ck)
        writer.close()
        back_spec, back = read_restart(path)
        assert back_spec == spec
        assert back == cks

    def test_append_entry_point(self, tmp_path):
        rng = np.random.default_rng(8)
        spec = SimSpec(ndim=3, output_prefix="p")
        path = str(tmp_path / "r.txt")
        a, b = make_checkpoint(rng, index=0), make_checkpoint(rng, index=1)
        for ck in (a, b):
            writer = RestartWriter(path, spec, append=os.path.exists(path))
            writer.append(ck)
            writer.close()
        _, back = read_restart(path)
        assert back == [a, b]

    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    def test_truncated_final_record_dropped(self, tmp_path, encoding):
        rng = np.random.default_rng(9)
        spec = SimSpec(ndim=2, output_prefix="p", file_encoding=encoding)
        path = str(tmp_path / f"r.{encoding}")
        cks = [make_checkpoint(rng, ndim=2, index=i) for i in range(3)]
        writer = RestartWriter(path, spec)
        for ck in cks:
            writer.append(ck)
        writer.close()
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-40])
        _, back = read_restart(path)
        assert back == cks[:2]

    def test_checkpoint_proposal_rebuild_is_consistent(self):
        rng = np.random.default_rng(10)
        ck = make_checkpoint(rng)
        prop = df.sampler.checkpoint_proposal(ck)
        recon = prop.chol_lower @ prop.chol_lower.T
        assert np.allclose(recon, ck.scale**2 * ck.cov + ck.epsilon * np.eye(3), rtol=1e-12)


class TestSpecEcho:
    def test_roundtrip_exact(self):
        spec = SimSpec(
            ndim=3,
            output_prefix="out/some run",
            chain_size=1234,
            seed=99,
            start_point=[0.1, -2.5, 1e-7],
            proposal_scale=0.123456789012345678,
            target_acceptance_window=(0.2, 0.4),
            file_encoding="binary",
        )
        pairs = {}
        for line in spec_echo_lines(spec):
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
        assert spec_from_echo(pairs) == spec

    def test_every_field_appears_exactly_once(self):
        spec = SimSpec(ndim=2, output_prefix="x")
        lines = spec_echo_lines(spec, with_provenance=True)
        keys = [ln.split("=")[0].strip() for ln in lines]
        assert sorted(keys) == sorted(name for name, _ in df.core.SIMSPEC_FIELDS)
        assert len(keys) == len(set(keys))


class TestRecordTables:
    """The field tables, pinned as literals: a reordered, renamed or re-kinded
    field of a record's declaration fails here by name, before any byte pin."""

    def test_spec_echo_fields(self):
        assert df.core.SIMSPEC_FIELDS == (
            ("ndim", "int"),
            ("chain_size", "int"),
            ("start_point", "vector"),
            ("seed", "u64"),
            ("output_prefix", "str"),
            ("chain_format", "str"),
            ("file_encoding", "str"),
            ("adaptation_period", "int"),
            ("greedy_adaptation_count", "int"),
            ("dr_stage_count", "int"),
            ("dr_scale_factor", "f64"),
            ("proposal_scale", "f64"),
            ("cov_epsilon", "f64"),
            ("parallelism", "str"),
            ("num_workers", "int"),
            ("target_acceptance_window", "window"),
        )

    def test_checkpoint_fields(self):
        assert CHECKPOINT_FIELDS == (
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
            ("chain_compact_bytes", "u64"),
            ("chain_verbose_bytes", "u64"),
            ("eps_inflations", "u64"),
        )

    def test_report_fields(self):
        assert list(REPORT_FIELDS) == ["stats", "parallelism"]
        assert REPORT_FIELDS["stats"] == (
            ("accepted_count", "int", "accepted_count"),
            ("mean_accept_rate", "f64", "mean_accept_rate"),
            ("burnin_loc", "int", "burnin_loc"),
            ("iac_history", "floats", "iac_history"),
            ("ess", "f64", "ess"),
            ("compact_bytes", "int", "compact_bytes"),
            ("verbose_bytes", "int", "verbose_bytes"),
            ("size_ratio", "f64", "size_ratio"),
            ("eps_inflations", "int", "eps_inflations"),
        )
        assert REPORT_FIELDS["parallelism"] == (
            ("mu", "f64", "MeanAcceptancePerCandidate"),
            ("fitted_p", "f64", "FittedGeometricP"),
            ("fit_distance", "f64", "FitDistanceTV"),
            ("optimal_workers", "int", "PredictedOptimalWorkers"),
            ("speedup", "series", "PredictedSpeedup"),
        )


class TestSampleAndReport:
    def test_sample_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        refined = df.RefinedSample(
            states=rng.normal(0, 1, (40, 3)),
            logf=rng.normal(-2, 1, 40),
            iac_history=[4.2, 1.3],
            source_burnin=5,
        )
        path = str(tmp_path / "s.txt")
        write_sample(refined, path)
        states, logf = df.read_sample(path)
        assert np.array_equal(states, refined.states)
        assert np.array_equal(logf, refined.logf)
        assert len(open(path).read().splitlines()) == 41

    def test_sample_cells_read_as_fmt_float(self, tmp_path):
        cells = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 1e16, 0.1, -2.5,
                 1 / 3, 2.0**-1074 * 3]
        refined = df.RefinedSample(states=np.array(cells).reshape(4, 3), logf=np.arange(4.0),
                                   iac_history=[], source_burnin=0)
        path = str(tmp_path / "s.txt")
        write_sample(refined, path)
        with open(path, encoding="utf-8", newline="\n") as fh:
            lines = fh.read().split("\n")
        assert lines[1:] == [",".join(map(fmt_float, [lf, *row]))
                             for lf, row in zip(refined.logf, refined.states)] + [""]
        states, logf = df.read_sample(path)
        assert states.tobytes() == refined.states.tobytes()
        assert logf.tobytes() == refined.logf.tobytes()

    def test_report_roundtrip(self, tmp_path):
        spec = SimSpec(ndim=2, output_prefix="x", seed=5, chain_size=777)
        parallel = df.ParallelStats(
            mu=0.41, fitted_p=0.43, fit_distance=0.01, optimal_workers=9,
            speedup=[1.0, 1.59, 1.94],
        )
        # A fork-join report, a serial one, and one whose refinement made no
        # pass (its iac_history is written as "none").
        for iac_history, par in (([7.5, 1.2], parallel), ([7.5, 1.2], None), ([], None)):
            stats = df.ReportStats(
                spec=spec,
                accepted_count=321,
                mean_accept_rate=321 / 777,
                burnin_loc=4,
                iac_history=iac_history,
                ess=103.25,
                compact_bytes=1000,
                verbose_bytes=4200,
                size_ratio=4.2,
                parallel=par,
            )
            path = str(tmp_path / "rep.txt")
            write_report(stats, path)
            back = df.read_report(path)
            assert back == stats
            assert back.spec.provenance == spec.provenance
            assert back.accepted_count == 321
            assert back.iac_history == iac_history
            assert back.size_ratio == 4.2
            if par is None:
                assert back.parallel is None
                assert "[parallelism]" not in open(path).read()
            else:
                assert back.parallel.speedup == [1.0, 1.59, 1.94]
                assert back.parallel.optimal_workers == 9
        assert "iac_history = none\n" in open(path).read()


def _replace_line(path, old, new):
    """Replace the first line equal to ``old``; return its 1-based number."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        lines = fh.read().split("\n")
    lineno = lines.index(old) + 1
    lines[lineno - 1] = new
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
    return lineno


def _line_starting(path, start):
    """The first line of ``path`` that starts with ``start``, and its number."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh.read().split("\n"), start=1):
            if line.startswith(start):
                return line, lineno
    raise AssertionError(f"no line starts with {start!r}")


class TestParseErrors:
    """Each malformed input raises ParseError naming ``path:line``."""

    @pytest.fixture
    def restart(self, tmp_path):
        rng = np.random.default_rng(12)
        spec = SimSpec(ndim=2, output_prefix="p")
        path = str(tmp_path / "r.txt")
        writer = RestartWriter(path, spec)
        for i in range(3):
            writer.append(make_checkpoint(rng, ndim=2, index=i))
        writer.close()
        return path

    @pytest.fixture
    def report(self, tmp_path):
        stats = df.ReportStats(
            spec=SimSpec(ndim=2, output_prefix="x"), accepted_count=1214,
            mean_accept_rate=0.25, burnin_loc=3, iac_history=[2.5], ess=480.5,
            compact_bytes=100, verbose_bytes=300, size_ratio=3.0,
        )
        path = str(tmp_path / "rep.txt")
        write_report(stats, path)
        return path

    def test_restart_header_without_bracket(self, restart):
        lineno = _replace_line(restart, "[checkpoint 1]", "[checkpoint 1")
        with pytest.raises(ParseError, match=f"r.txt:{lineno}:"):
            read_restart(restart)

    def test_restart_key_before_spec_section(self, restart):
        lineno = _replace_line(restart, "[spec]", "ndim = 2")
        with pytest.raises(ParseError, match=f"r.txt:{lineno}:"):
            read_restart(restart)

    def test_restart_malformed_block_before_the_last(self, restart):
        line, lineno = _line_starting(restart, "iteration = ")
        _replace_line(restart, line, "iteration = x12")
        with pytest.raises(ParseError, match=f"r.txt:{lineno}:"):
            read_restart(restart)

    def test_report_cut_before_a_key(self, report):
        _, lineno = _line_starting(report, "ess = ")
        blob = open(report, "rb").read()
        open(report, "wb").write(blob[: blob.index(b"ess = ")])
        _, header = _line_starting(report, "[stats]")
        with pytest.raises(ParseError, match=f"rep.txt:{header}:.*ess"):
            df.read_report(report)

    def test_report_malformed_value(self, report):
        lineno = _replace_line(report, "accepted_count = 1214", "accepted_count = x1214")
        with pytest.raises(ParseError, match=f"rep.txt:{lineno}:.*accepted_count"):
            df.read_report(report)

    def test_report_key_outside_any_section(self, report):
        lineno = _replace_line(report, "[spec]", "ndim = 2")
        with pytest.raises(ParseError, match=f"rep.txt:{lineno}:"):
            df.read_report(report)

    def test_malformed_sample_cell(self, tmp_path):
        refined = df.RefinedSample(
            states=np.ones((5, 2)), logf=np.zeros(5), iac_history=[1.0], source_burnin=0,
        )
        path = str(tmp_path / "s.txt")
        write_sample(refined, path)
        lines = open(path).read().split("\n")
        lines[3] = "0,abc,1"
        open(path, "w").write("\n".join(lines))
        with pytest.raises(ParseError, match="s.txt:4:"):
            df.read_sample(path)

    @staticmethod
    def chain_with_line(tmp_path, lineno, edit):
        """An ascii chain file whose line ``lineno`` is ``edit(line)``."""
        path = str(tmp_path / "c.txt")
        write_chain(random_chain(np.random.default_rng(15), 2, 6), path)
        lines = open(path).read().split("\n")
        lines[lineno - 1] = edit(lines[lineno - 1])
        open(path, "w").write("\n".join(lines))
        return path

    def test_chain_blank_line(self, tmp_path):
        path = self.chain_with_line(tmp_path, 3, lambda line: "")
        with pytest.raises(ParseError, match="c.txt:3: blank line"):
            df.read_chain(path)

    def test_chain_int_cell_with_an_underscore(self, tmp_path):
        # int() reads "1_0" as 10; a chain file never holds it.
        path = self.chain_with_line(tmp_path, 4, lambda line: "1_0" + line[line.index(","):])
        with pytest.raises(ParseError, match="c.txt:4:.*1_0"):
            df.read_chain(path)

    @staticmethod
    def binary_restart(tmp_path, streams=(1,) * 5):
        """A binary restart file of one record per item of ``streams``, with that many streams."""
        rng = np.random.default_rng(14)
        path = str(tmp_path / "r.bin")
        writer = RestartWriter(path, SimSpec(ndim=2, output_prefix="p", file_encoding="binary"))
        for i, n_rngs in enumerate(streams):
            writer.append(make_checkpoint(rng, ndim=2, index=i, n_rngs=n_rngs))
        writer.close()
        blob = open(path, "rb").read()
        first = 16 + int.from_bytes(blob[12:16], "little")  # header, then the spec echo
        return path, blob, first

    def test_binary_restart_record_of_the_wrong_length(self, tmp_path):
        # Every byte of the record is there, but 3 bytes are no checkpoint.
        path, blob, first = self.binary_restart(tmp_path)
        assert len(read_restart(path)[1]) == 5
        open(path, "wb").write(blob[:first] + (3).to_bytes(4, "little") + blob[first + 4 :])
        with pytest.raises(ParseError, match="r.bin: restart record 0 "):
            read_restart(path)
        # A stream count that leaves no room for one record of its size.
        count_at = first + df.chainio.checkpoint_dtype(2, 0).fields["rng_count"][1]
        open(path, "wb").write(blob[:count_at] + (2**32 - 1).to_bytes(4, "little")
                               + blob[count_at + 4 :])
        with pytest.raises(ParseError, match="r.bin: restart record 0 "):
            read_restart(path)
        # Every record of a file has the first one's stream count.
        for streams in ((3, 3, 2, 3), (3, 3, 4, 3), (3, 3, 3, 1)):
            path, _, _ = self.binary_restart(tmp_path, streams)
            bad = next(i for i, n in enumerate(streams) if n != streams[0])
            with pytest.raises(ParseError, match=f"r.bin: restart record {bad} "):
                read_restart(path)

    def test_binary_restart_record_with_bytes_to_spare(self, tmp_path):
        path, blob, first = self.binary_restart(tmp_path, streams=(1,))
        length = int.from_bytes(blob[first : first + 4], "little") + 8
        open(path, "wb").write(blob[:first] + length.to_bytes(4, "little")
                               + blob[first + 4 :] + bytes(8))
        with pytest.raises(ParseError, match="r.bin: restart record 0 "):
            read_restart(path)

    def test_binary_restart_record_cut_by_the_end_of_file_is_dropped(self, tmp_path):
        path, blob, _ = self.binary_restart(tmp_path)
        open(path, "wb").write(blob[:-5])
        assert [ck.checkpoint_index for ck in read_restart(path)[1]] == [0, 1, 2, 3]
        # A file cut inside its first record holds no checkpoint.
        path, blob, first = self.binary_restart(tmp_path, streams=(8,))
        assert len(blob) == first + df.chainio.checkpoint_dtype(2, 8).itemsize
        for end in (first, first + 2, first + 40, len(blob) - 30, len(blob) - 1):
            open(path, "wb").write(blob[:end])
            assert read_restart(path)[1] == [], end


def _refusal(path, what, version):
    return (f"{path}: {what} file of format version {version}: this release reads version 2 "
            "only, so the run must be started again (dramforge run --force)")


class TestOtherFormatVersions:
    """A file of any format version but 2 is refused with one ParseError."""

    @staticmethod
    def set_binary_version(path, version):
        """Overwrite the u32 format version that follows a binary file's magic."""
        with open(path, "r+b") as fh:
            fh.seek(4)
            fh.write(struct.pack("<I", version))

    @pytest.mark.parametrize("version", [1, 3])
    def test_binary_chain(self, tmp_path, version):
        path = str(tmp_path / "c.bin")
        write_chain(random_chain(np.random.default_rng(16), 2, 6), path, "compact", "binary")
        self.set_binary_version(path, version)
        with pytest.raises(ParseError) as info:
            df.read_chain(path)
        assert str(info.value) == _refusal(path, "chain", version)

    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    def test_restart(self, tmp_path, encoding):
        path = str(tmp_path / "r")
        writer = RestartWriter(path, SimSpec(ndim=2, output_prefix="p", file_encoding=encoding))
        writer.append(make_checkpoint(np.random.default_rng(17), ndim=2))
        writer.close()
        where = path
        if encoding == "binary":
            self.set_binary_version(path, 1)
        else:  # a text file's error names its line
            _replace_line(path, "# dramforge restart v2", "# dramforge restart v1")
            where += ":1"
        with pytest.raises(ParseError) as info:
            read_restart(path)
        assert str(info.value) == _refusal(where, "restart", 1)

    def test_report(self, tmp_path):
        stats = df.ReportStats(
            spec=SimSpec(ndim=2, output_prefix="x"), accepted_count=12, mean_accept_rate=0.25,
            burnin_loc=3, iac_history=[2.5], ess=4.5, compact_bytes=100, verbose_bytes=300,
            size_ratio=3.0,
        )
        path = str(tmp_path / "rep.txt")
        write_report(stats, path)
        _replace_line(path, "# dramforge report v2", "# dramforge report v1")
        with pytest.raises(ParseError) as info:
            df.read_report(path)
        assert str(info.value) == _refusal(f"{path}:1", "report", 1)
