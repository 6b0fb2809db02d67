import gc
import hashlib
import os

import numpy as np
import pytest

import dramforge as df
from dramforge.cli import build_cli_target, main, parse_config


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_cfg(tmp_path, prefix, extra="", target="kind = mvn", name="run.cfg"):
    cfg = tmp_path / name
    cfg.write_text(
        f"""# sample configuration
ndim = 4
chain_size = 2000
seed = 17
output_prefix = {prefix}
{extra}
[target]
{target}
""",
        encoding="utf-8",
    )
    return str(cfg)


def _corrupt(path, old, new):
    """Replace the first line of ``path`` that starts with ``old``; return its number."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        lines = fh.read().split("\n")
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(old))
    lines[lineno - 1] = new
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
    return lineno


def _refusal(path, what):
    """The error that a version-1 file gets."""
    return (f"error: {path}: {what} file of format version 1: this release reads version 2 "
            "only, so the run must be started again (dramforge run --force)")


@pytest.fixture
def run_dir(tmp_path):
    return tmp_path


class TestCmdRun:
    def test_happy_path_creates_five_files(self, run_dir):
        cfg = write_cfg(run_dir, run_dir / "out")
        assert main(["run", cfg]) == 0
        for suffix in ("chain.txt", "restart.txt", "sample.txt", "report.txt", "progress.txt"):
            assert (run_dir / f"out_{suffix}").exists()

    def test_repeat_runs_byte_identical(self, run_dir, capsys):
        cfg_a = write_cfg(run_dir, run_dir / "a", name="a.cfg")
        cfg_b = write_cfg(run_dir, run_dir / "b", name="b.cfg")
        assert main(["run", cfg_a, "--set", "seed=11", "--set", "seed=11"]) == 0
        assert main(["run", cfg_b, "--set", "seed=11"]) == 0
        assert sha(run_dir / "a_chain.txt") == sha(run_dir / "b_chain.txt")

    def test_rerun_onto_complete_refused_without_force(self, run_dir, capsys):
        cfg = write_cfg(run_dir, run_dir / "out")
        assert main(["run", cfg]) == 0
        assert main(["run", cfg]) == 4
        assert "force" in capsys.readouterr().err

    def test_force_overwrites_complete_run(self, run_dir):
        cfg = write_cfg(run_dir, run_dir / "out")
        assert main(["run", cfg]) == 0
        first = sha(run_dir / "out_chain.txt")
        assert main(["run", cfg, "--force", "--set", "seed=18"]) == 0
        assert sha(run_dir / "out_chain.txt") != first

    def test_incomplete_requires_resume_flag(self, run_dir, mvn4, capsys):
        prefix = str(run_dir / "out")
        spec = df.SimSpec(ndim=4, output_prefix=prefix, chain_size=2000, seed=17)

        class Stop(Exception):
            pass

        def hook(iteration):
            if iteration >= 800:
                raise Stop

        with pytest.raises(Stop):
            df.run_sampler(spec, mvn4, on_checkpoint=hook)
        cfg = write_cfg(run_dir, prefix)
        assert main(["run", cfg]) == 4
        assert "resume" in capsys.readouterr().err
        assert main(["run", cfg, "--resume"]) == 0
        assert df.read_chain(prefix + "_chain.txt").total_weight == 2000

    def test_unknown_key_reports_line_number(self, run_dir, capsys):
        cfg = run_dir / "bad.cfg"
        cfg.write_text("ndim = 4\nchaim_size = 10\noutput_prefix = x\n[target]\nkind = mvn\n")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err and "chaim_size" in err

    def test_unknown_section_reports_line_number(self, run_dir, capsys):
        cfg = run_dir / "bad.cfg"
        cfg.write_text("ndim = 4\noutput_prefix = x\n[targets]\nkind = mvn\n")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "bad.cfg:3" in err and "targets" in err

    def test_line_without_equals_reports_line_number(self, run_dir, capsys):
        cfg = run_dir / "bad.cfg"
        cfg.write_text("; comment\nndim = 4\noutput_prefix = x\nseed 5\n[target]\nkind = mvn\n")
        assert main(["run", str(cfg)]) == 2
        assert "bad.cfg:4" in capsys.readouterr().err

    def test_resume_with_malformed_restart_is_input_error(self, run_dir, mvn4, capsys):
        prefix = str(run_dir / "out")
        spec = df.SimSpec(ndim=4, output_prefix=prefix, chain_size=2000, seed=17)

        class Stop(Exception):
            pass

        def hook(iteration):
            if iteration >= 1200:
                raise Stop

        with pytest.raises(Stop):
            df.run_sampler(spec, mvn4, on_checkpoint=hook)
        _corrupt(prefix + "_restart.txt", "[checkpoint 0]", "[checkpoint 0")
        assert main(["run", write_cfg(run_dir, prefix), "--resume"]) == 2
        assert "out_restart.txt:" in capsys.readouterr().err

    @pytest.mark.parametrize("encoding, refused, where", [("ascii", "restart", ":1"),
                                                        ("binary", "chain", "")])
    def test_resume_of_a_version1_prefix_is_input_error(self, run_dir, mvn4, capsys, encoding,
                                                        refused, where):
        # An ascii chain names no version, so its restart file is the one refused.
        prefix = str(run_dir / "out")
        spec = df.SimSpec(ndim=4, output_prefix=prefix, chain_size=2000, seed=17,
                          file_encoding=encoding)

        class Stop(Exception):
            pass

        def hook(iteration):
            if iteration >= 1200:
                raise Stop

        with pytest.raises(Stop):
            df.run_sampler(spec, mvn4, on_checkpoint=hook)
        paths = df.output_paths(prefix, encoding)
        if encoding == "ascii":
            _corrupt(paths["restart"], "# dramforge restart v2", "# dramforge restart v1")
        else:
            for name in ("chain", "restart"):
                with open(paths[name], "r+b") as fh:
                    fh.seek(4)
                    fh.write((1).to_bytes(4, "little"))
        cfg = write_cfg(run_dir, prefix, extra=f"file_encoding = {encoding}")
        assert main(["run", cfg, "--resume"]) == 2
        assert _refusal(paths[refused] + where, refused) in capsys.readouterr().err
        assert main(["run", cfg, "--force"]) == 0

    def test_resume_with_malformed_progress_line_is_input_error(self, run_dir, mvn4, capsys):
        prefix = str(run_dir / "out")
        spec = df.SimSpec(ndim=4, output_prefix=prefix, chain_size=3000, seed=17)

        class Stop(Exception):
            pass

        def hook(iteration):
            if iteration >= 2400:
                raise Stop

        with pytest.raises(Stop):
            df.run_sampler(spec, mvn4, on_checkpoint=hook)
        lineno = _corrupt(prefix + "_progress.txt", "1000,", "x1000,1,0.5,0,0.010")
        cfg = write_cfg(run_dir, prefix)
        assert main(["run", cfg, "--resume", "--set", "chain_size=3000"]) == 2
        assert f"out_progress.txt:{lineno}:" in capsys.readouterr().err

    def test_invalid_value_is_config_error(self, run_dir, capsys):
        cfg = write_cfg(run_dir, run_dir / "out", extra="dr_stage_count = 7")
        assert main(["run", cfg]) == 2

    @pytest.mark.parametrize("target, bad, key", [
        ("kind = mvn", "seed = abc", "seed"),
        ("kind = mvn\nmean = 0,0,0,0", "mean = 1,a,0,0", "mean"),
        ("kind = gauss_mixture\n" + "".join(
            f"component{i}_weight = 0.5\ncomponent{i}_mean = {i},0,0,0\n"
            f"component{i}_cov = 1,0;0,1\n" for i in (1, 2)),
         "component2_cov = 1,x;0,1", "component2_cov"),
        ("kind = mvn\n[target]\nmean = 0,0,0,0", "mean = 1,a,0,0", "mean"),
    ], ids=["spec", "target", "mixture", "second_target_section"])
    def test_malformed_value_names_its_line(self, run_dir, capsys, target, bad, key):
        cfg = write_cfg(run_dir, run_dir / "out", target=target)
        lineno = _corrupt(cfg, key + " = ", bad)
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert f"run.cfg:{lineno}:" in err and key in err
        assert not (run_dir / "out_chain.txt").exists()

    @pytest.mark.parametrize("item, key", [("target.mean=1,a,0,0", "mean"), ("seed=abc", "seed")])
    def test_malformed_set_value_names_set(self, run_dir, capsys, item, key):
        # The file holds the same key: its line must not be named.
        cfg = write_cfg(run_dir, run_dir / "out", target="kind = mvn\nmean = 0,0,0,0")
        assert main(["run", cfg, "--set", item]) == 2
        err = capsys.readouterr().err
        assert "--set" in err and key in err and "run.cfg" not in err
        assert not (run_dir / "out_chain.txt").exists()

    def test_cov_rows_skip_blank_rows(self, run_dir):
        cfg = write_cfg(run_dir, run_dir / "out", target="kind = mvn\ncov = ;1,0.5; ;0.5,2;")
        _, target_pairs = parse_config(cfg)
        cov = build_cli_target(target_pairs, 2).params["cov"]
        assert cov.dtype == float and np.array_equal(cov, [[1.0, 0.5], [0.5, 2.0]])

    @pytest.mark.parametrize("extra, target, lineno, key", [
        ("seed = 2", "kind = mvn", 6, "seed"),
        ("", "kind = mvn\nkind = rosenbrock", 9, "kind"),
        ("", "kind = mvn\n[target]\nkind = rosenbrock", 10, "kind"),
    ])
    def test_repeated_config_key_exit_2(self, run_dir, capsys, extra, target, lineno, key):
        cfg = write_cfg(run_dir, run_dir / "out", extra=extra, target=target)
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert f"run.cfg:{lineno}:" in err and repr(key) in err
        assert not (run_dir / "out_chain.txt").exists()

    def test_multi_chain_mode(self, run_dir, capsys):
        cfg = write_cfg(
            run_dir, run_dir / "mc",
            extra="parallelism = multi_chain\nnum_workers = 2",
        )
        assert main(["run", cfg, "--set", "chain_size=1500"]) == 0
        out = capsys.readouterr().out
        assert "multi-chain comparison" in out
        assert (run_dir / "mc_c1_chain.txt").exists()
        assert (run_dir / "mc_c2_chain.txt").exists()
        assert (run_dir / "mc_convergence.txt").exists()

    def test_env_output_dir_override(self, run_dir, monkeypatch):
        sandbox = run_dir / "elsewhere"
        sandbox.mkdir()
        monkeypatch.setenv("DRAMFORGE_OUT", str(sandbox))
        cfg = write_cfg(run_dir, "ignored_dir/out")
        assert main(["run", cfg]) == 0
        assert (sandbox / "out_chain.txt").exists()

    def test_mixture_target_config(self, run_dir):
        target = (
            "kind = gauss_mixture\n"
            "component1_weight = 0.5\n"
            "component1_mean = -2,0,0,0\n"
            "component2_weight = 0.5\n"
            "component2_mean = 2,0,0,0\n"
        )
        cfg = write_cfg(run_dir, run_dir / "mix", target=target)
        assert main(["run", cfg]) == 0

    @pytest.mark.parametrize("components, missing", [
        ((1, 3), "component2_weight"),  # a gap in the numbering
        ((0, 1), "component0"),
    ])
    def test_mixture_component_numbering(self, run_dir, capsys, components, missing):
        target = "kind = gauss_mixture\n" + "".join(
            f"component{i}_weight = 0.5\ncomponent{i}_mean = {i},0,0,0\n" for i in components
        )
        cfg = write_cfg(run_dir, run_dir / "mix", target=target)
        assert main(["run", cfg]) == 2
        assert missing in capsys.readouterr().err
        assert not (run_dir / "mix_chain.txt").exists()

    @pytest.mark.parametrize("small, named", [
        ((1, 2), "component 1"),  # every covariance 2x2 at ndim 4
        ((2,), "component 2"),  # one 2x2 among 4x4 ones
    ])
    def test_mixture_covariance_of_another_size(self, run_dir, capsys, small, named):
        target = "kind = gauss_mixture\n" + "".join(
            f"component{i}_weight = 0.5\ncomponent{i}_mean = {i},0,0,0\n"
            + (f"component{i}_cov = 1,0;0,1\n" if i in small else "")
            for i in (1, 2)
        )
        cfg = write_cfg(run_dir, run_dir / "mix", target=target)
        assert main(["run", cfg]) == 2
        assert f"{named} covariance is 2x2" in capsys.readouterr().err
        assert not (run_dir / "mix_chain.txt").exists()

    def test_mixture_component_without_mean(self, run_dir, capsys):
        target = "kind = gauss_mixture\ncomponent1_weight = 1.0\n"
        cfg = write_cfg(run_dir, run_dir / "mix", target=target)
        assert main(["run", cfg]) == 2
        assert "component1_mean" in capsys.readouterr().err

    def test_resume_onto_complete_run(self, run_dir, capsys):
        cfg = write_cfg(run_dir, run_dir / "out")
        assert main(["run", cfg]) == 0
        first = sha(run_dir / "out_chain.txt")
        assert main(["run", cfg, "--resume"]) == 4
        assert "force" in capsys.readouterr().err
        assert sha(run_dir / "out_chain.txt") == first
        assert main(["run", cfg, "--resume", "--force", "--set", "seed=18"]) == 0
        assert sha(run_dir / "out_chain.txt") != first

    def test_target_of_another_ndim_is_config_error(self, run_dir, capsys):
        cfg = write_cfg(run_dir, run_dir / "out", target="kind = mvn\nmean = 0,0")
        assert main(["run", cfg]) == 2
        assert "target has ndim 2, simulation spec says 4" in capsys.readouterr().err
        assert not (run_dir / "out_chain.txt").exists()

    @pytest.mark.parametrize("target, key, kind", [
        ("kind = mvn\nscale = 3", "scale", "mvn"),
        ("kind = mvn\ncomponent1_weight = 1", "component1_weight", "mvn"),
        ("kind = rosenbrock\nmean = 5,5,5,5", "mean", "rosenbrock"),
    ])
    @pytest.mark.parametrize("via_set", [False, True])
    def test_target_key_the_kind_does_not_use_is_config_error(self, run_dir, capsys,
                                                             target, key, kind, via_set):
        if via_set:  # the key comes from --set, the kind from the file
            kind_line, pair = target.split("\n")
            cfg = write_cfg(run_dir, run_dir / "out", target=kind_line)
            argv = ["run", cfg, "--set", f"target.{pair.replace(' ', '')}"]
        else:
            argv = ["run", write_cfg(run_dir, run_dir / "out", target=target)]
        assert main(argv) == 2
        assert f"target key {key!r} is not used by kind {kind!r}" in capsys.readouterr().err
        assert not (run_dir / "out_chain.txt").exists()

    def test_kind_set_on_the_command_line_rejects_the_file_keys(self, run_dir, capsys):
        cfg = write_cfg(run_dir, run_dir / "out", target="kind = mvn\nmean = 1,0,0,0")
        assert main(["run", cfg, "--set", "target.kind=rosenbrock"]) == 2
        assert "target key 'mean' is not used by kind 'rosenbrock'" in capsys.readouterr().err

    def test_force_starts_a_complete_multi_chain_run_over(self, run_dir, capsys):
        cfg = write_cfg(run_dir, run_dir / "mc", extra="parallelism = multi_chain\nnum_workers = 3")
        assert main(["run", cfg]) == 0
        first = [sha(run_dir / f"mc_c{k}_chain.txt") for k in (1, 2, 3)]
        conv = sha(run_dir / "mc_convergence.txt")
        assert main(["run", cfg]) == 4
        assert main(["run", cfg, "--resume"]) == 4
        assert "force" in capsys.readouterr().err
        assert main(["run", cfg, "--force", "--set", "seed=18"]) == 0
        again = [sha(run_dir / f"mc_c{k}_chain.txt") for k in (1, 2, 3)]
        assert all(a != b for a, b in zip(first, again))
        assert sha(run_dir / "mc_convergence.txt") != conv

    def test_interrupted_multi_chain_run_resumes(self, run_dir, mvn4, monkeypatch, capsys):
        prefix = str(run_dir / "mc")
        cfg = write_cfg(run_dir, prefix, extra="parallelism = multi_chain\nnum_workers = 3")
        spec = df.SimSpec(ndim=4, output_prefix=prefix, chain_size=2000, seed=17,
                          parallelism="multi_chain", num_workers=3)

        class Stop(Exception):
            pass

        append = df.chainio.RestartWriter.append

        def stop_in_chain_2(writer, ck):
            if "_c2_" in writer.path and ck.checkpoint_index == 2:
                raise Stop
            append(writer, ck)

        with monkeypatch.context() as patch:
            patch.setattr(df.chainio.RestartWriter, "append", stop_in_chain_2)
            with pytest.raises(Stop):
                df.run_multi_chain(spec, mvn4, 3)
        assert main(["run", cfg]) == 4
        assert "resume" in capsys.readouterr().err
        assert main(["run", cfg, "--resume"]) == 0
        assert df.inspect_outputs(spec) == "complete"

    @pytest.mark.parametrize("held, resume_exit", [("empty chain", 2), ("headers", 4)])
    def test_run_killed_before_checkpoint_0_starts_over_with_force(self, run_dir, capsys,
                                                                   held, resume_exit):
        # What a kill leaves before checkpoint 0 reaches disk: an empty
        # chain file, or the chain header and the restart file's spec echo.
        clean = write_cfg(run_dir, run_dir / "clean", name="clean.cfg")
        assert main(["run", clean]) == 0
        chain = (run_dir / "clean_chain.txt").read_bytes()
        restart = (run_dir / "clean_restart.txt").read_bytes()
        if held == "empty chain":
            (run_dir / "out_chain.txt").write_bytes(b"")
        else:
            (run_dir / "out_chain.txt").write_bytes(chain[: chain.index(b"\n") + 1])
            (run_dir / "out_restart.txt").write_bytes(restart[: restart.index(b"[checkpoint 0]")])
        cfg = write_cfg(run_dir, run_dir / "out")
        assert main(["run", cfg]) == 4
        assert main(["run", cfg, "--resume"]) == resume_exit
        assert "force" in capsys.readouterr().err
        assert main(["run", cfg, "--force"]) == 0
        for name in ("chain", "sample"):
            assert sha(run_dir / f"out_{name}.txt") == sha(run_dir / f"clean_{name}.txt")

    def test_multi_chain_too_short_for_ks_tests_finishes(self, run_dir):
        # Far from the mode, 30 iterations refine to fewer points than a KS
        # test takes: no pair is tested, and the convergence file is written.
        cfg = write_cfg(run_dir, run_dir / "mc")
        tiny = ["--set", "parallelism=multi_chain", "--set", "num_workers=2",
                "--set", "chain_size=30", "--set", "start_point=30,30,30,30"]
        assert main(["run", cfg] + tiny) == 0
        text = (run_dir / "mc_convergence.txt").read_text(encoding="utf-8")
        assert "\nn_tests = 0\n" in text
        assert text.endswith("\nchainA,chainB,dimension,D,p\n")

    def test_rosenbrock_target_config(self, run_dir):
        cfg = write_cfg(
            run_dir, run_dir / "rb",
            target="kind = rosenbrock\nscale = 20",
        )
        assert main(["run", cfg, "--set", "chain_size=1200", "--set", "ndim=2"]) == 0


class TestCmdPostproc:
    @pytest.fixture
    def finished(self, run_dir):
        cfg = write_cfg(run_dir, run_dir / "out")
        assert main(["run", cfg, "--set", "chain_size=2500"]) == 0
        return str(run_dir / "out")

    def test_acf_export_starts_at_lag_zero(self, finished):
        assert main(["postproc", finished, "--what", "acf"]) == 0
        lines = open(finished + "_acf.csv").read().splitlines()
        assert lines[0].startswith("lag,chain_var1")
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 1.0
        assert os.path.exists(finished + "_acf.gp")

    def test_covmat_rows_match_checkpoint_count(self, finished):
        assert main(["postproc", finished, "--what", "covmat"]) == 0
        rows = open(finished + "_covmat.csv").read().splitlines()[1:]
        _, records = df.read_restart(finished + "_restart.txt")
        assert len(rows) == len(records)

    def test_contrib_histogram_sums_to_rows(self, finished):
        assert main(["postproc", finished, "--what", "contrib"]) == 0
        rows = open(finished + "_contrib.csv").read().splitlines()[1:]
        total = sum(int(r.split(",")[1]) for r in rows)
        chain = df.read_chain(finished + "_chain.txt")
        assert total == chain.n_rows

    def test_repeated_calls_leave_no_cyclic_garbage(self, finished):
        # The parser is built once per process: a parser per call leaves about
        # a hundred objects that only the cyclic collector frees.
        assert main(["postproc", finished, "--what", "stats"]) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for what in ("stats", "acf", "covmat", "contrib"):
                assert main(["postproc", finished, "--what", what]) == 0
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    def test_stats_export(self, finished):
        assert main(["postproc", finished, "--what", "stats"]) == 0
        text = open(finished + "_stats.csv").read()
        assert text.startswith("metric,value\n")
        assert "ess," in text

    def test_idempotent_bytes(self, finished):
        assert main(["postproc", finished, "--what", "acf"]) == 0
        first = sha(finished + "_acf.csv")
        assert main(["postproc", finished, "--what", "acf"]) == 0
        assert sha(finished + "_acf.csv") == first

    def test_missing_outputs_exit_2(self, run_dir, capsys):
        assert main(["postproc", str(run_dir / "nothing"), "--what", "stats"]) == 2

    def test_postproc_handles_binary_runs(self, run_dir):
        cfg = write_cfg(run_dir, run_dir / "bin", extra="file_encoding = binary")
        assert main(["run", cfg]) == 0
        prefix = str(run_dir / "bin")
        for what in ("stats", "acf", "covmat", "contrib"):
            assert main(["postproc", prefix, "--what", what]) == 0
            assert os.path.exists(f"{prefix}_{what}.csv")

    def test_one_point_refined_sample(self, run_dir):
        # Far from the mode, burn-in ends at the last row but one, and the
        # refined sample keeps a single point: it has no autocorrelation.
        cfg = write_cfg(run_dir, run_dir / "far")
        far = ["--set", "ndim=2", "--set", "start_point=40,40", "--set", "chain_size=10",
               "--set", "seed=0"]
        assert main(["run", cfg] + far) == 0
        prefix = str(run_dir / "far")
        states, _ = df.read_sample(prefix + "_sample.txt")
        assert states.shape == (1, 2)
        for what in ("stats", "acf", "covmat", "contrib"):
            assert main(["postproc", prefix, "--what", what]) == 0
        lines = open(prefix + "_acf.csv").read().splitlines()
        assert lines[0] == "lag,chain_var1,chain_var2,refined_var1,refined_var2"
        assert len(lines) == 1 + 1 + 1  # header, lags 0 and 1
        for lag, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(lag) and cells[3:] == ["", ""]
            assert all(cells[1:3])

    def test_one_iteration_run(self, run_dir):
        # A verbose chain of one row has no autocorrelation, and neither
        # has its one-point refined sample: only the lag column is filled.
        cfg = write_cfg(run_dir, run_dir / "one")
        assert main(["run", cfg, "--set", "chain_size=1"]) == 0
        prefix = str(run_dir / "one")
        for what in ("stats", "acf", "covmat", "contrib"):
            assert main(["postproc", prefix, "--what", what]) == 0
        lines = open(prefix + "_acf.csv").read().splitlines()
        assert lines[1:] == ["0" + "," * 8]

    def test_truncated_report_exit_2(self, finished, capsys):
        path = finished + "_report.txt"
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        assert main(["postproc", finished, "--what", "stats"]) == 2
        assert "out_report.txt:" in capsys.readouterr().err

    def test_malformed_report_value_exit_2(self, finished, capsys):
        lineno = _corrupt(finished + "_report.txt", "accepted_count = ", "accepted_count = x1214")
        assert main(["postproc", finished, "--what", "stats"]) == 2
        assert f"out_report.txt:{lineno}:" in capsys.readouterr().err

    def test_version1_report_exit_2(self, run_dir, finished, capsys):
        path = finished + "_report.txt"
        _corrupt(path, "# dramforge report v2", "# dramforge report v1")
        assert main(["postproc", finished, "--what", "stats"]) == 2
        assert _refusal(path + ":1", "report") in capsys.readouterr().err
        # The run's report marks it finished; no file is read to tell.
        assert main(["run", write_cfg(run_dir, finished)]) == 4

    def test_malformed_sample_exit_2(self, finished, capsys):
        lineno = _corrupt(finished + "_sample.txt", "-", "abc,0,0,0,0")
        assert main(["postproc", finished, "--what", "acf"]) == 2
        assert f"out_sample.txt:{lineno}:" in capsys.readouterr().err

    def test_blank_sample_line_exit_2(self, finished, capsys):
        path = finished + "_sample.txt"
        with open(path, encoding="utf-8", newline="\n") as fh:
            lines = fh.read().split("\n")
        lines.insert(3, "")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines))
        assert main(["postproc", finished, "--what", "acf"]) == 2
        assert "out_sample.txt:4: blank line" in capsys.readouterr().err

    def test_unterminated_sample_line_exit_2(self, finished, capsys):
        path = finished + "_sample.txt"
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-1])
        assert main(["postproc", finished, "--what", "acf"]) == 2
        lineno = blob.count(b"\n")
        assert f"out_sample.txt:{lineno}: unterminated line" in capsys.readouterr().err

    def test_malformed_restart_exit_2(self, finished, capsys):
        lineno = _corrupt(finished + "_restart.txt", "[checkpoint 1]", "[checkpoint 1")
        assert main(["postproc", finished, "--what", "covmat"]) == 2
        assert f"out_restart.txt:{lineno}:" in capsys.readouterr().err
