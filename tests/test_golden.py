"""Golden file bytes: the sha256 of chain, restart, sample and report files, pinned.

A change to any of these hashes changes the chain a seed produces, or the
bytes of its restart file, refined sample or report. That is allowed only on purpose, with the reason
recorded in CHANGES.md and the new hash pinned here.
"""

import hashlib
import itertools
import os
from dataclasses import replace

import numpy as np
import pytest

import dramforge as df
from dramforge.cli import build_cli_target, build_spec, parse_config
from v1_files import to_v1

MVN4_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "mvn4.cfg")

# Re-pinned when the DR kernel became period-batched: steps and kernel terms
# are computed per block of slots with an elementwise fold, the kernel terms
# from differences of steps. States, log-densities and proposal statistics
# moved in their last digits; the draws and every accept/reject decision are
# unchanged (the *_DECISIONS pins below are from before that change).
#
# Serial DR1 run of configs/mvn4.cfg at 5k iterations.
SERIAL_MVN4 = "00e6bb3bb08b09da861430e4d3c71b91de8f567767b7e7c4079108dea78ea9f3"
# The same config with 8 fork-join workers and two DR stages.
FORKJOIN8_DR2_MVN4 = "e99e649a96a0a9d1bfbda6f3881d886859cd2d6f735fcd7b7b31659c35eb3ccf"
# Serial DR1 run on a 16-component mixture (vectorized mixture evaluation).
SERIAL_MIXTURE16 = "50330e377bf8b72bf9b22517f99e6a4fb6de3f6703e48ae6e7a2738628822c1d"
# Re-pinned for format version 2: restart records store the chain's byte
# sizes and the epsilon inflations, binary chain rows lost their reserved
# f64, and the report gained eps_inflations. No chain value moved. Each
# *_V1 pin is the version-1 file of the same run, which tests/v1_files.py
# makes from the version-2 one; version-1 files read as version-2 ones do.
#
# The serial mvn4 run's restart file (output prefix "mvn4"), and the same
# run in binary and in the ascii verbose format.
SERIAL_MVN4_RESTART = "17670224ff165c390efed0c760e1d51a9f2c570736cba41080675595eab5f6e0"
SERIAL_MVN4_RESTART_V1 = "dc32102e360d3023b7266ba1acdf4b3030becd93f72146a4a26b9f9607d8a7f1"
BINARY_MVN4 = "5cbc881c3089ec3493ba19d14eb4915d7e1bfd38b21c1981ba0a67c2c8943a04"
BINARY_MVN4_V1 = "7cc68d120cb77c4fd96fb5fbdc3d1b4e0e813f0ec749bddb04c1a38930e2ca66"
BINARY_MVN4_RESTART = "6575a3b532d09eee9463c20a2dc58d409648c03d3f077b56edac690d0febacbc"
BINARY_MVN4_RESTART_V1 = "d7f6ed125cf422e36d863aaa95a0a8fae071fdf9aab41a0bbb78dafe547bc7b4"
# The binary restart file of the 8-worker DR2 run: 13 records of 8 streams.
BINARY_FORKJOIN8_DR2_MVN4_RESTART = (
    "f794d483c9a36773dd9739c2d8b9b82509608a7b8ebc9f7eb87bb5d3543e7b6a"
)
BINARY_FORKJOIN8_DR2_MVN4_RESTART_V1 = (
    "85aed54b39bdc7417db314b69a4fe045b8ff82027dd57d976392846b259caf4e"
)
VERBOSE_MVN4 = "7af99a98fff40b8e72867f01f99dec32f17aaab115bb9ce2f5f0292fe75869a9"
# The serial mvn4 run's refined sample and report (output prefix "mvn4"):
# they pin the burn-in, every refinement pass and the ESS.
SERIAL_MVN4_SAMPLE = "86bfa0f687543ba31599bb73a2c26dc2fcea5856d136230418536ae629637aaf"
SERIAL_MVN4_REPORT = "864686ef71b8cc31c7668925c35bf61415c028750bfbd3f1e793885bd9ec8663"
SERIAL_MVN4_REPORT_V1 = "4b654eff7980c0e4877cfa0614c7416282ab9e32987b8e40b38ba35e97ea0ecb"

# sha256 of the decision columns (process_id, dr_stage, weight; one "<i8"
# array per column, in that order) of the chains above, as read back from
# their files. Every configs/mvn4.cfg variant above makes the same decisions.
# These must not change when only floating-point rounding does.
SERIAL_MVN4_DECISIONS = "83f7a7f876349c39965c7b369cdbb6da0144e682b083ed29549fa8ba47f5c7f8"
FORKJOIN8_DR2_MVN4_DECISIONS = "fa6f1a32f8fe6fab0aa0b37646ebbdc24ecccb76734a99ee7fbfe85992688063"
SERIAL_MIXTURE16_DECISIONS = "cc5cbdc612ec95d3d968b2818919d4f642bf42b3509f6731696cd420d8172d6f"


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def decisions_sha(path):
    chain = df.read_chain(path)
    columns = np.stack([chain.process_id, chain.dr_stage, chain.weight]).astype("<i8")
    return hashlib.sha256(columns.tobytes()).hexdigest()


def check_v1_files(paths, pins):
    """Convert a run's files to version 1: each file named in ``pins`` gets
    its sha256 there, and all of them read as the version-2 files do, but
    for the fields version 1 lacks."""
    chain, (spec, checkpoints) = df.read_chain(paths["chain"]), df.read_restart(paths["restart"])
    report = df.read_report(paths["report"])
    to_v1(paths)
    assert {name: sha(paths[name]) for name in pins} == pins
    assert df.read_chain(paths["chain"]) == chain
    assert df.read_restart(paths["restart"]) == (spec, [
        replace(ck, chain_compact_bytes=None, chain_verbose_bytes=None, eps_inflations=0)
        for ck in checkpoints])
    assert df.read_report(paths["report"]) == replace(report, eps_inflations=0)


def run_chain_sha(spec, target):
    out = df.run_sampler(spec, target)
    return sha(out.paths["chain"])


def mvn4_config_paths(prefix, **fields):
    """Output paths of configs/mvn4.cfg run at 5k iterations."""
    spec_pairs, target_pairs = parse_config(MVN4_CFG)
    spec = build_spec(spec_pairs).with_updates(
        output_prefix=prefix, chain_size=5000, **fields
    )
    target = df.build_target(build_cli_target(target_pairs, spec.ndim))
    return df.run_sampler(spec, target).paths


def mvn4_config_chain_sha(tmp_path, **fields):
    return sha(mvn4_config_paths(str(tmp_path / "mvn4"), **fields)["chain"])


def mvn4_config_paths_in(tmp_path, monkeypatch, **fields):
    # The restart and report files echo the output prefix, so a pinned hash
    # needs the same relative prefix on every machine.
    monkeypatch.chdir(tmp_path)
    return mvn4_config_paths("mvn4", **fields)


def corner_mixture16():
    """Equal-weight unit Gaussians centred on the 16 corners of [-1.5, 1.5]^4."""
    means = [np.array(c) for c in itertools.product((-1.5, 1.5), repeat=4)]
    return df.mixture_target(np.full(16, 1.0 / 16), means, [np.eye(4)] * 16)


def test_serial_mvn4_config_chain_bytes(tmp_path):
    assert mvn4_config_chain_sha(tmp_path) == SERIAL_MVN4


def test_forkjoin8_dr2_mvn4_chain_bytes(tmp_path):
    got = mvn4_config_chain_sha(
        tmp_path, parallelism="single_chain", num_workers=8, dr_stage_count=2
    )
    assert got == FORKJOIN8_DR2_MVN4


def test_serial_mixture16_chain_bytes(tmp_path):
    spec = df.SimSpec(ndim=4, output_prefix=str(tmp_path / "mix"), chain_size=5000, seed=11)
    assert run_chain_sha(spec, corner_mixture16()) == SERIAL_MIXTURE16


def test_serial_mvn4_config_restart_bytes(tmp_path, monkeypatch):
    paths = mvn4_config_paths_in(tmp_path, monkeypatch)
    assert sha(paths["restart"]) == SERIAL_MVN4_RESTART
    check_v1_files(paths, {"restart": SERIAL_MVN4_RESTART_V1, "report": SERIAL_MVN4_REPORT_V1})


def test_serial_mvn4_config_sample_and_report_bytes(tmp_path, monkeypatch):
    paths = mvn4_config_paths_in(tmp_path, monkeypatch)
    assert sha(paths["sample"]) == SERIAL_MVN4_SAMPLE
    assert sha(paths["report"]) == SERIAL_MVN4_REPORT


def test_binary_mvn4_config_chain_and_restart_bytes(tmp_path, monkeypatch):
    paths = mvn4_config_paths_in(tmp_path, monkeypatch, file_encoding="binary")
    assert sha(paths["chain"]) == BINARY_MVN4
    assert sha(paths["restart"]) == BINARY_MVN4_RESTART
    check_v1_files(paths, {"chain": BINARY_MVN4_V1, "restart": BINARY_MVN4_RESTART_V1})


def test_binary_forkjoin8_dr2_mvn4_config_restart_bytes(tmp_path, monkeypatch):
    paths = mvn4_config_paths_in(tmp_path, monkeypatch, file_encoding="binary",
                                 parallelism="single_chain", num_workers=8, dr_stage_count=2)
    checkpoints = df.read_restart(paths["restart"])[1]
    assert [len(ck.rng_states) for ck in checkpoints] == [8] * 13
    assert sha(paths["restart"]) == BINARY_FORKJOIN8_DR2_MVN4_RESTART
    check_v1_files(paths, {"restart": BINARY_FORKJOIN8_DR2_MVN4_RESTART_V1})


def test_verbose_mvn4_config_chain_bytes(tmp_path):
    assert mvn4_config_chain_sha(tmp_path, chain_format="verbose") == VERBOSE_MVN4


@pytest.mark.parametrize("fields", [
    {},
    {"file_encoding": "binary"},
    {"chain_format": "verbose"},
    {"parallelism": "single_chain", "num_workers": 8, "dr_stage_count": 2},
])
def test_mvn4_config_decisions(tmp_path, fields):
    expect = FORKJOIN8_DR2_MVN4_DECISIONS if fields.get("num_workers") else SERIAL_MVN4_DECISIONS
    paths = mvn4_config_paths(str(tmp_path / "mvn4"), **fields)
    assert decisions_sha(paths["chain"]) == expect


def test_serial_mixture16_decisions(tmp_path):
    spec = df.SimSpec(ndim=4, output_prefix=str(tmp_path / "mix"), chain_size=5000, seed=11)
    out = df.run_sampler(spec, corner_mixture16())
    assert decisions_sha(out.paths["chain"]) == SERIAL_MIXTURE16_DECISIONS


# Other dimensions than 4, each run once for its chain, restart, decision and
# version-1 restart pins (output prefix "run"). At ndim 1 the proposal adapts
# every 100 iterations; at ndim 20 every 2,000, so the DR2 run adapts four
# times, the first time greedily.
OTHER_DIMENSIONS = {
    "ndim1-dr1": (
        "7d106f219b31768a5f35dd5ba49dd03e408f524afb20f59abc0e3929fa71f441",
        "ebad1c64165f02ce8bb33d4d2631f6df94714ae3923f95577a5306e819c9a845",
        "6c2c9411c98e33416b5c5cf2991f1924951f816abec6602e7579d6bab3dfd0d8",
        "a727fe851c08ee567372c396b9fbb130c7d4d394807db896878d683dfda35e66",
    ),
    "ndim20-dr2": (
        "ec132f440300f54b27e702bbbd2f1271597542feffd6f0d8bf6490a3f631d0ec",
        "62ee1ebc1e26eeef355e46a83024eedbee51c778a2252f07ab763ca01b93c7ab",
        "7df2b3b4156fe98c4505036b10dd873be0982436b3ea39128ddacc5734207ad2",
        "f32f73a0429cbf75e1ed3488789ad175d5b7ad84019321b85b202cca0b63f0d2",
    ),
}


def other_dimension_run(case):
    if case == "ndim1-dr1":
        spec = df.SimSpec(ndim=1, output_prefix="run", chain_size=5000, seed=5,
                          start_point=[3.0])
        return spec, df.mvn_target([1.0], [[2.5]])
    idx = np.arange(20)
    cov = 0.6 ** np.abs(idx[:, None] - idx[None, :]) * np.sqrt(np.outer(idx + 1, idx + 1)) / 4
    spec = df.SimSpec(ndim=20, output_prefix="run", chain_size=8000, seed=17,
                      dr_stage_count=2, greedy_adaptation_count=1)
    return spec, df.mvn_target(np.linspace(-1.0, 1.0, 20), cov)


@pytest.mark.parametrize("case", sorted(OTHER_DIMENSIONS))
def test_other_dimension_bytes_and_decisions(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    out = df.run_sampler(*other_dimension_run(case))
    # The initial checkpoint, then one per adaptation.
    assert len(df.read_restart(out.paths["restart"])[1]) >= 4
    chain, restart, decisions, restart_v1 = OTHER_DIMENSIONS[case]
    got = (sha(out.paths["chain"]), sha(out.paths["restart"]),
           decisions_sha(out.paths["chain"]))
    assert got == (chain, restart, decisions)
    check_v1_files(out.paths, {"restart": restart_v1})
