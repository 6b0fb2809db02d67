"""Golden file bytes: the sha256 of chain and restart files, pinned.

A change to any of these hashes changes the chain a seed produces, or the
bytes of its restart file. That is allowed only on purpose, with the reason
recorded in CHANGES.md and the new hash pinned here.
"""

import hashlib
import itertools
import os

import numpy as np

import dramforge as df
from dramforge.cli import build_cli_target, build_spec, parse_config

MVN4_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "mvn4.cfg")

# Serial DR1 run of configs/mvn4.cfg at 5k iterations. Unchanged since the
# first release of the sampler: serial streams are not touched by fork-join.
SERIAL_MVN4 = "b9b386d078d615a13b4341eb4ac47ad68e6d5f9bf46bb5381dbf057af0a04cfc"
# The same config with 8 fork-join workers and two DR stages.
FORKJOIN8_DR2_MVN4 = "1b65e792622d9da13561869a2431544d1e82962c126d083dc819f6b8698bd0fb"
# Serial DR1 run on a 16-component mixture (vectorized mixture evaluation).
SERIAL_MIXTURE16 = "d2c33757350475145bd4991e21f1e9302a242163c911b631d8c5ef5d696e3f5a"
# The serial mvn4 run's restart file (output prefix "mvn4"), and the same
# run in binary and in the ascii verbose format. Captured before the
# checkpoint schema and the columnar row store replaced the hand-written
# checkpoint codecs and the per-row record type.
SERIAL_MVN4_RESTART = "cb2ce8cf1340c6a5b18c4a586c6f50fd7249e308ecad8a2d34d5d3fe04df0a91"
BINARY_MVN4 = "fa2a2e8247dd32d14ea4d912b3f1ac9ce950dfe5c81bd548e5dffb1ea44154b1"
BINARY_MVN4_RESTART = "260bf01fc04b124f30e8157b5e08a8eda5a09feb327a3581132eb13c4a971330"
VERBOSE_MVN4 = "6d6c93ebaf1a48eb26def44df1a06baeb7b49805a5644d523dbe511be24e1fc0"


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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
    # The restart file echoes the output prefix, so a pinned restart hash
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


def test_binary_mvn4_config_chain_and_restart_bytes(tmp_path, monkeypatch):
    paths = mvn4_config_paths_in(tmp_path, monkeypatch, file_encoding="binary")
    assert sha(paths["chain"]) == BINARY_MVN4
    assert sha(paths["restart"]) == BINARY_MVN4_RESTART


def test_verbose_mvn4_config_chain_bytes(tmp_path):
    assert mvn4_config_chain_sha(tmp_path, chain_format="verbose") == VERBOSE_MVN4
