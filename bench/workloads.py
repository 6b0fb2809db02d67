"""The benchmark's workloads: inputs built from the seed, timed operations, checks.

Every workload runs the program's user-facing operations through its public
functions: ``run_sampler`` (a run), ``cli.main(["run", ..., "--resume"])``
(a resume of an interrupted run) and ``cli.main(["postproc", ...])`` (the
four exports). A workload is a fixed round of these operations, repeated
until the run time is spent; the workloads differ in target, parallelism,
encoding and chain length, and so in the layer their time goes to.

- ``serial-mvn4``: the shipped ``configs/mvn4.cfg`` (serial, DR stage 1,
  ascii compact). Two 20k-iteration runs per round, whose time goes to the
  RNG, the proposal, the DR algebra and the ascii chain writer; then twelve
  resumes and postprocs of short runs of the same spec.
- ``forkjoin-mixture``: a 4-d mixture of 16 identity-covariance Gaussians,
  fork-join with 8 workers, DR stage 2, binary files. A target call costs
  about 80 us on a 2-core Xeon VM, and a fork-join cycle evaluates every
  rank, so the target and the wasted attempts dominate. One run per round,
  then one short resume and postproc.

The resumes and postprocs carry the read side of ``chainio`` (chain and
restart reads, the rewrite on resume) and ``weighted_acf``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import dramforge as df
from dramforge import cli

import ess as bench_ess

MVN4_CONFIG = os.path.join("configs", "mvn4.cfg")
POSTPROC_KINDS = ("stats", "acf", "covmat", "contrib")
MIXTURE_COMPONENTS = 16
MIXTURE_SPREAD = 1.0  # mixture means have covariance MIXTURE_SPREAD**2 * I


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th case or run; index 0 is ``seed`` itself."""
    if index == 0:
        return seed
    state = np.random.SeedSequence([seed, index]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) | (int(state[1]) >> 1)


class Checks:
    """Counts correctness checks and failed calls; reports failures on stderr."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log(f"check failed: {what}")
        return ok


def _cli(argv: list[str]) -> int:
    # The CLI reports on stdout; the benchmark's stdout carries its result.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _run_sampler(*args, **kwargs):
    # Looked up when called, so a traced run calls the wrapped function.
    return df.run_sampler(*args, **kwargs)


def _csv_rows(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def _mixture_means(seed: int) -> np.ndarray:
    # Centred and whitened so the mixture has mean 0 and covariance
    # (1 + MIXTURE_SPREAD**2) * I whatever the seed: the seed moves the
    # shape of the target, not the scale the sampler must adapt to.
    raw = np.random.default_rng(seed).standard_normal((MIXTURE_COMPONENTS, 4))
    raw -= raw.mean(axis=0)
    chol = np.linalg.cholesky(raw.T @ raw / MIXTURE_COMPONENTS)
    return np.linalg.solve(chol, raw.T).T * MIXTURE_SPREAD


@dataclass
class Case:
    """One set-up: a target, its config file and an interrupted run of it."""

    seed: int
    config: str
    target: df.TargetDensity
    prefix: str  # output prefix of the finished run and of every resume
    paths: dict  # output file kind -> path, under prefix
    template: dict  # file kind -> path of the interrupted run's copy
    reference_chain: bytes  # chain file of the uninterrupted run
    reference: df.CompactChain
    rp_ess: float = 0.0  # benchmark ESS of the finished resumed chain


@dataclass
class Tally:
    """What the timed operations of one run produced."""

    sample_walls: list = field(default_factory=list)
    sample_bytes_per_iter: list = field(default_factory=list)
    sample_ess: list = field(default_factory=list)  # (ESS, iterations) per run
    resume_walls: list = field(default_factory=list)  # (case, wall) per resume
    resume_ess: list = field(default_factory=list)  # (ESS, chain_size) per resume
    postproc_walls: list = field(default_factory=list)  # (case, wall) per postproc

    def timed_s(self) -> float:
        """Wall time of all timed operations."""
        return (sum(self.sample_walls) + sum(w for _, w in self.resume_walls)
                + sum(w for _, w in self.postproc_walls))


def case_mean(walls: list) -> float:
    """Mean over cases of each case's median wall, without the top and bottom tenth.

    Every case weighs the same however often it ran; the trim drops cases
    that a host stall hit.
    """
    by_case = defaultdict(list)
    for case, wall in walls:
        by_case[case].append(wall)
    per_case = sorted(statistics.median(v) for v in by_case.values())
    cut = len(per_case) // 10
    return statistics.fmean(per_case[cut : len(per_case) - cut])


class Workload:
    """Base: a round of ``sample`` and ``rp`` (resume + postproc) operations."""

    name = ""
    round: tuple[str, ...] = ()
    # Independent set-ups (target and interrupted run) that the operations
    # cycle through. Postproc time grows with the refined sample size, which
    # varies up to 10x with the seed (case-to-case cv near 0.45), so a steady
    # mean over a run needs many cases, nearly all of them resumed.
    case_count = 0
    sample_size = 0
    rp_size = 0
    rp_interrupt = 0  # checkpoint iteration at which the run is cut

    @property
    def resumed_iterations(self) -> int:
        return self.rp_size - self.rp_interrupt

    def __init__(self, work: str):
        self.work = work
        self.cases: list[Case] = []

    # --- inputs -----------------------------------------------------------

    def config_for(self, case_dir: str, seed: int) -> str:
        return MVN4_CONFIG

    def target_for(self, config: str, seed: int) -> df.TargetDensity:
        spec_pairs, target_pairs = cli.parse_config(config)
        ndim = int(spec_pairs["ndim"])
        return df.build_target(cli.build_cli_target(target_pairs, ndim))

    def overrides(self, prefix: str, chain_size: int, seed: int) -> list[str]:
        return [f"output_prefix={prefix}", f"chain_size={chain_size}", f"seed={seed}"]

    def spec(self, config: str, prefix: str, chain_size: int, seed: int) -> df.SimSpec:
        spec_pairs, _ = cli.parse_config(config)
        for item in self.overrides(prefix, chain_size, seed):
            key, _, value = item.partition("=")
            spec_pairs[key] = value
        return cli.build_spec(spec_pairs)

    def truth(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(4), np.ones(4)

    # --- set-up -----------------------------------------------------------

    def prepare(self, index: int, seed: int) -> Case:
        """Build one case: target, config, finished run and interrupted copy.

        One uninterrupted run gives both: its files are copied at the
        checkpoint of iteration ``rp_interrupt``, which is what an
        interrupt right after that checkpoint leaves on disk.
        """
        case_dir = os.path.join(self.work, f"case{index}")
        template_dir = os.path.join(case_dir, "template")
        os.makedirs(template_dir)
        config = self.config_for(case_dir, seed)
        target = self.target_for(config, seed)
        prefix = os.path.join(case_dir, "run", "run")
        spec = self.spec(config, prefix, self.rp_size, seed)
        paths = df.output_paths(prefix, spec.file_encoding)
        template = {kind: os.path.join(template_dir, os.path.basename(paths[kind]))
                    for kind in ("chain", "restart", "progress")}

        def snapshot(iteration: int) -> None:
            if iteration == self.rp_interrupt:
                for kind, path in template.items():
                    shutil.copyfile(paths[kind], path)

        ref = df.run_sampler(spec, target, on_checkpoint=snapshot)
        if not os.path.exists(template["chain"]):
            raise RuntimeError(f"{self.name}: no checkpoint at iteration {self.rp_interrupt}")
        with open(paths["chain"], "rb") as fh:
            ref_bytes = fh.read()
        # Rows past the checkpoint, ending in a torn row: what a kill
        # mid-period leaves once the OS has written part of the buffer.
        with open(template["chain"], "ab") as fh:
            cut = fh.tell()
            fh.write(ref_bytes[cut : cut + (len(ref_bytes) - cut) // 2])
        return Case(seed, config, target, prefix, paths, template, ref_bytes, ref.chain)

    # --- timed operations ---------------------------------------------------

    def sample(self, clock, index: int, seed: int, checks: Checks, tally: Tally,
               moments: bench_ess.MomentCheck):
        """One run of ``sample_size`` iterations, then its checks."""
        case = self.cases[index % len(self.cases)]
        run_dir = os.path.join(self.work, f"sample{index}")
        spec = self.spec(case.config, os.path.join(run_dir, "run"), self.sample_size, seed)
        try:
            out, wall = clock("bench.sample", _run_sampler, spec, case.target,
                              on_checkpoint=clock.checkpoint_callback())
        except Exception as exc:  # a failed run is counted, the benchmark goes on
            checks.check(False, f"{self.name} run (seed {seed}) raised {exc!r}")
            shutil.rmtree(run_dir, ignore_errors=True)
            return
        checks.check(True, "run")
        chain = out.chain
        checks.check(df.read_chain(out.paths["chain"]) == chain,
                     f"{self.name}: read_chain differs from the in-memory chain")
        checks.check(chain.total_weight == spec.chain_size,
                     f"{self.name}: chain weights sum to {chain.total_weight}, "
                     f"not {spec.chain_size}")
        tally.sample_walls.append(wall)
        tally.sample_bytes_per_iter.append(os.path.getsize(out.paths["chain"]) / spec.chain_size)
        tally.sample_ess.append((bench_ess.ess(chain.states, chain.weight), spec.chain_size))
        moments.add(chain.states, chain.weight)
        shutil.rmtree(run_dir)

    def resume_postproc(self, clock, index: int, checks: Checks, tally: Tally) -> None:
        """Resume a copy of a case's interrupted run, then run every export."""
        k = index % len(self.cases)
        case = self.cases[k]
        run_dir = os.path.dirname(case.prefix)
        shutil.rmtree(run_dir)
        os.makedirs(run_dir)
        for path in case.template.values():
            shutil.copyfile(path, os.path.join(run_dir, os.path.basename(path)))
        argv = ["run", case.config, "--resume"]
        for item in self.overrides(case.prefix, self.rp_size, case.seed):
            argv += ["--set", item]
        try:
            code, wall = clock("bench.resume", _cli, argv)
        except Exception as exc:
            checks.check(False, f"{self.name} resume raised {exc!r}")
            return
        if not checks.check(code == 0, f"{self.name}: resume exited with {code}"):
            return
        paths = case.paths
        with open(paths["chain"], "rb") as fh:
            resumed = fh.read()
        checks.check(resumed == case.reference_chain,
                     f"{self.name}: resumed chain file differs from the uninterrupted run")
        tally.resume_walls.append((k, wall))
        if not case.rp_ess:
            case.rp_ess = bench_ess.ess(case.reference.states, case.reference.weight)
        tally.resume_ess.append((case.rp_ess, self.rp_size))

        expected = self._expected_rows(case.prefix, paths)
        total = 0.0
        for what in POSTPROC_KINDS:
            try:
                code, wall = clock(f"bench.postproc.{what}", _cli,
                                   ["postproc", case.prefix, "--what", what])
            except Exception as exc:
                checks.check(False, f"{self.name} postproc {what} raised {exc!r}")
                return
            csv = f"{case.prefix}_{what}.csv"
            rows = _csv_rows(csv) if code == 0 and os.path.exists(csv) else -1
            if not checks.check(code == 0 and rows == expected[what],
                                f"{self.name}: postproc {what} exited with {code}, "
                                f"wrote {rows} rows, expected {expected[what]}"):
                return
            total += wall
        tally.postproc_walls.append((k, total))

    @staticmethod
    def _expected_rows(prefix: str, paths: dict) -> dict:
        """CSV line counts (header included) each postproc export must write."""
        report = df.read_report(prefix + "_report.txt")
        chain = df.read_chain(paths["chain"])
        states, _ = df.read_sample(paths["sample"])
        _, checkpoints = df.read_restart(paths["restart"])
        max_lag = min(1000, chain.total_weight - 1, max(states.shape[0] - 1, 1))
        return {
            "stats": 1 + 5 + len(report.iac_history),
            "acf": 1 + max_lag + 1,
            "covmat": 1 + len(checkpoints),
            "contrib": 1 + report.spec.num_workers,
        }


class SerialMvn4(Workload):
    name = "serial-mvn4"
    round = ("sample", "sample") + ("rp",) * 12
    case_count = 120
    sample_size = 20_000
    rp_size = 1_200
    rp_interrupt = 800


class ForkJoinMixture(Workload):
    name = "forkjoin-mixture"
    round = ("sample", "rp")
    case_count = 36
    sample_size = 1_000
    rp_size = 500
    rp_interrupt = 400

    def config_for(self, case_dir: str, seed: int) -> str:
        means = _mixture_means(seed)
        lines = [
            "ndim = 4",
            "parallelism = single_chain",
            "num_workers = 8",
            "dr_stage_count = 2",
            "file_encoding = binary",
            "[target]",
            "kind = gauss_mixture",
        ]
        for i, mean in enumerate(means, start=1):
            lines.append(f"component{i}_weight = {1.0 / MIXTURE_COMPONENTS!r}")
            lines.append(f"component{i}_mean = " + ",".join(repr(float(v)) for v in mean))
        path = os.path.join(case_dir, "mixture.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def target_for(self, config: str, seed: int) -> df.TargetDensity:
        means = _mixture_means(seed)
        weights = np.full(MIXTURE_COMPONENTS, 1.0 / MIXTURE_COMPONENTS)
        return df.mixture_target(weights, means, [np.eye(4)] * MIXTURE_COMPONENTS)

    def truth(self):
        return np.zeros(4), np.full(4, 1.0 + MIXTURE_SPREAD**2)

    def twin(self, clock, seed: int):
        """The first case's run with ``parallelism = none``: the serial twin."""
        case = self.cases[0]
        run_dir = os.path.join(self.work, "twin")
        spec = self.spec(case.config, os.path.join(run_dir, "run"), self.sample_size, seed)
        _, wall = clock("bench.twin", _run_sampler,
                        spec.with_updates(parallelism="none"), case.target)
        shutil.rmtree(run_dir)
        return wall


WORKLOADS = {w.name: w for w in (SerialMvn4, ForkJoinMixture)}
