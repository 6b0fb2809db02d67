"""Kill ``dramforge run`` with SIGKILL at random instants, then check that the
finished files are the uninterrupted run's.

For each encoding (ascii, binary) and mode (serial, 4-worker fork-join) of
``configs/mvn4.cfg``, every trial

1. starts ``dramforge run`` in a child process and sends it SIGKILL at an
   instant drawn uniformly from the time the uninterrupted run spent
   between creating its first output file and exiting (before that the
   child is still importing);
2. starts ``dramforge run --resume`` and kills it the same way;
3. runs ``dramforge run --resume`` to the end.

A kill before checkpoint 0 reached disk leaves nothing to resume from;
there ``--force`` takes the place of ``--resume`` and starts the run over.
The chain, restart, sample and report files must then have the sha256 of
the uninterrupted run. One child runs at a time, ``TRIALS`` trials of
``CHAIN_SIZE`` iterations per encoding and mode, and the kill instants
follow from ``SEED``. The script prints what each kill left on disk and
exits 1 on any mismatch or failed step.

    PYTHONPATH=src python3 tests/kill_fuzz.py
"""

from __future__ import annotations

import collections
import hashlib
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dramforge as df  # noqa: E402

CONFIG = os.path.join(ROOT, "configs", "mvn4.cfg")
FORK_JOIN = {"parallelism": "single_chain", "num_workers": 4}
OUTPUTS = ("chain", "restart", "sample", "report")
PREFIX = "run"  # relative: the restart and report files echo it
TIMEOUT = 300.0  # seconds a child that is not killed may take
CHAIN_SIZE = 20_000
TRIALS = 40  # per encoding and mode
MODES = (("serial", {}), ("fork-join", FORK_JOIN))  # (mode, its settings)
SEED = 0  # of the kill instants


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DRAMFORGE_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def start(settings: dict, cwd: str, flags: list[str]) -> subprocess.Popen:
    argv = [sys.executable, "-m", "dramforge.cli", "run", CONFIG, *flags]
    for key, value in settings.items():
        argv += ["--set", f"{key}={value}"]
    return subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def kill_window(settings: dict, cwd: str, encoding: str) -> tuple[float, float]:
    """Run uninterrupted; return when its chain file appeared and when it exited."""
    chain = os.path.join(cwd, df.output_paths(PREFIX, encoding)["chain"])
    t0 = time.perf_counter()
    proc = start(settings, cwd, [])
    first = None
    while proc.poll() is None:
        if first is None and os.path.exists(chain):
            first = time.perf_counter() - t0
        time.sleep(0.002)
    end = time.perf_counter() - t0
    err = proc.stderr.read()
    proc.stderr.close()
    if proc.returncode != 0 or first is None:
        raise RuntimeError(f"uninterrupted run exited {proc.returncode}: {err.strip()}")
    return first, end


def run(settings: dict, cwd: str, flags: list[str], kill_after: float | None = None):
    """Run ``dramforge run`` in ``cwd``; return its exit code and stderr.

    With ``kill_after`` the child gets SIGKILL after that many seconds, and
    the exit code is None if it was still running.
    """
    proc = start(settings, cwd, flags)
    try:
        _, err = proc.communicate(timeout=TIMEOUT if kill_after is None else kill_after)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        if kill_after is None:
            return "timeout", err
        return None, err
    return proc.returncode, err


def digests(cwd: str, encoding: str) -> dict:
    paths = df.output_paths(os.path.join(cwd, PREFIX), encoding)
    out = {}
    for name in OUTPUTS:
        try:
            with open(paths[name], "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError:
            out[name] = None
    return out


def state_left(cwd: str, spec: df.SimSpec) -> str:
    """What a kill left on disk, read through the library."""
    status = df.inspect_outputs(spec)
    if status != "incomplete":
        return {"absent": "no output", "complete": "complete"}[status]
    paths = df.output_paths(spec.output_prefix, spec.file_encoding)
    try:
        _, checkpoints = df.read_restart(paths["restart"])
        chain = df.read_chain(paths["chain"])
    except (OSError, df.ParseError):
        return "before checkpoint 0"
    if not checkpoints:
        return "before checkpoint 0"
    return "finalize" if chain.total_weight >= spec.chain_size else "running"


def trial(settings: dict, spec: df.SimSpec, cwd: str, window: tuple[float, float],
          rng: random.Random, tally: collections.Counter) -> str | None:
    """One trial in an empty ``cwd``; returns an error, or None."""
    run(settings, cwd, [], kill_after=rng.uniform(*window))
    left = state_left(cwd, spec)
    tally["run killed: " + left] += 1
    if left != "complete":
        flags = ["--force"] if left == "before checkpoint 0" else ["--resume"]
        run(settings, cwd, flags, kill_after=rng.uniform(*window))
        left = state_left(cwd, spec)
        tally[f"{flags[0]} killed: " + left] += 1
    if left != "complete":
        flags = ["--force"] if left == "before checkpoint 0" else ["--resume"]
        code, err = run(settings, cwd, flags)
        if code != 0:
            return f"run {flags[0]} exited {code}: {err.strip()}"
    return None


def main() -> int:
    rng = random.Random(SEED)
    work = tempfile.mkdtemp(prefix="dramforge-kill-fuzz-")
    failures = 0
    try:
        for encoding in ("ascii", "binary"):
            for mode, parallel in MODES:
                settings = {"chain_size": CHAIN_SIZE, "file_encoding": encoding,
                            "output_prefix": PREFIX, **parallel}
                ref_dir = os.path.join(work, "ref")
                os.makedirs(ref_dir)
                window = kill_window(settings, ref_dir, encoding)
                want = digests(ref_dir, encoding)
                tally: collections.Counter = collections.Counter()
                mismatches = 0
                for k in range(TRIALS):
                    cwd = os.path.join(work, "trial")
                    os.makedirs(cwd)
                    spec = df.SimSpec(ndim=4, output_prefix=os.path.join(cwd, PREFIX), seed=11,
                                      chain_size=CHAIN_SIZE, file_encoding=encoding,
                                      **parallel)
                    error = trial(settings, spec, cwd, window, rng, tally)
                    got = digests(cwd, encoding)
                    if error is None and got != want:
                        error = "differs in " + ", ".join(n for n in OUTPUTS if got[n] != want[n])
                    if error is not None:
                        mismatches += 1
                        print(f"{encoding} {mode} trial {k}: {error}", flush=True)
                    shutil.rmtree(cwd)
                shutil.rmtree(ref_dir)
                failures += mismatches
                print(f"{encoding} {mode}: {TRIALS} trials, {mismatches} mismatches, "
                      f"kills {window[0]:.2f}-{window[1]:.2f} s after the start")
                for what, count in sorted(tally.items()):
                    print(f"    {what}: {count}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
