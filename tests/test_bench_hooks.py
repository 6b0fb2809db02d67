"""The benchmark tracer's hooks still fit the program.

``bench/tracing.py`` wraps dramforge functions and methods by name and
unpacks their arguments and return values. Building its patches and
tracing a short serial and a short fork-join run here makes a change that
drops, renames or reshapes one of them fail this suite, not only the
benchmark. The tracer is loaded from its file and not modified.
"""

import importlib.util
import os

import dramforge as df

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patches_cover_every_wrapped_name():
    tracing = load_tracing()
    patches = tracing.Patches(tracing.Tracer())  # raises if a name is gone
    originals = [original for _, _, original, _ in patches.plan]
    for owner, attr, *_ in tracing.WRAPPED:
        assert any(o is getattr(owner, attr) for o in originals), attr


def test_traced_runs_feed_the_hooks(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    target = df.TargetDensity(2, lambda x: -0.5 * float(x @ x))
    specs = [
        df.SimSpec(ndim=2, output_prefix=str(tmp_path / "serial"), chain_size=600, seed=3),
        df.SimSpec(ndim=2, output_prefix=str(tmp_path / "fj"), chain_size=600, seed=3,
                   parallelism="single_chain", num_workers=3, file_encoding="binary"),
    ]
    patches.install()
    try:
        outputs = [df.run_sampler(spec, target) for spec in specs]
    finally:
        patches.restore()
    assert len(tracer.outputs) == 2
    assert tracer.counts["iterations"] == 2 * 599
    assert tracer.counts["fj.attempts"] == 599  # lazy: one attempt per iteration
    accepts = sum(tracer.counts[f"stage{k}.accepts"] for k in range(3))
    assert accepts == sum(out.report.accepted_count for out in outputs)
    assert tracer.calls("chainio.write") == sum(out.chain.n_rows for out in outputs)
    for kind, counter in (("chain", "chain_bytes"), ("restart", "restart_bytes")):
        on_disk = sum(os.path.getsize(out.paths[kind]) for out in outputs)
        assert tracer.counts[counter] == on_disk
