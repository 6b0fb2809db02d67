"""dramforge: delayed-rejection adaptive Metropolis MCMC with restartable runs.

Minimal usage:

    import numpy as np
    import dramforge as df

    spec = df.SimSpec(ndim=4, output_prefix="out/mvn4", chain_size=50_000, seed=11)
    target = df.TargetDensity(4, lambda x: -0.5 * float(x @ x))
    outputs = df.run_sampler(spec, target)
    print(outputs.report.ess, len(outputs.refined))
"""

from .core import (
    BuiltinTarget,
    DramforgeError,
    NumericalError,
    ResumeRefused,
    RunAlreadyComplete,
    SimSpec,
    TargetDensity,
    UsageError,
    build_target,
    mixture_target,
    mvn_target,
    rosenbrock_target,
)
from .sampler import SimulationOutputs, resume, run_sampler
from .chainio import (
    CompactChain,
    ParallelStats,
    ParseError,
    ReportStats,
    RestartCheckpoint,
    chain_byte_size,
    inspect_outputs,
    output_paths,
    read_chain,
    read_report,
    read_restart,
    read_sample,
)
from .refinement import RefinedSample
from .parallel import MultiChainReport, run_multi_chain

__version__ = "0.1.0"
