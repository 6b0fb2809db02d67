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
    SplitMix64,
    TargetDensity,
    UsageError,
    build_target,
    mixture_target,
    mvn_target,
    rosenbrock_target,
)
from .proposal import (
    ProposalState,
    adaptation_measure,
    effective_cov,
    factorize,
    initial_proposal,
    propose,
    update_mean_cov,
)
from .sampler import (
    SamplerState,
    SimulationOutputs,
    adapt_if_due,
    detect_burnin,
    dr_log_alpha2,
    fork_join_cycle,
    init_state,
    metropolis_log_alpha,
    resume,
    run_sampler,
    step,
    worker_attempt,
)
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
    write_chain,
    write_report,
    write_sample,
)
from .refinement import (
    RefinedSample,
    autocorrelation,
    integrated_autocorrelation,
    refine,
    weighted_acf,
)
from .parallel import (
    ContributionStats,
    MultiChainReport,
    compare_refined_samples,
    contribution_stats,
    fit_geometric,
    ks_two_sample,
    optimal_num_workers,
    predict_speedup,
    run_multi_chain,
)

__version__ = "0.1.0"
