"""Concentration constants, thick sets, and lacunary spectra.

A numpy toolkit for the computational side of uncertainty principles
with sparse frequency support: certifying lacunary sequences, measuring set
thickness, synthesizing functions with prescribed spectra, estimating
concentration constants as extremal eigenvalue problems, and checking
quasi-analyticity hypotheses.
"""

# The one version literal; experiments.TOOL_VERSION and pyproject.toml read it.
__version__ = "0.1.0"

from .errors import ConfigError, NumericalError
from .experiments import (
    ExperimentConfig,
    RunManifest,
    emit_plot_data,
    run,
)
from .concentration import (
    ConcentrationEstimate,
    HermitianForm,
    LemmaTerms,
    SplitCheck,
    gram_matrix,
    hermitian_eigensystem,
    interval_phase_integral,
    lemma_main_report,
    ls_constant,
    nazarov_constant,
    theorem_split_check,
)
from .sequences import (
    LacunarityReport,
    Sequence,
    TailSchedule,
    build_counterexample,
    build_greedy,
    check_hadamard,
    difference_set,
    greedy_growth_table,
    growth_bound,
    strong_zygmund_profile,
    zygmund_constant,
)
from .sets import (
    PartitionReport,
    ThickSet,
    good_fraction_bound,
    good_union,
    partition_good_bad,
    periodic_comb,
    thickness,
)
from .synthesis import (
    BandFunction,
    Grid,
    SpectralProfile,
    bernstein_ratio,
    plancherel_polya_ratio,
    poisson_transform,
    random_band_function,
    spectral_support,
    split_uniformly_discrete,
    synthesize,
)
from .uniqueness import (
    BumpFunction,
    OmegaDiagnostics,
    QuasiAnalyticityReport,
    SeparationReport,
    carleman_denjoy_partial,
    omega_diagnostics,
    omega_weight,
    separation_condition,
    smoothstep_bump,
)
