"""Sparse code multiple access codebook design and link-level evaluation.

Library layout mirrors the pipeline: mother constellation -> layer/power
assignment -> codebook assembly -> analytical BEP bounds -> GA design ->
detection -> Monte Carlo BER.  See demos/ for narrative walkthroughs and
the scma-ntn CLI for file-driven runs.
"""

__version__ = "0.1.0"

from .analysis import (
    BepSummary,
    ErrorEvent,
    pep,
    q_approx,
    rician_mgf,
    set_bep,
    snr_db_to_n0,
    user_bep,
)
from .codebook import (
    CodebookSet,
    build_codebook,
    build_codebook_set,
    export_codebook_set,
    import_codebook_set,
    mapping_matrix_from_layer,
)
from .constellation import MotherConstellation, build_mother_constellation, dimension_energy
from .detection import MlDetector, MpaDetector
from .geometry import (
    CellGeometry,
    expected_distance_ratio,
    ordered_distance_pdf,
    pathloss_factor,
    sample_radii,
    sample_rician,
)
from .layering import (
    ConstellationOperator,
    LayeringError,
    SignatureMatrix,
    SystemDims,
    assign_layers_and_power,
    enumerate_layer_patterns,
    validate_signature,
)
from .optimizer import (
    Candidate,
    DesignSpace,
    GaConfig,
    GaResult,
    baseline_candidate,
    candidate_codebooks,
    fitness,
    run_ga,
)
from .simulator import BerResult, SimConfig, run_ber_sweep
