"""Filter bank fusion frames.

Oversampled filter banks whose channels act as orthogonal projections,
characterized through polyphase and Zak matrices, composed into multi-level
transforms, and cross-checked against a dense brute-force oracle.
"""

from .cyclic import CyclicPoly
from .signals import (
    FilterBank,
    Signal,
    analysis_apply,
    circ_convolve,
    downsample,
    inner,
    involution,
    modulate,
    periodize,
    synthesis_apply,
    translate,
    upsample,
)
from .polyphase import (
    PolyphaseMatrix,
    adjoint,
    bank_of,
    decompose,
    eval_matrix,
    gram,
    matrix_of,
    pp_inner,
    reconstruct,
    zak_of,
)
from .analysis import (
    FrameBounds,
    FusionReport,
    channel_is_projection,
    frame_bounds,
    fusion_report,
    gabor_channel_orthonormal,
    gabor_frame_bounds,
    gabor_tightness,
    hermitian_eigs,
    verify_weighted_parseval,
)
from .constructions import (
    daubechies4,
    daubechies_mercedes,
    elementary_paraunitary,
    mercedes_benz,
    modulated_copy,
    modulated_daubechies_stack,
    paraunitary_chain,
    paraunitary_product,
    tensor,
    union,
)
from .multilevel import (
    TreeNode,
    compose_tree,
    equivalent_filter,
    verify_tree,
)
from .gabor import (
    GaborSystem,
    design_maxflat,
    flatness_solve_odd,
    gabor_bank,
    tightness_residual,
    zak_row_sums,
)
from .oracle import (
    DenseSynthesis,
    dense_channel_gram,
    dense_frame_spectrum,
    densify,
    spectrum_union_check,
)

__version__ = "0.1.0"
