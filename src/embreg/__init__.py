"""Feature-embedding driven 3D image registration.

Pipeline: cycle-consistent keypoint matching on dense feature maps,
least-squares affine fitting, a regularized coarse displacement stage,
dense instance optimization (displacement or diffeomorphic velocity
parameterization), transform composition, and overlap/regularity
evaluation.
"""

from .affine import AffineTransform, apply_affine, fit_affine, fit_affine_points, invert_affine
from .bundle import Bundle
from .coarse import (
    coarse_gradient,
    coarse_objective,
    optimize_coarse,
    upsample_coarse,
)
from .config import PipelineConfig, apply_overrides, load_config
from .container import Vol1, read_vol1, write_vol1
from .grid import (
    identity_grid,
    normalize_features,
    trilinear_sample,
    trilinear_sample_with_grad,
    warp_features,
    warp_labels,
    warp_scalar,
)
from .instance import (
    instance_gradient,
    instance_objective,
    optimize_instance,
    reg_loss,
    sam_loss,
)
from .matching import (
    MatchSet,
    filter_matches,
    find_points,
    load_matches,
    save_matches,
    select_points,
    sscc,
)
from .metrics import RegistrationReport, dice, landmark_error, lncc, ncc
from .pipeline import run_pipeline
from .synth import SynthSpec, make_atlas, make_pair, random_smooth_warp
from .transform import (
    CompositeTransform,
    compose,
    folding_fraction,
    integrate_svf,
    jacobian_determinant,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
