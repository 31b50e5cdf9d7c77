"""Image data: synthetic benchmark problems and the brain-phantom substitute.

The paper evaluates on (i) an analytically defined synthetic problem used
for all scalability studies (Sec. IV-A1, Fig. 5) and (ii) two 3D MRI brain
images from the NIREP repository (na01/na02, grid 256 x 300 x 256).  The
NIREP data cannot be redistributed or downloaded in this offline
environment, so :mod:`repro.data.brain` generates a procedural multi-subject
brain phantom that exercises the identical code path (see README.md,
"Substitutions").
"""

from repro.data.preprocessing import normalize_intensity, smooth_image
from repro.data.synthetic import (
    SyntheticProblem,
    sinusoidal_template,
    synthetic_registration_problem,
    synthetic_velocity,
    solenoidal_velocity,
)
from repro.data.brain import BrainPhantomPair, brain_phantom, brain_registration_pair
from repro.data.io import load_problem, save_problem

__all__ = [
    "normalize_intensity",
    "smooth_image",
    "SyntheticProblem",
    "sinusoidal_template",
    "synthetic_registration_problem",
    "synthetic_velocity",
    "solenoidal_velocity",
    "BrainPhantomPair",
    "brain_phantom",
    "brain_registration_pair",
    "load_problem",
    "save_problem",
]
