"""strandkit: certified combinatorial structure of curve arrangements.

Exact-rational arrangements of curves, planarisations and coloured
planarisations, ordered colourings, minor models in strong products, tree
decompositions with independent verifiers, crossing localisation, and
example-family generators — every pipeline re-checks its own output.
"""

__version__ = "0.1.0"

from .errors import DegeneracyError, InvariantError, SceneError, StrandkitError
from .scene import Curve, CrossingEvent, Disk, StringScene, load_scene, dump_scene

__all__ = [
    "DegeneracyError", "InvariantError", "SceneError",
    "StrandkitError", "Curve", "CrossingEvent", "Disk", "StringScene",
    "load_scene", "dump_scene", "__version__",
]
