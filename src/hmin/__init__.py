"""H-minimal surfaces in the first Heisenberg group.

Construction, verification, analysis and classification of H-minimal
surfaces via the seed-curve / height-function representation: a library
(`hmin.heis`, `hmin.fields`, `hmin.expr`, `hmin.surface`, `hmin.seed`,
`hmin.ruled`, `hmin.gallery`) plus a command-line tool (`hmin`).
"""

from .errors import (CharacteristicPoint, CharacteristicStart,
                     DegenerateDenominator, FieldUndefined, HminError,
                     NotAGraphAfterTransform, OutOfRange, ParseError,
                     SingularRule, SpecError, StencilOutOfDomain, UnknownName)
from .heis import HPoint, ORIGIN, dilate, group_mul
from .fields import (Grid2, PlanarDomain, Profile, ScalarField2,
                     adaptive_simpson, rk4_integrate, square)
from .surface import (GraphPatch, HorizontalData, ImplicitSurface,
                      characteristic_scan, h_mean_curvature, horizontal_data,
                      rotate_graph, translate_graph)
from .seed import (SeedCurve, curvature, extract_seed, rule_jacobian_det,
                   rule_point, singular_locus)
from .ruled import (GeneralizedSeedCurve, GSCJoin, GSCPiece, LociReport,
                    RuledPatch, bernstein_quotient, build_surface,
                    characteristic_locus, classify_entire_graph,
                    constant_curvature_test, roundtrip, rule, validate_gsc,
                    w_direct)
from .gallery import GalleryEntry, gallery_get, gallery_names, gallery_verify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
