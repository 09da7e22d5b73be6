"""Stable smash products of spheres, Moore spaces and Chang complexes:
decision procedure, homology/Steenrod invariants, hom-group tables and the
morphism-matrix reduction calculus."""

from .complexes import (ElementaryComplex, SmashAtom, WedgeComplex, POINT,
                        sphere, moore, ceta, ctop, cbot, cfull, smash_atom,
                        wedge, canonicalize, suspend, dual, cells_of,
                        WindowError)
from .homology import GradedAbelianGroup, integral_homology, kunneth
from .steenrod import SqModule, mod2_cohomology, cartan_smash_sq, poincare_mod2
from .smash import (smash_decompose, decompose_pair, DecompositionResult,
                    UnclassifiedPair, VerificationFailure)
from .errors import ChangError
from .verify import (graded_iso, sq_module_compare, moore_split_obstruction,
                     check_decomposition, VerificationReport)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
