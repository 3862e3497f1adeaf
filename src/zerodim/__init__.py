"""Workbench for recurrence analysis in symbolic and tower dynamics.

The package splits into group geometry (word metrics, reach cones,
subgroup lattices), an exact model of totally disconnected symbol
spaces (points with eventually periodic tails, cylinders, clopen
algebra), a family of concrete computable systems, finite-horizon
analyzers returning three-valued verdicts with replayable
certificates, and a consistency harness tying the verdicts together.
"""

from .analysis import (InvariantCoreApprox, OrbitCells,
                       RegionalProximalWitness, ap_verdict,
                       confinement_verdict, depth_ball,
                       equicontinuity_verdict, escape_length,
                       invariant_core, orbit_cylinders,
                       orbit_symmetry_verdict, pair_type1_verdict,
                       pointwise_period_verdict, proximal_verdict,
                       regional_proximal_check, regular_ap_verdict,
                       return_times, standard_rp_witness,
                       translate_cover_verdict, type1_verdict,
                       type2_verdict, uniform_recurrence_verdict,
                       usc_verdict, weak_rigidity_verdict)
from .cantor import (ClopenSet, Cylinder, Point, Scheme, Tail,
                     clopen, complement, constant_tail, depth_cylinder,
                     distance, from_cylinder, intersection, make_point,
                     periodic_tail, points_equal, reanchor_tail, sym_diff,
                     union)
from .config import SCHEMA, default_config, load_config
from .errors import (DomainError, PreconditionError, RangeError,
                     ResourceCapError, UsageError, WorkbenchError)
from .flows import (FlowSystem, McMahonGroup, TwoCopyGroup,
                    available_systems, get_system)
from .groups import (ConeApproximation, CyclicSumGroup, ElementSet,
                     FiniteGroup, FreeGroupVariant, Group, IntegerGroup,
                     LatticeGroup, affine_sequence, ball, cone_approx,
                     cone_layer, explicit_sequence, is_syndetic_window, is_thick_window,
                     layer_embedding_bound, layer_embedding_check,
                     power_set, sphere, word_length)
from .harness import (CheckReport, HarnessRun, available_checks, run_check,
                      run_config)
from .subgroups import (FiniteSubgroup, IntegerSubgroup, LatticeSubgroup,
                        Subgroup, all_subgroups, cyclic_group,
                        dihedral_group, generation_check,
                        induced_generating_set, intersect_subgroups,
                        normal_core, subgroup_index, symmetric_group)
from .verdict import Status, Verdict, fails, holds, inconclusive

__version__ = "0.1.0"
