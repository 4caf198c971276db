"""Exact-arithmetic Specht modules for Weyl groups.

Pipeline: build a root system, generate its Weyl group as root permutations,
cut out subsystems, enumerate tabloids, span the module with polytabloids,
and decide the structural predicates, all over Q or a prime field.
"""

from .exactlin import QQ, PrimeField, field_by_name
from .rootsys import (
    Root,
    RootSystem,
    build_root_system,
    format_root,
    inner_product,
    parse_root,
    reflect_root,
)
from .specht import (
    SpechtModuleData,
    Tabloid,
    TabloidSpace,
    act_tabloid,
    act_vector,
    apply_kappa,
    bilinear_form,
    build_specht_module,
    character_norm,
    character_value,
    cyclic_submodule,
    enumerate_tabloids,
    format_module_vector,
    format_tabloid,
    matrix_of,
    polytabloid,
    quotient_dimension,
)
from .subsystem import (
    Subsystem,
    closure_from_simples,
    distinguished_reps,
    normalizer,
    normalizer_reps,
    orthogonal_complement,
    simple_system_of,
)
from .verify import (
    GoodSubsystemResult,
    ProbeReport,
    is_good_subsystem,
    is_useful_subsystem,
    is_useful_system,
    submodule_theorem_probe,
    vanishing_obstruction,
)
from .weyl import (
    GeneratedGroup,
    GroupElement,
    GroupLimitError,
    apply_to_root,
    compose,
    generate_group,
    identity,
    inverse,
    length,
    sign,
    simple_reflection,
    subgroup_generated,
    word_to_element,
)

__version__ = "0.1.0"
