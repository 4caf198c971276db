"""Exact-arithmetic Specht modules for Weyl groups.

Pipeline: build a root system, cut out subsystems, enumerate tabloids as
the orbit of psi, span the module with polytabloids, and decide the
structural predicates, all over Q or a prime field. A word acts on
tabloids by folding the simple reflections' tables, read once off the keys,
and an element of W by folding its descent word over them. One depth-first
walk down the tree of lex-least reduced words, kept as its preorder, two
bytes per element, lists W, the column group W(psi') and, for the
character norm, the distinguished representatives D_psi'; one
breadth-first walk of root indices lists the tabloids and, for the
generator listing, D_psi' in W's order. W itself is generated only by
`generate_group`, which no stage calls: the norm is dim End_W(S), a rank
summed over D_psi', and |N(psi)| is |W| over the tabloid count. Whatever
is valued per element is one step from its parent's value: over a
preorder (`weyl.fold_preorder`), for the norm, or in a walk's order
(`weyl.fold_walk`). Kappa is read off the signed W(psi')-orbits.

The names below resolve on first use (PEP 562): `import weylspecht` loads
no submodule, and `weylspecht.build_root_system` loads only `rootsys`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("QQ", "PrimeField", "field_by_name"), "exactlin"),
    **dict.fromkeys(
        ("Root", "RootSystem", "build_root_system", "format_root", "inner_product",
         "parse_root", "reflect_root"),
        "rootsys",
    ),
    **dict.fromkeys(
        ("SpechtModuleData", "Tabloid", "TabloidSpace", "act_tabloid", "act_vector",
         "apply_kappa", "bilinear_form", "build_specht_module", "character_norm",
         "character_value", "cyclic_submodule", "enumerate_tabloids", "format_module_vector",
         "format_tabloid", "matrix_of", "polytabloid", "quotient_dimension"),
        "specht",
    ),
    **dict.fromkeys(
        ("Subsystem", "closure_from_simples", "distinguished_reps", "orthogonal_complement"),
        "subsystem",
    ),
    **dict.fromkeys(
        ("GoodSubsystemResult", "ProbeReport", "is_good_subsystem", "is_useful_subsystem",
         "submodule_theorem_probe", "vanishing_obstruction"),
        "verify",
    ),
    **dict.fromkeys(
        ("GeneratedGroup", "GroupElement", "GroupLimitError", "apply_to_root", "compose",
         "descent_word", "generate_group", "group_order", "identity", "inverse", "length",
         "sign", "simple_reflection", "subgroup_generated", "word_to_element"),
        "weyl",
    ),
}

__all__ = sorted({*_HOME, *_HOME.values()})


def __getattr__(name: str):
    if name in _HOME.values():
        # importing a submodule also binds it here
        return _import_module("." + name, __name__)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module("." + home, __name__), name)
    return value


def __dir__():
    return __all__
