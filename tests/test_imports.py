"""The import surface: `minfol` exports the same names as ever, each
loaded from its submodule on first use, and a `minfol` command loads
only the layers it needs."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import minfol
from minfol import cli

SUBMODULES = ["cover", "errors", "holonomy", "homology", "intlinalg",
              "origami", "permutations", "sl2z", "torus3"]

ALL = [
    "AffineLine", "Anosov", "BranchPoint", "BundleData", "BundleSource",
    "CommutatorCheck", "CoverSpec", "DomainError", "Doubling", "EulerReport",
    "GenToken", "GeometryResult", "GrowthCertificate", "HomologyAction",
    "HomologyBasis", "IntMatrix2", "InternalError", "LiftWitness", "Mobius",
    "MonodromyClass", "MonodromySummary", "OrbitStats", "Origami",
    "Parabolic", "PeriodRank", "Periodic", "PseudogroupWord",
    "QuadraticIrrational", "RamificationProfile", "Rotation",
    "RotationNumberReport", "StabilizerReport", "TORUS", "WOLLMILCHSAU",
    "act_word", "build_double_cover", "canonical_form", "circular_distance",
    "classify", "cover", "decompose_st", "errors", "euler_report",
    "geometry_classify", "holonomy", "homology", "homology_basis",
    "homology_rank", "induced_action", "intlinalg", "leaf_genus_growth",
    "leaf_genus_growth_fibres", "lift_automorphism", "named_origami",
    "orbit_density", "origami", "parabolic_normal_form", "parse_generator",
    "period_group_rank", "periodic_points", "permutations",
    "pillowcase_genus", "pillowcase_origami", "pillowcase_sphere_profile",
    "riemann_hurwitz_chi", "rotation_number", "sl2z", "sl2z_act",
    "stabilizer_search", "summary_from_matrix", "torelli_order", "torus3",
    "verify_commutator_product", "word_matrix",
]


def test_all_is_pinned():
    assert len(ALL) == 74
    assert minfol.__all__ == ALL


def test_every_export_is_its_defining_modules_object():
    for name in ALL:
        value = getattr(minfol, name)
        if name in SUBMODULES:
            assert value is sys.modules["minfol." + name], name
        else:
            home = sys.modules[value.__module__]
            assert home.__name__.rpartition(".")[2] in SUBMODULES, name
            assert getattr(home, name) is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from minfol import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ALL
    assert all(namespace[name] is getattr(minfol, name) for name in ALL)


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        minfol.no_such_name
    with pytest.raises(ImportError):
        from minfol import no_such_name  # noqa: F401
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


def test_cli_handler_module_names_resolve():
    assert cli.sl2z is minfol.sl2z


# runs one command in a fresh interpreter and prints its exit code and
# the minfol modules it left loaded
LOADED = textwrap.dedent("""
    import io, json, sys
    from contextlib import redirect_stdout
    from minfol import cli
    with redirect_stdout(io.StringIO()):
        code = cli.run(sys.argv[1:])
    print(json.dumps([code, sorted(m for m in sys.modules
                                   if m.split(".")[0] == "minfol")]))
""")


def loaded_after(argv):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MINFOL_", "PYTHONOPTIMIZE"))}
    env["PYTHONPATH"] = str(pathlib.Path(minfol.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", LOADED] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    code, modules = json.loads(proc.stdout)
    assert code == 0
    return set(modules)


def test_classify_loads_no_surface_or_dynamics_layer():
    loaded = loaded_after(["classify", "--matrix", "2 1 1 1",
                           "--periodic-points", "2"])
    assert "minfol.sl2z" in loaded
    assert not loaded & {"minfol.holonomy", "minfol.homology",
                         "minfol.origami", "minfol.cover",
                         "minfol.permutations"}


def test_holonomy_orbit_loads_no_surface_layer():
    loaded = loaded_after(["holonomy", "orbit", "--gens", "dbl;rot:0.25",
                           "--steps", "100", "--eps", "0.1"])
    assert "minfol.holonomy" in loaded
    assert not loaded & {"minfol.homology", "minfol.origami"}


def library_nodes():
    for path in sorted(pathlib.Path(minfol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert_statements_in_the_library():
    # python -O strips asserts, so a certificate check must be a raise
    found = ["%s:%d" % (name, node.lineno) for name, node in library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def names_gen_token(node):
    return "GenToken" in (getattr(node, field, None)
                          for field in ("id", "attr", "name", "asname"))


def test_token_geometry_lives_in_sl2z_and_origami():
    # the tokens are defined in sl2z, and only origami says what each
    # does to gluings and edge vectors; a string naming them is no name
    found = {name for name, node in library_nodes() if names_gen_token(node)}
    assert found == {"sl2z.py", "origami.py"}
    # inside origami, one function per kind of token: the turns S and -I,
    # the runs of shears, and the table of the shear tokens
    path = pathlib.Path(minfol.__file__).parent / "origami.py"
    owners = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        if isinstance(top, ast.ImportFrom):
            continue
        if any(names_gen_token(node) for node in ast.walk(top)):
            owners.add(top.name if hasattr(top, "name")
                       else ast.unparse(top.targets[0]))
    assert owners == {"_turn", "_shear_run", "_SHEARS"}
