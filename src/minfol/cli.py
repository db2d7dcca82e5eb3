"""Command-line front end.

One process per invocation; the report goes to standard output as JSON
(sorted keys, so identical invocations are byte-identical) or as
flattened TSV rows with --tsv.  Diagnostics go to standard error.
Exit codes: 0 success, 1 usage errors, 2 domain errors, 3 internal
errors (a certificate check failed, or any other exception).

Environment: MINFOL_SEED supplies the default seed for seeded
subcommands, overridden by --seed.  MINFOL_THREADS is only echoed into
the report's provenance, for runners that shard work externally;
nothing in minfol reads it otherwise, and every command runs on one
thread.

Each process loads only the layers its command needs: `import minfol`
loads no submodule, this module imports sl2z and torus3 (the parser
needs the MonodromyClass values), and each handler imports the rest of
what it uses.

Generator specs for the holonomy commands: "rot:0.25", "dbl",
"aff:k=1,b=1/2", "mob:a,b,c,d".  Lists are separated by ';' (the mob
entries use commas internally).  Words act rightmost first.

Each subcommand is one row of COMMANDS: (command path, help, flag
specs, handler).  run() builds the parser from the table and wraps the
handler's `results` in the report envelope.  The report's `inputs` echo
the flags: key = flag name with '-' turned into '_', value = the parsed
value, None left out.  A handler whose echo differs edits `inputs` in
place; `inputs["seed"]` is also the provenance seed.
"""

import argparse
import json
import os
import sys

from . import __version__
from .errors import DomainError, InternalError
# torus3 (and through it sl2z) is needed to build the parser: the
# --class choices are the MonodromyClass values
from . import sl2z
from . import torus3

SCHEMA_ID = "minfol-report/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _env_int(name):
    val = os.environ.get(name)
    if val is None or val == "":
        return None
    try:
        return int(val)
    except ValueError:
        raise UsageError("%s must be an integer, got %r" % (name, val))


def _flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], prefix + "." + key if prefix else key, rows)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(item, "%s.%d" % (prefix, i), rows)
    else:
        rows.append("%s\t%s" % (prefix, json.dumps(obj, allow_nan=False)))


def _render(report, tsv):
    """The report as text.  NaN and infinities are not JSON, so a report
    holding one is refused rather than printed."""
    try:
        if tsv:
            rows = []
            _flatten(report, "", rows)
            return "\n".join(rows) + "\n"
        return json.dumps(report, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    except ValueError:
        raise DomainError("the report holds a non-finite number")


def _int_list(text):
    try:
        return tuple(int(p) for p in text.replace(";", ",").split(",") if p)
    except ValueError:
        raise UsageError("expected a comma-separated integer list, got %r"
                         % text)


def _chunks(text):
    return [c.strip() for c in text.split(";") if c.strip()]


def _gen_list(text):
    from . import holonomy as hol
    out = [hol.parse_generator(chunk) for chunk in _chunks(text)]
    if not out:
        raise UsageError("no generators in %r" % text)
    return out


def _origami_from_args(args):
    from . import origami as ori, permutations as perms
    if args.name:
        return ori.named_origami(args.name)
    if not (args.sigma_h and args.sigma_v):
        raise UsageError("give either --name or both --sigma-h and --sigma-v")
    n = args.d
    if n is None:
        # size inferred from the largest label in either permutation
        n = max(len(perms.parse_cycles(args.sigma_h, None)),
                len(perms.parse_cycles(args.sigma_v, None)))
    return ori.Origami(n, perms.parse_cycles(args.sigma_h, n),
                       perms.parse_cycles(args.sigma_v, n))


# ---------------------------------------------------------------- commands


def cmd_classify(args, inputs):
    inputs["periodic_points"] = args.periodic_points
    A = sl2z.IntMatrix2.from_string(args.matrix)
    c = sl2z.classify(A)
    results = {"matrix": A.rows(), "classification": c.to_json(),
               "word": [t.value for t in sl2z.decompose_st(A)]}
    if isinstance(c, sl2z.Parabolic):
        # trace -2: the shear form applies to -A
        n, P = sl2z.parabolic_normal_form(A if A.trace() == 2 else -A)
        results["normal_form"] = {"n": n, "sign": c.sign,
                                  "conjugator": P.rows()}
    if args.periodic_points is not None:
        count, points = sl2z.periodic_points(A, args.periodic_points)
        results["periodic_points"] = {
            "n": args.periodic_points,
            "count": count,
            "points": [[str(x), str(y)] for x, y in points],
        }
    return results


def cmd_origami_build(args, inputs):
    return _origami_from_args(args).to_json()


def cmd_origami_lift(args, inputs):
    from . import origami as ori
    A = sl2z.IntMatrix2.from_string(args.matrix)
    w = ori.lift_automorphism(A, _origami_from_args(args))
    if w is None:
        return {"exists": False,
                "certificate": "the canonical form of the image differs "
                               "from the canonical form of the origami, "
                               "so no relabeling can match"}
    return {"exists": True, "witness": w.to_json()}


def cmd_origami_pillowcase(args, inputs):
    from . import cover as cover_mod, origami as ori
    d, a = args.d, args.a
    return {**ori.pillowcase_origami(d, a).to_json(),
            "expected_genus": cover_mod.pillowcase_genus(d, a).genus}


def cmd_cover_pillowcase(args, inputs):
    from . import cover as cover_mod
    d, a = args.d, args.a
    pc = cover_mod.pillowcase_genus(d, a)
    sphere = cover_mod.pillowcase_sphere_profile(d, a)
    results = {"d": d, "a": list(a), "genus": pc.genus,
               "sphere_profile": sphere.to_json()}
    if pc.torus_profile is not None:
        results["torus_profile"] = pc.torus_profile.to_json()
    return results


def cmd_cover_double(args, inputs):
    from . import cover as cover_mod
    spec = cover_mod.build_double_cover(args.n)
    return {**spec.to_json(), "genus": spec.genus()}


def cmd_cover_growth(args, inputs):
    from . import cover as cover_mod
    return cover_mod.leaf_genus_growth(args.d, args.per_point,
                                       args.k).to_json()


def cmd_homology_basis(args, inputs):
    from . import homology as hom
    o = _origami_from_args(args)
    return {**hom.homology_basis(o).to_json(), "genus": o.genus()}


def cmd_homology_action(args, inputs):
    from . import homology as hom, origami as ori
    A = sl2z.IntMatrix2.from_string(args.matrix)
    o = _origami_from_args(args)
    w = ori.lift_automorphism(A, o)
    if w is None:
        raise DomainError("the matrix does not lift to this origami")
    return {**hom.induced_action(w, o).to_json(), "witness": w.to_json()}


def cmd_torus3_bundle(args, inputs):
    klass = getattr(args, "class")
    if args.matrix:
        A = sl2z.IntMatrix2.from_string(args.matrix)
        m = torus3.summary_from_matrix(A, torelli_k=args.torelli_k)
    elif args.genus is None or klass is None:
        raise UsageError("give --matrix, or --genus with --class")
    else:
        m = torus3.MonodromySummary(args.genus, torus3.MonodromyClass(klass),
                                    stretch=args.stretch,
                                    torelli_k=args.torelli_k)
    results = {"monodromy": m.to_json(),
               **torus3.geometry_classify(m).to_json()}
    if m.torelli_k is not None:
        results["b1"] = m.b1
    return results


def cmd_torus3_euler(args, inputs):
    b = torus3.BundleData(args.genus, args.e)
    return {**b.to_json(), **torus3.euler_report(b).to_json()}


def cmd_torus3_periods(args, inputs):
    from . import holonomy as hol
    vectors = [[hol.parse_rational(p.strip()) for p in chunk.split(",")]
               for chunk in _chunks(args.vectors)]
    inputs["vectors"] = [[str(x) for x in v] for v in vectors]
    return torus3.period_group_rank(vectors).to_json()


def cmd_holonomy_orbit(args, inputs):
    from . import holonomy as hol
    gens = _gen_list(args.gens)
    seed = inputs["seed"] = args.seed if args.seed is not None \
        else _env_int("MINFOL_SEED") or 0
    return hol.orbit_density(gens, args.start, args.steps, args.eps,
                             seed).to_json()


def cmd_holonomy_stabilizer(args, inputs):
    from . import holonomy as hol
    gens = _gen_list(args.gens)
    return hol.stabilizer_search(gens, hol.parse_rational(args.x),
                                 args.max_len).to_json()


def cmd_holonomy_rotnum(args, inputs):
    from . import holonomy as hol
    return hol.rotation_number(_gen_list(args.gens), args.n).to_json()


def cmd_holonomy_commutator(args, inputs):
    from . import holonomy as hol
    pairs = []
    for chunk in _chunks(args.pairs):
        halves = chunk.split("|")
        if len(halves) != 2:
            raise UsageError("each pair needs two specs joined by '|'")
        pairs.append((hol.parse_generator(halves[0]),
                      hol.parse_generator(halves[1])))
    return hol.verify_commutator_product(pairs, args.theta).to_json()


def cmd_pipeline_frw(args, inputs):
    from . import cover as cover_mod, homology as hom, origami as ori
    cover_mod._check_branch_points(args.k)
    A = sl2z.IntMatrix2.from_string(args.matrix)
    c = sl2z.classify(A)
    if not isinstance(c, sl2z.Anosov):
        raise DomainError("the pipeline needs a hyperbolic matrix; got %s"
                          % type(c).__name__)
    o = ori.named_origami(args.origami)
    w = ori.lift_automorphism(A, o)
    if w is None:
        raise DomainError("the matrix does not lift to this origami")
    act = hom.induced_action(w, o)
    g = o.genus()
    kind = torus3.MonodromyClass.ANOSOV if g == 1 else \
        torus3.MonodromyClass.PSEUDO_ANOSOV
    summary = torus3.MonodromySummary(g, kind, stretch=c.stretch,
                                      torelli_k=act.torelli_order)
    if g > 1:
        # lifted hyperbolic monodromy: fixed classes project to zero
        if act.torelli_order > 2 * g - 2:
            raise InternalError("torelli order %d exceeds 2g - 2 = %d"
                                % (act.torelli_order, 2 * g - 2))
        if not act.fixed_in_displacement_kernel:
            raise InternalError("a class fixed by the lift has nonzero "
                                "displacement on the base torus")
    fibre = [len(c) for c in o.vertex_cycles() if len(c) >= 2]
    if fibre:
        growth = cover_mod.leaf_genus_growth_fibres(
            o.d, [list(fibre)] * args.k, args.k).to_json()
    else:
        growth = {"note": "unbranched: every vertex is regular, "
                          "chi stays at %d" % o.d}
    return {
        "classification": c.to_json(),
        "origami": o.to_json(),
        "witness": w.to_json(),
        "action": act.to_json(),
        "monodromy": summary.to_json(),
        "geometry": torus3.geometry_classify(summary).to_json(),
        "leaf_growth": growth,
    }


# ---------------------------------------------------------------- table


def _flag(name, **spec):
    return name, spec


MATRIX = _flag("--matrix", required=True, help='four integers "a b c d"')
GENS = _flag("--gens", required=True, help="';'-separated generator specs")
ORIGAMI = [
    _flag("--name", help="built-in origami (torus, wollmilchsau)"),
    _flag("--sigma-h", help="horizontal permutation, cycle notation"),
    _flag("--sigma-v", help="vertical permutation, cycle notation"),
    _flag("--d", type=int,
          help="number of squares (inferred from cycles if omitted)"),
]
PILLOWCASE = [
    _flag("--d", type=int, required=True),
    _flag("--a", type=_int_list, required=True,
          help="four integers a1,a2,a3,a4"),
]

GROUPS = {
    "origami": "square-tiled surfaces",
    "cover": "branched covers and genus counts",
    "homology": "H_1 of an origami and actions",
    "torus3": "mapping-torus geometry reports",
    "holonomy": "transverse dynamics simulation",
    "pipeline": "end-to-end example chains",
}

COMMANDS = [
    ("classify", "SL(2,Z) trichotomy", [
        MATRIX,
        _flag("--periodic-points", type=int, metavar="N",
              help="also count points of period N (hyperbolic only)"),
    ], cmd_classify),
    ("origami build", "genus and stratum of an origami", ORIGAMI,
     cmd_origami_build),
    ("origami lift", "search for an affine self-map lift",
     [MATRIX] + ORIGAMI, cmd_origami_lift),
    ("origami pillowcase", "origami model of a pillowcase-family cover",
     PILLOWCASE, cmd_origami_pillowcase),
    ("cover pillowcase", "pillowcase-family genus", PILLOWCASE,
     cmd_cover_pillowcase),
    ("cover double", "double cover of the torus family",
     [_flag("--n", type=int, required=True)], cmd_cover_double),
    ("cover growth", "iterated leaf-cover Euler bound", [
        _flag("--d", type=int, required=True),
        _flag("--per-point", type=_int_list, required=True, metavar="DI,EI",
              help="ramification pair d_i,e_i reused for every point"),
        _flag("--k", type=int, default=50),
    ], cmd_cover_growth),
    ("homology basis", "rank and intersection form", ORIGAMI,
     cmd_homology_basis),
    ("homology action", "induced symplectic action of a lift",
     [MATRIX] + ORIGAMI, cmd_homology_action),
    ("torus3 bundle", "geometry of a surface bundle", [
        _flag("--matrix", help="torus-fiber monodromy matrix"),
        _flag("--genus", type=int),
        _flag("--class",
              choices=sorted(c.value for c in torus3.MonodromyClass)),
        _flag("--stretch", type=float),
        _flag("--torelli-k", type=int),
    ], cmd_torus3_bundle),
    ("torus3 euler", "Euler class and transversality",
     [_flag("--genus", type=int, required=True),
      _flag("--e", type=int, required=True)], cmd_torus3_euler),
    ("torus3 periods", "exact rank of a period group",
     [_flag("--vectors", required=True,
            help='rational rows like "1,0;0,1;1/2,1/3"')], cmd_torus3_periods),
    ("holonomy orbit", "orbit gap statistics", [
        GENS,
        _flag("--start", type=float, default=0.0),
        _flag("--steps", type=int, required=True),
        _flag("--eps", type=float, required=True),
        _flag("--seed", type=int, help="defaults to MINFOL_SEED, then 0"),
    ], cmd_holonomy_orbit),
    ("holonomy stabilizer", "affine words fixing a point", [
        GENS,
        _flag("--x", required=True, help="exact rational, e.g. -1 or 3/7"),
        _flag("--max-len", type=int, default=4),
    ], cmd_holonomy_stabilizer),
    ("holonomy rotnum", "Birkhoff rotation number",
     [GENS, _flag("--n", type=int, default=1000)], cmd_holonomy_rotnum),
    ("holonomy commutator", "compare a commutator product to a rotation", [
        _flag("--pairs", required=True,
              help="';'-separated 'mob:..|mob:..' pairs; empty for id"),
        _flag("--theta", type=float, required=True),
    ], cmd_holonomy_commutator),
    ("pipeline frw", "lift a hyperbolic matrix and report the "
                     "mapping-torus invariants", [
        MATRIX,
        _flag("--origami", default="wollmilchsau",
              help="built-in origami (torus, wollmilchsau)"),
        _flag("--k", type=int, default=50,
              help="leaf-growth stages to certify"),
    ], cmd_pipeline_frw),
]


def build_parser():
    top = _Parser(prog="minfol",
                  description="monodromy, branched covers, square-tiled "
                              "surfaces, mapping-torus invariants, and "
                              "holonomy simulation")
    top.add_argument("--tsv", action="store_true",
                     help="flatten the report to key<TAB>value rows")
    sub = top.add_subparsers(dest="command", metavar="command")
    groups = {}
    for row in COMMANDS:
        path, help_text, specs, _ = row
        group, _, name = path.rpartition(" ")
        parent = sub
        if group:
            if group not in groups:
                g = sub.add_parser(group, help=GROUPS[group])
                groups[group] = g.add_subparsers(dest="subcommand",
                                                 metavar="subcommand")
            parent = groups[group]
        p = parent.add_parser(name, help=help_text)
        for flag, spec in specs:
            p.add_argument(flag, **spec)
        p.set_defaults(row=row)
    return top


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "row"):
            raise UsageError("missing subcommand; see --help")
        path, _, specs, handler = args.row
        inputs = {}
        for flag, _ in specs:
            key = flag[2:].replace("-", "_")
            if getattr(args, key) is not None:
                inputs[key] = getattr(args, key)
        results = handler(args, inputs)
        report = {
            "schema": SCHEMA_ID,
            "command": path,
            "inputs": inputs,
            "results": results,
            "provenance": {
                "tool": "minfol",
                "version": __version__,
                "seed": inputs.get("seed"),
                "threads": _env_int("MINFOL_THREADS"),
            },
        }
        text = _render(report, args.tsv)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 1
    except ValueError as exc:
        sys.stderr.write("domain error: %s\n" % exc)
        return 2
    except InternalError as exc:
        sys.stderr.write("internal error: %s\n" % exc)
        return 3
    except Exception as exc:  # a defect that no check names
        msg = " ".join(("%s: %s" % (type(exc).__name__, exc)).splitlines())
        sys.stderr.write("internal error: %s\n" % msg)
        return 3
    sys.stdout.write(text)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
