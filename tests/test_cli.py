import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import jsonschema
import pytest

import minfol
from minfol import cli
from minfol import cover as cover_mod
from minfol import holonomy as hol
from minfol import homology as hom
from minfol import origami as ori
from minfol import permutations as perms
from minfol import sl2z
from minfol.cli import run
from minfol.errors import InternalError

SCHEMA_PATH = pathlib.Path(minfol.__file__).parent / "schema" / \
    "report.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    rep = json.loads(out)
    jsonschema.validate(rep, SCHEMA)
    return rep


# ------------------------------------------------------------ exit codes


def test_exit_codes(capsys):
    code, out, err = invoke(capsys, "classify", "--matrix", "2 1 1 1")
    assert code == 0 and out
    # usage: unknown command, missing required argument
    code, _, err = invoke(capsys, "made-up-command")
    assert code == 1 and err
    code, _, err = invoke(capsys, "classify")
    assert code == 1 and err
    code, _, err = invoke(capsys)
    assert code == 1
    # domain: a matrix outside the group
    code, _, err = invoke(capsys, "classify", "--matrix", "2 0 0 2")
    assert code == 2 and "determinant" in err
    # domain: malformed cycle notation
    code, _, err = invoke(capsys, "origami", "build",
                          "--sigma-h", "(1 2", "--sigma-v", "(1 2)")
    assert code == 2


def test_reports_validate_against_schema(capsys):
    report_of(capsys, "classify", "--matrix", "0 -1 1 0")
    report_of(capsys, "origami", "build", "--name", "wollmilchsau")
    report_of(capsys, "origami", "lift", "--matrix", "2 1 1 1",
              "--name", "wollmilchsau")
    report_of(capsys, "cover", "pillowcase", "--d", "4", "--a", "1,1,1,1")
    report_of(capsys, "cover", "double", "--n", "4")
    report_of(capsys, "cover", "growth", "--d", "2", "--per-point", "1,2",
              "--k", "10")
    report_of(capsys, "homology", "basis", "--name", "torus")
    report_of(capsys, "homology", "action", "--matrix", "2 1 1 1",
              "--name", "wollmilchsau")
    report_of(capsys, "torus3", "bundle", "--matrix", "1 1 0 1")
    report_of(capsys, "torus3", "euler", "--genus", "2", "--e", "-2")
    report_of(capsys, "torus3", "periods", "--vectors", "1,0;0,1")
    report_of(capsys, "holonomy", "orbit", "--gens", "rot:0.41421356",
              "--steps", "500", "--eps", "0.05", "--seed", "3")
    report_of(capsys, "holonomy", "stabilizer",
              "--gens", "aff:k=1,b=0;aff:k=0,b=1", "--x", "-1",
              "--max-len", "4")
    report_of(capsys, "holonomy", "rotnum", "--gens", "mob:1,1,0,1",
              "--n", "200")
    report_of(capsys, "holonomy", "commutator",
              "--pairs", "mob:2,1,1,1|mob:2,1,1,1", "--theta", "0")
    report_of(capsys, "pipeline", "frw", "--matrix", "2 1 1 1",
              "--origami", "wollmilchsau", "--k", "5")


# ---------------------------------------------------------- determinism


def test_reruns_are_byte_identical(capsys):
    argv = ("pipeline", "frw", "--matrix", "2 1 1 1",
            "--origami", "wollmilchsau")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second
    argv = ("holonomy", "orbit", "--gens", "dbl;rot:0.41421356",
            "--start", "0.123", "--steps", "2000", "--eps", "0.01",
            "--seed", "42")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


def test_seed_env_fallback_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("MINFOL_SEED", "17")
    rep = report_of(capsys, "holonomy", "orbit", "--gens", "rot:0.41421356",
                    "--steps", "200", "--eps", "0.1")
    assert rep["provenance"]["seed"] == 17
    rep = report_of(capsys, "holonomy", "orbit", "--gens", "rot:0.41421356",
                    "--steps", "200", "--eps", "0.1", "--seed", "5")
    assert rep["provenance"]["seed"] == 5
    assert rep["inputs"]["seed"] == 5


def test_threads_env_is_recorded(capsys, monkeypatch):
    monkeypatch.setenv("MINFOL_THREADS", "8")
    rep = report_of(capsys, "classify", "--matrix", "2 1 1 1")
    assert rep["provenance"]["threads"] == 8
    monkeypatch.delenv("MINFOL_THREADS")
    rep = report_of(capsys, "classify", "--matrix", "2 1 1 1")
    assert rep["provenance"]["threads"] is None


# ----------------------------------------------------------- tsv output


def test_tsv_flattens_the_report(capsys):
    code, out, err = invoke(capsys, "--tsv", "torus3", "euler",
                            "--genus", "2", "--e", "0")
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().split("\n"))
    assert rows["schema"] == '"minfol-report/1"'
    assert rows["results.geometry"] == '"H^2 x R"'
    assert rows["results.euler_class"] == "0"
    assert rows["provenance.tool"] == '"minfol"'


def test_tsv_indexes_list_entries(capsys):
    code, out, err = invoke(capsys, "--tsv", "classify",
                            "--matrix", "2 1 1 1")
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().split("\n"))
    assert rows["results.matrix.0.0"] == "2"
    assert rows["results.matrix.1.1"] == "1"


# ------------------------------------------------------- report content


def test_classify_report_content(capsys):
    rep = report_of(capsys, "classify", "--matrix", "2 1 1 1",
                    "--periodic-points", "1")
    res = rep["results"]
    assert res["classification"]["kind"] == "anosov"
    assert res["periodic_points"]["count"] == 1
    assert res["periodic_points"]["points"] == [["0", "0"]]
    assert res["word"]


def test_homology_action_report_content(capsys):
    rep = report_of(capsys, "homology", "action", "--matrix", "2 1 1 1",
                    "--name", "wollmilchsau")
    res = rep["results"]
    assert res["symplectic"] is True
    assert res["torelli_order"] == 0
    assert res["b1"] == 1
    assert len(res["matrix"]) == 6


def test_pipeline_report_content(capsys):
    rep = report_of(capsys, "pipeline", "frw", "--matrix", "2 1 1 1",
                    "--origami", "wollmilchsau", "--k", "8")
    res = rep["results"]
    assert res["origami"]["d"] == 8
    assert res["monodromy"]["genus"] == 3
    assert res["monodromy"]["class"] == "pseudo-anosov"
    assert res["geometry"]["geometry"] == "H^3"
    assert res["action"]["symplectic"] is True
    assert res["action"]["torelli_order"] <= 4
    assert res["action"]["b1"] == res["action"]["torelli_order"] + 1
    assert len(res["leaf_growth"]["chi_sequence"]) == 8
    assert res["classification"]["stretch"]["exact"] is True


def test_pipeline_rejects_non_hyperbolic(capsys):
    code, _, err = invoke(capsys, "pipeline", "frw", "--matrix", "1 1 0 1")
    assert code == 2 and "hyperbolic" in err


def test_lift_failure_is_reported_not_an_error(capsys):
    rep = report_of(capsys, "origami", "lift", "--matrix", "2 1 1 1",
                    "--sigma-h", "(1 2)", "--sigma-v", "(1 3)")
    assert rep["results"]["exists"] in (True, False)
    if not rep["results"]["exists"]:
        assert "certificate" in rep["results"]


@pytest.mark.parametrize("tsv", [(), ("--tsv",)])
def test_report_writer_refuses_non_finite_numbers(capsys, monkeypatch, tsv):
    # handlers reject non-finite input themselves, so a stand-in handler
    # that returns infinity is what reaches the writer's backstop
    def infinite(args, inputs):
        return {"value": float("inf")}

    rows = [row[:3] + (infinite,) if row[0] == "classify" else row
            for row in cli.COMMANDS]
    monkeypatch.setattr(cli, "COMMANDS", rows)
    code, out, err = invoke(capsys, *tsv, "classify", "--matrix", "2 1 1 1")
    assert (code, out) == (2, "")
    assert err == "domain error: the report holds a non-finite number\n"


# --------------------------------------------------------- internal errors


def test_failed_certificate_check_exits_3_with_one_line(capsys, monkeypatch):
    # a stand-in determinant makes the unimodularity check of the
    # cocycle pairing fail, as a defect in the library would
    monkeypatch.setattr(hom.la, "det_rational", lambda M: 2)
    with pytest.raises(InternalError, match="determinant 2, not 1"):
        hom.homology_basis(ori.TORUS)
    code, out, err = invoke(capsys, "homology", "basis", "--name", "torus")
    assert (code, out) == (3, "")
    assert err == "internal error: the cocycle pairing has determinant " \
                  "2, not 1\n"


def test_certificate_checks_survive_python_O():
    # under -O every assert is stripped (the script's own assert False
    # passes), but the library's checks are explicit raises
    script = textwrap.dedent("""
        import sys
        assert False
        from minfol import cli, intlinalg
        intlinalg.det_rational = lambda M: 2
        sys.exit(cli.run(["homology", "basis", "--name", "torus"]))
    """)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MINFOL_", "PYTHONOPTIMIZE"))}
    env["PYTHONPATH"] = str(pathlib.Path(minfol.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "internal error: the cocycle pairing has " \
                          "determinant 2, not 1\n"


# stand-ins that break one certificate each: the pipeline's Torelli
# bound, its fixed-class drift check, and the S/T word round trip of
# decompose_st, which every lift goes through
BROKEN_CERTIFICATES = [
    ("""
        real = homology.induced_action
        homology.induced_action = lambda w, o: dataclasses.replace(
            real(w, o), torelli_order=5)
     """, ["pipeline", "frw", "--matrix", "2 1 1 1"],
     "internal error: torelli order 5 exceeds 2g - 2 = 4\n"),
    ("""
        real = homology.induced_action
        homology.induced_action = lambda w, o: dataclasses.replace(
            real(w, o), fixed_in_displacement_kernel=False)
     """, ["pipeline", "frw", "--matrix", "2 1 1 1"],
     "internal error: a class fixed by the lift has nonzero displacement "
     "on the base torus\n"),
    ("""
        cli.sl2z.word_matrix = lambda word: cli.sl2z.IntMatrix2.identity()
     """, ["classify", "--matrix", "2 1 1 1"],
     "internal error: the S/T word of (2 1; 1 1) multiplies back to "
     "(1 0; 0 1)\n"),
]


@pytest.mark.parametrize("patch,argv,message", BROKEN_CERTIFICATES,
                         ids=["torelli_bound", "fixed_class_drift",
                              "decompose_st_round_trip"])
def test_pipeline_and_word_checks_survive_python_O(patch, argv, message):
    script = "import dataclasses, sys\nassert False\n" \
        "from minfol import cli, homology\n" + textwrap.dedent(patch) + \
        "sys.exit(cli.run(%r))\n" % (argv,)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MINFOL_", "PYTHONOPTIMIZE"))}
    env["PYTHONPATH"] = str(pathlib.Path(minfol.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == message


# stand-ins that break each certificate check of cover, torus3 and
# holonomy; each case runs one command, the last one library call, and
# puts the stand-in back
BROKEN_LIBRARY_CHECKS = textwrap.dedent("""
    import builtins, io, json
    from contextlib import contextmanager, redirect_stderr, redirect_stdout
    from minfol import cli, cover, holonomy, torus3
    from minfol.errors import InternalError

    MISSING = object()

    @contextmanager
    def swapped(owner, name, stand_in):
        real = getattr(owner, name, MISSING)
        setattr(owner, name, stand_in)
        try:
            yield
        finally:
            if real is MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, real)

    def broken(owner, name, stand_in, argv):
        out, err = io.StringIO(), io.StringIO()
        with swapped(owner, name, stand_in):
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
        print(json.dumps([code, out.getvalue(), err.getvalue()]))

    broken(cover.CoverSpec, "chi", lambda self: 1,
           ["cover", "double", "--n", "4"])
    # admissibility off: a_i summing to 5 give an odd Euler characteristic
    broken(cover, "_pillowcase_check", lambda d, a: None,
           ["cover", "pillowcase", "--d", "2", "--a", "1,1,1,2"])
    broken(cover, "riemann_hurwitz_chi", lambda base, profile: 2,
           ["cover", "pillowcase", "--d", "2", "--a", "1,1,1,1"])
    # a sum that counts entries: no fibre lowers chi
    broken(cover, "sum", len,
           ["cover", "growth", "--d", "6", "--per-point", "2,2", "--k", "2"])
    broken(torus3, "classify", lambda A: None,
           ["torus3", "bundle", "--matrix", "2 1 1 1"])
    # a tolerance so wide that x -> x + 1 and x -> x - 1 both fix x:
    # the search refuses it as a domain error
    broken(holonomy, "FIXED_POINT_TOL", 2.0,
           ["holonomy", "stabilizer", "--gens", "aff:k=1,b=0;aff:k=0,b=1",
            "--x", "-1", "--max-len", "2"])
    # only the first fibre lowers chi: the command passes one shared
    # fibre, whose sum is read once, so two distinct lists are passed
    sums = iter([builtins.sum, len])
    with swapped(cover, "sum", lambda xs: next(sums)(xs)):
        try:
            cover.leaf_genus_growth_fibres(6, [[2, 2], [2, 2]], 2)
        except InternalError as e:
            print(json.dumps(["InternalError", str(e)]))
""")

BROKEN_LIBRARY_MESSAGES = [
    "the cover has odd Euler characteristic 1",
    "the pillowcase cover (d = 2, a = [1, 1, 1, 2]) has odd Euler "
    "characteristic 1",
    "the torus profile of the pillowcase cover gives chi = 2, not 0",
    "chi = 6 after 1 branch points exceeds d - 1 = 5",
    "(2 1; 1 1) is classified as None, not periodic, parabolic or Anosov",
]
TOLERANCE_REFUSAL = "domain error: two distinct affine maps with equal " \
    "linear part fix x within the tolerance %r, which cannot tell them " \
    "apart\n"


def test_cover_torus3_and_holonomy_checks_survive_python_O():
    # under -O every assert is stripped (the script's own assert False
    # passes); each broken check still exits 3 with one stderr line, and
    # the library's own check still raises InternalError
    script = "assert False\n" + BROKEN_LIBRARY_CHECKS
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MINFOL_", "PYTHONOPTIMIZE"))}
    env["PYTHONPATH"] = str(pathlib.Path(minfol.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [json.loads(line) for line in proc.stdout.splitlines()] == \
        [[3, "", "internal error: %s\n" % m]
         for m in BROKEN_LIBRARY_MESSAGES] + [
            [2, "", TOLERANCE_REFUSAL % 2.0],
            ["InternalError",
             "chi = 4 after 2 branch points does not drop below 4"]]


@pytest.mark.parametrize("gens,max_len", [
    ("aff:k=0,b=1/1000000000000", "2"),
    ("aff:k=0,b=1/1000000000000", "1"),
    ("aff:k=1,b=0;aff:k=0,b=1/1000000000000", "2"),
], ids=["translation_len2", "translation_len1", "doubling_and_translation"])
def test_stabilizer_refuses_witnesses_the_tolerance_cannot_separate(
        capsys, gens, max_len):
    # x -> x + 1e-12 and its inverse both fix 0 within 1e-9, but two
    # maps with equal linear part cannot both fix a point exactly
    code, out, err = invoke(capsys, "holonomy", "stabilizer", "--gens", gens,
                            "--x", "0", "--max-len", max_len)
    assert (code, out) == (2, "")
    assert err == TOLERANCE_REFUSAL % 1e-9


# (T^1001 S)^8, whose entries are near 10^24
BIG_TRACE = "%d %d %d %d" % tuple(
    x for row in ((sl2z.T_MAT ** 1001 * sl2z.S_MAT) ** 8).rows() for x in row)


@pytest.mark.parametrize("constant,limit,argv,message", [
    ("holonomy.MAX_ORBIT_STEPS", 100,
     ["holonomy", "orbit", "--gens", "rot:0.1", "--steps", "101",
      "--eps", "0.5"],
     "101 steps is more than the 100 that orbit_density runs"),
    ("holonomy.MAX_WORD_LENGTH", 3,
     ["holonomy", "stabilizer", "--gens", "aff:k=1,b=0", "--x", "1",
      "--max-len", "4"],
     "word length 4 is more than the 3 that stabilizer_search explores"),
    ("holonomy.MAX_SEARCH_MAPS", 17,
     ["holonomy", "stabilizer", "--gens", "aff:k=1,b=0;aff:k=0,b=1",
      "--x", "-1", "--max-len", "3"],
     "words of length 3 reach more than the 17 maps that "
     "stabilizer_search explores"),
    ("holonomy.MAX_SEARCH_EXPONENT", 10,
     ["holonomy", "stabilizer", "--gens", "aff:k=1,b=0;aff:k=-4,b=1",
      "--x", "-1", "--max-len", "3"],
     "exponent 4 times word length 3 is 12, more than the 10 that "
     "stabilizer_search explores"),
    ("cover.MAX_BRANCH_POINTS", 10,
     ["cover", "growth", "--d", "2", "--per-point", "1,2", "--k", "11"],
     "11 branch points is more than the 10 that leaf_genus_growth "
     "certifies"),
    ("cover.MAX_BRANCH_POINTS", 10,
     ["pipeline", "frw", "--matrix", "2 1 1 1", "--k", "11"],
     "11 branch points is more than the 10 that leaf_genus_growth "
     "certifies"),
    ("cover.MAX_BRANCH_POINTS", 10,
     ["cover", "double", "--n", "12"],
     "12 branch points is more than the 10 that build_double_cover builds"),
    ("holonomy.MAX_ORBIT_STEPS", 1000,
     ["holonomy", "rotnum", "--gens", "rot:0.1;rot:0.2", "--n", "501"],
     "1002 steps is more than the 1000 that rotation_number runs"),
    ("permutations.MAX_POINTS", 10,
     ["origami", "build", "--sigma-h", "(1 11)", "--sigma-v", "(1 2)"],
     "11 points is more than the 10 that parse_cycles builds"),
    ("permutations.MAX_POINTS", 10,
     ["origami", "build", "--d", "11", "--sigma-h", "()", "--sigma-v", "()"],
     "11 points is more than the 10 that parse_cycles builds"),
    ("permutations.MAX_POINTS", 10,
     ["origami", "pillowcase", "--d", "6", "--a", "1,1,1,3"],
     "12 squares is more than the 10 that pillowcase_origami builds"),
    ("sl2z.MAX_WORD_TOKENS", 5,
     ["classify", "--matrix", "7 1 6 1"],
     "10 tokens is more than the 5 that decompose_st writes"),
    # the rows below run at the real limits, which refuse them at once
    ("sl2z.MAX_TRIAL_DIVISOR", 10 ** 5,
     ["classify", "--matrix", BIG_TRACE],
     "the square-free part of a 160-bit radicand needs trial division past "
     "the 100000 that QuadraticIrrational tries"),
    ("sl2z.MAX_COUNT_BITS", 10000,
     ["classify", "--matrix", "2 1 1 1", "--periodic-points", "10000000"],
     "A^10000000 has far more than the 100000 fixed points that "
     "periodic_points lists: n times the bits of |tr A| is more than 10000"),
    ("holonomy.MAX_DECIMAL_EXPONENT", 4300,
     ["holonomy", "stabilizer", "--gens", "aff:k=1,b=0",
      "--x", "1e10000000"],
     "decimal exponent 10000000 is beyond the +-4300 that parse_rational "
     "reads"),
    ("holonomy.MAX_DECIMAL_EXPONENT", 4300,
     ["torus3", "periods", "--vectors", "1e1_0000000,1;0,1"],
     "decimal exponent 10000000 is beyond the +-4300 that parse_rational "
     "reads"),
    # no limit: 2^k past 2^1023 overflows, found without building 2^k
    (None, None,
     ["holonomy", "orbit", "--gens", "aff:k=1000000000,b=0",
      "--steps", "10", "--eps", "0.1"],
     "affine map with k=1000000000 overflows floating point on R/Z: "
     "2^k + |b| must stay below 2^1024"),
    ("permutations.MAX_POINTS", 10 ** 5,
     ["cover", "pillowcase", "--d", "3000000",
      "--a", "3000000,3000000,1,2999999"],
     "6000002 ramification points is more than the 100000 that "
     "pillowcase_sphere_profile lists"),
], ids=["orbit_steps", "stabilizer_max_len", "stabilizer_maps",
        "stabilizer_exponent", "growth_k",
        "pipeline_k", "double_n", "rotnum_steps", "cycle_label",
        "cycle_size", "pillowcase_squares", "classify_word",
        "classify_trace", "periodic_points_bits", "stabilizer_exponent_e",
        "periods_exponent_e", "orbit_aff_k", "sphere_profile_points"])
def test_work_above_its_limit_exits_2_with_one_line(
        capsys, monkeypatch, constant, limit, argv, message):
    # the limits are lowered here, so no test runs a huge input
    if constant:
        module, name = constant.split(".")
        monkeypatch.setattr(getattr(minfol, module), name, limit)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "domain error: %s\n" % message


@pytest.mark.parametrize("argv,message", [
    (["origami", "pillowcase", "--d", "0", "--a", "1,1,1,1"],
     "degree must be positive"),
    (["cover", "pillowcase", "--d", "0", "--a", "1,1,1,1"],
     "degree must be positive"),
    (["origami", "build", "--sigma-h", "(1 5)", "--sigma-v", "(1 2)"],
     "origami is not connected: square 1 reaches 3 of 5 squares"),
    (["origami", "build", "--sigma-h", "()", "--sigma-v", "()"],
     "need at least one square"),
    (["cover", "growth", "--d", "2", "--per-point", "3,2", "--k", "1"],
     "point 1: 6 sheets ramify but the degree is 2"),
    (["cover", "growth", "--d", "2", "--per-point", "1,2", "--k", "-5"],
     "need at least one branch point"),
], ids=["origami_pillowcase_d0", "cover_pillowcase_d0", "disconnected",
        "no_squares", "growth_sheets", "growth_negative_k"])
def test_bad_input_exits_2_with_one_line(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "domain error: %s\n" % message


# ------------------------------------------------------------------ fuzz


GOLDEN = pathlib.Path(__file__).parent / "golden"
# flag values to draw from: signs, zero, huge and malformed numbers, and
# an integer one digit past what int() reads from a str
FUZZ_MENU = ("0", "-1", str(10 ** 12), "1e10000000", "nan", "inf", "", "x",
             "1/0", "1" + "0" * 4300)
FUZZ_CASES = 24
# inputs that once ran for seconds or took hundreds of MB
FUZZ_FIXED = [
    ["classify", "--matrix", BIG_TRACE],
    ["classify", "--matrix", "2 1 1 1", "--periodic-points", "10000000"],
    ["holonomy", "stabilizer", "--gens", "aff:k=1,b=0", "--x", "1e10000000"],
    ["holonomy", "orbit", "--gens", "aff:k=1000000000,b=0", "--steps", "10",
     "--eps", "0.1"],
    ["cover", "growth", "--d", "100000000", "--per-point", "50000000,2",
     "--k", "1"],
    ["cover", "pillowcase", "--d", "3000000",
     "--a", "3000000,3000000,1,2999999"],
    # literals one digit past what int() reads from a str
    ["torus3", "periods", "--vectors", "1" * 4301 + ",1;0,1"],
    ["holonomy", "stabilizer", "--gens", "aff:k=1,b=0", "--x", "1" * 4301],
    ["holonomy", "stabilizer", "--gens", "aff:k=%s,b=0" % ("1" * 4301),
     "--x", "0"],
]


def first_passing_golden(path):
    """(argv, env) of the first golden case, by name, that runs the
    command path and exits 0."""
    words = path.split()
    for case in sorted(GOLDEN.glob("*.json")):
        g = json.loads(case.read_text())
        if g["exit"] == 0 and \
                [a for a in g["argv"] if a != "--tsv"][:len(words)] == words:
            return g["argv"], g["env"]
    raise LookupError("no passing golden case runs %r" % path)


def lower_limits(monkeypatch):
    for module in (cover_mod, hol, perms, sl2z):
        for name, value in list(vars(module).items()):
            if name.startswith("MAX_"):
                monkeypatch.setattr(module, name, min(value, 10 ** 4))


def check_outcome(capsys, argv):
    """(exit code, stderr), once the outcome is checked: a nonzero exit
    prints one stderr line and no report, a zero exit a JSON report or
    TSV rows of JSON values."""
    code, out, err = invoke(capsys, *argv)
    assert code in (0, 1, 2, 3), (argv, code)
    # no refusal formats an int past the digits a str may hold
    assert "Exceeds the limit" not in err, (argv, err)
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), \
            (argv, err)
    elif "--tsv" in argv:
        for row in out.splitlines():
            _, value = row.split("\t")
            json.loads(value)
    else:
        json.loads(out)
    return code, err


def fuzzed(argv, rng):
    """argv with one or two flag values replaced by menu draws."""
    argv = list(argv)
    flags = [a.startswith("--") and a != "--tsv" for a in argv]
    # a value is a --flag=value token or the token after a bare --flag
    slots = [i for i, a in enumerate(argv)
             if flags[i] and "=" in a
             or i and flags[i - 1] and "=" not in argv[i - 1]]
    for i in rng.sample(slots, min(len(slots), rng.choice((1, 2)))):
        value = rng.choice(FUZZ_MENU)
        argv[i] = argv[i].partition("=")[0] + "=" + value if flags[i] \
            else value
    return argv


@pytest.mark.parametrize("path", [row[0] for row in cli.COMMANDS])
def test_fuzzed_flag_values_exit_0_to_3_with_one_line_or_a_report(
        capsys, monkeypatch, path):
    argv, env = first_passing_golden(path)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    lower_limits(monkeypatch)
    assert check_outcome(capsys, argv)[0] == 0
    rng = random.Random("fuzz " + path)
    for _ in range(FUZZ_CASES):
        check_outcome(capsys, fuzzed(argv, rng))


@pytest.mark.parametrize("argv", FUZZ_FIXED,
                         ids=["classify_trace", "periodic_points",
                              "decimal_exponent", "orbit_aff_k",
                              "growth_pair", "sphere_profile",
                              "periods_literal", "stabilizer_x_literal",
                              "aff_k_literal"])
def test_fuzz_fixed_rows_answer_or_refuse_in_one_line(capsys, monkeypatch,
                                                       argv):
    lower_limits(monkeypatch)
    expected = 0 if argv[:2] == ["cover", "growth"] else 2
    code, err = check_outcome(capsys, argv)
    assert code == expected


def dividing_by_zero(args, inputs):
    return {"value": 1 / 0}


def raising_two_lines(args, inputs):
    raise RuntimeError("first line\nsecond line")


@pytest.mark.parametrize("handler,message", [
    (dividing_by_zero, "ZeroDivisionError: division by zero"),
    (raising_two_lines, "RuntimeError: first line second line"),
], ids=["zero_division", "multiline_message"])
def test_any_other_exception_is_one_internal_error_line(capsys, monkeypatch,
                                                         handler, message):
    rows = [row[:3] + (handler,) if row[0] == "classify" else row
            for row in cli.COMMANDS]
    monkeypatch.setattr(cli, "COMMANDS", rows)
    code, out, err = invoke(capsys, "classify", "--matrix", "2 1 1 1")
    assert (code, out, err) == (3, "", "internal error: %s\n" % message)
    # SystemExit still passes through, so --help exits 0
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0


def test_any_other_exception_is_one_line_under_python_O():
    script = textwrap.dedent("""
        import sys
        assert False
        from minfol import cli

        def dividing_by_zero(args, inputs):
            return {"value": 1 / 0}

        cli.COMMANDS = [row[:3] + (dividing_by_zero,)
                        if row[0] == "classify" else row
                        for row in cli.COMMANDS]
        sys.exit(cli.run(["classify", "--matrix", "2 1 1 1"]))
    """)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MINFOL_", "PYTHONOPTIMIZE"))}
    env["PYTHONPATH"] = str(pathlib.Path(minfol.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "internal error: ZeroDivisionError: division by " \
                          "zero\n"
