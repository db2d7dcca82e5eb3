"""The cli workload: a seeded mix of `python -m minfol.cli` processes.

One client runs the processes one at a time (a closed loop), so each op
is a full process: interpreter start, `import minfol.cli`, argparse,
the library call, and the JSON or TSV report.  A traced pass replays
the same argv lists in-process through `minfol.cli.run` instead.

Two inputs are in the mix because they fail at the seed commit, and
they are counted as failures (ROADMAP item 5):
  * `holonomy stabilizer --x n/0` dies with a ZeroDivisionError traceback;
  * `pipeline frw --origami <unnamed>` dies with AttributeError, since
    the frw parser has no --sigma-h/--sigma-v.
Their expected behaviour is a rejection: exit 1 or 2, one stderr line.
"""

import io
import json
import re
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial

import minfol.cli

from workloads import (CAT, TOKEN_MATRIX, Op, Workload, act,
                       check_periodic_points, check_stabilizer_witness,
                       cycle_lengths, cycle_types, genus, mat2_mul, order,
                       periodic_count, random_dyadic_odd, random_hyperbolic,
                       random_mobius, random_origami, random_sl2z, rng_for)

CHILD_TIMEOUT_S = 60
SCHEMA_ID = "minfol-report/1"
BS12 = "aff:k=1,b=0;aff:k=0,b=1"
CAT_ARG = "2 1 1 1"
WOLLMILCHSAU = ((1, 2, 3, 0, 5, 6, 7, 4), (7, 6, 5, 4, 1, 0, 3, 2))
# exit codes a rejected input may use (usage error 1, domain error 2)
REJECT = (1, 2)
# ROADMAP baseline rows reproduced as processes, each run five times
ROADMAP_OPS = {"roadmap classify": "roadmap.classify_process_ms",
               "roadmap frw": "roadmap.pipeline_frw_process_ms"}


def run_process(root, env, argv):
    proc = subprocess.run([sys.executable, "-m", "minfol.cli"] + argv,
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def run_inprocess(argv):
    """What the process would print, through minfol.cli.run in this
    interpreter.  An uncaught exception becomes exit 1 plus a traceback
    on stderr, as the interpreter would report it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = minfol.cli.run(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------ report parsing

def _no_constants(name):
    raise ValueError("non-standard JSON constant %s" % name)


def strict_json(text):
    return json.loads(text, parse_constant=_no_constants)


def _listify(node):
    if isinstance(node, dict):
        node = {k: _listify(v) for k, v in node.items()}
        if node and all(k.isdigit() for k in node) and \
                sorted(int(k) for k in node) == list(range(len(node))):
            return [node[str(i)] for i in range(len(node))]
    return node


def parse_tsv(text):
    """Rebuild the report from key<TAB>value rows.  Empty lists and
    objects have no rows, so checks read optional parts with .get()."""
    report = {}
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("TSV output does not end with a newline")
    for line in lines[:-1]:
        key, sep, value = line.partition("\t")
        if not sep:
            raise ValueError("TSV row without a tab: %r" % line)
        node = report
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        if parts[-1] in node:
            raise ValueError("TSV key %r repeated" % key)
        node[parts[-1]] = strict_json(value)
    return _listify(report)


def schema_error(rep):
    """Structural check of a minfol-report/1 document."""
    if not isinstance(rep, dict):
        return "report is not an object"
    if set(rep) != {"schema", "command", "inputs", "results", "provenance"}:
        return "report keys %s" % sorted(rep)
    if rep["schema"] != SCHEMA_ID:
        return "schema %r" % rep["schema"]
    if not isinstance(rep["command"], str) or not rep["command"]:
        return "command is not a non-empty string"
    if not isinstance(rep["inputs"], dict) or \
            not isinstance(rep["results"], dict):
        return "inputs or results is not an object"
    prov = rep["provenance"]
    if not isinstance(prov, dict) or \
            set(prov) != {"tool", "version", "seed", "threads"}:
        return "provenance keys"
    if prov["tool"] != "minfol" or not isinstance(prov["version"], str) or \
            not re.fullmatch(r"[0-9]+\.[0-9]+\.[0-9]+", prov["version"]):
        return "provenance tool/version"
    for key in ("seed", "threads"):
        val = prov[key]
        if val is not None and (not isinstance(val, int)
                                or isinstance(val, bool)):
            return "provenance %s is %r" % (key, val)
    return None


def check_output(expect, tsv, content, out, tally):
    """expect 0: success with a valid report that passes `content`;
    otherwise a tuple of allowed exit codes for a one-line rejection."""
    code, stdout, stderr = out
    if "Traceback" in stderr:
        return "exit %d with a traceback: %s" % (
            code, stderr.strip().splitlines()[-1])
    if expect:
        if code not in expect:
            return "exit %d, expected %s" % (code, expect)
        if stdout:
            return "rejection printed to stdout"
        if len(stderr.splitlines()) != 1:
            return "%d stderr lines on rejection" % len(stderr.splitlines())
        return None
    if code != 0:
        return "exit %d: %s" % (code, stderr.strip()[:200])
    try:
        rep = parse_tsv(stdout) if tsv else strict_json(stdout)
    except ValueError as exc:
        return "stdout is not a strict report: %s" % exc
    return schema_error(rep) or content(rep["results"])


# ------------------------------------------------ content checks

def _classify_content(m, n, res):
    a, b, c, d = m
    if res.get("matrix") != [[a, b], [c, d]]:
        return "matrix echo %r" % res.get("matrix")
    t = a + d
    want = ("periodic" if abs(t) < 2 or (b == c == 0) else
            "parabolic" if abs(t) == 2 else "anosov")
    kind = res["classification"]["kind"]
    if kind != want:
        return "kind %s, trace says %s" % (kind, want)
    prod = (1, 0, 0, 1)
    for tok in res.get("word", []):
        prod = mat2_mul(prod, TOKEN_MATRIX[tok])
    if prod != m:
        return "word multiplies to %s, not %s" % (prod, m)
    if n is not None:
        pp = res["periodic_points"]
        points = [(Fraction(x), Fraction(y)) for x, y in pp.get("points", [])]
        return check_periodic_points(m, n, pp["count"], points)
    return None


def _growth_content(d, di, ei, k, res):
    want = [d - j * di * (ei - 1) for j in range(1, k + 1)]
    if res.get("chi_sequence") != want or res.get("chi_bound") != d - k:
        return "chi sequence/bound disagree with Riemann-Hurwitz"
    return None


def _euler_content(g, e, res):
    ok = abs(e) <= 2 * g - 2
    if res["milnor_wood_ok"] != ok or \
            res["transverse_to_fibration_possible"] != ok:
        return "Milnor-Wood verdict for g=%d e=%d" % (g, e)
    if res["geometry"] != ("H^2 x R" if e == 0 else "SL(2,R)~") or \
            res["abs_euler_class"] != abs(e):
        return "geometry/euler class for e=%d" % e
    return None


def parse_cycles(text, d):
    img = list(range(d))
    for group in re.findall(r"\(([^()]*)\)", text):
        cyc = [int(s) - 1 for s in group.split()]
        for i, x in enumerate(cyc):
            img[x] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def _build_content(h, v, res):
    d = len(h)
    if res.get("d") != d or parse_cycles(res["sigma_h"], d) != h or \
            parse_cycles(res["sigma_v"], d) != v:
        return "origami echo does not match the input gluings"
    return None


def _action_error(g, action):
    M = action.get("matrix", [])
    if len(M) != 2 * g or any(len(r) != 2 * g for r in M):
        return "action matrix is not %dx%d" % (2 * g, 2 * g)
    k = action["torelli_order"]
    if not action["symplectic"] or not action["fixed_in_displacement_kernel"]:
        return "symplectic/fixed_in_displacement_kernel is false"
    if k > 2 * g - 2 or action["b1"] != k + 1:
        return "torelli order %d, b1 %d, genus %d" % (k, action["b1"], g)
    return None


def _homology_action_content(g, res):
    if "witness" not in res:
        return "no witness in the report"
    return _action_error(g, res)


def _frw_content(k, res):
    err = _action_error(3, res["action"])
    if err:
        return err
    seq = res["leaf_growth"].get("chi_sequence", [])
    if len(seq) != k or any(b >= a for a, b in zip(seq, seq[1:])):
        return "leaf growth sequence is not %d strictly decreasing terms" % k
    return None


def _stabilizer_content(x, res):
    ws = res.get("witnesses", [])
    for w in ws:
        err = check_stabilizer_witness(x, w["k"], Fraction(w["b"]))
        if err:
            return err
    if res["structure"] != ("cyclic" if ws else "trivial"):
        return "structure %r with %d witnesses" % (res["structure"], len(ws))
    return None


def _orbit_content(steps, eps, res):
    gap = res["max_gap"]
    if res["n_steps"] != steps or not 1.0 / (steps + 1) <= gap <= 1.0:
        return "n_steps %r, max_gap %r" % (res["n_steps"], gap)
    if res["epsilon_dense"] != (gap < eps):
        return "epsilon_dense flag disagrees with max_gap"
    return None


# ------------------------------------------------ the mix

def _cycles_text(p):
    seen = set()
    out = []
    for s in range(len(p)):
        if s in seen:
            continue
        cyc = [s]
        seen.add(s)
        x = p[s]
        while x != s:
            cyc.append(x)
            seen.add(x)
            x = p[x]
        out.append("(" + " ".join(str(y + 1) for y in cyc) + ")")
    return "".join(out)


def _origami_args(h, v):
    return ["--sigma-h", _cycles_text(h), "--sigma-v", _cycles_text(v)]


def _mat_arg(m):
    return "%d %d %d %d" % m


def _not_lifting(rng):
    """An origami with 5-8 squares whose image under the cat map has
    other cycle types, so it cannot be a relabeling: cat does not lift.
    cat = T (-I) S T^-1 S, applied rightmost first."""
    while True:
        d = rng.randint(5, 8)
        types = cycle_types(d, d * d)
        h, v = random_origami(rng, types, d)
        a, b = h, v
        for tok in ("S", "T^-1", "S", "-I", "T"):
            a, b = act(tok, a, b)
        if (cycle_lengths(a), cycle_lengths(b)) != \
                (cycle_lengths(h), cycle_lengths(v)):
            return h, v


def _lifting(rng):
    """An origami with at most 12 squares and A = [[1+pq, p], [q, 1]]."""
    d = rng.randint(6, 12)
    h, v = random_origami(rng, cycle_types(d, 12), d)
    p, q = order(h), order(v)
    return h, v, (1 + p * q, p, q, 1)


def mix(seed):
    """The fixed command mix: (kind, argv, expected exit, content check,
    tsv, known defect)."""
    rng = rng_for("cli", seed)
    cmds = []

    def add(kind, argv, content=None, expect=0, tsv=False, defect=""):
        cmds.append((kind, (["--tsv"] if tsv else []) + argv, expect,
                     content, tsv, defect))

    # light commands
    for i in range(8):
        tsv = i >= 6
        if i % 3 == 2:
            m = random_hyperbolic(rng)
            n = rng.choice([n for n in range(1, 5)
                            if periodic_count(m, n) <= 500])
            add("classify", ["classify", "--matrix", _mat_arg(m),
                             "--periodic-points", str(n)],
                partial(_classify_content, m, n), tsv=tsv)
        else:
            m = random_sl2z(rng)
            add("classify", ["classify", "--matrix", _mat_arg(m)],
                partial(_classify_content, m, None), tsv=tsv)
    for i in range(5):
        d = rng.randint(4, 12)
        ei = rng.randint(2, 4)
        di = rng.randint(1, d // ei)
        k = rng.randint(10, 60)
        add("cover growth", ["cover", "growth", "--d", str(d), "--per-point",
                             "%d,%d" % (di, ei), "--k", str(k)],
            partial(_growth_content, d, di, ei, k), tsv=i == 4)
    for _ in range(4):
        g, e = rng.randint(2, 5), rng.randint(-9, 9)
        add("torus3 euler", ["torus3", "euler", "--genus", str(g),
                             "--e", str(e)], partial(_euler_content, g, e))
    for i in range(5):
        if i == 0:
            add("origami build", ["origami", "build", "--name",
                                  "wollmilchsau"],
                partial(_build_content, *WOLLMILCHSAU))
            continue
        d = rng.randint(3, 10)
        h, v = random_origami(rng, cycle_types(d, d * d), d)
        add("origami build", ["origami", "build"] + _origami_args(h, v),
            partial(_build_content, h, v), tsv=i == 4)
    # moderate commands
    for _ in range(3):
        m, k = random_hyperbolic(rng), rng.randint(10, 60)
        add("pipeline frw", ["pipeline", "frw", "--matrix", _mat_arg(m),
                             "--origami", "wollmilchsau", "--k", str(k)],
            partial(_frw_content, k))
    for _ in range(3):
        m = random_hyperbolic(rng)
        add("homology action", ["homology", "action", "--matrix",
                                _mat_arg(m), "--name", "wollmilchsau"],
            partial(_homology_action_content, 3))
    for i in range(4):
        h, v, m = _lifting(rng)
        add("homology action", ["homology", "action", "--matrix", _mat_arg(m)]
            + _origami_args(h, v),
            partial(_homology_action_content, genus(h, v)), tsv=i == 3)
    for _ in range(3):
        x = random_dyadic_odd(rng)
        add("holonomy stabilizer", ["holonomy", "stabilizer", "--gens", BS12,
                                    "--x=%s" % x, "--max-len", "6"],
            partial(_stabilizer_content, x))
    for i in range(3):
        first = "dbl" if i != 1 else random_mobius(rng)
        add("holonomy orbit", ["holonomy", "orbit", "--gens",
                               "%s;rot:%r" % (first, rng.uniform(0.05, 0.95)),
                               "--start", repr(rng.random()),
                               "--steps", "100000", "--eps", "0.001",
                               "--seed", str(rng.randrange(1000))],
            partial(_orbit_content, 100000, 0.001))
    # rejections with their documented exit codes
    for _ in range(2):
        while True:
            m = tuple(rng.randint(-4, 4) for _ in range(4))
            if m[0] * m[3] - m[1] * m[2] != 1:
                break
        add("reject det", ["classify", "--matrix", _mat_arg(m)], expect=(2,))
        h, v = _not_lifting(rng)
        add("reject lift", ["homology", "action", "--matrix", CAT_ARG]
            + _origami_args(h, v), expect=(2,))
        add("reject flag", ["classify", "--matrix", CAT_ARG,
                            "--%s" % rng.choice(("frobnicate", "fast",
                                                 "threads", "dry-run"))],
            expect=(1,))
    # known defects, counted as failures while they last
    add("defect stabilizer 1/0", ["holonomy", "stabilizer", "--gens", BS12,
                                  "--x=%d/0" % rng.randint(1, 9),
                                  "--max-len", "6"],
        expect=REJECT, defect="ROADMAP item 5: zero denominator traceback")
    add("defect frw unnamed", ["pipeline", "frw", "--matrix", CAT_ARG,
                               "--origami", rng.choice(("ornithorynque",
                                                        "stairs", "l3"))],
        expect=REJECT, defect="frw parser lacks --sigma-h/--sigma-v")
    # ROADMAP baseline rows: classify and pipeline frw as processes
    for _ in range(5):
        add("roadmap classify", ["classify", "--matrix", CAT_ARG],
            partial(_classify_content, CAT, None))
        add("roadmap frw", ["pipeline", "frw", "--matrix", CAT_ARG,
                            "--origami", "wollmilchsau"],
            partial(_frw_content, 50))
    rng.shuffle(cmds)
    return cmds


def cli(seed, root, env):
    """Ops that run each command as a process in `root` with `env`."""
    ops = []
    for kind, argv, expect, content, tsv, defect in mix(seed):
        ops.append(Op(kind, partial(run_process, root, env, argv),
                      partial(check_output, expect, tsv, content),
                      known_defect=defect,
                      replay=partial(run_inprocess, argv)))
    return Workload("cli", ops)
