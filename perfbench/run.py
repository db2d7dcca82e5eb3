"""minfol benchmark.

    python3 perfbench/run.py --workload census|surfaces|dynamics|cli|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; minfol is imported from ./src, so there
is nothing to build.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric by name with its unit, the check results and provenance.

This process only coordinates.  It starts a few set-up probes and then
one worker process, both `python3 perfbench/run.py --role ...`, one at a
time.  Set-up time is measured from starting a process until it has
imported minfol and generated its inputs; the reported `setup_s` is the
median over the probes and the worker.

Untraced (--trace 0): the worker runs whole passes over the workload's
fixed op list until --seconds is used up (at least one).  Each op is
timed alone; its output is checked after the clock stops.  wall_s, the
p50 and the tail latency are medians over passes.

Traced (--trace 1): one untraced pass, then one pass with spans around
every call into minfol (spans.py), giving the per-layer metrics and
the tracing overhead (traced wall_s / untraced wall_s).  The spans are
written to perfbench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

from spans import PER_LAYER, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("census", "surfaces", "dynamics", "cli")
SETUP_PROBES = 4
RUN_TIMEOUT_S = 170
END_TO_END = (("wall_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("pass_ratio", "ratio"))


def child_env():
    """Environment for every process the benchmark starts: the checkout's
    sources on the path, asserts live (no PYTHONOPTIMIZE), bytecode
    cached as in an installed copy (no PYTHONDONTWRITEBYTECODE), and no
    MINFOL_* defaults."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE")
           and not k.startswith("MINFOL_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _on_sigterm(signum, frame):
    sys.exit(128 + signum)


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it, by
    nearest rank: (P, samples beyond)."""
    for p in range(99, 0, -1):
        beyond = n - math.ceil(p * n / 100)
        if beyond >= 10:
            return p, beyond
    raise ValueError("a pass needs at least 11 ops, has %d" % n)


def nearest_rank(sorted_values, p):
    return sorted_values[math.ceil(p * len(sorted_values) / 100) - 1]


# ------------------------------------------------------------ worker side

def load(workload, seed):
    """Set-up: import minfol and build the workload's inputs and ops."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    if workload == "cli":
        import cli_mix
        return cli_mix.cli(seed, ROOT, child_env())
    return getattr(workloads, workload)(seed)


def run_pass(work, tracer=None, replay=False):
    """Run every op once (through `op.replay` where it has one, if
    `replay`).  Returns (latencies, failures, tally)."""
    latencies = []
    failures = []
    tally = {}
    clock = time.perf_counter
    for i, op in enumerate(work.ops):
        call = op.replay if replay and op.replay else op.run
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            out = call()
            err = None
        except Exception as exc:
            err = "raised %s: %s" % (type(exc).__name__, exc)
        dt = clock() - t0
        latencies.append(dt)
        if err is None:
            try:
                err = op.check(out, tally)
            except Exception as exc:
                err = "check raised %s: %s" % (type(exc).__name__, exc)
            out = None  # free the output before the next op runs
        if err:
            failures.append({"op": i, "kind": op.kind, "reason": err,
                             "known_defect": op.known_defect})
    return latencies, failures, tally


def pass_stats(work, latencies):
    ordered = sorted(latencies)
    p, beyond = tail_percentile(len(ordered))
    by_kind = {}
    for op, dt in zip(work.ops, latencies):
        by_kind.setdefault(op.kind, []).append(dt)
    return {"wall_s": sum(latencies),
            "p50_s": statistics.median(ordered),
            "tail_s": nearest_rank(ordered, p),
            "tail_p": p, "tail_beyond": beyond,
            "kind_p50_s": {k: statistics.median(v) for k, v in by_kind.items()}}


def _process_ms(args, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable] + args, cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return (time.perf_counter() - t0) * 1e3


def cli_import_ms(env, repeats=5):
    """import minfol.cli minus bare interpreter start, medians of 5 each."""
    bare, full = [], []
    for _ in range(repeats):
        bare.append(_process_ms(["-c", "pass"], env))
        full.append(_process_ms(["-c", "import minfol.cli"], env))
    return statistics.median(full) - statistics.median(bare)


def traced_metrics(work, base, latencies):
    """One traced pass.  Returns the per-layer metrics, the ROADMAP rows,
    the Tracer, and the (latencies, failures, tally) of every extra pass.

    Ops with a replay (cli) run in-process when traced, so for them an
    untraced in-process pass is the base of the tracing overhead."""
    import cli_mix
    import workloads

    replay = any(op.replay for op in work.ops)
    extra = []
    base_wall = base["wall_s"]
    if replay:
        extra.append(run_pass(work, replay=True))
        base_wall = sum(extra[-1][0])
        stdout_bytes = [0]
        for op in work.ops:
            op.replay = _counting(op.replay, stdout_bytes)
    tracer = Tracer()
    tracer.install()
    try:
        extra.append(run_pass(work, tracer, replay))
    finally:
        tracer.uninstall()
    traced = pass_stats(work, extra[-1][0])
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    metrics.update(tracer.metrics())
    metrics["trace.overhead"] = traced["wall_s"] / base_wall
    rows = [("traced wall_s / untraced wall_s", traced["wall_s"], base_wall)]
    for i, op in enumerate(work.ops):
        if op.kind in workloads.ROADMAP_OPS:
            key, span = workloads.ROADMAP_OPS[op.kind]
            metrics[key] = tracer.op_span_time(i, span)
            rows.append((op.kind, metrics[key], latencies[i]))
    if work.name == "cli":
        metrics["cli.import_ms"] = cli_import_ms(child_env())
        metrics["cli.floor_ms"] = min(base["kind_p50_s"].values()) * 1e3
        metrics["cli.stdout_bytes"] = stdout_bytes[0]
        for kind, key in cli_mix.ROADMAP_OPS.items():
            metrics[key] = base["kind_p50_s"][kind] * 1e3
            rows.append((kind, traced["kind_p50_s"][kind], metrics[key] / 1e3))
    return metrics, rows, tracer, extra


def _counting(replay, counter):
    def run():
        out = replay()
        counter[0] += len(out[1].encode())
        return out
    return run


def worker(args):
    if sys.flags.optimize:
        sys.exit("the benchmark needs live asserts; run without -O")
    work = load(args.workload, args.seed)
    ready = time.monotonic()
    passes = []
    failures = []
    pass_checks = []
    budget_end = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        latencies, fails, tally = run_pass(work)
        passes.append(pass_stats(work, latencies))
        failures.extend(fails)
        pass_checks.extend(work.pass_checks(tally))
        took = time.perf_counter() - t0
        if args.trace or time.perf_counter() + took > budget_end:
            break
    attempted = len(work.ops) * len(passes)
    result = {"ready": ready, "passes": passes, "ops": len(work.ops)}
    if args.trace:
        metrics, rows, tracer, extra = traced_metrics(work, passes[0],
                                                      latencies)
        for lat, fails, tally in extra:
            failures.extend(fails)
            pass_checks.extend(work.pass_checks(tally))
            attempted += len(lat)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, "spans-%s.bin" % work.name)
        tracer.write(spans, {"workload": work.name, "seed": args.seed})
        result.update(layer_metrics=metrics, roadmap_rows=rows,
                      spans=os.path.relpath(spans, ROOT))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" \
        else resource.RUSAGE_SELF
    result.update(attempted=attempted, failures=failures,
                  pass_checks=pass_checks,
                  peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    print(json.dumps(result))


def probe(args):
    load(args.workload, args.seed)
    print(json.dumps({"ready": time.monotonic()}))


# ------------------------------------------------------------ coordinator

def _child(role, args, timeout):
    """Start one role process; return (seconds from start to its ready
    mark, its result dict)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s process exited with %d" % (role,
                                                          proc.returncode))
    result = json.loads(lines[-1])
    return result["ready"] - start, result


def _git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args):
    return {"git_sha": _git_sha(), "src_sha256": _src_sha256(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "seed": args.seed}


def measure(args, deadline):
    """Run one workload; returns (lines to print, result object)."""
    # compile minfol's bytecode once, untimed, as an installed copy would
    # have it; every process started below then loads the cached files
    subprocess.run([sys.executable, "-c", "import minfol.cli"], cwd=ROOT,
                   env=child_env(), check=True, timeout=60)
    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        setups.append(_child("probe", args, deadline - time.monotonic())[0])
    setup, res = _child("worker", args, deadline - time.monotonic())
    setups.append(setup)

    failures = res["failures"]
    unexpected = [f for f in failures if not f["known_defect"]]
    checks_ok = all(ok for _, ok in res["pass_checks"])
    attempted = res["attempted"]
    first = res["passes"][0]
    lines = ["== workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                                     args.trace)]
    prov = provenance(args)
    prov.update(ops=res["ops"], passes=len(res["passes"]),
                tail="p%d (%d of %d samples beyond)" % (
                    first["tail_p"], first["tail_beyond"], res["ops"]))
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    lines.append("checks: %d ops attempted, %d failed, fail_ratio %.4f "
                 "(%d/%d); %d failures are known defects" % (
                     attempted, len(failures), len(failures) / attempted,
                     len(failures), attempted,
                     len(failures) - len(unexpected)))
    for label, ok in res["pass_checks"]:
        lines.append("  pass check %s: %s" % (label, "ok" if ok else "FAILED"))
    for f in failures[:20]:
        lines.append("  FAIL op %d [%s] %s%s" % (
            f["op"], f["kind"], f["reason"],
            "  (known defect: %s)" % f["known_defect"]
            if f["known_defect"] else ""))
    if args.trace:
        metrics = res["layer_metrics"]
        units = dict(PER_LAYER)
        lines.append("spans written to %s" % res["spans"])
        for what, traced_s, untraced_s in res["roadmap_rows"]:
            lines.append("  %-34s traced %9.4f s  untraced %9.4f s  %s" % (
                what, traced_s, untraced_s, ROADMAP_FIGURES.get(what, "")))
        if args.workload == "cli":
            lines.append("  import minfol.cli over a bare interpreter: %.1f ms"
                         "  (ROADMAP: ~85 ms)" % metrics["cli.import_ms"])
    else:
        med = statistics.median
        metrics = {
            "wall_s": med(p["wall_s"] for p in res["passes"]),
            "latency_p50_ms": med(p["p50_s"] for p in res["passes"]) * 1e3,
            "latency_tail_ms": med(p["tail_s"] for p in res["passes"]) * 1e3,
            "setup_s": med(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_ratio": (attempted - len(failures)) / attempted,
        }
        units = dict(END_TO_END)
        lines.append("set-up samples (s): " + " ".join("%.4f" % s
                                                       for s in setups))
    for name in sorted(metrics):
        lines.append("metric %-44s %14.6f %s" % (name, metrics[name],
                                                 units[name]))
    result = {"correct": not unexpected and checks_ok, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return lines, result


# what the ROADMAP baseline table says for the rows reproduced here
ROADMAP_FIGURES = {
    "roadmap stabilizer": "(ROADMAP: 0.28 s at max_len 8)",
    "roadmap orbit": "(ROADMAP: 1.46 s for 10^6 steps)",
    "roadmap periodic": "(ROADMAP: 0.70 s for n = 10)",
    "roadmap classify": "(ROADMAP: 0.16 s, process median of 5)",
    "roadmap frw": "(ROADMAP: 0.24 s, process median of 5)",
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("worker", "probe"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.role == "worker":
        return worker(args)
    if args.role == "probe":
        return probe(args)

    if not os.path.isfile(os.path.join(ROOT, "src", "minfol", "__init__.py")):
        sys.stderr.write("run.py: no minfol sources under %s/src; run it "
                         "from the root of a minfol checkout\n" % ROOT)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        deadline = time.monotonic() + RUN_TIMEOUT_S
        try:
            lines, result = measure(one, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            sys.stderr.write("run.py: workload %s: %s\n" % (name, exc))
            return 1
        print("\n".join(lines), flush=True)
        if len(names) == 1:
            combined = result
            break
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = val
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
