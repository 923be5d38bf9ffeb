#!/usr/bin/env python3
"""Record the benchmark's metrics of a change and of its parent in BENCH_<change>.json.

    python scripts/bench.py --change 23 ../parent

Runs ``perfbench/run.py --workload W --seconds 5`` of this checkout and of a
checkout of its parent, for each workload W: PAIRS untraced pairs (end-to-end
metrics) with the pinned seeds 1, 2 and 3 cycled, then one traced pair
(per-layer metrics) per seed.  The two runs of a pair follow each other, so
that drift of a shared host falls on both, and the parent runs first where
the pair's index plus the workload's is even: on every other pair in run
order, and on every other pair of each workload.  Each tree runs its own
perfbench and src, and both must be clean git checkouts, so that each record
names the commits it measured.

Per workload and end-to-end metric, the record holds each untraced pair's
change/parent ratio, their median, the distribution-free interval of that
median from binomial order statistics (``median_interval``), the number of
pairs in which the change is ahead, and ``resolved``: whether the interval
excludes 1, which is when a speed claim counts.  It also holds, per tree,
the share of attempted operations that failed and the mean share of the job
list whose outputs failed a check (``failed_ratio``, ``wrong_ratio``).

Every interpreter runs as in a fresh checkout: with PYTHONDONTWRITEBYTECODE=1
and no PYTHONPYCACHEPREFIX, and a tree that holds a ``__pycache__`` under
src/ or perfbench/ is refused.  So ``setup_s`` and the command times include
compiling the package's source, while numpy and the standard library read
their installed bytecode.

It then times each CLI command in fresh interpreters (``time_commands``): a
bare interpreter, ``import dispersia.cli``, ``analyze`` on a strictly passive
Lorentz and on a non-passive Debye, ``simulate``, ``spectrum`` and ``fit``, on
the configs in scripts/bench_configs/.  Every command runs once per tree,
untimed, and then REPEATS times, the two trees interleaved command by
command, the parent first on the first repeat and every other one after it.

The record holds the machine, the Python, numpy and scipy versions, both
commits, every run's metrics, and each metric's median and quartiles per tree
and workload, and every command's times with their median and quartiles per
tree.  ``check_record`` is the record's schema; the tests hold every committed
BENCH_*.json to it.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 3  # 3 adds "pairs" and "paired", 2 adds "commands"; schema 1 has neither
WORKLOADS = ("decay_chain", "verdict_sweep", "sampled_history")
TREES = ("parent", "change")
SEEDS = (1, 2, 3)
SECONDS = 5.0
PAIRS = 10  # untraced pairs per workload
LEVEL = 0.90  # least coverage of the interval of a median ratio

CONFIGS = ROOT / "scripts" / "bench_configs"
REPEATS = 21
_CLI = ["-c", "import sys; from dispersia.cli import main; sys.exit(main())"]
# name: (interpreter arguments, exit code); {configs} is CONFIGS and {out} a
# directory of the tree's own, and fit reads the trace that simulate wrote
COMMANDS = {
    "bare": (["-c", "pass"], 0),
    "import": (["-c", "import dispersia.cli"], 0),
    "analyze_passive": (_CLI + ["analyze", "--config", "{configs}/lorentz.json",
                                "--out", "{out}/lorentz.json"], 0),
    "analyze_nonpassive": (_CLI + ["analyze", "--config", "{configs}/debye_negative.json",
                                   "--out", "{out}/debye_negative.json"], 3),
    "simulate": (_CLI + ["simulate", "--config", "{configs}/run.json",
                         "--out", "{out}/trace.csv"], 0),
    "spectrum": (_CLI + ["spectrum", "--config", "{configs}/sweep.json",
                         "--out", "{out}/spectrum.csv"], 0),
    "fit": (_CLI + ["fit", "{out}/trace.csv", "--window", "5,50", "--out", "{out}/fit.json"], 0),
}
# as perfbench/run.py sets them for its own set-up interpreters
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git(tree: Path, *args: str) -> str | None:
    r = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def revision(tree: Path) -> str:
    """The tree's HEAD commit; SystemExit unless its tracked files match it."""
    commit = _git(tree, "rev-parse", "HEAD")
    if commit is None or _git(tree, "status", "--porcelain", "--untracked-files=no"):
        raise SystemExit(f"bench: {tree} is not a clean git checkout")
    return commit


def no_bytecode_env(**extra) -> dict:
    """This process's environment, with bytecode neither written nor read from a prefix."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **extra)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def refuse_bytecode(tree: Path) -> None:
    """SystemExit if the tree holds a ``__pycache__`` under src/ or perfbench/,
    which an interpreter would read instead of compiling the source."""
    for top in ("src", "perfbench"):
        found = next((Path(tree) / top).rglob("__pycache__"), None)
        if found is not None:
            raise SystemExit(f"bench: {found} holds bytecode; remove it before measuring")


def environment() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"machine": {"cpu": cpu, "cpus": os.cpu_count(), "arch": platform.machine(),
                        "system": platform.platform()},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version}


def run_one(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``run.py --workload <workload>`` of the tree: run.py's last line.

    The run and its set-up interpreters compile the package's source and
    write no bytecode, so every set-up interpreter compiles it again.
    """
    refuse_bytecode(tree)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=tree, env=no_bytecode_env(), stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return json.loads(out.rstrip("\n").splitlines()[-1])


def wrong_ratio(tree: Path, workload: str, seed: int, trace: int) -> float:
    """The share of the job list whose outputs failed a check, from the full
    result that the tree's last ``run.py`` of (workload, seed, trace) wrote."""
    out = Path(tree) / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text())["end_to_end"]["wrong_ratio"]["value"]


def quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list) -> dict:
    """{tree: {workload: {metric: quartiles}}} over the seeds, numbers only."""
    values = {}
    for run in runs:
        for name, value in run["metrics"].items():
            if isinstance(value, (int, float)):
                values.setdefault(run["tree"], {}).setdefault(run["workload"], {}) \
                      .setdefault(name, []).append(value)
    return {tree: {wl: {name: quartiles(v) for name, v in sorted(ms.items())}
                   for wl, ms in wls.items()} for tree, wls in values.items()}


def median_interval(values: list, level: float = LEVEL) -> tuple | None:
    """(lo, hi, coverage): the narrowest [v_(k), v_(n+1-k)] of the sorted
    values whose coverage of their median, 1 - 2 P(B < k) with B binomial
    (n, 1/2), is at least level; None where even [v_(1), v_(n)] covers less."""
    values, n = sorted(values), len(values)
    found, below = None, 0.0
    for k in range(1, n // 2 + 1):
        below += math.comb(n, k - 1) / 2**n
        if 1.0 - 2.0 * below < level:
            break
        found = (values[k - 1], values[n - k], 1.0 - 2.0 * below)
    return found


def paired(runs: list, benchmark: dict) -> dict:
    """{workload: statistics of its untraced pairs}: per end-to-end metric the
    change/parent ratio of each pair where both are numbers and the parent's
    is not 0, their median, ``median_interval``, the pairs in which the
    change is ahead (ties count for neither) and whether the interval
    excludes 1; per tree ``failed_ratio`` and ``wrong_ratio``."""
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    pairs = {}
    for run in runs:
        if run["trace"] == 0:
            pairs.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["tree"]] = run
    out = {}
    for workload, by_pair in pairs.items():
        both = [by_pair[i] for i in sorted(by_pair)]
        metrics = {}
        for name, direction in better.items():
            ratios = [p["change"]["metrics"][name] / p["parent"]["metrics"][name] for p in both
                      if p["parent"]["metrics"][name] and p["change"]["metrics"][name] is not None]
            lo, hi, level = median_interval(ratios) or (None, None, None)
            metrics[name] = {
                "ratios": ratios, "median": statistics.median(ratios) if ratios else None,
                "lo": lo, "hi": hi, "level": level,
                "ahead": sum(r < 1.0 if direction == "lower" else r > 1.0 for r in ratios),
                "resolved": lo is not None and (hi < 1.0 or lo > 1.0)}
        out[workload] = {
            "metrics": metrics,
            "failed_ratio": {t: sum(p[t]["failed"] for p in both)
                             / sum(p[t]["attempted"] for p in both) for t in TREES},
            "wrong_ratio": {t: statistics.fmean(p[t]["wrong_ratio"] for p in both)
                            for t in TREES}}
    return out


def time_commands(trees: dict, repeats: int = REPEATS) -> dict:
    """Seconds of each fresh interpreter of COMMANDS: {tree: {command: [repeats times]}}.

    Each tree runs its own src, compiled afresh by every interpreter, and
    writes its outputs in a directory of its own.  A command that exits with
    another code than COMMANDS names is a SystemExit.
    """
    with tempfile.TemporaryDirectory(prefix="bench-commands-") as tmp:
        envs, argvs = {}, {}
        for label, tree in trees.items():
            refuse_bytecode(tree)
            work = Path(tmp) / label
            work.mkdir()
            envs[label] = no_bytecode_env(PYTHONPATH=str(Path(tree) / "src"),
                                          **dict.fromkeys(BLAS_VARS, "1"))
            argvs[label] = {name: [sys.executable] + [a.format(configs=CONFIGS, out=work)
                                                      for a in args]
                            for name, (args, _) in COMMANDS.items()}

        def timed(label: str, name: str) -> float:
            start = time.perf_counter()
            code = subprocess.run(argvs[label][name], env=envs[label], cwd=trees[label],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            seconds = time.perf_counter() - start
            if code != COMMANDS[name][1]:
                raise SystemExit(f"bench: {name} of the {label} tree exited with {code}")
            return seconds

        for label in trees:
            for name in COMMANDS:
                timed(label, name)
        times = {label: {name: [] for name in COMMANDS} for label in trees}
        for i in range(repeats):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for name in COMMANDS:
                for label in order:
                    times[label][name].append(timed(label, name))
    return times


def summarize_commands(times: dict) -> dict:
    """{tree: {command: quartiles}}."""
    return {label: {name: quartiles(v) for name, v in cmds.items()}
            for label, cmds in times.items()}


def record(change: int, trees: dict) -> dict:
    revisions = {label: revision(tree) for label, tree in trees.items()}
    runs = []
    for trace, count in ((0, PAIRS), (1, len(SEEDS))):
        for pair in range(count):
            seed = SEEDS[pair % len(SEEDS)]
            for i, workload in enumerate(WORKLOADS):
                for label in TREES if (pair + i) % 2 == 0 else TREES[::-1]:
                    print(f"bench: {label} {workload} seed {seed} trace {trace} pair {pair}",
                          file=sys.stderr, flush=True)
                    line = run_one(trees[label], workload, seed, trace)
                    runs.append({"tree": label, "seed": seed, "trace": trace,
                                 "workload": workload, "pair": pair, "correct": line["correct"],
                                 "attempted": line["attempted"], "failed": line["failed"],
                                 "wrong_ratio": wrong_ratio(trees[label], workload, seed, trace),
                                 "metrics": {k: v["value"] for k, v in line["metrics"].items()}})
    print("bench: commands", file=sys.stderr, flush=True)
    times = time_commands(trees)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"schema": SCHEMA, "change": change, "revisions": revisions,
            **environment(), "seeds": list(SEEDS), "seconds": SECONDS, "pairs": PAIRS,
            "command": "perfbench/run.py --workload W --seed S --seconds T --trace {0,1}",
            "runs": runs, "summary": summarize(runs), "paired": paired(runs, benchmark),
            "commands": {"repeats": REPEATS,
                         "argv": {name: args for name, (args, _) in COMMANDS.items()},
                         "exit": {name: code for name, (_, code) in COMMANDS.items()},
                         "times": times, "summary": summarize_commands(times)}}


def check_record(doc: dict, benchmark: dict) -> None:
    """Raise ValueError unless doc has the schema of a BENCH_*.json record.

    Checks keys and types, that every run carries exactly the metric names
    that BENCHMARK.json declares for its mode, from schema 2 on that every
    command of COMMANDS has its times per tree, and from schema 3 on that
    each workload has ``pairs`` untraced pairs and one traced pair per seed,
    and that ``paired`` is computed from them; not the numbers.
    """
    def need(cond, what):
        if not cond:
            raise ValueError(f"BENCH record: {what}")

    need(doc.get("schema") in range(1, SCHEMA + 1), f"schema must be 1 to {SCHEMA}")
    need(type(doc.get("change")) is int and doc["change"] >= 0, "change must be a PR number")
    for key in ("python", "numpy"):
        need(isinstance(doc.get(key), str), f"{key} must be a version string")
    need("scipy" in doc and (doc["scipy"] is None or isinstance(doc["scipy"], str)),
         "scipy must be a version string, or null where scipy is not installed")
    machine = doc.get("machine")
    need(isinstance(machine, dict) and {"cpu", "cpus", "arch", "system"} <= machine.keys(),
         "machine must name cpu, cpus, arch and system")
    revisions = doc.get("revisions")
    need(isinstance(revisions, dict) and set(revisions) == set(TREES),
         "revisions must name parent and change")
    for label, commit in revisions.items():
        need(isinstance(commit, str) and len(commit) == 40
             and all(c in "0123456789abcdef" for c in commit), f"commit of {label} malformed")
    seeds = doc.get("seeds")
    need(isinstance(seeds, list) and seeds and all(type(s) is int for s in seeds),
         "seeds must be a nonempty list of integers")
    need(isinstance(doc.get("seconds"), (int, float)) and doc["seconds"] > 0,
         "seconds must be positive")
    # before schema 3, one pair per seed in each mode, indexed as the seeds
    has_pairs = doc["schema"] >= 3
    if has_pairs:
        need(type(doc.get("pairs")) is int and doc["pairs"] > 0,
             "pairs must be a positive integer")
    count = {0: doc["pairs"] if has_pairs else len(seeds), 1: len(seeds)}
    names = {0: {m["name"] for m in benchmark["end_to_end"]},
             1: {m["name"] for m in benchmark["per_layer"]}}
    runs = doc.get("runs")
    need(isinstance(runs, list) and runs, "runs must be a nonempty list")
    seen = set()
    for run in runs:
        need(run.get("tree") in revisions and run.get("seed") in seeds
             and run.get("trace") in (0, 1) and run.get("workload") in WORKLOADS,
             f"run labels malformed: {run.get('tree')!r} {run.get('seed')!r}")
        need(type(run.get("correct")) is bool and type(run.get("attempted")) is int
             and type(run.get("failed")) is int, "run outcome malformed")
        metrics = run.get("metrics")
        need(isinstance(metrics, dict) and set(metrics) == names[run["trace"]],
             f"run metrics must be BENCHMARK.json's for trace {run['trace']}")
        need(all(v is None or isinstance(v, (int, float)) for v in metrics.values()),
             "metric values must be numbers or null")
        if has_pairs:
            pair = run.get("pair")
            need(type(pair) is int and 0 <= pair < count[run["trace"]]
                 and run["seed"] == seeds[pair % len(seeds)],
                 f"run pair malformed: {pair!r} of seed {run['seed']!r}")
            need(isinstance(run.get("wrong_ratio"), (int, float))
                 and 0 <= run["wrong_ratio"] <= 1, "run wrong_ratio must be a share")
        else:
            pair = seeds.index(run["seed"])
        seen.add((run["tree"], run["trace"], run["workload"], pair))
    need(len(seen) == len(runs), "a run is recorded twice")
    need(len(seen) == len(TREES) * len(WORKLOADS) * sum(count.values()),
         "every tree, workload and pair of each mode needs one run")
    need(doc.get("summary") == summarize(runs), "summary must be summarize(runs)")
    if has_pairs:
        need(doc.get("paired") == paired(runs, benchmark), "paired must be paired(runs)")
    if doc["schema"] < 2:
        return
    commands = doc.get("commands")
    need(isinstance(commands, dict), "commands must be an object")
    repeats = commands.get("repeats")
    need(type(repeats) is int and repeats > 0, "commands.repeats must be a positive integer")
    for key in ("argv", "exit"):
        need(isinstance(commands.get(key), dict) and set(commands[key]) == set(COMMANDS),
             f"commands.{key} must name every command of COMMANDS")
    times = commands.get("times")
    need(isinstance(times, dict) and set(times) == set(TREES), "commands.times must name both trees")
    for label, cmds in times.items():
        need(isinstance(cmds, dict) and set(cmds) == set(COMMANDS),
             f"commands.times.{label} must name every command of COMMANDS")
        for name, values in cmds.items():
            need(isinstance(values, list) and len(values) == repeats
                 and all(isinstance(v, (int, float)) and v > 0 for v in values),
                 f"commands.times.{label}.{name} must hold {repeats} positive seconds")
    need(commands.get("summary") == summarize_commands(times),
         "commands.summary must be summarize_commands(commands.times)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--change", type=int, required=True, help="this change's number")
    ap.add_argument("parent_tree", type=Path, help="a checkout of the parent revision")
    args = ap.parse_args(argv)
    doc = record(args.change, {"parent": args.parent_tree.resolve(), "change": ROOT})
    check_record(doc, json.loads((ROOT / "BENCHMARK.json").read_text()))
    out = ROOT / f"BENCH_{args.change}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
