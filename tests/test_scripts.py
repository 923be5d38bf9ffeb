"""Smoke runs of the experiment scripts, and the schema of the BENCH_*.json records."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout


def test_integrator_convergence_is_second_order():
    out = run_script("integrator_convergence.py", "--T", "2", "--levels", "3")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 3
    ratios = [float(row[2]) for row in rows[1:]]
    # the history integrator is second order: halving dt quarters the error
    assert all(3.8 <= r <= 4.2 for r in ratios), out


def test_decay_experiments_observe_the_predicted_decay():
    out = run_script("decay_experiments.py")
    rows = {}
    for line in out.splitlines():
        name, *fields = line.split()
        rows[name] = dict(f.split("=", 1) for f in fields if "=" in f)
    # m = 0 gives exponential decay, m = 2 polynomial decay
    want = {"debye": ("0", "exponential"), "lorentz": ("2", "polynomial"),
            "drude": ("2", "polynomial")}
    assert {name: (r["m"], r["predicted"]) for name, r in rows.items()} == want, out
    assert all(r["observed"] == r["predicted"] for r in rows.values()), out


def test_abscissa_scaling_is_negative_and_k_squared():
    out = run_script("abscissa_scaling.py", "--num", "3", "--k-max", "16")
    rows = [[float(x) for x in line.split()] for line in out.splitlines()[1:]]
    assert len(rows) == 3
    # columns: k, then abscissa and |abscissa|*k^2 for debye, lorentz, drude
    assert all(row[i] < 0 for row in rows for i in (1, 3, 5)), out
    k, last = rows[-1][0], rows[-1]
    assert k == 16.0
    # m = 2 media: the abscissa scales like -c/k^2 with c near 1/2
    assert 0.4 <= last[4] <= 0.6 and 0.4 <= last[6] <= 0.6, out


def test_history_digest_prints_nine_stable_digests():
    out = run_script("history_digest.py")
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 9, out
    assert [int(seed) for seed, _, _ in rows] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, _, digest in rows), out
    assert run_script("history_digest.py") == out


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_bench_records_follow_the_schema():
    # the schema only; the numbers are the host's, and no benchmark runs here
    bench, benchmark = _bench_module(), json.loads((ROOT / "BENCHMARK.json").read_text())
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text())
        bench.check_record(doc, benchmark)
        assert path.name == f"BENCH_{doc['change']}.json"


@pytest.mark.parametrize("spoil", [
    lambda d: d.pop("scipy"),
    lambda d: d["runs"][0]["metrics"].pop(next(iter(d["runs"][0]["metrics"]))),
    lambda d: d["runs"].pop(),
    lambda d: d["summary"].clear(),
    lambda d: d.update(change=str(d["change"])),
    lambda d: d["revisions"].pop("change"),
    lambda d: d["revisions"].pop("parent"),
    lambda d: d["revisions"].update(change=None),
    lambda d: d.pop("commands"),
    lambda d: d["commands"]["times"]["change"].pop("fit"),
    lambda d: d["commands"]["times"]["parent"]["bare"].pop(),
    lambda d: d["commands"]["exit"].pop("analyze_nonpassive"),
    lambda d: d["commands"]["summary"]["parent"].clear(),
    lambda d: d.update(schema=4),
    lambda d: d.pop("pairs"),
    lambda d: d["runs"][0].pop("pair"),
    lambda d: d["runs"][-1].update(pair=len(d["seeds"])),
    lambda d: d["runs"][0].pop("wrong_ratio"),
    lambda d: d["paired"]["sampled_history"]["metrics"]["wall_s"].update(ahead=-1),
], ids=["no_scipy", "metric_missing", "run_missing", "summary_stale", "change_not_int",
        "revision_missing", "parent_missing", "commit_unknown", "commands_missing",
        "command_missing", "command_times_short", "command_exit_missing",
        "command_summary_stale", "schema_unknown", "pairs_missing", "pair_missing",
        "pair_out_of_range", "wrong_ratio_missing", "paired_stale"])
def test_bench_schema_rejects_a_spoiled_record(spoil):
    bench, benchmark = _bench_module(), json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads(sorted(ROOT.glob("BENCH_*.json"))[-1].read_text())
    assert doc["schema"] == bench.SCHEMA  # the latest record has commands to spoil
    spoil(doc)
    with pytest.raises(ValueError, match="^BENCH record: "):
        bench.check_record(doc, benchmark)


def test_bench_runs_each_tree_without_bytecode(monkeypatch, tmp_path):
    # every run compiles the package as a fresh checkout does: no bytecode is
    # written, and none is read from a cache prefix
    bench, seen = _bench_module(), []
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))

    def fake_run(argv, cwd, env, **kwargs):
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert "PYTHONPYCACHEPREFIX" not in env
        seen.append(cwd)
        return SimpleNamespace(stdout='{"correct": true}\n')

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    trees = [tmp_path / "parent", tmp_path / "change", tmp_path / "parent"]
    for tree in trees:
        assert bench.run_one(tree, "decay_chain", 1, 0) == {"correct": True}
    assert seen == trees


def stub_record(bench, monkeypatch, tmp_path, outcome=lambda *key: (1.0, 0, 0.0)):
    """bench.record(38, ...) on two trees under tmp_path with run.py stubbed:
    outcome(tree, workload, trace, pair) gives every end-to-end metric's value,
    the failed count (of 3 attempted) and the wrong_ratio of that run.
    Returns the record and the calls, (tree, workload, seed, trace) each."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {"0": benchmark["end_to_end"], "1": benchmark["per_layer"]}
    calls = []

    def fake_run(argv, cwd, env, **kwargs):
        opts = dict(zip(argv[2::2], argv[3::2]))
        assert argv[1] == "perfbench/run.py" and opts["--seconds"] == str(bench.SECONDS)
        workload, seed, trace = opts["--workload"], int(opts["--seed"]), int(opts["--trace"])
        pair = sum(c[0] == cwd.name and c[1] == workload and c[3] == trace for c in calls)
        calls.append((cwd.name, workload, seed, trace))
        value, failed, wrong = outcome(cwd.name, workload, trace, pair)
        out = cwd / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(
            json.dumps({"end_to_end": {"wrong_ratio": {"value": wrong, "unit": "ratio"}}}))
        line = {"correct": True, "attempted": 3, "failed": failed,
                "metrics": {m["name"]: {"value": value} for m in names[opts["--trace"]]}}
        return SimpleNamespace(stdout="progress\n" + json.dumps(line) + "\n")

    machine = bench.environment()  # before the fake: platform may run uname
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setattr(bench, "environment", lambda: machine)
    monkeypatch.setattr(bench, "revision", lambda tree: "0" * 39 + str(len(tree.name)))
    monkeypatch.setattr(bench, "time_commands", lambda trees: {
        label: {name: [1.0] * bench.REPEATS for name in bench.COMMANDS} for label in trees})
    doc = bench.record(38, {label: tmp_path / label for label in bench.TREES})
    bench.check_record(doc, benchmark)
    return doc, calls


def test_bench_alternates_the_trees_per_workload(monkeypatch, tmp_path):
    # PAIRS untraced pairs per workload with the seeds cycled, then one traced
    # pair per seed; a pair's two runs follow each other, and the record
    # holds them all
    bench = _bench_module()
    doc, calls = stub_record(bench, monkeypatch, tmp_path)
    n = len(bench.SEEDS)
    pairs = [(trace, pair, workload) for trace, count in ((0, bench.PAIRS), (1, n))
             for pair in range(count) for workload in bench.WORKLOADS]
    assert [c[1:] for c in calls[::2]] == [c[1:] for c in calls[1::2]] == \
        [(w, bench.SEEDS[p % n], t) for t, p, w in pairs]
    assert all({a[0], b[0]} == set(bench.TREES) for a, b in zip(calls[::2], calls[1::2]))
    firsts = [c[0] for c in calls[::2]]
    # every other pair in run order, and every other pair of each workload and mode
    assert firsts[0] == "parent" and all(a != b for a, b in zip(firsts, firsts[1:]))
    for w in bench.WORKLOADS:
        for t in (0, 1):
            got = [first for first, (tt, _, ww) in zip(firsts, pairs) if (ww, tt) == (w, t)]
            assert all(a != b for a, b in zip(got, got[1:]))
    assert [(r["tree"], r["workload"], r["seed"], r["trace"]) for r in doc["runs"]] == calls
    assert [r["pair"] for r in doc["runs"][::2]] == [p for _, p, _ in pairs]
    assert doc["pairs"] == bench.PAIRS and doc["seconds"] == bench.SECONDS
    assert doc["command"] == "perfbench/run.py --workload W --seed S --seconds T --trace {0,1}"


def test_bench_pairs_give_ratios_and_their_interval(monkeypatch, tmp_path):
    bench = _bench_module()
    assert bench.PAIRS == 10 and bench.LEVEL == 0.90
    faster = [0.90, 0.80, 0.85, 1.05, 0.88, 0.83, 0.86, 0.87, 0.84, 0.81]

    def outcome(tree, workload, trace, pair):
        ratio = {"sampled_history": faster[pair], "decay_chain": 1.0,
                 "verdict_sweep": 0.5 if pair % 2 else 2.0}[workload]
        failed = int(tree == "change" and workload == "sampled_history" and pair == 0)
        wrong = 0.5 if (tree, workload, pair) == ("parent", "verdict_sweep", 3) else 0.0
        return 2.0 * (ratio if tree == "change" else 1.0), failed, wrong

    doc, _ = stub_record(bench, monkeypatch, tmp_path, outcome)
    level = 1.0 - 2.0 * 11 / 1024  # [v_(2), v_(9)] of 10: 1 - 2 P(B <= 1)
    got = doc["paired"]["sampled_history"]
    assert got["metrics"]["wall_s"] == {
        "ratios": faster, "median": 0.855, "lo": 0.81, "hi": 0.90, "level": level,
        "ahead": 9, "resolved": True}
    assert got["failed_ratio"] == {"parent": 0.0, "change": 1 / 30}
    assert got["wrong_ratio"] == {"parent": 0.0, "change": 0.0}
    same = doc["paired"]["decay_chain"]["metrics"]["setup_s"]
    assert (same["median"], same["lo"], same["hi"], same["ahead"], same["resolved"]) == \
        (1.0, 1.0, 1.0, 0, False)
    split = doc["paired"]["verdict_sweep"]
    assert (split["metrics"]["job_s_p50"]["ahead"], split["metrics"]["job_s_p50"]["lo"],
            split["metrics"]["job_s_p50"]["resolved"]) == (5, 0.5, False)
    assert split["wrong_ratio"] == {"parent": 0.05, "change": 0.0}
    assert set(doc["paired"]) == set(bench.WORKLOADS)
    assert set(got["metrics"]) == {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.mark.parametrize("n, k", [(4, None), (5, 1), (10, 2), (20, 6)])
def test_median_interval_from_binomial_order_statistics(n, k):
    # [v_(k), v_(n+1-k)] covers the median with probability 1 - 2 P(B < k),
    # B binomial (n, 1/2); k is the largest with coverage >= 90 %
    bench = _bench_module()
    values = [float(v) for v in range(n, 0, -1)]
    if k is None:
        assert bench.median_interval(values) is None
        return
    coverage = lambda k: 1 - 2 * sum(math.comb(n, j) for j in range(k)) / 2**n  # noqa: E731
    assert coverage(k) >= 0.90 > coverage(k + 1)
    lo, hi, level = bench.median_interval(values)
    assert (lo, hi) == (float(k), float(n + 1 - k))
    assert level == pytest.approx(coverage(k), abs=1e-15)


@pytest.mark.parametrize("where", ["src/dispersia", "perfbench"])
def test_bench_refuses_a_tree_holding_bytecode(monkeypatch, tmp_path, where):
    bench = _bench_module()
    (tmp_path / "change" / where / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: pytest.fail("measured"))
    with pytest.raises(SystemExit, match=f"{where}/__pycache__ holds bytecode"):
        bench.run_one(tmp_path / "change", "decay_chain", 1, 0)
    with pytest.raises(SystemExit, match=f"{where}/__pycache__ holds bytecode"):
        bench.time_commands({"parent": tmp_path / "parent", "change": tmp_path / "change"},
                            repeats=1)


def command_name(bench, argv):
    """The COMMANDS entry that argv runs, and the directories its {out} arguments name."""
    for name, (args, _) in bench.COMMANDS.items():
        if len(args) != len(argv) - 1:
            continue
        outs = set()
        for arg, got in zip(args, argv[1:]):
            head, sep, tail = arg.format(configs=bench.CONFIGS, out="\0").partition("\0")
            if not sep:
                if got != head:
                    break
            elif got.startswith(head) and got.endswith(tail):
                outs.add(got[len(head):len(got) - len(tail)])
            else:
                break
        else:
            return name, outs
    raise AssertionError(f"no command runs {argv}")


def test_bench_times_commands_interleaved_without_bytecode(monkeypatch, tmp_path):
    bench, calls = _bench_module(), []
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))

    def fake_run(argv, env, cwd, **kwargs):
        name, outs = command_name(bench, argv)
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert "PYTHONPYCACHEPREFIX" not in env
        assert env["OPENBLAS_NUM_THREADS"] == "1"
        calls.append((cwd, name, env["PYTHONPATH"], outs))
        return SimpleNamespace(returncode=bench.COMMANDS[name][1])

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    times = bench.time_commands(trees, repeats=2)
    n = len(bench.COMMANDS)
    assert {label: {name: len(v) for name, v in cmds.items()} for label, cmds in times.items()} \
        == {label: dict.fromkeys(bench.COMMANDS, 2) for label in trees}
    # one untimed run of every command per tree, then command by command, the
    # parent first on the first repeat and the change first on the second
    assert [(cwd, name) for cwd, name, _, _ in calls[:2 * n]] == \
        [(trees[label], name) for label in trees for name in bench.COMMANDS]
    timed = [(cwd, name) for cwd, name, _, _ in calls[2 * n:]]
    assert timed == [(trees[label], name) for order in (("parent", "change"), ("change", "parent"))
                     for name in bench.COMMANDS for label in order]
    outs = {}
    for cwd, _, path, out in calls:
        assert path == str(cwd / "src")
        outs.setdefault(cwd, set()).update(out)
    # one output directory per tree, gone when the timing ends
    assert all(len(dirs) == 1 for dirs in outs.values())
    assert len(set.union(*outs.values())) == 2
    assert not any(Path(d).exists() for dirs in outs.values() for d in dirs)


def test_bench_refuses_a_command_with_an_unexpected_exit_code(monkeypatch, tmp_path):
    bench = _bench_module()
    monkeypatch.setattr(bench.subprocess, "run", lambda argv, **kwargs: SimpleNamespace(
        returncode=0))  # the non-passive Debye must exit 3
    with pytest.raises(SystemExit, match="analyze_nonpassive of the parent tree exited with 0"):
        bench.time_commands({"parent": tmp_path, "change": tmp_path}, repeats=1)
