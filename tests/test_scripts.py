"""Smoke runs of the experiment scripts, and the schema of the BENCH_*.json records."""

import importlib.util
import json
import os
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
    lambda d: d.update(schema=3),
], ids=["no_scipy", "metric_missing", "run_missing", "summary_stale", "change_not_int",
        "revision_missing", "parent_missing", "commit_unknown", "commands_missing",
        "command_missing", "command_times_short", "command_exit_missing",
        "command_summary_stale", "schema_unknown"])
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
        return SimpleNamespace(stdout='{"decay_chain": {}}\n')

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    trees = [tmp_path / "parent", tmp_path / "change", tmp_path / "parent"]
    for tree in trees:
        assert bench.run_all(tree, 1, 0) == {"decay_chain": {}}
    assert seen == trees


@pytest.mark.parametrize("where", ["src/dispersia", "perfbench"])
def test_bench_refuses_a_tree_holding_bytecode(monkeypatch, tmp_path, where):
    bench = _bench_module()
    (tmp_path / "change" / where / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: pytest.fail("measured"))
    with pytest.raises(SystemExit, match=f"{where}/__pycache__ holds bytecode"):
        bench.run_all(tmp_path / "change", 1, 0)
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
