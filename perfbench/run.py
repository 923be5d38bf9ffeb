#!/usr/bin/env python3
"""dispersia benchmark: one seeded, closed-loop run of one workload.

    python3 perfbench/run.py --workload decay_chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  One client
runs the workload's fixed job list again and again, one job at a time, until
--seconds have passed (at least one pass).  With --trace 1 the passes
alternate untraced and traced, and the last line carries the per-layer
metrics instead of the end-to-end ones.  Outputs are checked after timing.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics; a full result and, when traced, the spans go to perfbench/out/.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, SpanStats, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# Reported times are rescaled to a reference speed: each is multiplied by
# REF_CHUNK_S / (mean time of a fixed reference loop run between the timed
# passes' jobs, or between the set-up interpreters for setup_s).  The mean, not
# the median: the loop's time is bimodal on a busy host, and a job pays for the
# time spent in each mode.  The loop runs in a helper process (reference.py)
# that imports no dispersia code, while this process waits for it, so a change
# to the package moves rescaled times as it moves raw ones, even one that slows
# this whole process down; drift in the speed of a shared host largely cancels.
# REF_CHUNK_S is the loop's mean time over 30 s on a 2-vCPU Intel Xeon host
# with Python 3.11.7, numpy 2.4.6, scipy 1.17.1.
REF_CHUNK_S = 0.0028
REF_PER_JOB = 2     # reference loops before each job
REF_PER_PASS = 40   # and after each pass
REF_PER_SETUP = 10  # and before each set-up interpreter

SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import dispersia.cli; "
    "dispersia.cli.build_parser(); print(time.perf_counter() - t0)"
)


def import_package():
    """Import dispersia from this checkout's src/, and nowhere else."""
    if not (SRC / "dispersia" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dispersia package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dispersia
    import dispersia.cli
    import dispersia.io  # noqa: F401
    if Path(dispersia.__file__).resolve().parent != (SRC / "dispersia").resolve():
        raise SystemExit(f"perfbench: imported dispersia from {dispersia.__file__}, not {SRC}")
    return dispersia


class Reference:
    """The reference loop's helper process; ``run(n)`` runs the loop n times there
    and returns the durations.  Use as a context manager: leaving it ends the helper."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.run(3)  # untimed: the first loops pay for lazy imports and caches
        return self

    def run(self, n: int) -> list:
        self.proc.stdin.write(f"{n}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited with code {self.proc.wait()}")
        return json.loads(line)

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def measure_setup(ref: Reference, ref_times: list) -> float:
    """Median time for a fresh interpreter to import dispersia.cli and build the parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run is untimed: it may compile bytecode
        ref_times += ref.run(REF_PER_SETUP)
        r = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, check=True,
                           capture_output=True, text=True, timeout=120)
        if i:
            times.append(float(r.stdout))
    return statistics.median(times)


def run_pass(jobs, dirs, dispersia, ref, ref_times):
    """Run the job list once.  Returns (per-job seconds, outcomes)."""
    for d in dirs:
        for name in workloads.OUTPUTS:
            (d / name).unlink(missing_ok=True)
    gc.collect()
    latencies, outcomes = [], []
    for job, d in zip(jobs, dirs):
        ref_times += ref.run(REF_PER_JOB)
        t0 = time.perf_counter()
        try:
            outcome = workloads.run_job(job, d, dispersia)
        except Exception:
            outcome = {"error": traceback.format_exc(limit=4)}
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    ref_times += ref.run(REF_PER_PASS)
    return latencies, outcomes


def digest(d: Path, outcome: dict) -> str:
    h = hashlib.sha256(repr(outcome.get("codes")).encode())
    for name in workloads.OUTPUTS:
        if (d / name).is_file():
            h.update(name.encode() + (d / name).read_bytes())
    for arr in outcome.get("histories", []):
        h.update(arr.tobytes())
    return h.hexdigest()


def failure(job, outcome):
    if "error" in outcome:
        return outcome["error"].strip().splitlines()[-1]
    bad = workloads.unexpected_codes(job, outcome)
    return "; ".join(bad) if bad else None


def tail_percentile(n: int):
    """Highest percentile of a fixed ladder with at least 10 of n jobs beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if math.floor(n * (100.0 - p) / 100.0 + 1e-9) >= 10:
            return p
    return None


def tail_metric(latencies):
    n = len(latencies)
    p = tail_percentile(n)
    if p is None:
        return {"value": None, "unit": "s", "jobs": n,
                "note": f"{n} jobs; 20 are needed for 10 beyond the 50th percentile"}
    beyond = math.floor(n * (100.0 - p) / 100.0 + 1e-9)
    return {"value": float(np.percentile(latencies, p)), "unit": "s", "percentile": p,
            "jobs": n, "beyond": beyond}


def layer_metrics(st: SpanStats, jobs, errors: dict, agree) -> dict:
    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    mode_steps = sum(workloads.mode_steps(j) for j in jobs)
    history_steps = sum(workloads.history_steps(j) for j in jobs)
    analyzes = st.calls("dispersion.analyze")
    v = {
        "modal.run_multimode.self_s": st.self_s("modal.run_multimode"),
        "modal.mode_steps": mode_steps,
        "modal.mode_steps_per_s": ratio(mode_steps, st.total_s("modal.run_multimode")),
        "modal.history_steps_per_s": ratio(history_steps, st.total_s("modal.step_history")),
        "kernels.laplace.calls_per_analyze": ratio(st.calls("kernels.laplace"), analyzes),
        "kernels.eval_kernel.calls": st.calls("kernels.eval_kernel"),
        "kernels.eval_kernel.calls_per_history_step": ratio(
            st.calls_under("kernels.eval_kernel", "modal.step_history"),
            st.calls("modal.step_history")),
        "dispersion.analyze.total_s": st.total_s("dispersion.analyze"),
        "dispersion.check_passivity.calls_per_analyze": ratio(
            st.calls("dispersion.check_passivity"), analyzes),
        "io.trace_rows": sum(workloads.trace_rows(j) for j in jobs),
        "decay.prediction_agree_ratio": agree,
    }
    for name in ("modal.expm", "modal.build_mode", "modal.spectral_abscissa",
                 "modal.step_history", "kernels.certify_class_K", "kernels.laplace",
                 "dispersion.omega_form"):
        v[f"{name}.calls"] = st.calls(name)
        v[f"{name}.self_s"] = st.self_s(name)
    for name in ("dispersion.decay_exponent", "io.load_config", "io.parse_simulate_config",
                 "io.parse_spectrum_config", "io.format_trace", "io.write_trace",
                 "io.read_trace", "io.write_report", "cli.main", "decay.fit_decay"):
        v[f"{name}.self_s"] = st.self_s(name)
    for layer in LAYERS:
        v[f"{layer}.errors"] = errors[layer]
    return v


def median_of(dicts: list[dict], key):
    vals = [d[key] for d in dicts]
    return None if any(x is None for x in vals) else float(statistics.median(vals))


def provenance(seed, jobs, passes, tail) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS, "seed": seed,
            "jobs_per_pass": len(jobs), "passes": passes, "jobs_timed": len(jobs) * passes,
            "tail_percentile": tail.get("percentile"), "tail_jobs_beyond": tail.get("beyond")}


@dataclass
class Pass:
    traced: bool
    latencies: list
    outcomes: list
    spans: tuple = (0, 0)
    errors: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_workload(workload, seed, seconds, trace, jobs=None) -> dict:
    """Set up, warm up, time, trace and check one workload; return the full result."""
    dispersia = import_package()
    jobs = jobs if jobs is not None else workloads.make_jobs(workload, seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as tmp, Reference() as ref:
        dirs = [Path(tmp) / job.name for job in jobs]
        for job, d in zip(jobs, dirs):
            workloads.write_inputs(job, d)
        setup_ref, ref_times = [], []
        setup_raw = measure_setup(ref, setup_ref)
        warm = Path(tmp) / "warmup"
        workloads.write_inputs(jobs[0], warm)
        workloads.run_job(jobs[0], warm, dispersia)

        tracer = Tracer() if trace else None
        passes: list[Pass] = []
        problems = {job.name: [] for job in jobs}
        failures = {}
        first_digests = None
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < seconds:
            for traced in (False, True) if trace else (False,):
                if traced:
                    lo, before = tracer.mark(), dict(tracer.errors)
                    tracer.install()
                try:
                    p = Pass(traced, *run_pass(jobs, dirs, dispersia, ref, ref_times))
                finally:
                    if traced:
                        tracer.uninstall()
                if traced:
                    p.spans = (lo, tracer.mark())
                    p.errors = {k: tracer.errors[k] - before[k] for k in LAYERS}
                passes.append(p)
                digests = [digest(d, o) for d, o in zip(dirs, p.outcomes)]
                first_digests = first_digests or digests
                for job, o, h, h0 in zip(jobs, p.outcomes, digests, first_digests):
                    why = failure(job, o)
                    if why:
                        failures.setdefault(job.name, why)
                    elif h != h0:
                        problems[job.name].append(checks.Problem(
                            "determinism", "outputs differ between passes"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        agree = predicted = 0
        for job, d, outcome in zip(jobs, dirs, passes[-1].outcomes):  # outputs now on disk
            if failure(job, outcome):
                continue
            problems[job.name] += checks.check_job(job, d, outcome, dispersia)
            if job.workload == "decay_chain" and (d / "report.json").is_file():
                report = json.loads((d / "report.json").read_text())
                want = dispersia.decay.predict(dispersia.dispersion.PassivityReport(
                    passive=report["passive"], m=report["m"]))
                if want is not None:
                    predicted += 1
                    agree += checks.fit_kind(d) == want.kind
        if tracer:
            tracer.save(OUT / f"{workload}-seed{seed}.spans.npz")

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    setup_speed = REF_CHUNK_S / statistics.fmean(setup_ref)
    speed = REF_CHUNK_S / statistics.fmean(ref_times)
    raw_latencies = [x for p in plain for x in p.latencies]
    latencies = [x * speed for x in raw_latencies]
    failed = sum(failure(j, o) is not None for p in passes for j, o in zip(jobs, p.outcomes))
    attempted = len(jobs) * len(passes)
    tail = tail_metric(latencies)
    wrong = sorted(name for name, ps in problems.items() if ps)
    result = {
        "workload": workload,
        "correct": not any(p.gates for ps in problems.values() for p in ps),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": {"value": setup_raw * setup_speed, "unit": "s"},
            "wall_s": {"value": statistics.median(p.wall for p in plain) * speed, "unit": "s"},
            "job_s_p50": {"value": statistics.median(latencies), "unit": "s"},
            "job_s_tail": tail,
            "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
            "wrong_ratio": {"value": len(wrong) / len(jobs), "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
        "raw": {"setup_s": setup_raw, "wall_s": statistics.median(p.wall for p in plain),
                "job_s_p50": statistics.median(raw_latencies)},
        "speed": speed,
        "setup_speed": setup_speed,
        "reference_loops": len(ref_times),
        "prediction_agree_ratio": agree / predicted if predicted else 0.0,
        "failures": failures,
        "problems": {name: [p.__dict__ for p in problems[name]] for name in wrong},
        "provenance": provenance(seed, jobs, len(plain), tail),
        "pass_walls": [p.wall for p in plain],
        "job_s": {job.name: statistics.median(p.latencies[i] for p in plain) * speed
                  for i, job in enumerate(jobs)},
    }
    if trace:
        per_pass = [layer_metrics(SpanStats(tracer, *p.spans), jobs, p.errors,
                                  result["prediction_agree_ratio"]) for p in traced]
        layer = {name: median_of(per_pass, name) for name in per_pass[0]}
        traced_wall = statistics.median(p.wall for p in traced) * speed
        layer["trace.spans"] = float(statistics.median(p.spans[1] - p.spans[0] for p in traced))
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - result["end_to_end"]["wall_s"]["value"]
        result["per_layer"] = layer
        result["missing"] = sorted(k for k, v in layer.items() if v is None)
    return result


def contract_line(result: dict, trace: int) -> dict:
    if trace:
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in workloads.BENCHMARK["per_layer"]}
    else:
        metrics = {m["name"]: result["end_to_end"][m["name"]]
                   for m in workloads.BENCHMARK["end_to_end"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report(result: dict) -> None:
    prov = result["provenance"]
    print(f"workload {result['workload']}  seed {prov['seed']}  "
          f"{prov['passes']} passes x {prov['jobs_per_pass']} jobs")
    for name, m in result["end_to_end"].items():
        if m["value"] is None:
            print(f"  {name:<14} {'omitted':>12}  ({m['note']})")
            continue
        extra = f"  (raw {result['raw'][name]:.6g} s)" if name in result["raw"] else ""
        if name == "job_s_tail":
            extra = f"  (p{m['percentile']:g} of {m['jobs']} jobs, {m['beyond']} beyond)"
        print(f"  {name:<14} {m['value']:>12.6g} {m['unit']}{extra}")
    for name, m in result.get("per_layer", {}).items():
        print(f"  {name:<46} {'missing' if m is None else f'{m:.6g}'}")
    for name, why in result["failures"].items():
        print(f"  FAILED {name}: {why}")
    for name, ps in result["problems"].items():
        for p in ps:
            print(f"  WRONG {name} [{p['kind']}]: {p['what']}")
    print(f"  speed factor {result['speed']:.4f} from {result['reference_loops']} reference loops"
          f" (set-up {result['setup_speed']:.4f})")
    print("provenance " + json.dumps(prov))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=workloads.BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        # each workload in its own process, so peak_rss_mb is per workload
        lines = {}
        for name in workloads.WORKLOADS:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            r = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            if r.returncode:
                return r.returncode
            out = r.stdout.rstrip("\n").splitlines()
            print("\n".join(out[:-1]), flush=True)
            lines[name] = json.loads(out[-1])
        print(json.dumps(lines))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps(contract_line(result, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
