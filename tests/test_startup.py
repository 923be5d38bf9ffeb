"""Cold start: a fresh ``dispersia`` process loads no scipy module.

The runtime is numpy-only (``modal.expm`` is a numpy Pade-13 scaling and
squaring), so no command -- ``analyze`` (exp-poly and sampled), ``simulate``,
``spectrum`` or ``fit`` -- loads scipy; the tests use it only as a reference.
The exact decisions run on Python ints, so ``fractions`` (imported only to
keep an inexact sum of Drude constants exact) and ``decimal`` stay unloaded too.
Each case runs in a fresh interpreter, because an import is only seen once per
process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from dispersia import ExpPolyKernel, GAUSSIAN, debye, lorentz
from dispersia import io as dio
from dispersia.cli import main

ROOT = Path(__file__).resolve().parents[1]

# runs cli.main on each argv of argv[1] (a JSON list) and prints the exit codes,
# the scipy modules and which of fractions and decimal are loaded by then
SNIPPET = """
import json, sys
import dispersia.cli
dispersia.cli.build_parser()
codes = [dispersia.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "stdlib": sorted(m for m in ("fractions", "decimal") if m in sys.modules)}))
"""


def fresh(*argvs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SNIPPET, json.dumps(list(argvs))],
                         env=env, capture_output=True, text=True, timeout=120, check=True).stdout
    return json.loads(out.splitlines()[-1])


def medium_doc(nu_e):
    return {"eps": 1.0, "mu": 1.0, "nu_e": dio.kernel_to_doc(nu_e),
            "nu_h": dio.kernel_to_doc(ExpPolyKernel.zero())}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_import_and_parser_load_no_scipy():
    assert fresh() == {"codes": [], "scipy": [], "stdlib": []}


def test_exp_poly_analyze_spectrum_fit_load_no_scipy(tmp_path):
    analyze = write(tmp_path, "analyze.json", {"medium": medium_doc(lorentz())})
    spectrum = write(tmp_path, "spectrum.json",
                     {"medium": medium_doc(lorentz()), "k_values": [1.0, 4.0, 16.0]})
    sim = write(tmp_path, "sim.json", {"medium": medium_doc(debye()), "modes": [[1.0, 1.0]],
                                       "dt": 0.02, "T": 20.0, "output_stride": 5})
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--config", sim, "--out", str(trace)]) == 0  # in this process
    got = fresh(["analyze", "--config", analyze, "--out", str(tmp_path / "report.json")],
                ["spectrum", "--config", spectrum, "--out", str(tmp_path / "spectrum.csv")],
                ["fit", str(trace), "--window", "2,20", "--out", str(tmp_path / "fit.json")])
    assert got == {"codes": [0, 0, 0], "scipy": [], "stdlib": []}
    assert json.loads((tmp_path / "report.json").read_text())["m"] == 2
    assert json.loads((tmp_path / "fit.json").read_text())["kind"] == "exponential"


def test_simulate_loads_no_scipy(tmp_path):
    sim = write(tmp_path, "sim.json", {"medium": medium_doc(debye()), "modes": [[1.0, 1.0]],
                                       "dt": 0.02, "T": 2.0})
    out = tmp_path / "trace.csv"
    got = fresh(["simulate", "--config", sim, "--out", str(out)])
    assert got["codes"] == [0]
    assert got["scipy"] == []
    # a fresh process writes the trace this process writes
    here = tmp_path / "here.csv"
    assert main(["simulate", "--config", sim, "--out", str(here)]) == 0
    assert out.read_bytes() == here.read_bytes()


def test_sampled_analyze_report_unchanged(tmp_path):
    cfg = write(tmp_path, "gauss.json", {"nu_e": dio.kernel_to_doc(GAUSSIAN)})
    out = tmp_path / "report.json"
    got = fresh(["analyze", "--config", cfg, "--out", str(out)])
    assert got == {"codes": [0], "scipy": [], "stdlib": []}
    report = json.loads(out.read_text())
    sigma_e = report.pop("sigma_E")
    assert report == {"passive": True, "strictly_passive": True, "m": 0, "sigma_H": 0.0,
                      "omega0": 10.0, "witnesses": [], "certified": False}
    assert abs(sigma_e - 1.0005564840635506) <= 1e-9
    here = tmp_path / "here.json"
    assert main(["analyze", "--config", cfg, "--out", str(here)]) == 0
    assert out.read_bytes() == here.read_bytes()
