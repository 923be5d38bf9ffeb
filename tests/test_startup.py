"""Cold start: what a fresh ``dispersia`` process loads, and the lazy package.

The runtime is numpy-only (``modal.expm`` is a numpy Pade-13 scaling and
squaring), so no command -- ``analyze`` (exp-poly and sampled), ``simulate``,
``spectrum`` or ``fit`` -- loads scipy; the tests use it only as a reference.
The exact decisions run on Python ints, so ``fractions`` (imported only to
keep an inexact sum of Drude constants exact) and ``decimal`` stay unloaded too.
``import dispersia.cli``, its parser, ``--help`` and a usage error load
nothing of the package beyond ``dispersia`` and ``dispersia.cli``, and no
logging, json or dataclasses.  Each command loads the modules it runs: ``fit``
no ``kernels``, ``dispersion`` or ``modal``; ``simulate`` and ``spectrum`` no
``dispersion``.  numpy itself loads on first use: a config error and
``analyze`` on a medium that is not strictly passive load none; a strictly
passive ``analyze`` loads numpy for sigma's grid only, and no modal, decay or
sampled-path module.  Every command writes the bytes that an in-process run
writes, and ``DISPERSIA_LOG`` changes what goes to stderr, never those bytes.
``dispersia`` exports its names lazily (PEP 562), each the object of its home
module.
Each case runs in a fresh interpreter, because an import is only seen once per
process.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dispersia
from dispersia import ExpPolyKernel, GAUSSIAN, debye, lorentz
from dispersia import io as dio
from dispersia.cli import main

ROOT = Path(__file__).resolve().parents[1]

# runs cli.main on each argv of argv[1] (a JSON list) and prints the exit codes,
# the scipy modules, which of fractions and decimal are loaded by then, whether
# numpy is, which of the modules that numpy comes with, and every dispersia module
SNIPPET = """
import json, sys
NUMERIC = ("dispersia._sampled", "dispersia.decay", "dispersia.modal")
import dispersia.cli
dispersia.cli.build_parser()
codes = [dispersia.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "stdlib": sorted(m for m in ("fractions", "decimal") if m in sys.modules),
                  "numpy": "numpy" in sys.modules,
                  "numeric": sorted(m for m in NUMERIC if m in sys.modules),
                  "package": sorted(m for m in sys.modules if m.split(".")[0] == "dispersia")}))
"""

# imports dispersia.cli, builds the parser and runs cli.main on argv[1:], which
# may exit; prints the exit code, every dispersia module and which of logging,
# json and dataclasses were loaded after the interpreter's own start-up
PARSER_SNIPPET = """
import sys
STDLIB = ("dataclasses", "json", "logging")
before = {m for m in STDLIB if m in sys.modules}
import dispersia.cli
dispersia.cli.build_parser()
try:
    code = dispersia.cli.main(sys.argv[1:]) if sys.argv[1:] else None
except SystemExit as exc:
    code = exc.code
report = {"code": code,
          "package": sorted(m for m in sys.modules if m.split(".")[0] == "dispersia"),
          "stdlib": sorted(m for m in STDLIB if m in sys.modules and m not in before)}
import json
print(json.dumps(report))
"""

CLI = "import sys; from dispersia.cli import main; sys.exit(main())"
CORE = ["dispersia", "dispersia.cli", "dispersia.io", "dispersia.medium"]


def python(*args, env=None):
    """A fresh interpreter on this checkout's src, with env added to this
    process's environment; its stdout and stderr."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout, proc.stderr


def run_fresh(*argvs):
    """SNIPPET's report and the process's stderr."""
    out, err = python("-c", SNIPPET, json.dumps(list(argvs)))
    return json.loads(out.splitlines()[-1]), err


def fresh(*argvs):
    return run_fresh(*argvs)[0]


def medium_doc(nu_e):
    return {"eps": 1.0, "mu": 1.0, "nu_e": dio.kernel_to_doc(nu_e),
            "nu_h": dio.kernel_to_doc(ExpPolyKernel.zero())}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_import_and_parser_load_no_scipy():
    assert fresh() == {"codes": [], "scipy": [], "stdlib": [], "numpy": False, "numeric": [],
                       "package": ["dispersia", "dispersia.cli"]}


@pytest.mark.parametrize("argv, code", [([], None), (["--help"], 0), (["analyze", "--help"], 0),
                                        (["no_such_command"], 2), (["fit"], 2)],
                         ids=["parser", "help", "command_help", "usage_error", "missing_args"])
def test_parser_help_and_usage_errors_load_nothing_of_the_package(argv, code):
    out, err = python("-c", PARSER_SNIPPET, *argv)
    assert json.loads(out.splitlines()[-1]) == {
        "code": code, "package": ["dispersia", "dispersia.cli"], "stdlib": []}
    if code == 0:
        assert out.startswith("usage: dispersia")
    if code == 2:
        assert err.startswith("usage: dispersia") and "error: " in err


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
    assert got == {"codes": [0, 0, 0], "scipy": [], "stdlib": [], "numpy": True,
                   "numeric": ["dispersia.decay", "dispersia.modal"],
                   "package": sorted(CORE + ["dispersia.decay", "dispersia.dispersion",
                                             "dispersia.energy_trace", "dispersia.kernels",
                                             "dispersia.modal"])}
    assert json.loads((tmp_path / "report.json").read_text())["m"] == 2
    assert json.loads((tmp_path / "fit.json").read_text())["kind"] == "exponential"


def test_simulate_loads_no_scipy(tmp_path):
    sim = write(tmp_path, "sim.json", {"medium": medium_doc(debye()), "modes": [[1.0, 1.0]],
                                       "dt": 0.02, "T": 2.0})
    out = tmp_path / "trace.csv"
    got = fresh(["simulate", "--config", sim, "--out", str(out)])
    assert got["codes"] == [0]
    assert got["scipy"] == []
    assert got["numeric"] == ["dispersia.modal"]
    assert got["package"] == sorted(CORE + ["dispersia.energy_trace", "dispersia.kernels",
                                            "dispersia.modal"])
    # a fresh process writes the trace this process writes
    here = tmp_path / "here.csv"
    assert main(["simulate", "--config", sim, "--out", str(here)]) == 0
    assert out.read_bytes() == here.read_bytes()


def test_sampled_analyze_report_unchanged(tmp_path):
    cfg = write(tmp_path, "gauss.json", {"nu_e": dio.kernel_to_doc(GAUSSIAN)})
    out = tmp_path / "report.json"
    got = fresh(["analyze", "--config", cfg, "--out", str(out)])
    assert got == {"codes": [0], "scipy": [], "stdlib": [], "numpy": True,
                   "numeric": ["dispersia._sampled"],
                   "package": sorted(CORE + ["dispersia._sampled", "dispersia.dispersion",
                                             "dispersia.kernels"])}
    report = json.loads(out.read_text())
    sigma_e = report.pop("sigma_E")
    assert report == {"passive": True, "strictly_passive": True, "m": 0, "sigma_H": 0.0,
                      "omega0": 10.0, "witnesses": [], "certified": False}
    assert abs(sigma_e - 1.0005564840635506) <= 1e-9
    here = tmp_path / "here.json"
    assert main(["analyze", "--config", cfg, "--out", str(here)]) == 0
    assert out.read_bytes() == here.read_bytes()


def test_strictly_passive_analyze_loads_numpy_for_sigma_only(tmp_path):
    cfg = write(tmp_path, "lorentz.json", {"medium": medium_doc(lorentz())})
    out = tmp_path / "report.json"
    got = fresh(["analyze", "--config", cfg, "--out", str(out)])
    assert got == {"codes": [0], "scipy": [], "stdlib": [], "numpy": True, "numeric": [],
                   "package": sorted(CORE + ["dispersia.dispersion", "dispersia.kernels"])}
    here = tmp_path / "here.json"
    assert main(["analyze", "--config", cfg, "--out", str(here)]) == 0
    assert out.read_bytes() == here.read_bytes()


def test_non_passive_analyze_and_config_error_load_no_numpy(tmp_path, capsys):
    debye_cfg = write(tmp_path, "debye.json", {"medium": medium_doc(debye(-0.5, 2.0))})
    doc = {"medium": medium_doc(debye())}
    doc["medium"]["nu_e"]["terms"][0]["z_re"] = "abc"
    bad_cfg = write(tmp_path, "bad.json", doc)
    argvs = [["analyze", "--config", debye_cfg, "--out", str(tmp_path / "fresh.json")],
             ["analyze", "--config", bad_cfg, "--out", str(tmp_path / "fresh_bad.json")]]
    got, err = run_fresh(*argvs)
    assert got == {"codes": [3, 1], "scipy": [], "stdlib": [], "numpy": False, "numeric": [],
                   "package": sorted(CORE + ["dispersia.dispersion", "dispersia.kernels"])}
    # the same bytes as in this process
    capsys.readouterr()
    assert [main(["analyze", "--config", debye_cfg, "--out", str(tmp_path / "here.json")]),
            main(["analyze", "--config", bad_cfg, "--out", str(tmp_path / "here_bad.json")])] \
        == [3, 1]
    assert err == capsys.readouterr().err
    assert err == ("config error: medium.nu_e.terms[0].z_re: expected a number, got 'abc'\n")
    assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "here.json").read_bytes()
    report = json.loads((tmp_path / "fresh.json").read_text())
    assert (report["passive"], report["strictly_passive"], report["certified"]) == \
        (False, False, True)
    assert not (tmp_path / "fresh_bad.json").exists()


def test_spectrum_loads_no_dispersion(tmp_path):
    cfg = write(tmp_path, "spectrum.json",
                {"medium": medium_doc(lorentz()), "k_values": [1.0, 4.0, 16.0]})
    got = fresh(["spectrum", "--config", cfg, "--out", str(tmp_path / "fresh.csv")])
    assert got["codes"] == [0]
    assert got["package"] == sorted(CORE + ["dispersia.energy_trace", "dispersia.kernels",
                                            "dispersia.modal"])
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "here.csv")]) == 0
    assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


def test_fit_loads_no_kernels_dispersion_or_modal(tmp_path):
    sim = write(tmp_path, "sim.json", {"medium": medium_doc(debye()), "modes": [[1.0, 1.0]],
                                       "dt": 0.02, "T": 20.0, "output_stride": 5})
    trace = str(tmp_path / "trace.csv")
    assert main(["simulate", "--config", sim, "--out", trace]) == 0
    got = fresh(["fit", trace, "--window", "2,20", "--out", str(tmp_path / "fresh.json")])
    assert got["codes"] == [0]
    assert got["numpy"] is True
    assert got["package"] == sorted(CORE + ["dispersia.decay", "dispersia.energy_trace"])
    assert main(["fit", trace, "--window", "2,20", "--out", str(tmp_path / "here.json")]) == 0
    assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "here.json").read_bytes()


class TestLogLevel:
    """DISPERSIA_LOG sets what goes to stderr; the report is the same bytes at any level."""

    LEVELS = ("WARNING", "INFO", "DEBUG", "no_such_level")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("log")
        cfg = write(tmp_path, "lorentz.json", {"medium": medium_doc(lorentz())})
        return {level: python("-c", CLI, "analyze", "--config", cfg,
                              env={"DISPERSIA_LOG": level}) for level in self.LEVELS}

    def test_info_and_debug_print_both_certificates(self, runs):
        pattern = r"INFO dispersia: (nu_e|nu_h) certified: C=\S+ delta=\S+"
        for level in ("INFO", "DEBUG"):
            lines = runs[level][1].splitlines()
            assert [re.fullmatch(pattern, line).group(1) for line in lines] == ["nu_e", "nu_h"]

    def test_warning_and_an_unknown_level_print_nothing(self, runs):
        assert runs["WARNING"][1] == runs["no_such_level"][1] == ""

    def test_report_bytes_do_not_depend_on_the_level(self, runs):
        reports = {runs[level][0] for level in self.LEVELS}
        assert len(reports) == 1
        assert json.loads(reports.pop())["m"] == 2


# the home of each exported name, as the package has always bound it
HOMES = {
    "kernels": ["GAUSSIAN", "CertificationFailure", "ClassKCertificate", "DampedTerm",
                "ExpPolyKernel", "KernelError", "NotInClassK", "SampledKernel",
                "certify_class_K", "debye", "drude", "eval_kernel", "laplace", "lorentz"],
    "dispersion": ["OmegaRational", "PassivityError", "PassivityReport", "analyze",
                   "check_passivity", "check_strict_passivity", "decay_exponent", "omega_form"],
    "modal": ["EnergyTrace", "HistoryState", "MediumSpec", "ModeSystem", "build_mode",
              "build_modes", "cavity_modes", "dispersion_roots", "initial_history",
              "run_multimode", "spectral_abscissa", "step_exact", "step_history"],
    "decay": ["DecayReport", "ExpectedDecay", "fit_decay", "predict"],
}


class TestLazyExports:
    def test_all_names_their_home_objects(self):
        homes = {name: module for module, names in HOMES.items() for name in names}
        assert sorted(dispersia.__all__) == sorted(homes)
        for name, module in homes.items():
            home = importlib.import_module(f"dispersia.{module}")
            assert getattr(dispersia, name) is getattr(home, name), name

    def test_star_import(self):
        namespace = {}
        exec("from dispersia import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(dispersia.__all__)
        assert all(namespace[name] is getattr(dispersia, name) for name in namespace)

    def test_dir_lists_every_export(self):
        listed = dir(dispersia)
        assert set(dispersia.__all__) <= set(listed)
        assert {"cli", "io", "kernels", "modal"} <= set(listed)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="'dispersia' has no attribute 'no_such_name'"):
            dispersia.no_such_name  # noqa: B018
        assert not hasattr(dispersia, "numpy")

    def test_a_name_loads_its_home_on_first_access(self):
        code = ("import sys, dispersia; dispersia.analyze, dispersia.MediumSpec; "
                "before = 'numpy' in sys.modules; dispersia.run_multimode; "
                "print(before, 'numpy' in sys.modules, 'dispersia.modal' in sys.modules)")
        out, _ = python("-c", code)
        assert out.split() == ["False", "True", "True"]
