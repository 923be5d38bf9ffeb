import json
import math
import os
import stat
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from dispersia import (DampedTerm, ExpPolyKernel, GAUSSIAN, KernelError, MediumSpec,
                       SampledKernel, debye, drude, fit_decay, lorentz)
from dispersia import cli
from dispersia import io as dio
from dispersia.cli import main

from conftest import defective_medium, lorentz_sum6, mixed_medium


def kernel_doc(kernel):
    return dio.kernel_to_doc(kernel)


ZERO_DOC = {"type": "exp_poly", "terms": []}
ZERO = ExpPolyKernel.zero()


def medium_doc(medium):
    return {"eps": medium.eps, "mu": medium.mu,
            "nu_e": kernel_doc(medium.nu_e), "nu_h": kernel_doc(medium.nu_h)}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# the longest a command may take on a hard medium or on a config it rejects
COMMAND_SECONDS = 20.0


def timed_main(argv):
    """main(argv)'s exit code; the command must return within COMMAND_SECONDS."""
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < COMMAND_SECONDS
    return code


def non_finite_debye_doc(field, value):
    """The unit Debye kernel document with one term field set to a non-finite value."""
    doc = kernel_doc(debye())
    term = doc["terms"][0]
    term[field] = [value] if field.startswith("poly") else value
    return doc


# exp_poly term lists that parse field by field but do not form a real kernel
MALFORMED_TERMS = {
    "unpaired_conjugate": [{"poly_re": [1.0], "poly_im": [0.0], "z_re": -0.1, "z_im": 1.0}],
    "polynomial_at_z0": [{"poly_re": [1.0, 2.0], "poly_im": [0.0, 0.0], "z_re": 0.0, "z_im": 0.0}],
    # 5 t is not a constant, though only one of its coefficients is nonzero
    "linear_at_z0": [{"poly_re": [0.0, 5.0], "poly_im": [0.0, 0.0], "z_re": 0.0, "z_im": 0.0}],
}

# (path into debye_sim_config(), value, field named in the error); each is one
# number field holding a value that is not a JSON number, or a boolean
_TERM = ("medium", "nu_e", "terms", 0)
MALFORMED_NUMBERS = [
    (_TERM + ("z_re",), None, "medium.nu_e.terms[0].z_re"),
    (_TERM + ("z_re",), [1], "medium.nu_e.terms[0].z_re"),
    (_TERM + ("z_re",), "abc", "medium.nu_e.terms[0].z_re"),
    (_TERM + ("z_re",), True, "medium.nu_e.terms[0].z_re"),
    (_TERM + ("poly_re",), ["abc"], "medium.nu_e.terms[0].poly_re"),
    (_TERM, {"poly_re": [], "poly_im": [], "z_re": -1.0, "z_im": 0.0},
     "medium.nu_e.terms[0].poly_re"),
    (_TERM + ("poly_re",), [False], "medium.nu_e.terms[0].poly_re"),
    (_TERM + ("poly_im",), 0.0, "medium.nu_e.terms[0].poly_im"),
    (("medium", "eps"), True, "medium.eps"),
    (("medium", "nu_e"), {"type": "sampled_builtin", "name": "gaussian", "C": True,
                          "delta": 1.0}, "medium.nu_e.C"),
    (("modes", 0, 1), "x", "modes[0][1]"),
    (("modes", 0, 0), True, "modes[0][0]"),
    (("modes", 0, 1), True, "modes[0][1]"),
    (("dt",), True, "dt"),
    (("T",), "10", "T"),
    (("output_stride",), True, "output_stride"),
]

# other fields that do not hold what they must (not an object or a list, a missing
# or out-of-range value), in the same (path, value, field) form
MALFORMED_FIELDS = MALFORMED_NUMBERS + [
    (("medium",), 5, "medium"),
    (("medium", "nu_e"), 5, "medium.nu_e"),
    (("medium", "nu_e", "terms"), {}, "medium.nu_e.terms"),
    (_TERM, 5, "medium.nu_e.terms[0]"),
    (_TERM + ("poly_re",), [1.0, 2.0], "medium.nu_e.terms[0].poly_re"),
    (("medium", "nu_e"), {"type": "sampled_builtin", "name": "gaussian", "delta": 1.0},
     "medium.nu_e.C"),
    (("medium", "nu_e"), {"type": "sampled_builtin", "name": "gaussian", "C": 3.4},
     "medium.nu_e.delta"),
    (("medium", "eps"), 10**400, "medium.eps"),  # an integer beyond the float range
    (("modes",), {}, "modes"),
    (("modes", 0), [1.0], "modes[0]"),
    (("modes", 0, 1), float("inf"), "modes[0][1]"),
    (("T",), 0.01, "T"),
]


def overflowing_configs():
    """(command, config, error line): a k / eps or k / mu beyond the float range,
    or a cavity whose largest wavenumber is; each exits 1 at parsing.  A k_range's
    wavenumbers are numpy floats, and its k is reported as a plain float too."""
    def medium(**scale):
        return dict(debye_sim_config()["medium"], **scale)

    def coupling(name, k):
        return f"config error: medium.{name}: k / {name} is not finite at k = {k}"

    cavity = debye_sim_config(cavity={"length": 1e-308, "n_max": 3})
    del cavity["modes"]
    k_range = {"k_min": 0.1, "k_max": 50.0, "num": 20}
    return {
        "spectrum_eps": ("spectrum", {"medium": medium(eps=1e-310), "k_values": [1.0]},
                         coupling("eps", 1.0)),
        "spectrum_mu": ("spectrum", {"medium": medium(mu=1e-310), "k_values": [1.0]},
                        coupling("mu", 1.0)),
        "spectrum_k_range_mu": ("spectrum", {"medium": medium(mu=5e-324), "k_range": k_range},
                                coupling("mu", 50.0)),
        "simulate_eps": ("simulate", debye_sim_config(medium=medium(eps=1e-310)),
                         coupling("eps", 1.0)),
        "simulate_mu": ("simulate", debye_sim_config(medium=medium(mu=1e-310)),
                        coupling("mu", 1.0)),
        "simulate_modes_mu": ("simulate", debye_sim_config(medium=medium(mu=5e-324),
                                                           modes=[[1.0, 1.0], [50.0, 1.0]]),
                              coupling("mu", 50.0)),
        "simulate_cavity": ("simulate", cavity, "config error: cavity.length: the largest "
                                                "wavenumber n_max pi / length is not finite"),
    }


def set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def malformed_config(tmp_path, terms):
    doc = debye_sim_config()
    doc["medium"]["nu_e"] = {"type": "exp_poly", "terms": terms}
    return write_config(tmp_path, doc)


NON_FINITE_FIELDS = [(field, value) for field in ("poly_re", "poly_im", "z_re", "z_im")
                     for value in (float("nan"), float("inf"))]


def assert_one_unsupported_line(capsys, field):
    """The one stderr line of exit 4, naming the field; nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"unsupported kernel: medium.{field}: ")
    assert "exp_poly" in captured.err and captured.err.count("\n") == 1


def debye_sim_config(**overrides):
    doc = {
        "medium": {"eps": 1.0, "mu": 1.0,
                   "nu_e": kernel_doc(debye()), "nu_h": ZERO_DOC},
        "modes": [[1.0, 1.0]],
        "dt": 0.02,
        "T": 10.0,
        "output_stride": 5,
    }
    doc.update(overrides)
    return doc


class TestKernelDocs:
    def test_round_trip(self):
        ts = np.linspace(0, 6, 60)
        for kern in (debye(), lorentz(0.7, 1.3, 0.9), drude(2.0, 0.5)):
            back = dio.kernel_from_doc(dio.kernel_to_doc(kern))
            assert np.allclose(kern(ts), back(ts), atol=1e-12)

    def test_sampled_round_trip(self):
        back = dio.kernel_from_doc(dio.kernel_to_doc(GAUSSIAN))
        assert back.C == GAUSSIAN.C and back.delta == GAUSSIAN.delta
        # a kernel built anew on the builtin's evaluator, under its name
        again = SampledKernel(GAUSSIAN.evaluator, 3.4, 1.0, name="gaussian")
        assert dio.kernel_from_doc(dio.kernel_to_doc(again)) == again == GAUSSIAN

    @pytest.mark.parametrize("name", ["gaussian", "sampled"])
    def test_sampled_kernel_that_is_no_builtin_has_no_document(self, name):
        # the document names a builtin only: a "gaussian" with another
        # evaluator would read back as the builtin Gaussian, and another name
        # would write a document that kernel_from_doc rejects
        def halved(t, order):
            return 0.5 * GAUSSIAN.evaluator(t, order)

        evaluator = halved if name == "gaussian" else GAUSSIAN.evaluator
        with pytest.raises(KernelError, match=f"^sampled kernel '{name}' has no document"):
            dio.kernel_to_doc(SampledKernel(evaluator, 3.4, 1.0, name=name))

    def test_unknown_type(self):
        with pytest.raises(dio.ParseError, match="type"):
            dio.kernel_from_doc({"type": "mystery"})

    def test_missing_term_field(self):
        doc = {"type": "exp_poly",
               "terms": [{"poly_re": [1.0], "poly_im": [0.0], "z_re": -1.0}]}
        with pytest.raises(dio.ParseError, match="z_im"):
            dio.kernel_from_doc(doc)

    def test_unknown_builtin(self):
        for name in ("nope", ["gaussian"], {}):  # not a string: no TypeError either
            with pytest.raises(dio.ParseError, match="name"):
                dio.kernel_from_doc({"type": "sampled_builtin", "name": name,
                                     "C": 1.0, "delta": 1.0})

    def test_kernel_file_reference(self, tmp_path):
        kpath = tmp_path / "kernel.json"
        kpath.write_text(json.dumps(kernel_doc(debye())))
        doc = {"eps": 1.0, "mu": 1.0, "nu_e": {"file": "kernel.json"},
               "nu_h": ZERO_DOC}
        medium = dio.parse_medium(doc, tmp_path)
        assert medium.nu_e(0.0) == pytest.approx(1.0)


class TestTraceFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        from dispersia import MediumSpec, run_multimode
        medium = MediumSpec(1.0, 1.0, debye(), ExpPolyKernel.zero())
        trace = run_multimode(medium, [(1.0, 1.0)], dt=0.05, T=5.0)
        path = tmp_path / "trace.csv"
        dio.write_trace(path, trace)
        back = dio.read_trace(path)
        assert np.array_equal(back.times, trace.times)
        assert np.array_equal(back.energy, trace.energy)

    @staticmethod
    def _per_row(trace):
        """The row-at-a-time formatter on numpy scalars that format_trace replaced."""
        hn = np.zeros_like(trace.times) if trace.history_norm is None else trace.history_norm
        lines = [dio.TRACE_HEADER]
        for t, e, h in zip(trace.times, trace.energy, hn):
            lines.append(f"{t:.17g},{e:.17g},{h:.17g}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("with_norm", [False, True])
    def test_format_matches_per_row_formatting(self, with_norm):
        from dispersia import EnergyTrace
        rng = np.random.default_rng(11)
        special = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
                            3.0, -7.0, 2.0**53, 1e16, 0.1, 1.0 / 3.0])
        n = 1500  # 3012 rows: several conversion chunks and a partial one
        cols = []
        for _ in range(3):
            col = np.concatenate([special, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
                                  np.round(rng.uniform(-1e6, 1e6, n))])
            cols.append(rng.permutation(col))
        trace = EnergyTrace(cols[0], cols[1], cols[2] if with_norm else None)
        assert dio.format_trace(trace) == self._per_row(trace)
        empty = EnergyTrace(np.array([]), np.array([]))
        assert dio.format_trace(empty) == self._per_row(empty) == dio.TRACE_HEADER + "\n"

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,e\n0,1\n")
        with pytest.raises(dio.ParseError, match="header"):
            dio.read_trace(path)

    def test_header_only_trace_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(dio.TRACE_HEADER + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy would note that no rows follow
            trace = dio.read_trace(path)
        assert trace.times.size == trace.energy.size == trace.history_norm.size == 0

    def test_blank_and_comment_lines_only_trace_is_empty(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(dio.TRACE_HEADER + "\n\n  \n# no rows yet\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dio.read_trace(path).times.size == 0

    def test_two_column_trace_rejected(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(dio.TRACE_HEADER + "\n0,1\n1,2\n")
        with pytest.raises(dio.ParseError, match="^trace: expected 3 columns, got 2$"):
            dio.read_trace(path)


# (nu_e, nu_h, exit code, report fields) of analyze through the CLI: exact verdicts
# on slow, stiff and many-term media and on both fields, and uncertified ones on
# media with a sampled field
VERDICTS = {
    "lorentz6": (lorentz_sum6(), ZERO, 0, {"strictly_passive": True, "m": 2}),
    "lorentz_drude": (lorentz(0.5, 2.0, 0.4), drude(0.3, 0.5), 0,
                      {"strictly_passive": True, "m": 2,
                       "sigma_E": pytest.approx(0.042545949625595644, rel=1e-9),
                       "sigma_H": pytest.approx(0.06, rel=1e-9)}),
    "debye_slow": (debye(1.0, 1e9), ZERO, 0, {"passive": True}),
    "debye_stiff": (ExpPolyKernel(tuple(t for e in range(-3, 4)
                                        for t in debye(1.0, 10.0 ** e).terms)),
                    ZERO, 0, {"passive": True}),
    "gauss_debye": (GAUSSIAN, debye(0.5, 2.0), 0, {"m": 0, "certified": False}),
    "ndebye_gauss": (debye(-0.5, 2.0), GAUSSIAN, 3,
                     {"passive": False, "certified": False,
                      "witnesses": [1.0, 0.5242428962312068]}),
}


class TestAnalyzeCommand:
    @pytest.mark.parametrize("nu_e, nu_h, code, fields", VERDICTS.values(), ids=VERDICTS)
    def test_verdict(self, tmp_path, nu_e, nu_h, code, fields):
        doc = {"medium": medium_doc(MediumSpec(1.0, 1.0, nu_e, nu_h))}
        out = tmp_path / "report.json"
        assert timed_main(["analyze", "--config", write_config(tmp_path, doc),
                           "--out", str(out)]) == code
        report = json.loads(out.read_text())
        assert {key: report[key] for key in fields} == fields

    def test_debye_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"nu_e": kernel_doc(debye())})
        assert main(["analyze", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passive"] is True
        assert doc["strictly_passive"] is True
        assert doc["m"] == 0
        assert list(doc)[:3] == ["passive", "strictly_passive", "m"]

    def test_lorentz_m2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"nu_e": kernel_doc(lorentz())})
        assert main(["analyze", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 2

    def test_negative_debye_exit3_with_witness(self, tmp_path, capsys):
        neg = {"type": "exp_poly",
               "terms": [{"poly_re": [-1.0], "poly_im": [0.0],
                          "z_re": -1.0, "z_im": 0.0}]}
        cfg = write_config(tmp_path, {"nu_e": neg})
        assert main(["analyze", "--config", cfg]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["passive"] is False
        assert doc["witnesses"]

    def test_undamped_kernel_exit2(self, tmp_path):
        bad = {"type": "exp_poly",
               "terms": [{"poly_re": [1.0], "poly_im": [0.0],
                          "z_re": 0.1, "z_im": 0.0}]}
        cfg = write_config(tmp_path, {"nu_e": bad})
        assert main(["analyze", "--config", cfg]) == 2

    @pytest.mark.parametrize("field, value", [
        ("delta", float("nan")), ("delta", float("inf")), ("delta", -float("inf")),
        ("C", float("nan")), ("C", float("inf")), ("C", -float("inf")),
    ])
    def test_non_finite_sampled_certificate_exit2(self, tmp_path, capsys, field, value):
        gauss = dict(kernel_doc(GAUSSIAN), **{field: value})  # json writes NaN, Infinity
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, {"nu_e": gauss})
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
        assert "C > 0 and delta > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("degree, z_re", [(3, -1e-6), (5, -1e-3)])
    def test_slowly_damped_power_certified_exit3(self, tmp_path, capsys, degree, z_re):
        # t^degree e^{z_re t} is in class K, and not passive
        power = {"type": "exp_poly", "terms": [{"poly_re": [0.0] * degree + [1.0],
                                                "poly_im": [0.0] * (degree + 1),
                                                "z_re": z_re, "z_im": 0.0}]}
        cfg = write_config(tmp_path, {"nu_e": power})
        assert timed_main(["analyze", "--config", cfg]) == 3
        assert json.loads(capsys.readouterr().out)["passive"] is False

    def test_overflowing_certificate_exit2(self, tmp_path, capsys):
        power = {"type": "exp_poly", "terms": [{"poly_re": [0.0] * 5 + [1.0], "poly_im": [0.0] * 6,
                                                "z_re": -1e-300, "z_im": 0.0}]}
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, {"nu_e": power})
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("certification failed:") and "overflows" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("beta, error", [
        # the Debye term turns Re(i w L nu(i w)) negative at a w^2 near 1e323
        (-5e-324, "a root in w^2 of Re(i w L nu(i w)) is beyond the float range"),
        (1e308, "Re(i w L nu(i w)) is not finite: the kernel's coefficients overflow "
                "the float range"),
    ], ids=["root", "real_part"])
    def test_beyond_the_float_range_exit2(self, tmp_path, capsys, beta, error):
        nu_e = ExpPolyKernel(lorentz().terms + debye(beta).terms)
        doc = {"medium": medium_doc(MediumSpec(1.0, 1.0, nu_e, drude()))}
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"kernel error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, value", NON_FINITE_FIELDS)
    def test_non_finite_term_exit1(self, tmp_path, capsys, field, value):
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, {"nu_e": non_finite_debye_doc(field, value)})
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: nu_e.terms[0].{field}: must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("terms", MALFORMED_TERMS.values(), ids=MALFORMED_TERMS)
    def test_malformed_terms_exit1(self, tmp_path, capsys, terms):
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", malformed_config(tmp_path, terms),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: medium.nu_e.terms: ")
        assert not out.exists()

    @pytest.mark.parametrize("doc", [5, None, "medium"])
    def test_config_not_an_object_exit1(self, tmp_path, capsys, doc):
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: config: expected a JSON object\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", [["gaussian"], {}])
    def test_non_string_builtin_name_exit1(self, tmp_path, capsys, name):
        doc = debye_sim_config()
        doc["medium"]["nu_e"] = {"type": "sampled_builtin", "name": name, "C": 3.4, "delta": 1.0}
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: medium.nu_e.name: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_config_exit1(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr().err.startswith("config error: config: file not found: ")

    def test_no_kernel_fields_exit1(self, tmp_path, capsys):
        assert main(["analyze", "--config", write_config(tmp_path, {"eps": 1.0})]) == 1
        assert capsys.readouterr().err == (
            "config error: config: expected 'medium' or 'nu_e'/'nu_h' fields\n")

    def test_invalid_json_exit1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", "--config", str(path)]) == 1

    @pytest.mark.parametrize("in_file", [False, True], ids=["config", "kernel_file"])
    def test_integer_beyond_conversion_limit_exit1(self, tmp_path, capsys, in_file):
        # json.loads raises a plain ValueError for an integer literal of 4301+ digits
        huge = "1" * 5001
        kernel = '{"type": "exp_poly", "terms": [], "n": %s}' % huge
        if in_file:
            (tmp_path / "kernel.json").write_text(kernel)
            kernel = '{"file": "kernel.json"}'
        path = tmp_path / "huge.json"
        path.write_text('{"nu_e": %s}' % kernel)
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        field = "nu_e.file" if in_file else "config"
        assert err.startswith(f"config error: {field}: invalid JSON") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("path", [5, None, ["kernel.json"], "missing.json"])
    def test_non_string_kernel_file_exit1(self, tmp_path, capsys, path):
        doc = debye_sim_config()
        doc["medium"]["nu_e"] = {"file": path}
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: medium.nu_e.file: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("path, value, field",
                             [case for case in MALFORMED_FIELDS if case[0][0] == "medium"])
    def test_malformed_number_exit1(self, tmp_path, capsys, path, value, field):
        doc = debye_sim_config()
        set_path(doc, path, value)
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
        assert not out.exists()


class TestSimulateCommand:
    def test_writes_trace(self, tmp_path):
        cfg = write_config(tmp_path, debye_sim_config())
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        trace = dio.read_trace(out)
        assert trace.energy[0] == pytest.approx(0.5)

    def test_zero_amplitude(self, tmp_path):
        cfg = write_config(tmp_path, debye_sim_config(modes=[[1.0, 0.0]]))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert np.all(dio.read_trace(out).energy == 0.0)

    def test_sampled_kernel_exit4(self, tmp_path, capsys):
        for field in ("nu_e", "nu_h"):
            for modes in ([[1.0, 1.0]], []):
                doc = debye_sim_config(modes=modes)
                doc["medium"][field] = kernel_doc(GAUSSIAN)
                cfg = write_config(tmp_path, doc)
                out = tmp_path / "trace.csv"
                assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
                assert_one_unsupported_line(capsys, field)
                assert not out.exists()

    def test_invalid_field_named_no_partial_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, debye_sim_config(dt=-1.0))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert "dt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", NON_FINITE_FIELDS)
    def test_non_finite_term_exit1(self, tmp_path, capsys, field, value):
        doc = debye_sim_config()
        doc["medium"]["nu_e"] = non_finite_debye_doc(field, value)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert f"medium.nu_e.terms[0].{field}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_propagator_exit1(self, tmp_path, capsys):
        # e^{800 t} over one step of dt = 1 overflows
        growing = {"type": "exp_poly", "terms": [{"poly_re": [1.0], "poly_im": [0.0],
                                                  "z_re": 800.0, "z_im": 0.0}]}
        doc = debye_sim_config(dt=1.0, T=3.0, output_stride=1)
        doc["medium"]["nu_e"] = growing
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "trace.csv"
        with np.errstate(over="ignore"):
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert "propagator over one output step is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_propagator_one_error_line(self, tmp_path, capsys):
        # no numpy warning precedes the error line: warnings are errors here
        growing = {"type": "exp_poly", "terms": [{"poly_re": [1.0], "poly_im": [0.0],
                                                  "z_re": 800.0, "z_im": 0.0}]}
        doc = debye_sim_config(dt=1.0, T=3.0, output_stride=1)
        doc["medium"]["nu_e"] = growing
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "simulation error: the propagator over one output step is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("rate, T, first", [(2.0, 400.0, "183.38"),
                                                (0.5, 1400.0, "733.48000000000002")])
    def test_overflowing_energy_one_error_line(self, tmp_path, capsys, rate, T, first):
        # each step's propagator is finite; the fields outgrow the float range later
        growing = {"type": "exp_poly", "terms": [{"poly_re": [1.0], "poly_im": [0.0],
                                                  "z_re": rate, "z_im": 0.0}]}
        doc = debye_sim_config(dt=0.02, T=T, output_stride=1, cavity={"length": 1.0, "n_max": 12})
        del doc["modes"]
        doc["medium"]["nu_e"] = growing
        out = tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"simulation error: the energy at t = {first} is not finite: "
            "the fields outgrow the float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("terms", MALFORMED_TERMS.values(), ids=MALFORMED_TERMS)
    def test_malformed_terms_exit1(self, tmp_path, capsys, terms):
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", malformed_config(tmp_path, terms),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: medium.nu_e.terms: ")
        assert not out.exists()

    @pytest.mark.parametrize("path, value, field", MALFORMED_FIELDS)
    def test_malformed_number_exit1(self, tmp_path, capsys, path, value, field):
        doc = debye_sim_config()
        set_path(doc, path, value)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("overrides, field", [
        (dict(dt=1e-300, T=1.0), "dt"),  # 1e300 trace rows
        (dict(dt=1e-300, T=1e10), "dt"),  # T / dt beyond the float range
        (dict(output_stride=2**70), "output_stride"),
    ])
    def test_length_beyond_the_limit_exit1(self, tmp_path, capsys, overrides, field):
        out = tmp_path / "trace.csv"
        assert timed_main(["simulate", "--config",
                           write_config(tmp_path, debye_sim_config(**overrides)),
                           "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n_max, T, field", [(11, 0.18, "cavity.n_max"), (10, 0.2, "dt")])
    def test_counts_bounded_before_allocation(self, tmp_path, capsys, monkeypatch, n_max, T, field):
        # the limit lowered to 10: 11 modes, or 10 steps (11 rows), are one too many,
        # and the config just inside the limit (10 modes, 10 rows) runs
        monkeypatch.setattr(dio, "MAX_COUNT", 10)
        doc = debye_sim_config(dt=0.02, T=T, output_stride=1,
                               cavity={"length": 1.0, "n_max": n_max})
        del doc["modes"]
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
        assert not out.exists()
        doc.update(T=0.18, cavity={"length": 1.0, "n_max": 10})
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 10

    @pytest.mark.parametrize("cavity", [5, None, [1.0, 3]])
    def test_cavity_not_an_object_exit1(self, tmp_path, capsys, cavity):
        doc = debye_sim_config(cavity=cavity)
        del doc["modes"]
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == "config error: cavity: expected an object\n"

    def test_boolean_mode_count_exit1(self, tmp_path, capsys):
        doc = debye_sim_config()
        del doc["modes"]
        doc["cavity"] = {"length": 1.0, "n_max": True}
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cavity.n_max: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_modes_diagnostic(self, tmp_path, capsys):
        doc = debye_sim_config()
        del doc["modes"]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 1
        assert "modes" in capsys.readouterr().err

    def test_cavity_shorthand(self, tmp_path):
        doc = debye_sim_config()
        del doc["modes"]
        doc["cavity"] = {"length": 1.0, "n_max": 3}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    def test_byte_identical_repeats_and_threads(self, tmp_path):
        cases = [
            (debye_sim_config(modes=[[float(k), 1.0 / k] for k in range(1, 9)]), 101),
            # 200 modes of a three-term medium, advanced in blocks of 8 rows
            ({"medium": medium_doc(mixed_medium()), "cavity": {"length": 1.0, "n_max": 200},
              "dt": 0.02, "T": 100.0, "output_stride": 1}, 5001),
        ]
        for doc, rows in cases:
            cfg = write_config(tmp_path, doc)
            blobs = []
            for i, threads in enumerate(("1", "1", "4")):
                out = tmp_path / f"trace{i}.csv"
                assert main(["simulate", "--config", cfg, "--out", str(out),
                             "--threads", threads]) == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1] == blobs[2]
            assert blobs[0].count(b"\n") == 1 + rows


class TestSpectrumCommand:
    def test_table(self, tmp_path, capsys):
        doc = {"medium": debye_sim_config()["medium"], "k_values": [1.0, 2.0]}
        cfg = write_config(tmp_path, doc)
        assert main(["spectrum", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,abscissa,n_eigs"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) < 0

    def test_lossless_abscissa_zero(self, tmp_path, capsys):
        doc = {"medium": {"eps": 1.0, "mu": 1.0, "nu_e": ZERO_DOC,
                          "nu_h": ZERO_DOC},
               "k_values": [1.0]}
        cfg = write_config(tmp_path, doc)
        assert main(["spectrum", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert abs(float(lines[1].split(",")[1])) <= 1e-12

    def test_matches_per_k_build_mode_byte_for_byte(self, tmp_path, capsys):
        from dispersia import build_mode, spectral_abscissa

        medium = mixed_medium()
        ks = [float(k) for k in np.random.default_rng(3).uniform(0.1, 50.0, 12)]
        doc = {"medium": {"eps": medium.eps, "mu": medium.mu,
                          "nu_e": kernel_doc(medium.nu_e), "nu_h": kernel_doc(medium.nu_h)},
               "k_values": ks}
        cfg = write_config(tmp_path, doc)
        assert main(["spectrum", "--config", cfg]) == 0
        lines = ["k,abscissa,n_eigs"]
        for k in ks:
            abscissa, eigs = spectral_abscissa(build_mode(medium, k))
            lines.append(f"{k:.17g},{abscissa:.17g},{eigs.size}")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_lorentz6_sweep_repeats_with_14_eigenvalues_per_k(self, tmp_path):
        doc = {"medium": medium_doc(MediumSpec(1.0, 1.0, lorentz_sum6(), ZERO)),
               "k_range": {"k_min": 0.1, "k_max": 50.0, "num": 500}}
        cfg = write_config(tmp_path, doc)
        tables = []
        for name in ("a.csv", "b.csv"):
            assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            tables.append((tmp_path / name).read_text())
        assert tables[0] == tables[1]
        lines = tables[0].splitlines()
        assert lines[0] == "k,abscissa,n_eigs" and len(lines) == 501
        assert {line.split(",")[2] for line in lines[1:]} == {"14"}

    def test_k_range(self, tmp_path, capsys):
        doc = {"medium": debye_sim_config()["medium"],
               "k_range": {"k_min": 1.0, "k_max": 5.0, "num": 5}}
        cfg = write_config(tmp_path, doc)
        assert main(["spectrum", "--config", cfg]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6

    @pytest.mark.parametrize("medium, ks", [
        (defective_medium(), {"k_values": [0.5, 1.0, 3.0, 40.0]}),
        (MediumSpec(1.0, 1.0, lorentz_sum6(), ExpPolyKernel.zero()),
         {"k_values": [0.1, 2.0, 7.5, 18.0, 60.0]}),
        (mixed_medium(), {"k_range": {"k_min": 0.01, "k_max": 80.0, "num": 500}}),
    ], ids=["defective", "lorentz6", "k_range500"])
    def test_matches_per_k_on_hard_closures(self, tmp_path, capsys, medium, ks):
        from dispersia import build_mode, spectral_abscissa

        doc = {"medium": {"eps": medium.eps, "mu": medium.mu,
                          "nu_e": kernel_doc(medium.nu_e), "nu_h": kernel_doc(medium.nu_h)},
               **ks}
        cfg = write_config(tmp_path, doc)
        lines = ["k,abscissa,n_eigs"]
        for k in dio.parse_spectrum_config(*dio.load_config(cfg)).k_values:
            abscissa, eigs = spectral_abscissa(build_mode(medium, k))
            lines.append(f"{k:.17g},{abscissa:.17g},{eigs.size}")
        assert main(["spectrum", "--config", cfg]) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_one_eigvals_call_and_one_abscissa_per_k(self, tmp_path, monkeypatch):
        from dispersia import modal

        ks = [0.5, 2.0, 7.5, 30.0]
        medium = mixed_medium()
        doc = {"medium": {"eps": medium.eps, "mu": medium.mu,
                          "nu_e": kernel_doc(medium.nu_e), "nu_h": kernel_doc(medium.nu_h)},
               "k_values": ks}
        calls = {"eigvals": 0, "spectral_abscissa": 0}
        eigvals, abscissa = np.linalg.eigvals, modal.spectral_abscissa

        def counting(name, fn):
            def wrapper(arg):
                calls[name] += 1
                return fn(arg)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", eigvals))
        monkeypatch.setattr(modal, "spectral_abscissa", counting("spectral_abscissa", abscissa))
        assert main(["spectrum", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert calls == {"eigvals": 1, "spectral_abscissa": len(ks)}

    def test_zero_abscissa_changes_the_table(self, tmp_path, monkeypatch):
        from dispersia import modal

        cfg = write_config(tmp_path, {"medium": debye_sim_config()["medium"],
                                      "k_values": [0.5, 2.0, 7.5]})
        honest, sabotaged = tmp_path / "honest.csv", tmp_path / "sabotaged.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(honest)]) == 0
        abscissa = modal.spectral_abscissa
        monkeypatch.setattr(modal, "spectral_abscissa", lambda s: (0.0, abscissa(s)[1]))
        assert main(["spectrum", "--config", cfg, "--out", str(sabotaged)]) == 0
        assert honest.read_text() != sabotaged.read_text()
        rows = [line.split(",") for line in sabotaged.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["0", "0", "0"]

    @pytest.mark.parametrize("grid, field", [
        ({"k_values": [True, 2.0]}, "k_values[0]"),
        ({"k_values": ["2.0"]}, "k_values[0]"),
        ({"k_range": {"k_min": 1.0, "k_max": 5.0, "num": True}}, "k_range.num"),
        ({"k_range": {"k_min": None, "k_max": 5.0, "num": 3}}, "k_range.k_min"),
        ({"k_range": {"k_min": 1, "k_max": 2, "num": 2**70}}, "k_range.num"),
        ({"k_values": []}, "k_values"),
        ({"k_range": [1.0, 5.0, 3]}, "k_range"),
        ({"k_range": {"k_min": 1.0, "k_max": 5.0, "num": 1}}, "k_range.num"),
        ({"k_range": {"k_min": 5.0, "k_max": 5.0, "num": 3}}, "k_range.k_max"),
        ({}, "config"),
    ])
    def test_malformed_grid_exit1(self, tmp_path, capsys, grid, field):
        doc = {"medium": debye_sim_config()["medium"], **grid}
        out = tmp_path / "s.csv"
        assert timed_main(["spectrum", "--config", write_config(tmp_path, doc),
                           "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_closure_exit1(self, tmp_path, capsys):
        # k / eps is finite, nu_E(0) / eps is not: the closure stack reports it
        doc = {"medium": dict(debye_sim_config()["medium"], eps=1e-310), "k_values": [1e-320]}
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "simulation error: the mode matrix is not finite: an entry of row 0, divided by "
            "medium.eps, overflows the float range\n")
        assert not out.exists()

    def test_eigenvalues_that_do_not_converge_exit1(self, tmp_path, capsys):
        # mode matrix entries of +-1e308 overflow LAPACK's scaling
        doc = {"medium": medium_doc(MediumSpec(1.0, 1.0, lorentz(), drude())),
               "k_range": {"k_min": 0.1, "k_max": 1e308, "num": 20}}
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "simulation error: the eigenvalues of the mode matrices did not converge\n")
        assert not out.exists()

    def test_sampled_kernel_exit4(self, tmp_path, capsys):
        for field in ("nu_e", "nu_h"):
            doc = {"medium": debye_sim_config()["medium"], "k_values": [1.0]}
            doc["medium"][field] = kernel_doc(GAUSSIAN)
            cfg = write_config(tmp_path, doc)
            out = tmp_path / "spectrum.csv"
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 4
            assert_one_unsupported_line(capsys, field)
            assert not out.exists()


@pytest.mark.parametrize("command, doc, error", overflowing_configs().values(),
                         ids=overflowing_configs())
def test_overflowing_mode_matrix_exit1(tmp_path, capsys, command, doc, error):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == error + "\n"
    assert not out.exists()


def overflowing_closures():
    """(command, config, field): k / eps and k / mu are finite at k = 1e-320, but
    nu(0) / eps or nu(0) / mu, in row 0 or row 1 of the mode matrix, is not."""
    unit = debye_sim_config()["medium"]
    media = {"eps": dict(unit, eps=1e-310),
             "mu": dict(unit, mu=1e-310, nu_h=kernel_doc(debye()))}
    return {f"{command}_{name}": (command, debye_sim_config(medium=medium, modes=[[1e-320, 1.0]],
                                                            k_values=[1e-320]), f"medium.{name}")
            for command in ("spectrum", "simulate") for name, medium in media.items()}


@pytest.mark.parametrize("command, doc, field", overflowing_closures().values(),
                         ids=overflowing_closures())
def test_overflowing_closure_names_field(tmp_path, capsys, command, doc, field):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("simulation error: the mode matrix is not finite: ")
    assert f"divided by {field}," in err and err.count("\n") == 1
    assert not out.exists()


class TestFitCommand:
    def _trace_file(self, tmp_path):
        cfg = write_config(tmp_path, debye_sim_config(T=50.0))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        return out

    def test_round_trip_matches_in_process(self, tmp_path, capsys):
        out = self._trace_file(tmp_path)
        assert main(["fit", str(out), "--window", "10,50"]) == 0
        doc = json.loads(capsys.readouterr().out)
        direct = fit_decay(dio.read_trace(out), (10.0, 50.0))
        assert doc["kind"] == direct.kind == "exponential"
        assert doc["rate"] == direct.rate

    def test_inconclusive_exit5(self, tmp_path):
        path = tmp_path / "flat.csv"
        rows = [dio.TRACE_HEADER] + [f"{t * 0.1:.17g},1,0" for t in range(100)]
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(path), "--window", "0,10"]) == 5

    @pytest.mark.parametrize("text", [
        dio.TRACE_HEADER.encode() + b"\xff\n0,1,0\n",  # in the header
        dio.TRACE_HEADER.encode() + b"\n0,1,0\n\xff,1,0\n",  # in the first decoded chunk
        dio.TRACE_HEADER.encode() + b"\n" + b"0,1,0\n" * 5000 + b"\xff,1,0\n",  # beyond it
    ], ids=["header", "first_chunk", "later"])
    def test_trace_not_utf8_exit1(self, tmp_path, capsys, text):
        path = tmp_path / "trace.csv"
        path.write_bytes(text)
        out = tmp_path / "fit.json"
        assert main(["fit", str(path), "--window", "0,1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: trace: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad, column", [("inf", 1), ("nan", 1), ("-inf", 0), ("nan", 2)])
    def test_non_finite_trace_exit1(self, tmp_path, capsys, bad, column):
        # inside the window an inf energy made the fit's residual NaN, and a nan
        # energy row was dropped; the comment line is not a data row
        rows = [[f"{t * 0.5:.17g}", f"{math.exp(-0.1 * t):.17g}", "0"] for t in range(100)]
        rows[40][column] = bad
        lines = [",".join(r) for r in rows]
        path = tmp_path / "trace.csv"
        path.write_text("\n".join([dio.TRACE_HEADER, "# simulate writes no such row"] + lines) + "\n")
        out = tmp_path / "fit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", str(path), "--window", "5,45", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: trace: data row 41 is not finite: {lines[40]}\n"
        assert not out.exists()

    def test_header_only_trace_exit1(self, tmp_path, capsys):
        path = tmp_path / "header_only.csv"
        path.write_text(dio.TRACE_HEADER + "\n")
        out = tmp_path / "fit.json"
        assert main(["fit", str(path), "--window", "1,2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("unusable trace: ") and err.count("\n") == 1
        assert not out.exists()

    def test_bad_window_exit1(self, tmp_path):
        out = self._trace_file(tmp_path)
        assert main(["fit", str(out), "--window", "oops"]) == 1

    @pytest.mark.parametrize("window", ["5", "a,b", "5,5", "1,2,3", "nan,50", "5,nan"])
    def test_malformed_window_names_the_option(self, tmp_path, capsys, window):
        out = self._trace_file(tmp_path)
        report = tmp_path / "fit.json"
        assert main(["fit", str(out), "--window", window, "--out", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --window: ") and err.count("\n") == 1
        assert not report.exists()

    def test_infinite_window_end_fits_to_the_trace_end(self, tmp_path):
        out = self._trace_file(tmp_path)
        reports = [tmp_path / "inf.json", tmp_path / "end.json"]
        t_end = out.read_text().splitlines()[-1].split(",")[0]
        assert main(["fit", str(out), "--window", "5,inf", "--out", str(reports[0])]) in (0, 5)
        assert main(["fit", str(out), "--window", f"5,{t_end}", "--out", str(reports[1])]) in (0, 5)
        assert json.loads(reports[0].read_text()) == json.loads(reports[1].read_text())

    def test_empty_window_exit1(self, tmp_path):
        out = self._trace_file(tmp_path)
        assert main(["fit", str(out), "--window", "200,300"]) == 1


class TestParserReuse:
    def test_one_parser_per_process(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        cfg = write_config(tmp_path, {"medium": debye_sim_config()["medium"]})
        for _ in range(3):
            assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        assert main(["spectrum", "--config", write_config(
            tmp_path, {"medium": debye_sim_config()["medium"], "k_values": [1.0]}, "s.json"),
            "--out", str(tmp_path / "s.csv")]) == 0
        assert built == [1]

    def test_rebound_handler_runs_with_the_reused_parser(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"medium": debye_sim_config()["medium"]})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: 7)
        assert main(["analyze", "--config", cfg]) == 7

    def test_options_do_not_carry_over(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"medium": debye_sim_config()["medium"]})
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["analyze", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())

    @pytest.mark.parametrize("argv, message", [
        (["analyze"], "the following arguments are required: --config"),
        (["simulate", "--config", "x.json", "--threads", "four"], "invalid int value: 'four'"),
        (["nope"], "invalid choice: 'nope'"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_errors_after_a_run(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path, {"medium": debye_sim_config()["medium"]})
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: dispersia") and message in err
            assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0


def command_argv(tmp_path, command):
    """An argv, without --out, that runs command to exit 0 on the unit Debye medium."""
    doc = debye_sim_config(T=50.0, k_values=[0.5, 2.0, 7.5])
    cfg = write_config(tmp_path, doc)
    if command != "fit":
        return [command, "--config", cfg]
    trace = tmp_path / "input_trace.csv"
    assert main(["simulate", "--config", cfg, "--out", str(trace)]) == 0
    return ["fit", str(trace), "--window", "10,50"]


COMMANDS = ["analyze", "simulate", "spectrum", "fit"]


class TestOutputs:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_stdout_equals_the_out_file(self, tmp_path, capsys, command):
        argv = command_argv(tmp_path, command)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("target", ["directory", "missing_parent"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_out_exit1(self, tmp_path, capsys, command, target):
        argv = command_argv(tmp_path, command)
        work = tmp_path / "work"
        work.mkdir()
        out = work / "existing_dir" if target == "directory" else work / "missing" / "out"
        if target == "directory":
            out.mkdir()
        capsys.readouterr()
        assert timed_main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: --out: cannot write {out}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        # nothing written, and no temporary file left behind
        assert sorted(p.name for p in work.rglob("*")) == (
            ["existing_dir"] if target == "directory" else [])


    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_file_mode_follows_the_umask(self, tmp_path, command):
        argv = command_argv(tmp_path, command)
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            assert main(argv + ["--out", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o644
            out.chmod(0o600)  # a replaced file takes the new file's mode too
            assert main(argv + ["--out", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o644
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []


def deny_reading(monkeypatch, target):
    """Opening target raises PermissionError, as a file without read permission does."""
    real_open = Path.open

    def open_(self, *args, **kwargs):
        if self == target:
            raise PermissionError(13, "Permission denied", str(self))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)


class TestUnreadableInputs:
    """An input that exists but cannot be read is one config error line, exit 1."""

    @pytest.mark.parametrize("command", ["analyze", "simulate", "spectrum"])
    def test_config(self, tmp_path, capsys, monkeypatch, command):
        argv = command_argv(tmp_path, command)
        deny_reading(monkeypatch, Path(argv[2]))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: config: cannot read {argv[2]}: Permission denied\n")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["medium.nu_e", "nu_h"])
    def test_kernel_file(self, tmp_path, capsys, monkeypatch, where):
        kernel = tmp_path / "kernel.json"
        kernel.write_text(json.dumps(kernel_doc(debye())))
        if where == "nu_h":
            doc = {"nu_h": {"file": "kernel.json"}}
        else:
            doc = {"medium": {"eps": 1.0, "mu": 1.0, "nu_e": {"file": "kernel.json"},
                              "nu_h": ZERO_DOC}}
        cfg = write_config(tmp_path, doc)
        deny_reading(monkeypatch, kernel)
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {where}.file: cannot read {kernel}: Permission denied\n")
        assert not out.exists()

    def test_trace(self, tmp_path, capsys, monkeypatch):
        argv = command_argv(tmp_path, "fit")
        deny_reading(monkeypatch, Path(argv[1]))
        capsys.readouterr()
        out = tmp_path / "fit.json"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: trace: cannot read {argv[1]}: Permission denied\n")
        assert not out.exists()


def reference_passivity_doc(report):
    """The hand-built document that the field-driven passivity_report_to_doc replaced."""
    doc = {"passive": report.passive, "strictly_passive": report.strictly_passive}
    if report.m is not None:
        doc["m"] = report.m
        doc["sigma_E"] = report.sigma_E
        doc["sigma_H"] = report.sigma_H
        doc["omega0"] = report.omega0
    doc["witnesses"] = list(report.witnesses)
    doc["certified"] = report.certified
    return doc


def reference_decay_doc(report):
    """The hand-built document that the field-driven decay_report_to_doc replaced."""
    doc = {"kind": report.kind}
    if report.rate is not None:
        doc["rate"] = report.rate
    if report.slope is not None:
        doc["slope"] = report.slope
    doc["fit_window"] = list(report.fit_window)
    doc["r_squared"] = report.r_squared
    doc["residual"] = report.residual
    return doc


class TestReportDocs:
    @pytest.mark.parametrize("nu_e, nu_h", [
        (debye(), ZERO), (lorentz(), ZERO), (drude(2.0, 0.5), debye()), (ZERO, ZERO),
        (GAUSSIAN, ZERO), (ExpPolyKernel((DampedTerm((-1.0,), (0.0,), -1.0, 0.0),)), ZERO),
    ], ids=["debye", "lorentz", "drude_debye", "zero", "gaussian", "negative_debye"])
    def test_passivity_doc_matches_reference(self, nu_e, nu_h):
        from dispersia import analyze, check_passivity
        for report in (analyze(nu_e, nu_h), check_passivity(nu_e, nu_h)):
            doc = dio.passivity_report_to_doc(report)
            reference = reference_passivity_doc(report)
            assert list(doc.items()) == list(reference.items())
            assert dio.write_report(None, doc) == json.dumps(reference, indent=2) + "\n"

    @pytest.mark.parametrize("energy, kind", [
        (lambda t: np.exp(-0.3 * t), "exponential"),
        (lambda t: t ** -2.0, "polynomial"),
        (lambda t: 1.0 + 0.0 * t, "inconclusive"),
    ])
    def test_decay_doc_matches_reference(self, energy, kind):
        from dispersia import EnergyTrace
        t = np.linspace(0.0, 50.0, 501)
        report = fit_decay(EnergyTrace(t, energy(np.maximum(t, 1.0))), (5.0, 50.0))
        assert report.kind == kind
        doc = dio.decay_report_to_doc(report)
        assert list(doc.items()) == list(reference_decay_doc(report).items())
