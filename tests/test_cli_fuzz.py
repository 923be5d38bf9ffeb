"""A mutation fuzz of the CLI contract, run in-process through ``cli.main``.

Each case is one of three valid configs (analyze, simulate, spectrum) with one
to three leaves replaced by an extreme number or a value of the wrong type, or
deleted.  Whatever the config, the command exits 0-5, writes at most one
stderr line and no traceback, and leaves no output file after exits 1, 2 and
4.  The suite's ``filterwarnings = error`` makes any numpy warning fail a case.
The pool holds no mid-size count or length, so a mutated config that parses is
no larger than its base, and the cases run in a few seconds.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from dispersia import GAUSSIAN, ExpPolyKernel, debye, drude, lorentz
from dispersia import io as dio
from dispersia.cli import main


def _medium(nu_e, nu_h):
    return {"eps": 1.0, "mu": 1.0, "nu_e": dio.kernel_to_doc(nu_e),
            "nu_h": dio.kernel_to_doc(nu_h)}


LORENTZ_DEBYE = ExpPolyKernel(lorentz().terms + debye().terms)
BASES = {
    "analyze": {"medium": _medium(LORENTZ_DEBYE, drude())},
    "simulate": {"medium": _medium(LORENTZ_DEBYE, drude()),
                 "modes": [[1.0, 1.0], [2.0, 0.5]], "dt": 0.05, "T": 2.0, "output_stride": 2},
    "spectrum": {"medium": _medium(lorentz(), drude()),
                 "k_range": {"k_min": 0.1, "k_max": 50.0, "num": 20}},
}


class _Delete:
    def __repr__(self):
        return "DELETE"


DELETE = _Delete()
VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308, 2**70, math.inf, math.nan,
          True, None, "x", [], {}, DELETE]


def leaves(doc, path=()):
    """The paths of doc's scalars and empty containers."""
    if isinstance(doc, (dict, list)) and doc:
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from leaves(value, path + (key,))
    else:
        yield path


LEAVES = {command: list(leaves(doc)) for command, doc in BASES.items()}


@st.composite
def mutations(draw):
    command = draw(st.sampled_from(sorted(BASES)))
    paths = draw(st.lists(st.sampled_from(LEAVES[command]), min_size=1, max_size=3, unique=True))
    return command, tuple((path, draw(st.sampled_from(VALUES))) for path in paths)


def mutated(command, changes):
    doc = copy.deepcopy(BASES[command])
    # the last path first, so that deleting a list item moves none still to change
    for path, value in sorted(changes, key=lambda change: change[0], reverse=True):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=mutations())
# configs that once broke the contract: a k / mu that overflowed on a numpy k, a
# root in w^2 beyond the float range, a real part that overflowed on the frequency
# grid, and eigenvalues that did not converge
@example(case=("spectrum", ((("medium", "mu"), 5e-324),)))
@example(case=("analyze", ((("medium", "nu_e", "terms", 2, "poly_re", 0), -5e-324),)))
@example(case=("analyze", ((("medium", "nu_e", "terms", 2, "poly_re", 0), 1e308),)))
@example(case=("spectrum", ((("k_range", "k_max"), 1e308),)))
def test_mutated_config_keeps_the_contract(case):
    command, changes = case
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(mutated(command, changes)))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(config), "--out", str(out)])
        written = sorted(p.name for p in Path(tmp).iterdir())
    err = stderr.getvalue()
    assert 0 <= code <= 5
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    assert stdout.getvalue() == ""
    assert written == (["config.json"] if code in (1, 2, 4) else ["config.json", "out"])
