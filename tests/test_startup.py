"""Start-up: what ``import seqnorms`` and each CLI command load.

The package binds the names from ``core`` at import and resolves every other
public name on first use; the CLI builds its parser from ``core`` alone and
each subcommand imports the modules it runs.  The import-graph checks run in
fresh interpreters, since this process has long since loaded every module.
"""
import importlib
import json

import pytest

import seqnorms
from conftest import fresh_python

# Every name the package exported when it imported all seven modules
# eagerly, with the module that defines it.
EXPORTS = {
    "core": (
        "BudgetError", "CertificateError", "ConfigurationError", "FiniteVector", "GridSpec",
        "HFunction", "ParseError", "QuantizationError", "SpaceSpec", "WeightSpec",
        "eval_norm", "parse_space", "parse_vector", "quantize_to_grid",
    ),
    "tsirelson": ("LevelTrace", "certificate_lower_bound", "is_admissible", "norm", "oracle_norm"),
    "classical": ("OrliczFunction", "lorentz_norm", "lp_norm", "luxemburg_norm"),
    "blocks": ("BlockBasisSpec", "cjt_ratio_check", "expand_coefficients", "lsh_probe"),
    "series": (
        "CoefficientGenerator", "convergence_verdict", "domination_probe",
        "harmonic_tsirelson_witness", "partial_sum_norms", "tail_profile",
    ),
    "ideals": (
        "IdealSpec", "SetGenerator", "SubmeasureSpec", "membership_verdict", "phi",
        "phi_tail_profile", "submeasure_axiom_check", "turbulence_criterion",
    ),
}
HOME = {name: module for module, names in EXPORTS.items() for name in names}

# The seqnorms modules each command loads, besides the package, core and cli.
COMMAND_MODULES = {
    ("norm", "lp:p=2", "{v}"): {"classical"},
    ("norm", "tsirelson:alpha=1/2", "{v}"): {"tsirelson"},
    ("scan", "lp:p=2", "harmonic", "8"): {"classical", "series"},
    ("oracle", "1/2", "{v}"): {"tsirelson"},
    ("blocks", "cjt", "--samples", "2"): {"blocks", "tsirelson"},
    ("ideal", "membership", "tsirelson-ideal:alpha=1/2,f=harmonic", "evens", "--N", "16"):
        {"ideals", "series", "tsirelson"},
    ("certify", "harmonic-tsirelson"): {"series", "tsirelson"},
}
BASE = {"seqnorms", "seqnorms.core", "seqnorms.cli"}
# Standard modules that generated value classes (dataclasses) would pull in;
# neither set-up nor any command loads them.
UNLOADED = ("dataclasses", "inspect")

_LOADED_AFTER = """
import json, sys
import seqnorms
from seqnorms import cli
cli.build_parser()
code = 0 if len(sys.argv) == 1 else cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "seqnorms")
heavy = sorted(m for m in {unloaded!r} if m in sys.modules)
print(json.dumps([code, loaded, heavy]), file=sys.stderr)
""".format(unloaded=UNLOADED)


def loaded_after(*argv):
    proc = fresh_python(_LOADED_AFTER, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


class TestImportGraph:
    def test_parser_loads_only_core_and_cli(self):
        code, loaded, heavy = loaded_after()
        assert set(loaded) == BASE
        assert heavy == []

    @pytest.mark.parametrize("argv", COMMAND_MODULES, ids=" ".join)
    def test_command_loads_what_it_runs(self, tmp_path, argv):
        vec = tmp_path / "v.txt"
        vec.write_text("0 1 1 1 1 1 1\n")
        code, loaded, heavy = loaded_after(*(a.format(v=vec) for a in argv))
        assert code == 0
        assert set(loaded) == BASE | {f"seqnorms.{m}" for m in COMMAND_MODULES[argv]}
        assert heavy == []


class TestLazyExports:
    @pytest.mark.parametrize("name", HOME)
    def test_name_is_the_defining_modules_object(self, name):
        namespace = {}
        exec(f"from seqnorms import {name}", namespace)
        home = importlib.import_module(f"seqnorms.{HOME[name]}")
        assert namespace[name] is getattr(home, name)
        assert name in dir(seqnorms) and name in seqnorms.__all__

    def test_all_is_exactly_the_exports(self):
        assert sorted(seqnorms.__all__) == sorted(HOME)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'seqnorms' has no attribute 'nope'$"):
            seqnorms.nope
        with pytest.raises(ImportError, match="cannot import name 'nope'"):
            exec("from seqnorms import nope", {})

    def test_fresh_interpreter_resolves_and_caches_each_name(self):
        # On first use each lazy name comes from its defining module and is
        # then bound in the package, so later lookups skip __getattr__.
        code = f"""
import importlib, seqnorms
for name, module in {HOME!r}.items():
    value = getattr(seqnorms, name)
    assert value is getattr(importlib.import_module("seqnorms." + module), name), name
    assert vars(seqnorms)[name] is value, name
from seqnorms import FiniteVector, classical, cli, core, tsirelson
assert seqnorms.ideals is importlib.import_module("seqnorms.ideals")
"""
        proc = fresh_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_submodules_resolve_as_attributes(self):
        code = """
import sys, seqnorms
assert "seqnorms.series" not in sys.modules
assert seqnorms.series.tail_profile is sys.modules["seqnorms.series"].tail_profile
assert "series" in dir(seqnorms)
"""
        proc = fresh_python(code)
        assert proc.returncode == 0, proc.stderr
