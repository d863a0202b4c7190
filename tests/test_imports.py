"""What ``import macrui`` loads.

The package imports the construction layers only.  The interpolation layer
(``macrui.shifted``) and the verify suites (``macrui.verify``) load on the
first access to one of their names, which then are the module's own objects.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import macrui

ROOT = Path(__file__).resolve().parent.parent

CONSTRUCTION = ("errors", "scalar", "partitions", "polyring", "linalg", "symfun",
                "operators", "macdonald")

# every name the package exports from the two modules it does not import
LAZY_NAMES = {
    "shifted": ("duality_check", "evaluate_at_partition", "fat_hook_point",
                "interpolation_by_branching", "interpolation_polynomial",
                "interpolation_pstar_expansion", "interpolation_value",
                "shifted_super_macdonald", "shifted_super_tableau_sum"),
    "verify": ("SUITES", "run_suite"),
}

PROBE = """
import json, sys
import macrui
after_import = sorted(sys.modules)
assert {"interpolation_value", "run_suite", "shifted"} <= set(dir(macrui))
from macrui import interpolation_value
after_shifted = sorted(sys.modules)
macrui.run_suite
print(json.dumps([after_import, after_shifted, sorted(sys.modules)]))
"""


def test_import_loads_only_the_construction_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, after_shifted, after_verify = map(set, json.loads(proc.stdout))
    loaded = {name for name in after_import if name.startswith("macrui.")}
    assert loaded == {f"macrui.{layer}" for layer in CONSTRUCTION}
    for name in ("macrui.shifted", "macrui.verify", "fractions", "decimal", "__future__"):
        assert name not in after_import, name
    # the first lazily exported name loads its own module and nothing else
    assert after_shifted - after_import == {"macrui.shifted"}
    assert "macrui.verify" in after_verify


@pytest.mark.parametrize("module", sorted(LAZY_NAMES))
def test_lazy_names_are_the_module_objects(module):
    mod = importlib.import_module(f"macrui.{module}")
    assert getattr(macrui, module) is mod
    for name in LAZY_NAMES[module]:
        assert getattr(macrui, name) is getattr(mod, name), name
        assert name in dir(macrui)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        macrui.no_such_name


# every module-level functools cache in the package; each holds its entries
# for the life of the process, so a new one is a decision to record here
CACHES = {
    "macdonald": {"_branching_coefficients", "_macdonald_m_expansion",
                  "_macdonald_p_expansion", "_mr_monomial_expansion", "_strip_sum"},
    "shifted": {"_interpolations"},
    "symfun": {"_cleared_image", "_cleared_representatives", "_generator",
               "_monomial_in_power_matrix"},
}


def test_module_level_caches_are_pinned():
    found = {}
    for info in pkgutil.iter_modules(macrui.__path__):
        if info.name == "__main__":  # running it runs the CLI
            continue
        module = importlib.import_module(f"macrui.{info.name}")
        names = {name for name, obj in vars(module).items()
                 if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}
        if names:
            found[info.name] = names
    assert found == CACHES
