"""The lazy boundary between the exact core and the numeric layer.

`import phmaps` and the exact-only CLI commands must not import numpy, nor
`dataclasses` and the `inspect` it loads; the numeric names resolve on first
use to the same objects as in their modules.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phmaps
from phmaps import example_F1, half_plane_map
from phmaps.phmio import save_map

SRC = Path(phmaps.__file__).resolve().parent.parent

# Every name `phmaps` exported before the numeric layer became lazy, by module.
EXPORTS = {
    "catalog": ["ExtremalSpec", "distortion_extremal", "example_F1", "example_F2", "extremal_point",
                "half_plane_map", "identity_map"],
    "classes": ["ClassParams", "Family", "MembershipReport", "class_reduction_check", "hc", "hs", "hs_lambda",
                "membership", "weight"],
    "errors": ["GridTooLargeError", "InvalidMapError", "MapSyntaxError", "NonFiniteError", "NotMemberError",
               "ParamError", "PhmapsError", "WeightError"],
    "exact": ["EPS_STRICT", "Scalar", "format_scalar", "parse_scalar"],
    "geometry": ["DiskGrid", "GeometryReport", "evaluate", "jacobian", "theta_derivative", "verify_geometry"],
    "operators": ["DistortionEnvelope", "NeighborhoodReport", "ch0_certificate", "combine", "convexity_radius",
                  "convolve", "delta_bound", "distortion_envelope", "integral_convolve", "layer_bound_check",
                  "neighborhood_distance", "neighborhood_report", "rescale", "rescale_convexity_certificate"],
    "phmio": ["load_map", "parse_map", "save_map", "serialize_map"],
    "render": ["RenderSpec", "render_csv", "render_svg"],
    "series": ["Coefficient", "PolyharmonicMap", "coeff", "make_map"],
}

# Start-up costs that the exact core avoids: numpy, and `dataclasses` with the `inspect` it imports.
HEAVY = ("dataclasses", "inspect", "numpy")

# Runs `phmaps.cli.main(argv)` in a fresh interpreter; the last stderr line
# reports the exit code, whether numpy was imported and which of HEAVY were.
PROBE = f"""
import sys
import phmaps
assert not set({HEAVY}) & set(sys.modules), "import phmaps imported " + str(set({HEAVY}) & set(sys.modules))
from phmaps.cli import main
code = main(sys.argv[1:])
print(f"probe {{code}} {{'numpy' in sys.modules}}", sorted(set({HEAVY}) & set(sys.modules)), file=sys.stderr)
"""


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.fixture
def files(tmp_path):
    save_map(example_F1(), tmp_path / "f1.phm")
    save_map(half_plane_map(4), tmp_path / "h4.phm")
    return tmp_path


@pytest.mark.parametrize(
    "argv, exit_code, numpy",
    [
        (["catalog", "half-plane", "-N", "8"], 0, False),
        (["extremal", "--n", "3", "--k", "2", "--lambda", "1/2", "-p", "2"], 0, False),
        (["check", "--class", "hs-lambda", "--lambda", "2/3", "{f1}"], 0, False),
        (["check", "--class", "hc", "{f1}"], 1, False),
        (["convolve", "{f1}", "{h4}"], 0, False),
        (["iconvolve", "{f1}", "{h4}"], 0, False),
        (["neighborhood", "{f1}", "{h4}", "--lambda", "2/3"], 1, False),
        (["verify", "{f1}", "--suite", "starlike"], 0, True),
        (["render", "{f1}", "-o", "{out}", "--rings", "4", "--rays", "8", "--samples", "64"], 0, True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_numpy_loads_only_for_numeric_commands(files, argv, exit_code, numpy):
    paths = {"f1": files / "f1.phm", "h4": files / "h4.phm", "out": files / "out.svg"}
    proc = run_fresh(PROBE, *(arg.format(**paths) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(f"probe {exit_code} {numpy} ")
    if not numpy:  # numpy imports inspect itself
        assert last.endswith(" []"), last


def test_import_phmaps_leaves_numpy_unloaded():
    proc = run_fresh(f"import sys, phmaps, phmaps.cli\n"
                     f"print(sorted(m for m in sys.modules if m.startswith('numpy') or m in {HEAVY}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bare_import_phmaps_leaves_dataclasses_and_inspect_unloaded():
    proc = run_fresh(f"import sys, phmaps\nprint(sorted(set({HEAVY}) & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_first_numeric_name_loads_and_caches():
    proc = run_fresh(
        "import sys, phmaps\n"
        "f = phmaps.evaluate\n"
        "print('numpy' in sys.modules, 'evaluate' in vars(phmaps), f is sys.modules['phmaps.geometry'].evaluate)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_resolve_to_the_module_objects(module):
    mod = importlib.import_module(f"phmaps.{module}")
    assert getattr(phmaps, module) is mod
    listed = dir(phmaps)
    for name in EXPORTS[module]:
        assert getattr(phmaps, name) is getattr(mod, name), name
        assert name in listed and name in phmaps.__all__, name


# The paper's exact results, called with numpy absent from sys.modules.
EXACT_RESULTS = """
import sys
from fractions import Fraction as Q
import phmaps
F = phmaps.example_F1()
assert phmaps.convexity_radius(Q(1, 3)) == Q(1, 2)
assert phmaps.rescale_convexity_certificate(F, Q(2, 3), Q(2, 3))
assert phmaps.layer_bound_check(F, Q(2, 3))
assert phmaps.distortion_envelope(F, Q(2, 3)).upper(0.5) == 0.5 * (1.0 + 0.5 * (0.3 + 0.5 * 0.0))
assert phmaps.distortion_extremal(Q(1, 4), Q(1, 4)).coeff_a(2, 1).re == Q(3, 10)
assert phmaps.identity_map(2) == phmaps.make_map(2)
print(sorted(m for m in sys.modules if m.startswith("numpy") or m in ("phmaps.geometry", "phmaps.render")))
"""


def test_exact_results_run_without_numpy():
    proc = run_fresh(EXACT_RESULTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lazy_names_are_defined_in_the_numeric_modules():
    for name, module in phmaps._LAZY.items():
        value = getattr(phmaps, name)
        assert (value.__name__ if name == module else value.__module__) == f"phmaps.{module}", name
    assert not hasattr(phmaps, "evaluate_layer") and not hasattr(phmaps.geometry, "evaluate_layer")


def test_new_distortion_names_are_exported():
    for name in ("DistortionReport", "distortion_check"):
        assert getattr(phmaps, name) is getattr(phmaps.geometry, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        phmaps.no_such_name  # noqa: B018
