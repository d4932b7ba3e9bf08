"""The package namespace: every public name of the library modules, no
module importing a name it never uses, and no private function, class
or method that the package never references."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import photonforge as pf
from photonforge import core, dynamics, scenarios, slh, statistics

# the package's names before they were gathered from the modules' __all__, less
# those retired since
EARLIER_NAMES = (
    "__version__",
    "DensityMatrix", "Operator", "Superoperator", "dissipator",
    "liouvillian", "lowering_op", "sup_exp", "unvec", "vec",
    "SlhTriplet", "concatenate", "drive_triplet", "emitter_triplet",
    "feedback", "mirror_network", "mirror_triplet", "series",
    "to_master_equation",
    "DriveSchedule", "MirrorQubitParams", "PhaseSchedule", "ScenarioRun",
    "build_liouvillian", "channel_couplings", "effective_coupling",
    "pi_pulse_width",
    "flux_series", "propagator", "simulate",
    "CrossPairResult", "PhotonStatistics", "correlator_gm",
    "counting_statistics", "csi_metric", "invert_to_probabilities",
    "photon_mtiples",
    "BeamSplitterConfig", "CancellationInputs", "CancellationOutcome",
    "EncodeResult", "FlyingQubitTarget", "ShapedReleaseResult",
    "WavePacket", "cancellation_budget", "encode_flying_qubit",
    "minimal_sufficient_gamma", "run_beam_splitter", "run_cascade",
    "run_shaped_release", "shape_to_schedule", "sweep_cascade",
    "sweep_nonradiative", "sweep_wait_time",
)


def test_earlier_names_kept_and_resolve():
    assert len(EARLIER_NAMES) == 54
    assert set(EARLIER_NAMES) <= set(pf.__all__)
    for name in EARLIER_NAMES:
        assert getattr(pf, name) is not None, name


def test_all_is_the_modules_all():
    modules = (core, slh, dynamics, statistics, scenarios)
    want = ["__version__"] + [n for m in modules for n in m.__all__]
    assert sorted(pf.__all__) == sorted(want)
    assert len(set(pf.__all__)) == len(pf.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(pf, name) is getattr(m, name), name


def test_pyproject_matches_the_package(capsys):
    # the CLI's meta file records __version__; CI installs the package and
    # runs the console script outside the checkout, and this resolves and
    # runs it from the source tree, where tier-1 runs without an install
    tomllib = pytest.importorskip("tomllib")
    path = Path(pf.__file__).parents[2] / "pyproject.toml"
    project = tomllib.loads(path.read_text(encoding="utf-8"))["project"]
    assert project["version"] == pf.__version__
    assert project["scripts"] == {"photonforge": "photonforge.cli:main"}
    module, name = project["scripts"]["photonforge"].split(":")
    assert getattr(importlib.import_module(module), name)(["list"]) == 0
    assert "beam_splitter" in capsys.readouterr().out


def _python_floor():
    """The (major, minor) of pyproject's requires-python ">=X.Y"."""
    tomllib = pytest.importorskip("tomllib")
    path = Path(pf.__file__).parents[2] / "pyproject.toml"
    spec = tomllib.loads(path.read_text(encoding="utf-8"))["project"]["requires-python"]
    assert spec.startswith(">="), spec
    return tuple(int(part) for part in spec[2:].split(".")[:2])


def test_sources_parse_at_the_declared_python_floor():
    # CI runs one newer interpreter; this holds the syntax to the floor
    floor = _python_floor()
    src = Path(pf.__file__).parent
    for path in sorted(src.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


@pytest.mark.skipif(sys.version_info < (3, 10), reason="needs a match-aware parser")
def test_floor_parse_rejects_newer_syntax():
    code = "match x:\n    case 1:\n        pass\n"
    ast.parse(code, feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse(code, feature_version=(3, 9))


def test_import_loads_no_scipy():
    # scipy's import costs several times the package's own, and the package
    # does not depend on it: neither the import nor an encode loads it
    code = ("import sys, photonforge as pf; "
            "pf.encode_flying_qubit(pf.FlyingQubitTarget.of(1.0, 1.0), pf.MirrorQubitParams()); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(pf.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"


def _unused_imports(path):
    """Names a module imports but never reads; a name listed in its
    `__all__` counts as read (a re-export)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    src = Path(pf.__file__).parent
    assert [u for p in sorted(src.glob("*.py")) for u in _unused_imports(p)] == []


def test_unused_import_check_sees_a_dead_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os.path\nfrom typing import Sequence, Tuple\n"
                   "x: Tuple = ()\n__all__ = ['os']\n", encoding="utf-8")
    assert _unused_imports(mod) == ["mod.py:3 Sequence"]


def _dead_private_definitions(paths):
    """Private module-level functions and classes, and private methods,
    whose name no module among `paths` reads as a name or an attribute."""
    defined, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for d in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and d.name.startswith("_") and not d.name.endswith("__")):
                    defined.append(f"{path.name}:{d.lineno} {d.name}")
        used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [d for d in defined if d.split()[-1] not in used]


def test_every_private_definition_is_referenced():
    src = Path(pf.__file__).parent
    assert _dead_private_definitions(sorted(src.glob("*.py"))) == []


def test_dead_private_check_sees_an_unreferenced_helper(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def _used():\n    return 1\n"
                   "def _dead():\n    return _used()\n"
                   "class _Box:\n    def __init__(self):\n        self._live()\n"
                   "    def _live(self):\n        pass\n"
                   "    def _stale(self):\n        pass\n"
                   "BOX = _Box\n", encoding="utf-8")
    assert _dead_private_definitions([mod]) == ["mod.py:3 _dead", "mod.py:10 _stale"]
