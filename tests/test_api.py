"""The package's public names, and the documented example that uses them."""
import inspect
import os
import subprocess
import sys
from pathlib import Path

import bdgeom
from bdgeom import functionals, geometry, process, statistics, theory, verify

REMOVED = (
    (theory, "vacancy_rate_integral_batch"),
    (theory, "vacancy_rate_integral"),
    (theory, "factorial_tail"),
    (theory, "covariance_curve"),
    (geometry, "neighbors_within"),
    (geometry, "DegenerateGeometryError"),
    (geometry.GridIndex, "cell_edge"),
    (geometry.GridIndex, "position"),
    (functionals.BallUnionRegion, "bounding_box"),
    (functionals.NeighborhoodMap, "count_inside"),
    (functionals.BallUnionRegion, "contains"),
    (functionals, "BallRegion"),
    (functionals.BallUnionRegion, "anchor"),
    (functionals.BallUnionRegion, "query_radius"),
    (functionals.NeighborhoodMap, "balls"),
    (functionals.NeighborhoodMap, "inside"),
    (verify, "_pattern_assignments"),
    (theory, "mean_moment"),
    (theory, "overlap_moment"),
    (theory, "statistic_mean_variance"),
    (process, "export_events"),
    (process, "slice_at"),
    (process.MarkedPoint, "alive_at"),
    (functionals, "validate_functional"),
    (functionals, "InvarianceReport"),
    (functionals, "_unit_vector"),
    (statistics, "TimeSeries"),
    (geometry.Metric, "pairwise"),
)
# parameters that had one value everywhere and became constants
REMOVED_PARAMETERS = (
    (verify.estimate_covariance, "time_tol"),
    (verify.poisson_chi_square, "min_expected"),
    (theory.simulate_ou_superposition, "rng"),
)


def test_public_names_resolve_and_removed_names_are_gone():
    assert len(set(bdgeom.__all__)) == len(bdgeom.__all__)
    for name in bdgeom.__all__:
        assert hasattr(bdgeom, name), name
    for module, name in REMOVED:
        assert not hasattr(module, name), name
        assert not hasattr(bdgeom, name) and name not in bdgeom.__all__, name


def test_removed_parameters_are_gone():
    for function, name in REMOVED_PARAMETERS:
        assert name not in inspect.signature(function).parameters, (function.__name__, name)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.4 s and 30 MB; its two users import it in their bodies
    code = "import sys, bdgeom, bdgeom.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(bdgeom.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_readme_quick_start_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
