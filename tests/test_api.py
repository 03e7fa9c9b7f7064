"""The package's public names."""
import inspect

import bdgeom
from bdgeom import functionals, geometry, theory, verify

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
