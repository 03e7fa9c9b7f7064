"""The package's public names."""
import bdgeom
from bdgeom import geometry, theory

REMOVED = (
    (theory, "vacancy_rate_integral_batch"),
    (theory, "vacancy_rate_integral"),
    (theory, "factorial_tail"),
    (theory, "covariance_curve"),
    (geometry, "neighbors_within"),
    (geometry, "DegenerateGeometryError"),
)


def test_public_names_resolve_and_removed_names_are_gone():
    assert len(set(bdgeom.__all__)) == len(bdgeom.__all__)
    for name in bdgeom.__all__:
        assert hasattr(bdgeom, name), name
    for module, name in REMOVED:
        assert not hasattr(module, name), name
        assert not hasattr(bdgeom, name) and name not in bdgeom.__all__, name
