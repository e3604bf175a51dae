import pytest

from tscodes import analyzer, colex, lattices


@pytest.fixture(scope="session")
def grid22():
    return lattices.torus_grid(2, 2)


@pytest.fixture(scope="session")
def grid33():
    return lattices.torus_grid(3, 3)


@pytest.fixture(scope="session")
def th2_22(grid22):
    return analyzer.theorem2_pipeline(grid22)


@pytest.fixture(scope="session")
def th2_33(grid33):
    return analyzer.theorem2_pipeline(grid33)


@pytest.fixture(scope="session")
def th3_22(grid22):
    return analyzer.theorem3_pipeline(grid22)


@pytest.fixture(scope="session")
def th3_33(grid33):
    return analyzer.theorem3_pipeline(grid33)


@pytest.fixture(scope="session")
def pipeline_codes(th2_22, th2_33, th3_22, th3_33):
    return {
        "th2_22": th2_22,
        "th2_33": th2_33,
        "th3_22": th3_22,
        "th3_33": th3_33,
    }


@pytest.fixture(scope="session")
def honeycomb33_colex():
    cx = colex.validate_colex(lattices.honeycomb_torus(3, 3))
    assert cx is not None
    return cx


@pytest.fixture(scope="session")
def honeycomb_code(honeycomb33_colex):
    return analyzer.colex_code(honeycomb33_colex)


@pytest.fixture(scope="session")
def tri22_codes():
    tri = lattices.triangular_torus(2, 2)
    return {
        "th2_tri22": analyzer.theorem2_pipeline(tri),
        "th3_tri22": analyzer.theorem3_pipeline(tri),
    }
