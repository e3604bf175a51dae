import pytest

from tscodes import analyzer, colex, lattices


def _predicted(code):
    """``code`` once its prediction verdict holds: the generators span the
    stabilizer and every closed form in ``code.predicted`` equals the report
    value of the same name, as `tscodes verify` checks.  The pipelines attach
    the closed forms without comparing them."""
    report = analyzer.code_report(code)
    assert code.generators_complete
    assert {key: report[key] for key in code.predicted} == code.predicted
    return code


@pytest.fixture(scope="session")
def predicted():
    """The prediction verdict, for tests that build their own pipeline codes."""
    return _predicted


@pytest.fixture(scope="session")
def grid22():
    return lattices.torus_grid(2, 2)


@pytest.fixture(scope="session")
def grid33():
    return lattices.torus_grid(3, 3)


@pytest.fixture(scope="session")
def th2_22(grid22):
    return _predicted(analyzer.theorem2_pipeline(grid22))


@pytest.fixture(scope="session")
def th2_33(grid33):
    return _predicted(analyzer.theorem2_pipeline(grid33))


@pytest.fixture(scope="session")
def th3_22(grid22):
    return _predicted(analyzer.theorem3_pipeline(grid22))


@pytest.fixture(scope="session")
def th3_33(grid33):
    return _predicted(analyzer.theorem3_pipeline(grid33))


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
        "th2_tri22": _predicted(analyzer.theorem2_pipeline(tri)),
        "th3_tri22": _predicted(analyzer.theorem3_pipeline(tri)),
    }
