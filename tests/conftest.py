import numpy as np
import pytest

from zeus_cluster.graph import make_instance


def explicit(matrix, **kw):
    """Explicit-metric instance from a square list of lists."""
    m = np.asarray(matrix, dtype=float)
    return make_instance(m.shape[0], "explicit", matrix=m, **kw)


def line_points(xs, **kw):
    """1-D Euclidean instance at the given coordinates."""
    return make_instance(
        len(xs), "euclidean", embeddings=[(float(x),) for x in xs], **kw
    )


def neighbours(H, u):
    """The E-neighbours of node u, read from the edge array."""
    e = H.edges
    return set(e[e[:, 0] == u, 1].tolist()) | set(e[e[:, 1] == u, 0].tolist())


@pytest.fixture
def triangle():
    # d(0,1)=1, d(1,2)=2, d(0,2)=3, all edges in E
    return explicit(
        [[0, 1, 3], [1, 0, 2], [3, 2, 0]],
        edges=[(0, 1), (1, 2), (0, 2)],
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # echo the acceptance verdicts even when stdout capturing is active
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
