import pytest
from hypothesis import reject

from selfsim.acceptance import AcceptanceContext
from selfsim.pde import RadialGrid, resolved_couplings


@pytest.fixture(scope="session")
def ctx():
    """Shared memoized artifacts (ground states, production PDE runs)."""
    return AcceptanceContext()


@pytest.fixture(scope="session")
def P2(ctx):
    return ctx.params(2, 1.5)


@pytest.fixture(scope="session")
def P3(ctx):
    return ctx.params(3, 1.7)


@pytest.fixture(scope="session")
def gs2(ctx):
    return ctx.ground_state(2, 1.5)


@pytest.fixture(scope="session")
def gs3(ctx):
    return ctx.ground_state(3, 1.7)


def _resolved_grid(N, width, M):
    """M cells, each width times the widest the sweep resolves at N, 2 (2/3)^(N-1).

    Near that edge at N = 1 the sweep's scale can pass its bound instead
    (M = 51 cells 2 (1 - 2e-9) wide): hypothesis drops a draw the sweep refuses.
    """
    grid = RadialGrid(width * 2.0 * (2.0 / 3.0) ** (N - 1) * M, M)
    try:
        resolved_couplings(N, grid)
    except ValueError:
        reject()
    return grid


@pytest.fixture(scope="session")
def resolved_grid():
    """A grid the sweep resolves, from (N, width, M) with 0 < width < 1: the property tests draw up to the edge."""
    return _resolved_grid
