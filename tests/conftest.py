import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def sf01_dir():
    return "/root/testdata/sf0.01"


@pytest.fixture
def materialized(monkeypatch):
    """Every Dataset ``materialize()``d during the test, recorded before it
    executes (a materialized Dataset's plan no longer shows the operators
    that produced it)."""
    executed, real = [], ray.data.Dataset.materialize

    def recording(self):
        executed.append(self)
        return real(self)

    monkeypatch.setattr(ray.data.Dataset, "materialize", recording)
    return executed
