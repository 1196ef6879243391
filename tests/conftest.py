import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session per pytest run (driver instruction)."""
    import ray

    ray.init(
        address="local", num_cpus=4, include_dashboard=False, ignore_reinit_error=True
    )
    yield ray
    ray.shutdown()


@pytest.fixture
def copartitions(monkeypatch):
    """The kernels of the ``copartition`` exchanges started through
    ``georay.partition`` (``keyed_join``'s exchange route), in order."""
    import georay.partition

    calls, real = [], georay.partition.copartition

    def spy(*args, **kwargs):
        calls.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(georay.partition, "copartition", spy)
    return calls
