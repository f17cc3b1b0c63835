import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for the test and returns
    the list that records the positional arguments of every call."""
    def install(module, name):
        calls = []
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls
    return install
