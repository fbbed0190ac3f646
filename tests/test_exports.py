"""The package export list: every name in pwsum.__all__ resolves, once."""

import pwsum


def test_all_resolves_without_duplicates():
    assert len(set(pwsum.__all__)) == len(pwsum.__all__)
    assert [name for name in pwsum.__all__ if not hasattr(pwsum, name)] == []
    namespace: dict = {}
    exec("from pwsum import *", namespace)  # raises AttributeError on a stale name
    assert set(pwsum.__all__) <= set(namespace)
