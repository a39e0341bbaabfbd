"""The package's export list names each public object once."""

from collections import Counter

import lieb2b


def test_every_export_resolves():
    missing = [name for name in lieb2b.__all__ if not hasattr(lieb2b, name)]
    assert missing == []


def test_every_export_is_listed_once():
    repeated = [name for name, count in Counter(lieb2b.__all__).items() if count > 1]
    assert repeated == []
