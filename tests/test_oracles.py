"""Every entry of the oracle registry (tests/oracles.py): the kernel
equals its oracle on every instance, and commutes with every relabelling
its entry names, on the pinned numbers of instances."""

import pytest

from oracles import ENTRIES, run


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_kernel_equals_oracle(name):
    assert run(name)[0] == ENTRIES[name].count


@pytest.mark.parametrize(
    "name", sorted(name for name, e in ENTRIES.items() if e.relabel)
)
def test_kernel_commutes_with_relabelling(name):
    _, moves, failed = run(name)
    assert failed is None
    assert moves == ENTRIES[name].moves
