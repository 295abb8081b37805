import pytest

from outemp import simulate


@pytest.fixture
def mapped(monkeypatch):
    """The sizes of the shared normals slots the simulator maps from now
    on, memory that tracemalloc does not see."""
    sizes, mmap = [], simulate.mmap.mmap

    def recorded(fileno, length):
        sizes.append(length)
        return mmap(fileno, length)
    monkeypatch.setattr(simulate.mmap, "mmap", recorded)
    return sizes
