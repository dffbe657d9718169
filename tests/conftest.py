import numpy as np
import pytest

from contextqm.algebra import AlgebraDescriptor, AlgebraElement


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def eigensolves(monkeypatch):
    """Shapes of the matrices handed to any numpy eigensolver, in order."""
    solved = []

    def spy(solver):
        def wrapped(a, *args, **kwargs):
            solved.append(np.shape(a))
            return solver(a, *args, **kwargs)

        return wrapped

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    return solved


def random_element(n, rng, algebra=None):
    """Generic (non-Hermitian) element of the full n x n algebra."""
    algebra = algebra or AlgebraDescriptor(n)
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if not algebra.is_full:
        raw = raw * algebra.block_mask()
    return AlgebraElement(raw, algebra)


def random_hermitian(n, rng, algebra=None):
    element = random_element(n, rng, algebra)
    return AlgebraElement(
        0.5 * (element.matrix + element.matrix.conj().T), element.algebra
    )


def random_unit_vector(n, rng):
    raw = rng.normal(size=n) + 1j * rng.normal(size=n)
    return raw / np.linalg.norm(raw)


class ChoiceSpy:
    """A generator that counts its ``choice`` calls and passes every call on."""

    def __init__(self, rng):
        self._rng = rng
        self.choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)
