import numpy as np
import pytest

from contextqm.algebra import AlgebraDescriptor, AlgebraElement
from contextqm.contexts import ContextRegistry, context_from_observable


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def registry():
    return ContextRegistry()


@pytest.fixture
def shared_setup(registry):
    """Two 3-dim contexts sharing the degenerate observable diag(5,5,7)."""
    alg = AlgebraDescriptor(3)
    gen1 = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
    gen2 = AlgebraElement(
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]), alg
    )
    ctx1 = context_from_observable(gen1, registry)
    ctx2 = context_from_observable(gen2, registry)
    shared = AlgebraElement.from_diagonal([5.0, 5.0, 7.0], alg)
    return alg, ctx1, ctx2, shared


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


def perfect_matchings(indices) -> list[list[tuple]]:
    """All perfect matchings of an even index set (smallest-first recursion).

    Factorial in size; the explicit-sum oracle for ``wick_green``'s hafnian.
    """
    indices = list(indices)
    if len(indices) % 2:
        raise ValueError("perfect matchings need an even number of indices")
    if not indices:
        return [[]]
    first, rest = indices[0], indices[1:]
    return [
        [(first, partner)] + tail
        for pick, partner in enumerate(rest)
        for tail in perfect_matchings(rest[:pick] + rest[pick + 1 :])
    ]


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


def random_unitary(n, rng):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


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
