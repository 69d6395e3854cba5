"""Shared helpers for the test suite."""

import os
from functools import cached_property

import numpy as np
import pytest

from gaussforge.engineering import engineer_state, random_recipe
from gaussforge.standard_form import harmonic_ground_state, ring_potential

from oracles import SymplecticMatrix


def random_local_symplectic(n_modes: int, rng: np.random.Generator) -> SymplecticMatrix:
    """Random single-mode (local) symplectic on every mode: rotation-squeeze-rotation."""
    data = np.eye(2 * n_modes)
    for k in range(n_modes):
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        d = np.exp(rng.uniform(-0.8, 0.8))
        r1 = np.array([[np.cos(t1), -np.sin(t1)], [np.sin(t1), np.cos(t1)]])
        r2 = np.array([[np.cos(t2), -np.sin(t2)], [np.sin(t2), np.cos(t2)]])
        data[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = r1 @ np.diag([d, 1.0 / d]) @ r2
    return SymplecticMatrix(n_modes, data)


def random_spd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric positive-definite matrix, comfortably conditioned."""
    a = rng.standard_normal((dim, dim))
    m = a @ a.T + 0.5 * dim * np.eye(dim)
    return (m + m.T) / 2.0


def block_route_states():
    """q-p-free states: engineered N = 2..16 squeezed up to 4, 30 and 100, and
    rings N in {5, 31, 64} from weak to strong coupling."""
    states = [
        engineer_state(random_recipe(n, seed=n, s_max=s_max))
        for n in range(2, 17)
        for s_max in (4.0, 30.0, 100.0)
    ]
    states += [
        harmonic_ground_state(ring_potential(n, coupling))
        for n in (5, 31, 64)
        for coupling in (0.1, 0.5, 2.0, 1e3)
    ]
    return states


def condition_number(cm) -> float:
    """Largest over smallest eigenvalue of the CM, which sets the roundoff of its spectra."""
    values = np.linalg.eigvalsh(cm.data)
    return float(values[-1] / values[0])


def forbid(monkeypatch, module, *names):
    """Make the named functions of a module fail if called."""
    for name in names:
        def refused(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} was called")

        monkeypatch.setattr(module, name, refused)


def record_calls(monkeypatch, module, name) -> list:
    """Pass calls of ``module.name`` through, collecting each call's first argument."""
    calls = []
    original = getattr(module, name)

    def recorded(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def count_fills(monkeypatch, cls, name) -> list:
    """Pass fills of the cached property ``cls.name`` through, collecting each owner's ``n_modes``."""
    original = cls.__dict__[name]
    fills = []

    def counted(owner):
        fills.append(owner.n_modes)
        return original.func(owner)

    wrapped = cached_property(counted)
    wrapped.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, wrapped)
    return fills


@pytest.fixture(autouse=True)
def override_left_as_found():
    """Fail a test that leaves ``GF_TOL_OVERRIDE`` other than it found it: a leaked
    scale would move the tolerances of every test that runs after it."""
    before = os.environ.get("GF_TOL_OVERRIDE")
    yield
    after = os.environ.get("GF_TOL_OVERRIDE")
    assert after == before, "the test leaked GF_TOL_OVERRIDE"


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
