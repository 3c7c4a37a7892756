"""Point sets, the Gram pair order and the split of a seed.

A point set is read as its ordered factors, one per kernel argument. A
sphere factor S^d is a SpherePointSet: d + 1 columns of a points file,
uniform random points and, for a pair, the cosine ⟨p_i, p_j⟩. A time
factor is a 1-D array of times: one column, times uniform on [0, 1) and
the lag t_i − t_j. SpherePointSet is its own single factor,
SpaceTimePointSet is (space, times) and ProductPointSet is (first,
second). The point-set protocol (`dimensions`, the points-file columns
`n_columns`, `from_columns` and `columns`, and seeded `random` points with
factor k drawn from states[k]) is written once over the factors.

The pairs (i, j), j >= i, of a point set's upper triangle have one order,
row-major (`_row_arguments`), which `fields.gram` writes back by
`_mirror_rows` and `schoenberg.certify` gathers through `_trial_index`.
A seed is split into child seeds in one place, `_seed_states`. This module
imports nothing of spherecov but `errors` and `gegenbauer`, so both
`schoenberg` and `fields` can build on it.
"""

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .gegenbauer import _check_array_bytes, _check_count, _check_seed, _frozen_floats, _immutable

__all__ = [
    "ProductPointSet",
    "SpaceTimePointSet",
    "SpherePointSet",
    "uniform_sphere_points",
]

UNIT_NORM_TOL = 1e-12


_SPHERE = "sphere"
_TIME = "time"


class _FactoredPointSet:
    """The point-set protocol, written once over `FACTORS`, the kind of each
    factor in column order (see the module docstring). A point set with one
    factor is that factor; the factors of any other are its fields, in order."""

    def __len__(self) -> int:
        return len(self._factors()[0][1])

    def _factors(self) -> list:
        """(kind, factor) pairs: a SpherePointSet or a 1-D array of times each."""
        values = (self,) if len(self.FACTORS) == 1 else [getattr(self, f.name) for f in dataclasses.fields(self)]
        return list(zip(self.FACTORS, values))

    def _check_sphere_factors(self) -> None:
        """GeometryError, naming the field, unless each sphere factor of a
        point set of more than one factor is a SpherePointSet."""
        for field, kind in zip(dataclasses.fields(self), self.FACTORS):
            factor = getattr(self, field.name)
            if kind == _SPHERE and not isinstance(factor, SpherePointSet):
                raise GeometryError(f"{field.name} must be a SpherePointSet, got {type(factor).__name__}")

    @classmethod
    def _from_factors(cls, factors):
        return factors[0] if len(cls.FACTORS) == 1 else cls(*factors)

    @classmethod
    def _factor_dimensions(cls, dimensions) -> list:
        """(kind, d) pairs: d is the next of `dimensions` for a sphere, None for time."""
        dims = iter(dimensions)
        return [(kind, next(dims) if kind == _SPHERE else None) for kind in cls.FACTORS]

    @property
    def dimensions(self) -> tuple:
        """The dimension d of each sphere factor, in order."""
        return tuple(f.dimension for kind, f in self._factors() if kind == _SPHERE)

    @classmethod
    def n_columns(cls, dimensions) -> int:
        """Points-file columns: d + 1 per sphere factor, 1 per time factor."""
        return sum(dimensions) + len(cls.FACTORS)

    @classmethod
    def from_columns(cls, dimensions, data):
        """The point set whose factors are consecutive column blocks of `data`."""
        if data.shape[1] != cls.n_columns(dimensions):
            raise GeometryError(f"{cls.__name__} needs {cls.n_columns(dimensions)} columns, got {data.shape[1]}")
        factors, start = [], 0
        for kind, d in cls._factor_dimensions(dimensions):
            if kind == _SPHERE:
                factors.append(SpherePointSet(dimension=d, points=data[:, start : start + d + 1]))
                start += d + 1
            else:
                factors.append(data[:, start])
                start += 1
        return cls._from_factors(factors)

    def columns(self) -> np.ndarray:
        """The factors' columns side by side, one row per point."""
        return np.column_stack([f.points if kind == _SPHERE else f for kind, f in self._factors()])

    @classmethod
    def random(cls, dimensions, n: int, states):
        """n random points, factor k seeded by states[k]."""
        return cls._from_factors([
            uniform_sphere_points(d, n, int(state)) if kind == _SPHERE
            else np.random.default_rng(int(state)).uniform(0.0, 1.0, n)
            for (kind, d), state in zip(cls._factor_dimensions(dimensions), states)
        ])

    def _row_factors(self) -> list:
        """Per factor, what its kernel arguments are read from: the n × n
        cosine matrix of a sphere, the times of a time factor."""
        return [_cosine_matrix(f.points) if kind == _SPHERE else f for kind, f in self._factors()]


def _check_unit_norms(rows: np.ndarray, name: str, error) -> None:
    """`error` unless each row of the 2-D float array `rows` has a norm within
    `UNIT_NORM_TOL` of 1. The message names the row furthest off as
    `name.format(index)` and shows its norm as a Python float. An overflowing
    norm is inf, without a numpy warning, and fails the tolerance; so does a NaN."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    off = np.abs(norms - 1.0)
    worst = int(np.argmax(off))  # the first NaN, if there is one
    if not off[worst] <= UNIT_NORM_TOL:
        raise error(f"{name.format(worst)} has norm {float(norms[worst])!r}, not 1 within {UNIT_NORM_TOL}")


@dataclass(frozen=True)
class SpherePointSet(_FactoredPointSet):
    """n unit vectors in R^{d+1}, rows of `points`: a single sphere factor."""

    dimension: int
    points: np.ndarray

    FACTORS = (_SPHERE,)
    LAYOUT = "coordinates in R^(d+1)"

    def __post_init__(self):
        d = _check_count(self.dimension, "sphere dimension", 1, GeometryError)
        pts = _immutable(_frozen_floats(self.points, 2, "points", GeometryError))
        if pts.shape[1] != d + 1:
            raise GeometryError(
                f"points must have shape (n, {d + 1}), got {pts.shape}"
            )
        _check_unit_norms(pts, "point {}", GeometryError)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SpaceTimePointSet(_FactoredPointSet):
    """Pairs (p_i, t_i) of sphere points and times: factors (space, times)."""

    space: SpherePointSet
    times: np.ndarray

    FACTORS = (_SPHERE, _TIME)
    LAYOUT = "coordinates then time"

    def __post_init__(self):
        self._check_sphere_factors()
        t = _immutable(_frozen_floats(self.times, 1, "times", GeometryError))
        if t.size != len(self.space):
            raise GeometryError(
                f"times must be 1-D with one entry per point ({len(self.space)}), got shape {t.shape}"
            )
        object.__setattr__(self, "times", t)


@dataclass(frozen=True)
class ProductPointSet(_FactoredPointSet):
    """Pairs (p_i, q_i) with p_i on the first sphere and q_i on the second:
    factors (first, second)."""

    first: SpherePointSet
    second: SpherePointSet

    FACTORS = (_SPHERE, _SPHERE)
    LAYOUT = "first factor then second"

    def __post_init__(self):
        self._check_sphere_factors()
        if len(self.first) != len(self.second):
            raise GeometryError(
                f"component point sets must have equal length, got {len(self.first)} and {len(self.second)}"
            )


def uniform_sphere_points(d: int, n: int, seed: int) -> SpherePointSet:
    """n points drawn uniformly on S^d by normalizing standard Gaussians."""
    d = _check_count(d, "d", 1)
    n = _check_count(n, "n", 1)
    _check_array_bytes((n, d + 1), "a point set")
    rng = np.random.default_rng(_check_seed(seed))
    v = rng.standard_normal((n, d + 1))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # A zero draw has probability 0; redraw those rows to keep the map total.
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        v[bad] = rng.standard_normal((int(bad.sum()), d + 1))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    return SpherePointSet(dimension=d, points=v / norms)


def _cosine_matrix(points: np.ndarray) -> np.ndarray:
    cosines = points @ points.T
    return np.clip(cosines, -1.0, 1.0, out=cosines)


def _upper(rows: slice, n: int) -> np.ndarray:
    """Mask of the pairs (i, j), j >= i, over `rows` × columns rows.start..n−1."""
    return np.arange(rows.start, n) >= np.arange(rows.start, rows.stop)[:, None]


def _row_arguments(factors: list, rows: slice) -> tuple:
    """One kernel argument per factor of `_row_factors` for the upper-triangle
    pairs (i, j), j >= i, of `rows` in row-major order, as `_upper` masks them:
    the one pair order, which `_mirror_rows` writes back and `_trial_index` maps."""
    upper, start = _upper(rows, len(factors[0])), rows.start
    return tuple(
        f[rows, start:][upper] if f.ndim == 2 else np.subtract.outer(f[rows], f[start:])[upper] for f in factors
    )


@functools.lru_cache(maxsize=64)
def _trial_arguments(d: int, n: int, seed: int) -> np.ndarray:
    """The upper-triangle cosines of `uniform_sphere_points(d, n, seed)` in
    the row-major order of `_row_arguments`: the arguments of one `certify`
    Gram trial, cached by (d, n, seed). The last 64 are kept, n(n+1)/2
    floats each (about 170 KB at n = 25). The vector is `_immutable`, so no
    caller can make it writeable and change a later trial."""
    (cosines,) = _row_arguments(uniform_sphere_points(d, n, seed)._row_factors(), slice(0, n))
    return _immutable(cosines)


def _seed_states(seed: int, count: int) -> np.ndarray:
    """`SeedSequence(seed).generate_state(count)`, the one split of a seed into
    `count` uint32 child seeds (`certify`'s Gram trials, the CLI's random
    points). Not cached: `certify` asks for one seed per Gram trial, and a
    cache would keep each split's 4·count bytes after the call."""
    return np.random.SeedSequence(seed).generate_state(count)


@functools.lru_cache(maxsize=4)
def _trial_index(n: int) -> np.ndarray:
    """The n × n map from (i, j) to the place of the pair (min, max) in the
    row-major upper triangle of `_row_arguments`, so that `values[index]` is
    the exactly symmetric matrix that `_mirror_rows` writes from those
    values, in one gather: `_mirror_rows` itself writes the places. Cached by
    n, the last 4; `_immutable`, so no caller can make it writeable."""
    index = np.empty((n, n), dtype=np.intp)
    _mirror_rows(index, slice(0, n), np.arange(n * (n + 1) // 2))
    return _immutable(index)


def _mirror_rows(entries: np.ndarray, rows: slice, values: np.ndarray) -> None:
    """Write `values`, ordered as `_row_arguments`, to the upper triangle of
    `rows` of the square `entries`, and the same values to the mirrored places
    below the diagonal."""
    upper = _upper(rows, entries.shape[0])
    entries[rows, rows.start :][upper] = values
    entries[rows.start :, rows].T[upper] = values
