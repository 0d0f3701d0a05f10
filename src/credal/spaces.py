"""Finite outcome spaces, optional variable factorizations, and events.

Atoms of a factorized space are ordered lexicographically: the first
variable varies slowest, the last fastest (C order). All probability
vectors in the library are interpreted in that atom order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import SpaceTooLargeError, UnknownVariableError

# the largest n of any 2**n enumeration: the subsets of n atoms, the atoms of n tosses
MAX_FRAME_ATOMS = 20


@dataclass(frozen=True)
class Variable:
    """A named variable with an ordered, finite value set."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be nonempty")
        if len(self.values) < 1:
            raise ValueError(f"variable {self.name!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"variable {self.name!r} has duplicate values")

    @property
    def arity(self) -> int:
        return len(self.values)


def _atom_label(combo: tuple[str, ...], joiner: str) -> str:
    return joiner.join(combo)


@dataclass(frozen=True)
class OutcomeSpace:
    """An ordered tuple of unique atom labels, optionally factorized.

    For factorized spaces the atoms are exactly the Cartesian product of
    the variables' value sets, in lexicographic order. Value labels are
    joined with "" when every value label across all variables is a
    single character (so two coin tosses yield "HH", "HT", ...), and
    with a single space otherwise.
    """

    atoms: tuple[str, ...]
    variables: tuple[Variable, ...] | None = None
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(self.atoms) < 1:
            raise ValueError("outcome space needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom labels must be unique")
        if self.variables is not None:
            expected = 1
            for v in self.variables:
                expected *= v.arity
            if len(self.atoms) != expected:
                raise ValueError(
                    f"{len(self.atoms)} atoms but variable arities multiply to {expected}"
                )
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(self.atoms)})

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def is_factorized(self) -> bool:
        return self.variables is not None

    def index(self, atom: str) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise KeyError(f"unknown atom {atom!r}") from None

    def variable(self, name: str) -> Variable:
        if self.variables is None:
            raise UnknownVariableError(f"space is not factorized; no variable {name!r}")
        for v in self.variables:
            if v.name == name:
                return v
        raise UnknownVariableError(f"unknown variable {name!r}")

    def axis(self, name: str) -> int:
        """Tensor axis of a variable (see :meth:`tensor_shape`)."""
        if self.variables is None:
            raise UnknownVariableError(f"space is not factorized; no variable {name!r}")
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise UnknownVariableError(f"unknown variable {name!r}")

    def tensor_shape(self) -> tuple[int, ...]:
        """Shape that reshapes an atom-ordered vector into one axis per variable."""
        if self.variables is None:
            raise UnknownVariableError("space is not factorized")
        return tuple(v.arity for v in self.variables)

    def atom_values(self, atom: str) -> tuple[str, ...]:
        """The variable-value tuple of an atom of a factorized space."""
        if self.variables is None:
            raise UnknownVariableError("space is not factorized")
        flat = self.index(atom)
        idx = np.unravel_index(flat, self.tensor_shape())
        return tuple(v.values[i] for v, i in zip(self.variables, idx))


def product_space(*variables: Variable) -> OutcomeSpace:
    """Build a factorized space from variables, atoms in lexicographic order."""
    if not variables:
        raise ValueError("at least one variable required")
    single_char = all(len(val) == 1 for v in variables for val in v.values)
    joiner = "" if single_char else " "
    atoms = tuple(
        _atom_label(combo, joiner)
        for combo in itertools.product(*(v.values for v in variables))
    )
    return OutcomeSpace(atoms=atoms, variables=tuple(variables))


@lru_cache(maxsize=16)
def coin_space(n_tosses: int) -> OutcomeSpace:
    """The n-fold product of a single H/T toss (cached: spaces are immutable)."""
    if n_tosses < 1:
        raise ValueError("n_tosses must be >= 1")
    _check_tosses(n_tosses)
    return product_space(
        *(Variable(f"toss{i + 1}", ("H", "T")) for i in range(n_tosses))
    )


def _check_tosses(n_tosses: int) -> None:
    """Refuse a frame of 2**n_tosses atoms above MAX_FRAME_ATOMS tosses,
    before any of it is built."""
    if n_tosses > MAX_FRAME_ATOMS:
        raise SpaceTooLargeError(
            f"{n_tosses} tosses make 2**{n_tosses} atoms; at most {MAX_FRAME_ATOMS} tosses are supported"
        )


def simple_space(*atoms: str) -> OutcomeSpace:
    """A plain unfactorized space."""
    return OutcomeSpace(atoms=tuple(atoms))


@dataclass(frozen=True)
class Event:
    """A subset of atoms of a space, held as a sorted index tuple."""

    space: OutcomeSpace
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = self.indices
        if len(set(idx)) != len(idx):
            raise ValueError("event indices must be distinct")
        for i in idx:
            if not 0 <= i < self.space.size:
                raise ValueError(f"atom index {i} out of range")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    @classmethod
    def of(cls, space: OutcomeSpace, *atoms: str) -> "Event":
        return cls(space, tuple(space.index(a) for a in atoms))

    @classmethod
    def from_indices(cls, space: OutcomeSpace, indices) -> "Event":
        return cls(space, tuple(int(i) for i in indices))

    @classmethod
    def full(cls, space: OutcomeSpace) -> "Event":
        return cls(space, tuple(range(space.size)))

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(self.space.atoms[i] for i in self.indices)

    def indicator(self) -> np.ndarray:
        ind = np.zeros(self.space.size)
        ind[list(self.indices)] = 1.0
        ind.flags.writeable = False
        return ind

    def complement(self) -> "Event":
        keep = set(range(self.space.size)) - set(self.indices)
        return Event(self.space, tuple(sorted(keep)))

    def __contains__(self, atom: str) -> bool:
        return self.space.index(atom) in set(self.indices)

    def __len__(self) -> int:
        return len(self.indices)
