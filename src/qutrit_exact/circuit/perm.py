"""The symmetric group on the three basis levels."""

from __future__ import annotations

from typing import Iterable

__all__ = ["Permutation", "perm_compose", "TAU_LABELS"]

# cycle labels accepted by the circuit language
TAU_LABELS = ("01", "02", "12", "012", "021")

_LABEL_TO_IMAGES = {
    "id": (0, 1, 2),
    "01": (1, 0, 2),
    "02": (2, 1, 0),
    "12": (0, 2, 1),
    "012": (1, 2, 0),
    "021": (2, 0, 1),
}
_IMAGES_TO_LABEL = {v: k for k, v in _LABEL_TO_IMAGES.items()}


class Permutation:
    """A permutation of {0, 1, 2} stored by its image table."""

    __slots__ = ("_img",)

    def __init__(self, images: Iterable[int]):
        img = tuple(images)
        if sorted(img) != [0, 1, 2]:
            raise ValueError(f"not a permutation of 0..2: {img}")
        self._img = img

    @classmethod
    def from_label(cls, label: str) -> Permutation:
        try:
            return cls(_LABEL_TO_IMAGES[label])
        except KeyError:
            raise ValueError(f"unknown permutation label: {label!r}") from None

    @property
    def images(self) -> tuple[int, int, int]:
        return self._img

    @property
    def label(self) -> str:
        return _IMAGES_TO_LABEL[self._img]

    def __call__(self, k: int) -> int:
        return self._img[k]

    def inverse(self) -> Permutation:
        inv = [0, 0, 0]
        for k, v in enumerate(self._img):
            inv[v] = k
        return Permutation(inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __repr__(self) -> str:
        return f"Permutation({self._img})"


def perm_compose(p: Permutation, q: Permutation) -> Permutation:
    """The composite p after q: (p . q)(k) = p(q(k))."""
    return Permutation(tuple(p(q(k)) for k in range(3)))
