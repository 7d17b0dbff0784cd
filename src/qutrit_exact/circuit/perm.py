"""The permutations of the three basis levels named by TAU."""

__all__ = ["TAU_IMAGES", "TAU_LABELS"]

# cycle label -> images: TAU(label) sends basis state c to images[c]
TAU_IMAGES = {
    "01": (1, 0, 2),
    "02": (2, 1, 0),
    "12": (0, 2, 1),
    "012": (1, 2, 0),
    "021": (2, 0, 1),
}
# cycle labels accepted by the circuit language
TAU_LABELS = tuple(TAU_IMAGES)
