"""Input validation helpers used across the library."""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError


def is_power_of_two(x: int) -> bool:
    """Return True iff ``x`` is a positive integral power of two."""
    return isinstance(x, (int, np.integer)) and x > 0 and (x & (x - 1)) == 0


def ilog2(x: int) -> int:
    """Exact integer base-2 logarithm of a power of two.

    Raises
    ------
    ValidationError
        If ``x`` is not a positive power of two.
    """
    if not is_power_of_two(x):
        raise ValidationError(f"expected a power of two, got {x!r}")
    return int(x).bit_length() - 1


def check_positive(name: str, value: int) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or value <= 0:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_power_of_two(name: str, value: int) -> int:
    """Validate that ``value`` is a positive power of two and return it."""
    if not is_power_of_two(value):
        raise ValidationError(f"{name} must be a power of two, got {value!r}")
    return int(value)


def check_seed_labels(labels: np.ndarray, seed_rows: np.ndarray, seed_cols: np.ndarray) -> None:
    """Reject a foreground label of 0, the background sentinel.

    ``labels[i]`` is the label of the component seeded at
    ``(seed_rows[i], seed_cols[i])``.
    """
    zero = np.flatnonzero(labels == 0)
    if zero.size:
        i = zero[0]
        raise ValidationError(
            f"seed ({seed_rows[i]},{seed_cols[i]}) gets label 0 (the "
            "background sentinel); use label_base/offsets that keep "
            "foreground labels non-zero"
        )


def check_image(image: np.ndarray, *, square: bool = True) -> np.ndarray:
    """Validate an image array: 2-D, integer dtype, non-negative values.

    Parameters
    ----------
    image:
        Candidate image; grey level 0 is background by convention.
    square:
        If True (the paper's setting) the image must be ``n x n``.

    Returns
    -------
    numpy.ndarray
        The validated image (unchanged, no copy).
    """
    if not isinstance(image, np.ndarray):
        raise ValidationError(f"image must be a numpy array, got {type(image)!r}")
    if image.ndim != 2:
        raise ValidationError(f"image must be 2-D, got shape {image.shape}")
    if image.size == 0:
        raise ValidationError("image must be non-empty")
    if not np.issubdtype(image.dtype, np.integer):
        raise ValidationError(f"image must have an integer dtype, got {image.dtype}")
    if square and image.shape[0] != image.shape[1]:
        raise ValidationError(f"image must be square, got shape {image.shape}")
    # Unsigned dtypes cannot hold a negative level: skip the full pass.
    if image.dtype.kind != "u" and image.min() < 0:
        raise ValidationError("image grey levels must be non-negative")
    return image
