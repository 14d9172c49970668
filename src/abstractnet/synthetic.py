"""Bundled synthetic 8x8 digit images.

A deterministic stand-in for file-based digit data: ten fixed glyph templates
perturbed by integer shifts, intensity scaling, and Gaussian pixel noise. Easy
enough that a small ReLU network reaches high accuracy, varied enough that the
problem is not linearly trivial.
"""

from __future__ import annotations

import numpy as np

from .data import LabeledDataset
from .errors import ValidationError, check_int, seeded_rng

_GLYPHS = [
    (
        "00111100",
        "01000010",
        "01000010",
        "01000010",
        "01000010",
        "01000010",
        "01000010",
        "00111100",
    ),
    (
        "00011000",
        "00111000",
        "00011000",
        "00011000",
        "00011000",
        "00011000",
        "00011000",
        "00111100",
    ),
    (
        "00111100",
        "01000010",
        "00000010",
        "00000100",
        "00011000",
        "00100000",
        "01000000",
        "01111110",
    ),
    (
        "00111100",
        "01000010",
        "00000010",
        "00011100",
        "00000010",
        "00000010",
        "01000010",
        "00111100",
    ),
    (
        "00000100",
        "00001100",
        "00010100",
        "00100100",
        "01000100",
        "01111110",
        "00000100",
        "00000100",
    ),
    (
        "01111110",
        "01000000",
        "01000000",
        "01111100",
        "00000010",
        "00000010",
        "01000010",
        "00111100",
    ),
    (
        "00011100",
        "00100000",
        "01000000",
        "01111100",
        "01000010",
        "01000010",
        "01000010",
        "00111100",
    ),
    (
        "01111110",
        "00000010",
        "00000100",
        "00001000",
        "00010000",
        "00100000",
        "00100000",
        "00100000",
    ),
    (
        "00111100",
        "01000010",
        "01000010",
        "00111100",
        "01000010",
        "01000010",
        "01000010",
        "00111100",
    ),
    (
        "00111100",
        "01000010",
        "01000010",
        "00111110",
        "00000010",
        "00000010",
        "00000100",
        "00111000",
    ),
]

TEMPLATES = np.array(
    [[[float(c) for c in row] for row in glyph] for glyph in _GLYPHS], dtype=np.float64
)


def _shift(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift with zero fill (pixels falling off the edge are dropped)."""
    out = np.zeros_like(img)
    src_y = slice(max(0, -dy), 8 - max(0, dy))
    dst_y = slice(max(0, dy), 8 + min(0, dy))
    src_x = slice(max(0, -dx), 8 - max(0, dx))
    dst_x = slice(max(0, dx), 8 + min(0, dx))
    out[dst_y, dst_x] = img[src_y, src_x]
    return out


# SHIFTED[label, dy + 1, dx + 1] is glyph ``label`` shifted by (dy, dx), flattened
SHIFTED = np.array(
    [
        [[_shift(glyph, dy, dx).reshape(64) for dx in (-1, 0, 1)] for dy in (-1, 0, 1)]
        for glyph in TEMPLATES
    ]
)


def make_synthetic_digits(n: int, seed: int = 0, noise: float = 0.15) -> LabeledDataset:
    """Generate n noisy 8x8 digit images, flattened to 64 features in [0, 1]."""
    check_int(n, "n", 1)
    if not 0 <= noise < np.inf:
        raise ValidationError(f"noise must be finite and non-negative, got {noise}")
    rng = seeded_rng(seed)
    labels = rng.integers(0, 10, size=n)
    shifts = rng.integers(-1, 2, size=(n, 2))
    scales = rng.uniform(0.7, 1.0, size=n)
    jitter = rng.normal(0.0, noise, size=(n, 8, 8))
    images = SHIFTED[labels, shifts[:, 0] + 1, shifts[:, 1] + 1]
    images *= scales[:, None]
    images += jitter.reshape(n, 64)
    np.clip(images, 0.0, 1.0, out=images)
    return LabeledDataset(images, labels)
