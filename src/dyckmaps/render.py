"""ASCII rendering of step words."""

from __future__ import annotations

from .errors import DyckError, NotBilateralError
from .words import PathWord

# Most glyph-block cells (steps times rows) a drawing may take; drawing holds
# one byte per cell, so this bounds its memory as well as its time.
_MAX_CELLS = 10_000_000


def render_ascii(w: PathWord) -> str:
    """Draw a balanced word, one column per step, '/' up and '\\' down.

    The band between heights j-1 and j holds the glyphs of the steps at
    height j; bands are stacked top down and a rule of '-' characters marks
    the axis.  The glyph block is max_height - min_height rows tall; a word
    whose block would exceed ``_MAX_CELLS`` cells raises DyckError.
    """
    if w.text and w.final_height != 0:
        raise NotBilateralError("rendering requires a balanced word")
    text = w.text
    if not text:
        return ""
    hi, lo = w.max_height, w.min_height
    size = len(text) * (hi - lo)
    if size > _MAX_CELLS:
        raise DyckError(
            f"rendering needs {size} cells, more than the cap of {_MAX_CELLS}"
        )
    bands = [bytearray(b" " * len(text)) for _ in range(hi - lo)]  # top down
    prev = 0
    for i, h in enumerate(w._height_list()):  # a step's band is its higher vertex's
        if h > prev:
            bands[hi - h][i] = 47  # '/'
        else:
            bands[hi - prev][i] = 92  # '\\'
        prev = h
    bands.insert(hi, b"-" * len(text))  # the axis
    return "\n".join([band.decode("ascii").rstrip() for band in bands])
