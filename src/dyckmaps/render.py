"""ASCII rendering of step words."""

from __future__ import annotations

import numpy as np

from .errors import DyckError, NotBilateralError
from .words import PathWord, _rows, _up_and_heights

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
    steps = len(w.text)
    if not steps:
        return ""
    up, h = (col[:, 0] for col in _up_and_heights(_rows([w.text])))
    if h[-1]:
        raise NotBilateralError("rendering requires a balanced word")
    hi, lo = int(h.max()), int(h.min())
    size = steps * (hi - lo)
    if size > _MAX_CELLS:
        raise DyckError(f"rendering needs {size} cells, more than the cap of {_MAX_CELLS}")
    # '\\' less 45 is '/': arithmetic, as np.where of two scalars is 8x slower
    glyphs = np.uint8(ord("\\")) - up.view(np.uint8) * np.uint8(ord("\\") - ord("/"))
    cells = h.astype(np.int32, copy=False)  # h itself from 32,768 steps on
    cells += ~up  # a step's band is its higher vertex's
    del up, h  # freed for the block: (UD)^(5*10^6) peaked at 145 against 154 MB
    np.subtract(hi, cells, out=cells)  # the band's row, top down
    cells *= steps
    cells += np.arange(steps, dtype=np.int32)  # under _MAX_CELLS < 2^31
    block = np.full(size, ord(" "), dtype=np.uint8)
    block[cells] = glyphs
    rows = [row.tobytes().decode("ascii").rstrip() for row in block.reshape(hi - lo, steps)]
    rows.insert(hi, "-" * steps)  # the axis
    return "\n".join(rows)
