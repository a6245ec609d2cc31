"""The answer-or-refuse oracle of the entry-point properties.

It raises AssertionError itself rather than by `assert`: pytest rewrites
asserts only in test modules, so under `python -O` an `assert` here would be
stripped and every check of the oracle with it.
"""

import traceback
from pathlib import Path

import hornvol
from hornvol._exact import InvariantError

PACKAGE = Path(hornvol.__file__).parent


def answer_or_refuse(call, refused: bool):
    """call()'s value, or None where it raises a ValueError or an InvariantError, which it must iff refused.

    A refusal must come from hornvol's own code, not from numpy inside it.
    """
    try:
        value = call()
    except (ValueError, InvariantError) as e:
        if not refused:
            raise AssertionError(f"refused where an answer was due: {e!r}") from e
        where = Path(traceback.extract_tb(e.__traceback__)[-1].filename)
        if where.parent != PACKAGE:
            raise AssertionError(f"refused from {where}, outside hornvol: {e!r}") from e
        return None
    if refused:
        raise AssertionError(f"answered {value!r} where a refusal was due")
    return value
