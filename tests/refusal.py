"""The answer-or-refuse oracle of the entry-point properties."""

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
        assert refused, e
        assert Path(traceback.extract_tb(e.__traceback__)[-1].filename).parent == PACKAGE, e
        return None
    assert not refused, value
    return value
