"""The public API, pinned: each name in ``layerlat.__all__`` with its call
signature, against ``tests/api_snapshot.txt``.

A change to a public signature shows in the diff of that file.  After an
intended change, regenerate it with

    PYTHONPATH=src python tests/test_api_snapshot.py > tests/api_snapshot.txt
"""

from __future__ import annotations

import enum
import inspect
from pathlib import Path

import layerlat

SNAPSHOT = Path(__file__).resolve().parent / "api_snapshot.txt"


def _annotation(a):
    # a NamedTuple field's string annotation is a ForwardRef, whose repr varies by version
    return getattr(a, "__forward_arg__", a)


def api_lines() -> list[str]:
    lines = []
    for name in layerlat.__all__:
        obj = getattr(layerlat, name)
        if isinstance(obj, type) and issubclass(obj, enum.Enum):
            lines.append(f"{name}: enum {', '.join(m.name for m in obj)}")
        elif callable(obj):
            sig = inspect.signature(obj)
            sig = sig.replace(parameters=[p.replace(annotation=_annotation(p.annotation))
                                          for p in sig.parameters.values()])
            lines.append(f"{name}{sig}")
        else:
            lines.append(name)
    return lines


def test_the_public_api_matches_its_snapshot():
    assert api_lines() == SNAPSHOT.read_text().splitlines()


if __name__ == "__main__":
    print("\n".join(api_lines()))
