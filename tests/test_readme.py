"""The README's library quick tour runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    """The first python block after the "Library quick tour" heading."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour") :]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_quick_tour_runs():
    ns: dict = {}
    exec(compile(quick_tour(), str(README), "exec"), ns)
    # the outcomes that the block's comments state
    assert ns["classify_type"](ns["t"]).kind == "III"
    assert ns["is_subnormal"](ns["t"]).outcome == "no"
    assert ns["v"].outcome == "yes" and ns["v"].witness["eps"] > 0.0
    assert ns["similarity_test"](ns["t"], ns["berger"]).outcome == "yes"
