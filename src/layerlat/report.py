"""One schema for the outcome of every checker.

`validate` (the bunch laws G1-G3, D1-D2), `check_embedding` (the embedding
criterion), `check_chain_laws` (the chain axioms, sampled),
`check_flea_axioms` (the chain axioms, exhaustive on a table),
`recover_bunch_samples` (the decomposition identities) and `hom_check` (the
hom laws) each return a `Report`: one `Check` per clause and subject, plus
the sample count the checker was asked for.

A check states its method: "structural" (holds by construction), "exact"
(one computation decides it), "sampled" (first failure over drawn samples),
or, for embeddings, "proved" (exhaustive over the whole finite carrier or
group) and "tested".  `samples` is how many cases the check itself looked
at, and `witness` the first counterexample when the checker has one.

`render()` is the text every checker prints.  It has one layout, set by the
checker's `Style` constant below; nothing branches on the checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple


@dataclass
class Check:
    clause: str
    subject: str
    ok: bool
    method: str  # structural | exact | sampled | proved | tested
    detail: str = ""
    samples: int = 0
    witness: Any = None


class Style(NamedTuple):
    """How a report renders.  ``fail`` is a failed check's state word, and
    its length the state column's width; footers are format strings over
    ``checks`` (their number) and ``samples``, and None prints no footer."""

    fail: str
    clause_width: int
    show_method: bool
    ok_footer: str | None
    fail_footer: str | None


VALIDATE = Style("VIOLATION", 12, True,
                 "ok ({checks} checks, {samples} samples per sampled clause)",
                 "FAIL ({checks} checks, {samples} samples per sampled clause)")
EMBED = Style("FAIL", 18, True, "embedding ok", "embedding FAILED")
LAWS = Style("FAIL", 14, False, None, None)
AXIOMS = Style("VIOLATION", 13, True, "ok ({checks} laws)", "FAIL ({checks} laws)")
RECOVER = Style("FAIL", 3, True, "ok ({samples} identity checks)",
                "FAIL ({samples} identity checks)")
HOM = Style("FAIL", 9, True, "ok ({samples} pairs)", "FAIL ({samples} pairs)")


@dataclass
class Report:
    checks: list[Check]
    samples: int
    style: Style

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def violations(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def first(self, clause: str) -> Check | None:
        """The first check of ``clause``, or None when there is none."""
        return next((c for c in self.checks if c.clause == clause), None)

    def render(self) -> str:
        fail, width, show_method, ok_footer, fail_footer = self.style
        lines = []
        for c in self.checks:
            line = f"{'ok' if c.ok else fail:{len(fail)}s} {c.clause:{width}s} {c.subject}"
            if c.detail:
                line += f" -- {c.detail}"
            if show_method:
                line += f" [{c.method}]"
            lines.append(line)
        footer = ok_footer if self.ok else fail_footer
        if footer is not None:
            lines.append(footer.format(checks=len(self.checks), samples=self.samples))
        return "\n".join(lines)
