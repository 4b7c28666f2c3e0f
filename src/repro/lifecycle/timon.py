"""Timon: the expert feedback-collection frontend (paper Appendix A).

The paper's Figure 9 shows Timon's workflow: pooled uncertain queries
are rendered into "a generated web page" where each query is shown with
its candidate concepts (and their canonical descriptions and losses);
the domain expert either selects a candidate or types a new concept
code, and the selections are appended to the labeled training data.

This module reproduces that artifact pipeline for an offline setting:

* :func:`render_review_page` — emit a static, self-contained HTML page
  for a batch of :class:`~repro.lifecycle.pool.PooledQuery` objects,
  typically an :meth:`UncertaintyPool.drain` (drained queries have
  left the pool, so resolving them needs no pool bookkeeping);
* :func:`parse_review_csv` — read the expert's filled-in decisions back
  from a simple ``query,cid`` CSV (the spreadsheet-shaped equivalent of
  the web form POST) and hand each to a resolve step:
  :meth:`KnowledgeBase.add_feedback`, or
  :meth:`LifecycleController.resolve` to also stage the pair.
"""

from __future__ import annotations

import csv
import html
from pathlib import Path
from typing import Callable, List, Sequence, Tuple, Union

from repro.kb.knowledge_base import TrainingPair
from repro.lifecycle.pool import PooledQuery
from repro.ontology.ontology import Ontology
from repro.utils.errors import DataError
from repro.utils.logging import get_logger

logger = get_logger("lifecycle.timon")

PathLike = Union[str, Path]

_PAGE_TEMPLATE = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Timon — concept linking review</title>
<style>
body {{ font-family: sans-serif; margin: 2rem; }}
table {{ border-collapse: collapse; margin-bottom: 2rem; }}
th, td {{ border: 1px solid #999; padding: 0.3rem 0.6rem; text-align: left; }}
caption {{ font-weight: bold; text-align: left; padding-bottom: 0.4rem; }}
input[type=text] {{ width: 10rem; }}
</style>
</head>
<body>
<h1>Timon — uncertain concept linkings ({count})</h1>
<p>For each query, select the correct concept or type a new concept
code in the free-text field, then export your decisions as a
<code>query,cid</code> CSV.</p>
{tables}
</body>
</html>
"""

_TABLE_TEMPLATE = """<table>
<caption>{index}. query: <code>{query}</code></caption>
<tr><th>select</th><th>concept</th><th>canonical description</th><th>loss</th></tr>
{rows}
<tr><td></td><td colspan="3">other concept:
<input type="text" name="other-{index}" placeholder="e.g. N63.0"></td></tr>
</table>
"""


def render_review_page(
    items: Sequence[PooledQuery],
    ontology: Ontology,
    path: PathLike,
    max_candidates: int = 5,
) -> int:
    """Write a static Timon review page for ``items``; returns the
    number of queries rendered.

    Unknown candidate cids (possible after ontology edits) are skipped
    rather than failing the whole page.
    """
    if max_candidates < 1:
        raise DataError(f"max_candidates must be >= 1, got {max_candidates}")
    tables: List[str] = []
    for index, item in enumerate(items, start=1):
        rows: List[str] = []
        for cid, loss in item.candidates[:max_candidates]:
            try:
                description = ontology.get(cid).description
            except KeyError:
                logger.warning("Timon: skipping unknown concept %r", cid)
                continue
            rows.append(
                "<tr>"
                f'<td><input type="radio" name="q{index}" value="{html.escape(cid)}"></td>'
                f"<td><code>{html.escape(cid)}</code></td>"
                f"<td>{html.escape(description)}</td>"
                f"<td>{loss:.2f}</td>"
                "</tr>"
            )
        tables.append(
            _TABLE_TEMPLATE.format(
                index=index,
                query=html.escape(item.query),
                rows="\n".join(rows),
            )
        )
    page = _PAGE_TEMPLATE.format(count=len(items), tables="\n".join(tables))
    Path(path).write_text(page, encoding="utf-8")
    return len(items)


def parse_review_csv(
    resolve: Callable[[str, str], TrainingPair], path: PathLike
) -> Tuple[List[TrainingPair], List[str]]:
    """Apply expert decisions from a ``query,cid`` CSV via ``resolve``.

    Returns ``(resolved_pairs, rejected_lines)``: rows referencing
    unknown concepts or empty queries are collected instead of raised,
    so one typo does not lose a whole review session.  A header row
    ``query,cid`` is tolerated.
    """
    resolved: List[TrainingPair] = []
    rejected: List[str] = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                rejected.append(",".join(row))
                continue
            query, cid = row[0].strip(), row[1].strip()
            if (query.lower(), cid.lower()) == ("query", "cid"):
                continue  # header
            try:
                resolved.append(resolve(query, cid))
            except (KeyError, DataError) as exc:
                logger.warning("Timon: rejecting row %r (%s)", row, exc)
                rejected.append(",".join(row))
    return resolved, rejected
