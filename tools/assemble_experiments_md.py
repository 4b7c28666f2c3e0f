#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from a benchmark transcript.

Usage::

    python tools/assemble_experiments_md.py bench_output.txt EXPERIMENTS.md

Reads the ``pytest benchmarks/ --benchmark-only -s`` transcript, slices
out each figure's printed table/series, and wraps them with the
paper-shape commentary.  Keeping the assembly mechanical ensures the
document always reflects an actual run.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List

HEADER = """# EXPERIMENTS — paper vs. measured

Generated from a real benchmark transcript by
``python tools/assemble_experiments_md.py bench_output.txt EXPERIMENTS.md``.

Every table and figure of the paper's evaluation section is regenerated
by one benchmark under ``benchmarks/`` and asserted for qualitative
*shape*.  **Absolute numbers are not comparable to the paper's**: the
paper evaluates proprietary NUH data and credential-gated MIMIC-III
over 14k-71k fine-grained ICD concepts on a 40-thread C++ server; this
reproduction runs synthetic substitute corpora (DESIGN.md §2) with
~100-360 fine-grained concepts on one CPU.

| Exp | Paper shape | Reproduced? |
|---|---|---|
| Table 1 | defaults k=20, β=2, d=150 | yes (k, β verbatim; d scaled) |
| Fig 5a | Cov grows with k; Acc saturates near default k | yes |
| Fig 5b | Acc peaks at small β, declines beyond | yes |
| Fig 6 | COM-AID above ⁻c/⁻w/⁻wc; removing both attentions hurts most | yes at DEFAULT scale (SMALL scale ties within noise) |
| Fig 7 | NCL best Acc & MRR on both datasets; pkduck 2nd, better as θ↓; NC/Doc2Vec trail | mostly: NCL clearly first on mimic-iii-like and ties best MRR on hospital-x-like, where WMD/pkduck(0.1) reach the same accuracy band (±0.01) — synthetic noise is more word-alignable than ward language; NC/LR+/Doc2Vec trail as in the paper |
| Fig 8 | pre-training gap > 0.1 at every d | yes (gap larger here: with a small corpus, pre-training carries more signal) |
| Fig 10 | representations shift per feedback; fed pair absorbed | yes (nonzero PCA shifts every step; the fed pair's loss falls in 2 of 3 steps — single-pair incremental updates are noisy at this scale) |
| Fig 11 | time grows with k and query length; ED dominates; hospital-x slower | yes (ED ≈ 82–87% of online time across k) |
| Fig 12 | training time ~linear in data; refinement costlier than pre-training | yes per item (absolute gap is a corpus/pair-ratio artifact at bench scale; see section note) |
| Fig 13 | Acc mildly falls with more concepts; falls with less unlabeled data but stays usable | yes |
| extra ablations | — | Phase II ≈ keyword matcher at bench scale (honest finding), rewriting clearly helps, GRU ≈ LSTM, sampled softmax quality-neutral, RRF fusion ≥ weaker member |

---
"""

SECTIONS = [
    ("Table 1: parameter settings", "## Table 1 — parameter settings",
     "Paper: grids k ∈ {10..50}, β ∈ {1..4}, d ∈ {50..200} with bold "
     "defaults 20 / 2 / 150."),
    ("Fig5a", "## Figure 5(a) — vary k",
     "Paper shape: Cov monotonically non-decreasing in k; Acc saturates "
     "near the default k."),
    ("Fig5b", "## Figure 5(b) — vary β",
     "Paper shape: accuracy peaks at a small β and declines beyond "
     "(shallow ontologies; padding duplicates top-level concepts)."),
    ("Fig6", "## Figure 6 — architecture study",
     "Paper shape: COM-AID above every ablated variant; average drops "
     "≈0.08 (−SC) / ≈0.1 (−TC) / ≳0.2 (−both).  Scoring is pure "
     "translation ranking (see fig6 module docstring)."),
    ("Fig7", "## Figure 7 — overall linking quality",
     "Paper shape: NCL highest on both metrics and datasets; pkduck "
     "second, improving as θ decreases; NC and Doc2Vec trail."),
    ("Fig8", "## Figure 8 — effect of pre-training",
     "Paper shape: pre-trained COM-AID above COM-AID⁻o1 at every d with "
     "gap > 0.1; our extra plain-CBOW series isolates the injection "
     "contribution."),
    ("Fig10", "## Figure 10 — effect of expert feedback (Appendix A.2)",
     "Paper shape: PCA-projected concept/word representations shift "
     "after each fed feedback; the fed pair's loss falls (the expert's "
     "implication is absorbed)."),
    ("Fig11", "## Figure 11 — online linking time (Appendix B.1)",
     "Paper shape: time grows with k and with query length; the "
     "encode-decode part dominates; hospital-x slower than MIMIC "
     "(longer canonical descriptions).  Milliseconds per query."),
    ("Fig12", "## Figure 12 — offline training time (Appendix B.2)",
     "Paper shape: both phases grow with their data (refinement "
     "≈ linearly in pairs).  Note: the paper's absolute "
     "pre-training ≪ refinement gap reflects its ~10:1 corpus:pair "
     "ratio and C++ CBOW; the transferable claim — per-item cost of a "
     "COM-AID pair far exceeds a CBOW snippet — is asserted instead."),
    ("Fig13", "## Figure 13 — robustness (Appendix C)",
     "Paper shape: 13(a) accuracy mildly decreases as the considered "
     "concepts grow; 13(b) accuracy drops as the unlabeled corpus "
     "shrinks yet remains usable."),
    ("Ablation", "## Design-choice ablations (beyond the paper)",
     "Phase-II value vs the keyword matcher, query-rewriting value, "
     "LSTM vs GRU, exact vs sampled softmax, NCL+pkduck fusion.  Note "
     "the honest finding: at bench scale the alias-aware keyword "
     "matcher with NCL's own rewriting already matches full NCL; "
     "Phase II's margin belongs to larger ontologies."),
]


def slice_blocks(transcript: str) -> Dict[str, List[str]]:
    """Collect printed lines grouped by figure keyword."""
    blocks: Dict[str, List[str]] = {key: [] for key, _, _ in SECTIONS}
    current = None
    for raw in transcript.splitlines():
        # pytest progress glyphs (".", "s", "F", "E") are glued to the
        # front of printed output; locate a section keyword near the
        # line start rather than stripping characters (stripping would
        # eat the F of "Fig...").
        matched = None
        line = raw
        for key, _, _ in SECTIONS:
            position = raw.find(key)
            if 0 <= position <= 8:
                matched = key
                line = raw[position:]
                break
        if matched:
            current = matched
            blocks[current].append(line)
            continue
        if current is None:
            continue
        # A table's rule line (dash runs and spaces, e.g. "--  -----"
        # under a 2-wide column) is table body, not pytest chrome.
        if re.fullmatch(r"-+( +-+)* *", line):
            blocks[current].append(raw)
            continue
        # Stop a block at pytest chrome (including a line of bare
        # progress glyphs); keep table/series lines.
        if (
            not line.strip()
            or re.fullmatch(r"[.sFE]+", line.strip())
            or line.startswith(("=", "-- ", "benchmarks/", "tests/"))
            or re.match(r"^-+ benchmark", line)
        ):
            if not line.strip():
                continue
            current = None
            continue
        blocks[current].append(raw)
    return blocks


def main(argv: List[str]) -> int:
    """CLI entry point."""
    if len(argv) != 3:
        print(__doc__)
        return 2
    transcript = Path(argv[1]).read_text(encoding="utf-8")
    blocks = slice_blocks(transcript)
    parts = [HEADER]
    for key, title, commentary in SECTIONS:
        parts.append(f"{title}\n\n{commentary}\n")
        body = "\n".join(blocks.get(key, []))
        if body.strip():
            parts.append("```\n" + body + "\n```\n")
        else:
            parts.append("_(no output captured for this section)_\n")
    Path(argv[2]).write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {argv[2]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
