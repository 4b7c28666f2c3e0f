"""Zero-downtime model lifecycle: pool → retrain → compile → swap.

The paper's Appendix A expert-feedback loop: uncertain queries are
pooled off live traffic, the Timon review page
(:mod:`repro.lifecycle.timon`) carries them to an expert,
expert-resolved pairs fine-tune a cloned model, the clone is compiled
into a fresh artifact, and a blue/green swap — shadow scoring, quality
gates, automatic rollback — promotes it into the running service
without dropping a request.
"""

from repro.lifecycle.controller import LifecycleController
from repro.lifecycle.pool import PooledQuery, UncertaintyPool
from repro.lifecycle.shadow import ShadowScorer
from repro.lifecycle.swap import ArtifactSwapper, LifecycleError
from repro.lifecycle.timon import parse_review_csv, render_review_page

__all__ = [
    "ArtifactSwapper",
    "LifecycleController",
    "LifecycleError",
    "PooledQuery",
    "ShadowScorer",
    "UncertaintyPool",
    "parse_review_csv",
    "render_review_page",
]
