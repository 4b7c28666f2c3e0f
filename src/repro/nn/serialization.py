"""Parameter (de)serialisation to ``.npz``.

The feedback loop retrains COM-AID and takes representation snapshots
(paper Appendix A.2); snapshots and trained models round-trip through
these helpers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.nn.module import Module

PathLike = Union[str, Path]


def save_module(module: Module, path: PathLike) -> None:
    """Write every parameter of ``module`` to a compressed ``.npz``."""
    state = module.state_dict()
    if not state:
        raise ValueError("module has no parameters to save")
    np.savez_compressed(Path(path), **state)


def load_module(module: Module, path: PathLike) -> None:
    """Load parameters saved by :func:`save_module` into ``module``.

    Shapes and names must match exactly.
    """
    with np.load(Path(path)) as archive:
        state = {name: archive[name] for name in archive.files}
    module.load_state_dict(state)
