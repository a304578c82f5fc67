"""Pseudo-labeling of an unlabeled target domain by a source-trained model.

The labels are the argmax of ``model.training.evaluate``'s class
probabilities, and the agreement with the incoming labels is its accuracy.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..geo.manifest import DatasetManifest
from ..model.config import DamConfig
from ..model.network import DamParams
from ..model.training import TrainError, evaluate, load_split

# Not called in this module, but the traced benchmark (bench/layers.py TARGETS) wraps it here.
from ..geo.ppm import read_ppm  # noqa: F401


@dataclass
class PseudoLabelReport:
    """How the generated labels relate to whatever labels came in.

    On synthetic data the incoming labels are ground truth, so agreement is
    pseudo-label accuracy; on real unlabeled data it is meaningless and the
    caller should ignore it.
    """

    total: int
    agreement: float
    class_counts: dict


def pseudo_label(manifest: DatasetManifest, image_root, params: DamParams,
                 config: DamConfig, batch_size: int = 64
                 ) -> tuple[DatasetManifest, PseudoLabelReport]:
    """Relabel every entry with the model's prediction and flag it pseudo."""
    if not manifest.entries:
        raise TrainError("cannot pseudo-label an empty manifest")
    dataset = load_split(manifest, image_root)
    _, agreement, probs = evaluate(dataset, params, config, batch_size)
    preds = probs.argmax(axis=1)
    entries = [dataclasses.replace(e, label=int(p), pseudo=True)
               for e, p in zip(manifest.entries, preds)]
    report = PseudoLabelReport(
        total=len(entries),
        agreement=agreement,
        class_counts={int(k): int(v) for k, v in
                      zip(*np.unique(preds, return_counts=True))},
    )
    out = DatasetManifest(seed=manifest.seed, generator=manifest.generator,
                          entries=entries)
    return out, report
