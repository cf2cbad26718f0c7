"""Per-point reference for the stacked cascade model.

normalize_to_counts(sample_spectrum(drive), count) builds and checks one
SpectrumGrid per point. These helpers put such spectra into a
SpectrumStack by hand, so that filtered_counts on them is the one-point
path that the stacked model is compared against row by row.
"""

import numpy as np

from cascfluor.cascade import filtered_counts
from cascfluor.spectrum import SpectrumStack


def stack_of(specs):
    """Normalized spectra on one grid as the rows of one stack."""
    return SpectrumStack(specs[0].offsets, np.array([s.density for s in specs]),
                         np.array([s.elastic_weight for s in specs]))


def one_point_count(spec, prof, drive_detuning=0.0):
    """Cascaded count of one normalized spectrum, filtered as a one-row stack."""
    return float(filtered_counts(stack_of([spec]), [drive_detuning], prof)[0])
