"""Recompute the reference values stored in workloads.py.

    PYTHONPATH=src python3 perfbench/reference.py

Prints E log|det(H_N - E)| / N with its standard error for N = 16 and 256,
and the two Lyapunov exponents of criterion 11's 600k-step product with
their standard errors. The seeds are not used by any benchmark pass.
"""

import json
import math

import numpy as np

from striplyap.model import DisorderSpec, Region, StripGeometry
from striplyap.sampling import sample_logdets
from striplyap.transfer import lyapunov_spectrum

SPEC = DisorderSpec.uniform(-1.5, 1.5, u_law="adjacency")
SAMPLES = 40_000


def main() -> None:
    logdet = {}
    for n in (16, 256):
        values, _ = sample_logdets(
            SPEC, StripGeometry(2, 1, n), Region.rectangle(1, n, 1, 2), 0.0, SAMPLES, seed=987_654_321, workers=2
        )
        kept = values[np.isfinite(values)]
        logdet[n] = (float(np.mean(kept)) / n, float(np.std(kept, ddof=1)) / math.sqrt(len(kept)) / n)
    spectrum = lyapunov_spectrum(SPEC, StripGeometry(2, 1, 1), 0.0, 600_000, seed=31)
    print(
        json.dumps(
            {
                "LOGDET_REFERENCE": logdet,
                "GAMMA_REFERENCE": spectrum.exponents.tolist(),
                "GAMMA_REFERENCE_SE": spectrum.stderr.tolist(),
            }
        )
    )


if __name__ == "__main__":
    main()
