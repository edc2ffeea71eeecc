"""One workload's set-up in a fresh interpreter: ``setup_probe.py <workload>``.

``run.py`` times this whole process (interpreter start, the imports and
construction a user pays before the first request, exit) for ``setup_s``.
The probe samples the host speed during the set-up and prints the factor
last (see ``hostspeed.py``).
"""

import sys

from hostspeed import Sampler
from workloads import WORKLOADS

if __name__ == "__main__":
    with Sampler() as sampler:
        WORKLOADS[sys.argv[1]].setup()
    print(sampler.factor())
