"""Fixed work that times the machine's current speed; run as a child process.

The host this benchmark was built on drifts by up to 1.65x in speed within
minutes, as other tenants come and go.  `run.py` times this script right
before the commands it measures and scales their times by it.  It mixes the
program's three kinds of work: interpreter start and `import numpy` (every
command), big-integer `Fraction` arithmetic (the exact solvers) and numpy
Philox draws with logs (the stochastic ones).  Changing it rescales every
reported time.
"""

from fractions import Fraction

import numpy as np

x = Fraction(1)
for k in range(1, 1200):
    x = x * Fraction(k, k + 3) + Fraction(1, k)
raw = np.random.Philox(key=1).random_raw(3_000_000)
np.log((raw >> np.uint64(11)) * 2.0**-53).sum()
