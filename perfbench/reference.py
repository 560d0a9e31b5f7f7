"""Reference run: fixed work that does not use pedflow, timed like a run.

The runner starts this process next to every pedflow run and times it the
same way, from spawn to the clock value it prints.  Its work resembles a
pedflow run — interpreter start, importing numpy, numpy calls on short
arrays and scalars, float formatting — so it slows down with the machine
in the same way.  See REFERENCE_S in run.py.
"""

import io
import time

import numpy as np

x = np.linspace(0.1, 1.0, 256)
for _ in range(6000):
    y = np.roll(x, 1) - 2.0 * x + np.roll(x, -1)
    x = np.where(y > 0.0, x, x * 1.0000001)
acc = 0.0
for i in range(3000):
    a = np.asarray(0.3 + i * 1e-6, dtype=float)
    acc += float(np.where(a > 0.5, a * 0.2, a - 0.2))
buf = io.StringIO()
for v in np.linspace(0.0, 1.0, 20000):
    buf.write(repr(float(v)) + ",")
print(time.perf_counter())
