"""Set-up probe: time to import lacspec and make the first eigh and FFT calls.

Run in a fresh interpreter as ``python3 -I bench/probe.py <src dir>``.  It
prints one JSON object of phase timings in seconds.  The eigensolve is on a
256 x 256 complex Hermitian matrix, large enough for OpenBLAS to start its
threads, as the first Gram constant of any CLI call does.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import lacspec  # noqa: E402

t_import = time.perf_counter() - t0
if src not in Path(lacspec.__file__).resolve().parents:
    sys.exit(f"lacspec was imported from {lacspec.__file__}, not from {src}")

import numpy as np  # noqa: E402

rng = np.random.default_rng(0)
a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
form = lacspec.HermitianForm(256, a + a.conj().T, {"kind": "probe"})
coeffs = np.zeros(4096, dtype=complex)
coeffs[:17] = 1.0
grid = lacspec.Grid(16.0, 4096)

t1 = time.perf_counter()
lacspec.hermitian_eigensystem(form)
t2 = time.perf_counter()
lacspec.BandFunction.from_spectrum(grid, coeffs, (0.0, 1.0))
t3 = time.perf_counter()
print(json.dumps({
    "import_s": t_import,
    "first_eigh_s": t2 - t1,
    "first_fft_s": t3 - t2,
    "setup_s": t_import + (t3 - t1),
}))
