import subprocess
import sys
from pathlib import Path

import pipecorr


def test_import_loads_no_heavy_scipy_subpackages():
    # these scipy subpackages serve only the tests; importing the
    # package must not pay for them
    heavy = ("scipy.optimize", "scipy.integrate", "scipy.stats")
    src = str(Path(pipecorr.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, %r); import pipecorr; "
        "print(*[m for m in %r if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code % (src, heavy)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == []
