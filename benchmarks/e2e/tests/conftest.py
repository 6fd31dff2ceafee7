"""Make ``e2ebench`` and ``repro`` importable for the benchmark's own tests.

Run them with ``python -m pytest benchmarks/e2e/tests``; the repo's tier-1
suite (``testpaths = tests``) does not collect this directory.
"""

import os
import sys

E2E_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(E2E_DIR))

for path in (os.path.join(REPO_ROOT, "src"), E2E_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
