"""Make the paper model (``model``) importable when pytest is invoked from
the repo root."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
