"""``python -m powerproof``: the ``powerproof`` command."""

import sys

from . import cli

sys.exit(cli.main())
