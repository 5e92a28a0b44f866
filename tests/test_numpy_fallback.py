"""The RLE hybrid and DELTA_BINARY_PACKED oracle tests, run again on the
numpy fallbacks. ``test_rle_kernels`` and ``test_delta_kernels`` run on
the compiled kernel wherever a C compiler works; collected here, the
same test functions run with the kernel disabled, so both paths are held
to the frozen oracles."""
from __future__ import annotations

import pytest

from test_delta_kernels import *  # noqa: F401,F403
from test_rle_kernels import *  # noqa: F401,F403

pytestmark = pytest.mark.usefixtures("no_kernel")
