"""The kernel tests, run again on the fallbacks: the RLE hybrid and
DELTA_BINARY_PACKED oracle tests on the numpy bodies, the byte-array
layout and malformed-offsets tests on Arrow's ``drop_null`` and the
Arrow join (the slots' check runs before either), the counts of a
chunk's checks and compactions, the dictionary tests on Arrow's
``count_distinct`` and ``dictionary_encode``, and the statistics
oracle on ``pc.min_max`` where the kernel's page bounds are missing. The modules
below run on the compiled kernel wherever a C compiler works; collected
here, the same test functions run with the kernel disabled, so both
paths are held to the same oracles."""
from __future__ import annotations

import pytest

from test_arrays import *  # noqa: F401,F403
from test_chunk_view import *  # noqa: F401,F403
from test_delta_kernels import *  # noqa: F401,F403
from test_dict_kernel import *  # noqa: F401,F403
from test_layout_kernels import *  # noqa: F401,F403
from test_malformed_offsets import *  # noqa: F401,F403
from test_plain_kernels import *  # noqa: F401,F403
from test_rle_kernels import *  # noqa: F401,F403
from test_stats_kernels import *  # noqa: F401,F403

pytestmark = pytest.mark.usefixtures("no_kernel")
