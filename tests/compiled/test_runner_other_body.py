"""``test_runner.py``'s wall, on the kernel body the loading CPU did
not pick (``conftest.py``)."""

import pytest

from tests.compiled.test_runner import *  # noqa: F401, F403

pytestmark = [pytest.mark.compiled, pytest.mark.usefixtures("other_body")]
