"""Suite-wide hypothesis settings: derandomized and without an example database,
so every run draws the same examples.

Hypothesis also caches the constants it harvests from local source files under
its storage directory, whatever the database setting.  That directory is moved
to a temporary one removed at exit, so a run leaves no ``.hypothesis/`` behind.
"""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("default", derandomize=True, database=None, deadline=None)
settings.load_profile("default")

_storage = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, _storage, ignore_errors=True)
set_hypothesis_home_dir(_storage)
