import warnings

import numpy as np
import pytest

# hypothesis imports this module to write a patch for a falsified example.
# With libcst installed, that import raises mypy_extensions' TypedDict
# DeprecationWarning, which `filterwarnings = ["error"]` turns into an
# INTERNALERROR that aborts the session in place of the failure report.
# Importing it once here, with only that warning ignored, caches it.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # no libcst
        pass

from spindrift import packets


@pytest.fixture(scope="session")
def reference_packet():
    """The standard verification packet: p0 = 0.6m zhat, transverse spin."""
    return packets.make_gaussian_packet(
        p0=(0.0, 0.0, 0.6), widths=0.01, spin_direction=(1.0, 0.0, 0.0),
        m=1.0, grid_points=32)


@pytest.fixture(scope="session")
def fast_packet():
    """Smaller, wider packet for cheap relation checks."""
    return packets.make_gaussian_packet(
        p0=(0.0, 0.0, 0.6), widths=0.02, spin_direction=(1.0, 0.0, 0.0),
        m=1.0, grid_points=24)


def rotation_matrix(axis, angle):
    """Rodrigues rotation about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return (np.eye(3) + np.sin(angle) * k
            + (1.0 - np.cos(angle)) * (k @ k))
