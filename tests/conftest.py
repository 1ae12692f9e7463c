import pytest

from risjrc.channels import ScenarioConfig
from risjrc.codebook import build_codebook

from reference import build_matched_codebook


def desk_cfg(
    power_dbm: float = 42.0,
    n_ris: int = 1024,
    grid_size: int = 16,
    **overrides,
) -> ScenarioConfig:
    """Workstation-scale scenario used across the suite."""
    kwargs = dict(
        n_ris=n_ris,
        grid_size=grid_size,
        power=power_dbm,
        power_units="dBm",
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def tiny_cfg(power_dbm: float = 42.0, **overrides) -> ScenarioConfig:
    """Smallest scenario where every matrix is cheap to materialize."""
    return desk_cfg(power_dbm, n_ris=16, grid_size=8, **overrides)


@pytest.fixture(scope="session")
def desk_codebook():
    """Designed codebook at the 32x32-RIS, D=16 desk scale."""
    return build_codebook(desk_cfg(), seed=0)


@pytest.fixture(scope="session")
def five_stage_codebook():
    """Designed codebook for the D=32 grid with the (4,8,16,16,16) split."""
    cfg = desk_cfg(grid_size=32)
    return build_codebook(cfg, schedule=(4, 8, 16, 16, 16), seed=0)


@pytest.fixture(scope="session")
def oracle_codebook_16():
    """Full-aperture matched codebook, D=16, 16x16 RIS."""
    return build_matched_codebook(desk_cfg(n_ris=256, grid_size=16))
