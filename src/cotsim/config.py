"""Architecture and campaign configuration.

The eight FPGA architectures are the combinations of scrubbing (CMS),
partial reconfiguration (DPR), triple modular redundancy (TMR) and the
external watchdog (WD), so an architecture's name fixes its techniques,
its components and its default scrub mode (`ArchConfig.__post_init__`).
Component sizing is fixed per architecture: frame counts set the
injection cross-section of each part of the design, essential-bit counts
set how many of those bits actually break it.  `make_architecture`
overrides only the six calibration values (`CALIBRATION`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

FRAME_BYTES = 404
DPR_BYTES_PER_US = 67  # 67 MB/s reload throughput

SCRUB_MODES = ("replace", "enhanced_repair")
TARGET_MODES = ("utilized_area", "components")

ARCHITECTURES = (
    "No-FT",
    "TMR",
    "DPR",
    "CMS",
    "DPR+TMR",
    "CMS+TMR",
    "CMS+DPR+TMR",
    "CMS+DPR+TMR+WD",
)


def _require_positive(cfg, *keys: str) -> None:
    for key in keys:
        value = getattr(cfg, key)
        if value <= 0:
            raise ValueError(f"{key} must be positive, got {value}")


@dataclass
class ComponentSpec:
    name: str
    frames: int
    essential_bits: int
    reloadable: bool = False  # sits in a reconfigurable region

    def size_bytes(self) -> int:
        return self.frames * FRAME_BYTES


# every component as (name, frames, essential bits, reloadable, the
# technique that brings it, None for every architecture)
PARTS = (
    ("fir_0", 2, 600, True, None),
    ("fir_1", 2, 600, True, "TMR"),
    ("fir_2", 2, 600, True, "TMR"),
    ("voter_in", 1, 100, True, "TMR"),
    ("voter_out", 1, 100, True, "TMR"),
    ("cms_ctrl", 6, 30, False, "CMS"),
    ("dpr_ctrl", 4, 30, False, "DPR"),
    ("wd_link", 1, 8, False, "WD"),
)

# the ArchConfig fields that make_architecture lets a caller override
CALIBRATION = ("scrub_mode", "scan_period_us", "frame_repair_latency_us",
               "dpr_blind_period_us", "wd_timeout_us", "app_down_fraction")


@dataclass
class ArchConfig:
    name: str
    # derived from name
    cms: bool = field(init=False)
    dpr: bool = field(init=False)
    tmr: bool = field(init=False)
    wd: bool = field(init=False)
    components: list[ComponentSpec] = field(init=False)
    scrub_mode: str | None = None  # None: the default for the name
    scan_period_us: int = 100  # per frame
    frame_repair_latency_us: int = 18_000
    dpr_blind_period_us: int = 200_000
    wd_timeout_us: int = 100_000
    app_down_fraction: float = 0.92

    def __post_init__(self):
        if self.name not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.name!r}; "
                             f"choose from {', '.join(ARCHITECTURES)}")
        techniques = set(self.name.split("+"))
        self.cms = "CMS" in techniques
        self.dpr = "DPR" in techniques
        self.tmr = "TMR" in techniques
        self.wd = "WD" in techniques
        self.components = [ComponentSpec(*spec) for *spec, technique in PARTS
                           if technique is None or technique in techniques]
        # WD architectures keep the boot flash free, so the scrubber must
        # repair algorithmically instead of reloading stored data
        if self.scrub_mode is None:
            self.scrub_mode = "enhanced_repair" if self.wd else "replace"
        if self.scrub_mode not in SCRUB_MODES:
            raise ValueError(f"unknown scrub_mode {self.scrub_mode!r}; "
                             f"choose from {', '.join(SCRUB_MODES)}")
        _require_positive(self, "scan_period_us", "dpr_blind_period_us")
        if self.frame_repair_latency_us < 0:
            raise ValueError(f"frame_repair_latency_us must not be negative, "
                             f"got {self.frame_repair_latency_us}")
        if not 0 <= self.app_down_fraction <= 1:
            raise ValueError(f"app_down_fraction must be in [0, 1], "
                             f"got {self.app_down_fraction}")
        # the watchdog checks every wd_timeout_us // 2 microseconds
        if self.wd_timeout_us < 2:
            raise ValueError(f"wd_timeout_us must be at least 2, "
                             f"got {self.wd_timeout_us}")


def make_architecture(name: str, /, **overrides) -> ArchConfig:
    """One of the eight named architectures, with calibration overrides."""
    for key in overrides:
        if key not in CALIBRATION:
            what = (f"ArchConfig field {key!r} is not a calibration value"
                    if key in ArchConfig.__dataclass_fields__
                    else f"unknown ArchConfig field {key!r}")
            raise ValueError(f"{what}; choose from {', '.join(CALIBRATION)}")
    return ArchConfig(name, **overrides)


@dataclass
class CampaignConfig:
    """Schedule of fault events for one run."""

    duration_us: int = 4_000_000
    period_us: int = 4_000
    # "utilized_area": uniform over every configuration bit owned by the
    #   enabled components (essential or not)
    # "components": uniform over the essential bits of target_components
    target_mode: str = "utilized_area"
    target_components: list[str] = field(default_factory=list)
    window_us: int = 4_000  # evaluation window for the functionality timeline

    def __post_init__(self):
        for key in ("duration_us", "period_us", "window_us"):
            # the clock counts whole microseconds
            if type(getattr(self, key)) is not int:
                raise ValueError(f"{key} must be a whole number of "
                                 f"microseconds, got {getattr(self, key)!r}")
        _require_positive(self, "duration_us", "period_us", "window_us")
        if self.duration_us % self.window_us:
            raise ValueError(
                f"duration_us ({self.duration_us}) must be a whole number "
                f"of windows of window_us ({self.window_us})")
        if self.target_mode not in TARGET_MODES:
            raise ValueError(f"unknown target_mode {self.target_mode!r}; "
                             f"choose from {', '.join(TARGET_MODES)}")
        names = self.target_components
        if type(names) is not list or any(type(n) is not str for n in names):
            raise ValueError(f"target_components must be a list of component "
                             f"names, got {names!r}")
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"target_components names {name!r} twice")
        if self.target_mode == "components" and not names:
            raise ValueError("target_mode components needs at least one "
                             "target component")

    def n_events(self) -> int:
        return self.duration_us // self.period_us


def load_campaign(path: str) -> CampaignConfig:
    with open(path) as fh:
        raw = json.load(fh)
    try:
        return CampaignConfig(**raw)
    except TypeError as exc:
        raise ValueError(f"bad campaign spec {path}: {exc}") from exc
