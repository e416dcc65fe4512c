"""Architecture and campaign configuration.

The eight FPGA architectures are the combinations of scrubbing (CMS),
partial reconfiguration (DPR), triple modular redundancy (TMR) and the
external watchdog (WD).  Component sizing defaults are calibration
values: frame counts set the injection cross-section of each part of the
design, essential-bit counts set how many of those bits actually break
it.  Both are exposed here rather than hardcoded in the models.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

FRAME_BYTES = 404
DPR_BYTES_PER_US = 67  # 67 MB/s reload throughput

SCRUB_MODES = ("replace", "enhanced_repair")

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
    region_bytes: int | None = None  # defaults to frames * FRAME_BYTES

    def size_bytes(self) -> int:
        return self.region_bytes if self.region_bytes is not None \
            else self.frames * FRAME_BYTES


@dataclass
class ArchConfig:
    name: str
    cms: bool = False
    dpr: bool = False
    tmr: bool = False
    wd: bool = False
    components: list[ComponentSpec] = field(default_factory=list)
    scrub_mode: str = "replace"  # "replace" | "enhanced_repair"
    scan_period_us: int = 100  # per frame
    frame_repair_latency_us: int = 18_000
    dpr_blind_period_us: int = 200_000
    wd_timeout_us: int = 100_000
    app_down_fraction: float = 0.92
    fir_coeffs: tuple = (1, 2, 3, 2, 1)
    window_samples: int = 32

    def __post_init__(self):
        if self.scrub_mode not in SCRUB_MODES:
            raise ValueError(f"unknown scrub_mode {self.scrub_mode!r}; "
                             f"choose from {', '.join(SCRUB_MODES)}")
        _require_positive(self, "scan_period_us", "dpr_blind_period_us",
                          "window_samples")
        if len(self.fir_coeffs) == 0:
            raise ValueError("fir_coeffs must not be empty")
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


def _default_components(tmr: bool, cms: bool, dpr: bool, wd: bool,
                        ) -> list[ComponentSpec]:
    comps = []
    n_fir = 3 if tmr else 1
    for i in range(n_fir):
        comps.append(ComponentSpec(f"fir_{i}", frames=2, essential_bits=600,
                                   reloadable=True))
    if tmr:
        comps.append(ComponentSpec("voter_in", frames=1, essential_bits=100,
                                   reloadable=True))
        comps.append(ComponentSpec("voter_out", frames=1, essential_bits=100,
                                   reloadable=True))
    if cms:
        comps.append(ComponentSpec("cms_ctrl", frames=6, essential_bits=30))
    if dpr:
        comps.append(ComponentSpec("dpr_ctrl", frames=4, essential_bits=30))
    if wd:
        comps.append(ComponentSpec("wd_link", frames=1, essential_bits=8))
    return comps


def make_architecture(name: str, **overrides) -> ArchConfig:
    """Build one of the eight named architectures (or a custom variant)."""
    if name not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {name!r}; "
                         f"choose from {', '.join(ARCHITECTURES)}")
    techniques = set(name.split("+")) if name != "No-FT" else set()
    cms = "CMS" in techniques
    dpr = "DPR" in techniques
    tmr = "TMR" in techniques
    wd = "WD" in techniques
    values = dict(name=name, cms=cms, dpr=dpr, tmr=tmr, wd=wd,
                  components=_default_components(tmr, cms, dpr, wd))
    # WD architectures keep the boot flash free, so the scrubber must
    # repair algorithmically instead of reloading stored data
    if wd:
        values["scrub_mode"] = "enhanced_repair"
    for key in overrides:
        if key not in ArchConfig.__dataclass_fields__:
            raise ValueError(f"unknown ArchConfig field {key!r}")
    return ArchConfig(**{**values, **overrides})


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

    def n_events(self) -> int:
        return self.duration_us // self.period_us


def load_campaign(path: str) -> CampaignConfig:
    with open(path) as fh:
        raw = json.load(fh)
    try:
        return CampaignConfig(**raw)
    except TypeError as exc:
        raise ValueError(f"bad campaign spec {path}: {exc}") from exc


def save_campaign(cfg: CampaignConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
