"""Website-access workload (the WFA victim).

The paper's attacker fingerprints accesses to 45 of the Alexa top-50
sites loaded in Chrome inside the victim VM. Here each site gets a
deterministic *load signature*: a sequence of browser phases (network
wait, HTML parse, JS execution, style/layout, paint, post-load activity)
whose durations and intensities are derived from the site name, plus a
run-to-run jitter model. Heavy JS sites look nothing like static pages,
ad-laden portals keep background activity going after load — the same
structural differences that make real site loads distinguishable in HPC
traces.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

import numpy as np

from repro.workloads.base import InstructionMix, Phase, PhaseProgram, Workload

#: 45 targets, Alexa-top-50 style (5 "blocked" sites excluded), as in
#: the paper's WFA setup.
ALEXA_SITES: tuple[str, ...] = (
    "google.com", "youtube.com", "facebook.com", "twitter.com",
    "instagram.com", "baidu.com", "wikipedia.org", "yandex.ru",
    "yahoo.com", "whatsapp.com", "amazon.com", "live.com", "netflix.com",
    "reddit.com", "office.com", "tiktok.com", "linkedin.com", "vk.com",
    "discord.com", "twitch.tv", "bing.com", "naver.com", "microsoft.com",
    "mail.ru", "duckduckgo.com", "pinterest.com", "ebay.com", "qq.com",
    "taobao.com", "apple.com", "aliexpress.com", "bilibili.com",
    "stackoverflow.com", "github.com", "paypal.com", "imdb.com",
    "fandom.com", "etsy.com", "nytimes.com", "cnn.com", "bbc.co.uk",
    "espn.com", "booking.com", "walmart.com", "zoom.us",
)

#: Browser phase mixes: rates chosen so JS execution is compute/branch
#: heavy, parsing is load/branch heavy, layout/paint lean on SIMD
#: (rasterization) and streaming memory.
_NETWORK_WAIT = InstructionMix(ips=3e7, load_ratio=0.2, branch_ratio=0.22,
                               l1d_miss_ratio=0.01)
_HTML_PARSE = InstructionMix(ips=1.3e9, load_ratio=0.33, store_ratio=0.12,
                             branch_ratio=0.24, branch_miss_ratio=0.035,
                             l1d_miss_ratio=0.02)
_JS_EXEC = InstructionMix(ips=2.2e9, load_ratio=0.28, store_ratio=0.14,
                          branch_ratio=0.21, branch_miss_ratio=0.05,
                          l1d_miss_ratio=0.015, call_ratio=0.03,
                          stack_ratio=0.08, mul_ratio=0.02)
_LAYOUT = InstructionMix(ips=1.6e9, load_ratio=0.35, store_ratio=0.18,
                         l1d_miss_ratio=0.04, llc_miss_ratio=0.35,
                         simd_ratio=0.06, fp_ratio=0.04)
_PAINT = InstructionMix(ips=1.9e9, load_ratio=0.38, store_ratio=0.26,
                        l1d_miss_ratio=0.06, llc_miss_ratio=0.5,
                        simd_ratio=0.18, prefetch_ratio=0.01)
_MEDIA_DECODE = InstructionMix(ips=2.6e9, load_ratio=0.3, store_ratio=0.2,
                               simd_ratio=0.3, l1d_miss_ratio=0.05,
                               llc_miss_ratio=0.55, mul_ratio=0.03)
_POST_LOAD = InstructionMix(ips=4e8, load_ratio=0.26, branch_ratio=0.2,
                            l1d_miss_ratio=0.02, simd_ratio=0.02)


def _site_params(site: str) -> np.random.Generator:
    """Deterministic per-site parameter stream from the site name."""
    return np.random.default_rng(zlib.crc32(site.encode("utf-8")))


class WebsiteWorkload(Workload):
    """Loads one of 45 websites inside the guest browser.

    Parameters
    ----------
    sites:
        Override the default Alexa-style target list.
    """

    def __init__(self, sites: tuple[str, ...] = ALEXA_SITES) -> None:
        if not sites:
            raise ValueError("sites must be non-empty")
        self._sites = list(sites)
        # Built on first use: a run touches few of the 45 sites.
        self._signatures: dict[str, list[Phase]] = {}

    @property
    def secrets(self) -> list:
        return list(self._sites)

    #: Canonical browser phase skeleton shared by every site: (name,
    #: mix, nominal duration). Sites modulate amplitudes and durations
    #: around this skeleton by ~+-15% — the regime where the attack
    #: works (site differences dwarf run-to-run jitter) yet a defender's
    #: noise of a few percent of peak suffices, matching the paper's
    #: overhead numbers.
    _SKELETON: tuple[tuple[str, InstructionMix, float], ...] = (
        ("network", _NETWORK_WAIT, 0.25),
        ("parse", _HTML_PARSE, 0.12),
        ("js", _JS_EXEC, 0.55),
        ("layout", _LAYOUT, 0.12),
        ("paint", _PAINT, 0.10),
        ("media", _MEDIA_DECODE, 0.30),
        ("post", _POST_LOAD, 1.00),
    )

    #: Per-site modulation ranges around the skeleton. All sites share
    #: the canonical phase timing; a site's fingerprint is (a) how much
    #: work each phase does (amplitude, +-6%) and (b) the instruction
    #: *mix* of that work (load/store/branch/SIMD/FP shares, +-10-15%).
    #: Keeping the amplitude spread at a few percent of peak keeps the
    #: DP sensitivity — and therefore the defense's injected-noise
    #: volume — in the regime the paper's overhead numbers imply, while
    #: the many mix dimensions (7 phases x several ratios) keep 45
    #: sites separable for the attacker.
    _AMPLITUDE_SPREAD = 0.06
    _MIX_SPREAD = 0.10
    _UNIT_SPREAD = 0.15  # SIMD/FP/MUL unit usage varies more
    #: Run-to-run jitter (small relative to site differences).
    _RUN_DURATION_JITTER = 0.02
    _RUN_INTENSITY_JITTER = 0.012

    @classmethod
    def _modulate_mix(cls, mix: InstructionMix,
                      p: np.random.Generator) -> InstructionMix:
        """Site-specific variant of a phase mix."""

        def wobble(spread: float) -> float:
            return 1.0 + spread * (2 * p.random() - 1)

        return replace(
            mix,
            ips=mix.ips * wobble(cls._AMPLITUDE_SPREAD),
            load_ratio=mix.load_ratio * wobble(cls._MIX_SPREAD),
            store_ratio=mix.store_ratio * wobble(cls._MIX_SPREAD),
            branch_ratio=mix.branch_ratio * wobble(cls._MIX_SPREAD),
            simd_ratio=mix.simd_ratio * wobble(cls._UNIT_SPREAD),
            fp_ratio=mix.fp_ratio * wobble(cls._UNIT_SPREAD),
            mul_ratio=mix.mul_ratio * wobble(cls._UNIT_SPREAD),
            bit_ratio=mix.bit_ratio * wobble(cls._MIX_SPREAD),
            l1d_miss_ratio=mix.l1d_miss_ratio * wobble(0.05),
            branch_miss_ratio=mix.branch_miss_ratio * wobble(0.05),
        )

    @classmethod
    def _signature(cls, site: str) -> list[Phase]:
        """Build the site's nominal phase list (deterministic)."""
        p = _site_params(site)
        phases = []
        for name, mix, duration in cls._SKELETON:
            phases.append(Phase(
                name, cls._modulate_mix(mix, p), duration,
                duration_jitter=cls._RUN_DURATION_JITTER,
                intensity_jitter=cls._RUN_INTENSITY_JITTER))
        return phases

    def program_for(self, secret: str, rng: np.random.Generator) -> PhaseProgram:
        if secret not in self._signatures:
            if secret not in self._sites:
                raise ValueError(f"unknown site {secret!r}")
            self._signatures[secret] = self._signature(secret)
        return PhaseProgram(phases=list(self._signatures[secret]))
