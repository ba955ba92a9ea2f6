"""Frequency and time unit conventions.

All internal frequencies are angular, in rad/ns; all times are in ns.
Configuration files and the device table speak ordinary frequencies
(MHz or GHz), so the conversion factor 2*pi*1e-3 (MHz -> rad/ns) shows
up at every input boundary and nowhere else.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

#: multiply an ordinary frequency in MHz by this to get rad/ns
MHZ_TO_RAD_NS = TWO_PI * 1e-3


def rad_ns_from_mhz(frequency_mhz: float) -> float:
    """Convert an ordinary frequency in MHz to an angular one in rad/ns."""
    return MHZ_TO_RAD_NS * frequency_mhz


def mhz_from_rad_ns(angular: float) -> float:
    """Convert an angular frequency in rad/ns back to ordinary MHz."""
    return angular / MHZ_TO_RAD_NS


def rad_ns_from_ghz(frequency_ghz: float) -> float:
    """Convert an ordinary frequency in GHz to an angular one in rad/ns."""
    return TWO_PI * frequency_ghz
