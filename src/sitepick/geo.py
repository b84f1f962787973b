"""Spherical-Earth geometry: coordinate conversions and great-circle distance.

All angles are stored in radians, latitude in [-pi/2, pi/2] and longitude
in (-pi, pi]. Distances are in kilometres on a sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class GeoPoint:
    """A point on the unit sphere: latitude and longitude in radians."""

    lat: float
    lon: float


# Smallest and largest sphere radius accepted, in km. Distances are at most
# pi * radius, so their squares stay below 1e201 and k-means++ can sum them
# over any survey (fewer than 1e107 points) without overflow. At the smallest
# radius a distance of angle theta squares to 1e-200 * theta**2, a normal
# float for any two points at least 1e-53 rad apart. Far outside the range
# the squares overflow to inf or underflow to subnormals and zero, and
# seeding draws and Dunn scores change without any error.
EARTH_RADIUS_RANGE_KM = (1e-100, 1e100)


@dataclass(frozen=True)
class EarthModel:
    """Spherical Earth with a radius in kilometres within EARTH_RADIUS_RANGE_KM."""

    radius_km: float = 6371.0

    def __post_init__(self) -> None:
        low, high = EARTH_RADIUS_RANGE_KM
        if not low <= self.radius_km <= high:
            raise ValidationError(
                f"earth radius must lie in [{low:g}, {high:g}] km, got {self.radius_km}"
            )


EARTH = EarthModel()


def from_degrees(lat_deg: float, lon_deg: float) -> GeoPoint:
    """Build a GeoPoint from degree coordinates.

    Latitude outside [-90, 90] is rejected; longitude is normalized into
    (-180, 180] before conversion, so any finite value is accepted.
    """
    if not math.isfinite(lat_deg) or abs(lat_deg) > 90.0:
        raise ValidationError(f"latitude must be a finite value in [-90, 90], got {lat_deg}")
    if not math.isfinite(lon_deg):
        raise ValidationError(f"longitude must be finite, got {lon_deg}")
    lat = math.radians(lat_deg)
    # IEEE remainder is exact and leaves in-range longitudes untouched; it
    # returns values in [-pi, pi], so fold the open end onto +pi.
    lon = math.remainder(math.radians(lon_deg), math.tau)
    if lon == -math.pi:
        lon = math.pi
    return GeoPoint(lat, lon)


def haversine(a: GeoPoint, b: GeoPoint, earth: EarthModel = EARTH) -> float:
    """Great-circle distance in km between two points on a spherical Earth.

    The half-chord term is clamped into [0, 1] before the square roots so
    floating-point excursions near coincident or antipodal points cannot
    produce NaNs; atan2 keeps the antipodal case finite.
    """
    sin_dlat = math.sin(0.5 * (b.lat - a.lat))
    sin_dlon = math.sin(0.5 * (b.lon - a.lon))
    h = sin_dlat * sin_dlat + math.cos(a.lat) * math.cos(b.lat) * sin_dlon * sin_dlon
    h = min(1.0, max(0.0, h))
    return 2.0 * earth.radius_km * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))


def haversine_km(
    lat1: np.ndarray | float,
    lon1: np.ndarray | float,
    lat2: np.ndarray | float,
    lon2: np.ndarray | float,
    radius_km: float = EARTH.radius_km,
) -> np.ndarray:
    """Vectorized haversine distance; broadcasts like numpy ufuncs."""
    sin_dlat = np.sin(0.5 * (np.asarray(lat2) - np.asarray(lat1)))
    sin_dlon = np.sin(0.5 * (np.asarray(lon2) - np.asarray(lon1)))
    h = sin_dlat * sin_dlat + np.cos(lat1) * np.cos(lat2) * sin_dlon * sin_dlon
    h = np.clip(h, 0.0, 1.0)
    return 2.0 * radius_km * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))


def coords_array(points: "list[GeoPoint] | tuple[GeoPoint, ...]") -> np.ndarray:
    """(n, 2) float array of [lat, lon] radians for a sequence of points."""
    return np.array([(p.lat, p.lon) for p in points], dtype=np.float64).reshape(-1, 2)
