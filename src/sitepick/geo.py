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
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Vectorized haversine distance; broadcasts like numpy ufuncs.

    The result is written into `out` when it is given, a float64 array of
    the broadcast shape (a view of a larger matrix will do), and returned.
    Beyond it the call allocates one scratch array of that shape, `term`,
    and the cosines of the latitudes, whatever the shape. `term` holds
    cos(lat1) cos(lat2) sin^2(dlon/2), then sqrt(1 - h); every other name
    below is `out` at one step. Each step runs in place on the operands of
    h = sin^2(dlat/2) + cos(lat1) cos(lat2) sin^2(dlon/2), in that order,
    so every entry has the bits the formula's plain numpy expression gives.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(*map(np.shape, (lat1, lon1, lat2, lon2))))
    term = np.multiply(np.cos(lat1), np.cos(lat2), out=np.empty_like(out))
    sin_dlon = np.sin(np.multiply(np.subtract(lon2, lon1, out=out), 0.5, out=out), out=out)
    np.multiply(np.multiply(term, sin_dlon, out=term), sin_dlon, out=term)
    sin_dlat = np.sin(np.multiply(np.subtract(lat2, lat1, out=out), 0.5, out=out), out=out)
    h = np.add(np.multiply(sin_dlat, sin_dlat, out=out), term, out=out)
    np.clip(h, 0.0, 1.0, out=h)
    root_1_h = np.sqrt(np.subtract(1.0, h, out=term), out=term)
    np.arctan2(np.sqrt(h, out=h), root_1_h, out=out)
    np.multiply(out, 2.0 * radius_km, out=out)
    return out if out.ndim else out[()]  # a float for scalar points, as a ufunc gives


def coords_array(points: "list[GeoPoint] | tuple[GeoPoint, ...]") -> np.ndarray:
    """(n, 2) float array of [lat, lon] radians for a sequence of points."""
    return np.array([(p.lat, p.lon) for p in points], dtype=np.float64).reshape(-1, 2)
