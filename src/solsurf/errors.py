"""Exception hierarchy.

Every failure the library can diagnose maps to one of these classes so that
callers (and the CLI) can distinguish configuration mistakes from numerical
breakdown without parsing messages.
"""

from __future__ import annotations


class SolsurfError(Exception):
    """Base class for all library errors."""


class ConfigError(SolsurfError):
    """Bad run configuration: unknown key, wrong type, inconsistent values."""


class GridError(SolsurfError):
    """Invalid grid construction or a stencil the grid cannot support."""


class ShapeError(SolsurfError):
    """A field array does not match the grid or contract it claims to satisfy."""


class NonFiniteFieldError(SolsurfError):
    """NaN or Inf appeared in a field or an integration stage."""


class SqrtDomainError(SolsurfError):
    """A radicand fell below the clamp slack; the message names its grid index and value."""


class DegenerateFrameError(SolsurfError):
    """|S_x| fell below spin.K_MIN somewhere; the tangent frame is undefined there."""


class GramDriftError(SolsurfError):
    """Transported frame lost orthonormality beyond the allowed tolerance."""


class DegenerateMetricError(SolsurfError):
    """First fundamental form is singular or indefinite where it must not be."""


class MapInconsistentError(SolsurfError):
    """Frame fields and metric roots disagree beyond tolerance in a change of variables."""
