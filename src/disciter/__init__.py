"""disciter: numerics for holomorphic iteration on the unit disc.

Subpackages by role:

- hypgeo:   disc metric/distance kernels, Julia and distance-lemma
            checks, Euclidean rate brackets
- domains:  the slit plane: Riemann map, membership, segment containment,
            boundary distance, transported hyperbolic distance; horodisc
            tangency ratio
- maps:     the model-map zoo, one chart kernel per charted model, orbit engines
- rates:    divergence/Euclidean rate series, fits, verdicts
- slope:    slope series and tangentiality classification
- semiflow: continuous-time trajectories through the charts
- qgeo:     discrete/continuous quasi-geodesic certification
- harmonic: closed-form arc measure and walk-on-spheres harmonic measure
- opnorm:   composition-operator norm bounds
- cli:      command-line front end and the acceptance suite driver (not
            imported here, so `python -m disciter.cli` runs it only once)
"""

from . import acceptance, domains, harmonic, hypgeo, maps, opnorm, qgeo, rates, semiflow, slope
from .errors import ConfigError, InvalidPointError, UnsupportedModelError

__all__ = [
    "acceptance", "cli", "domains", "harmonic", "hypgeo", "maps", "opnorm",
    "qgeo", "rates", "semiflow", "slope",
    "ConfigError", "InvalidPointError", "UnsupportedModelError",
]

__version__ = "0.1.0"
