"""Exact combinatorics of rational (a,b)-Dyck paths.

Paths, simultaneous cores, the zeta and eta maps by four constructions,
pair-based and chain-based inverses, and exhaustive desk-scale checkers
for the q,t-enumeration conjectures.  Everything is pure, immutable, and
integer-exact.

Each module declares its public names in its own ``__all__``, and the
package re-exports them; of the errors, only the base class is here.
"""

from .bounce import *
from .cores import *
from .errors import DyckError
from .inverse import *
from .maps import *
from .paths import *
from .render import *
from .stats import *
from .verification import *

__version__ = "0.1.0"
